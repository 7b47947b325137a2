"""graphfield: exact computational algebra for the chain
finite structure -> graph -> star-colored graph -> radical tower field
with the same automorphism group, plus the finite-group tower engines
used to move normalizer towers into automorphism towers.
"""

from .coeffs import CoeffField
from .errors import (
    BadPrime,
    BudgetExceeded,
    ColorViolation,
    DepthExceeded,
    Disconnected,
    GraphFieldError,
    InvalidInput,
    NotAnAction,
    NotCenterless,
    NotFromTransform,
    NotPrimePower,
    NotSubgroup,
    ProfileNotLarger,
    ProfileNotSmaller,
    SingularMultiplication,
    SpecInvalid,
    TooLarge,
    UnknownResult,
    ZeroInput,
)
from .fieldtower import (
    RadicalSpec,
    TowerContext,
    TowerElement,
    build_tower,
    check_irreducible_radical,
    choose_primes,
    edge_label,
    embed,
    field_norm,
    generator_edge,
    generator_vertex,
    primality_smoke,
    radical_extend,
)
from .graphs import (
    ColoredGraph,
    FiniteStructure,
    Graph,
    GraphAut,
    aut_graph,
    cayley_structure,
    check_star_coloring,
    code_structure,
    connected_graphs_up_to_iso,
    gadget,
    graph_auts,
    graph_from_json,
    graph_to_json,
    greedy_star_coloring,
    lift_aut,
    restrict_aut,
    transform,
)
from .groups import (
    Perm,
    PermGroup,
    TowerReport,
    aut_group,
    automorphism_tower,
    center,
    centralizer,
    closure,
    conjugacy_classes,
    is_simple,
    normalizer,
    normalizer_tower,
    pgammal2,
    pgl2,
    psl2,
    semidirect,
    verify_semidirect_tower,
    verify_simple_tower,
    verify_van_der_waerden,
)
from .polynomials import Poly
from .ratfunc import RatFunc
from .roots import (
    PHighForm,
    RootResult,
    ValuationPlace,
    classify_p_high,
    g_adic_valuation,
    is_p_high,
    pth_root,
    q_high_descends,
    specialization_refute,
    valuation_vector,
)
from .autfield import (
    Code,
    FieldAut,
    apply,
    encode_element,
    minimal_support,
    sigma,
    verify_edge_image,
    verify_injectivity_sigma,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
