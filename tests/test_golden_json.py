"""Golden guard: `to_json()` of a seeded corpus of tower elements stays
byte for byte what it was when the corpus was pinned.

The corpus holds tower products, `inv()` results and `roots.pth_root`
witnesses over the K2, P3 and K3 towers in characteristics 0 and 2.
The pinned documents are in `golden_to_json.json` next to this file;
regenerate them (only on purpose) with

    PYTHONPATH=src python tests/test_golden_json.py
"""
import json
import random
from pathlib import Path

import pytest

from graphfield import roots
from graphfield.fieldtower import (
    build_tower,
    random_nonzero_element,
    random_single_level_element,
    random_structured_monomial,
)
from graphfield.graphs import Graph, greedy_star_coloring

GOLDEN = Path(__file__).resolve().parent / "golden_to_json.json"

TOWERS = {
    "K2": (["s", "t"], [("s", "t")]),
    "P3": (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "K3": (["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
}


def corpus(char: int) -> dict:
    """{case name: to_json() document} for one characteristic."""
    out = {}
    for name, (vs, es) in TOWERS.items():
        ctx = build_tower(greedy_star_coloring(Graph(vs, es)), char=char)
        rng = random.Random(f"golden:{char}:{name}")
        for i in range(3):
            a = random_nonzero_element(ctx, rng, max_terms=2)
            b = random_nonzero_element(ctx, rng, max_terms=2)
            out[f"{name}:product:{i}"] = (a * b).to_json()
        for i in range(2):
            if name == "K2":
                a = random_nonzero_element(ctx, rng, max_terms=2)
            else:
                a = random_single_level_element(ctx, rng)
            out[f"{name}:inverse:{i}"] = a.inv().to_json()
        for p in sorted({ctx.chain_prime} | {g.prime for g in ctx.gens})[:2]:
            for i in range(2):
                b = random_structured_monomial(ctx, rng, p=p)
                r = roots.pth_root(b**p, p)
                out[f"{name}:root{p}:{i}"] = r.to_json()
    return out


@pytest.mark.parametrize("char", [0, 2])
def test_to_json_golden(char):
    pinned = json.loads(GOLDEN.read_text())[str(char)]
    got = corpus(char)
    assert list(got) == list(pinned)
    for case, doc in got.items():
        assert json.dumps(doc) == json.dumps(pinned[case]), case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({str(c): corpus(c) for c in (0, 2)}, indent=0) + "\n")
