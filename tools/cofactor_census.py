"""Count `Poly.cofactors` calls by the path that answered them, over one
block of a tower workload.

    python3 tools/cofactor_census.py --checkout . --workload tower-char2 --seed 700

Builds the operation list as `perfbench/run.py` does for one block (seed
"<workload>:<seed>"), imports graphfield from the checkout's src/, runs
the warm-up list, then runs the block once with `Poly.cofactors` and the
functions it calls wrapped.  Each call counts under one path:

* `backend`: the gcd backend `int_gcd` ran, split by a coprime or a
  nontrivial answer, with the backend's seconds;
* `trial_division`: a division ran and the backend did not;
* `zero_or_constant`: neither ran.

Prints one JSON object.  The block's seconds include the wrappers' cost.
Uses the standard library only.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path("."))
    ap.add_argument("--workload", required=True, choices=("tower-char0", "tower-char2"))
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args()
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import graphfield as gf
    from graphfield import polynomials
    from towers import TowerWorkload

    workload = TowerWorkload(char=0 if args.workload == "tower-char0" else 2, block_seconds=1.0)
    ops, warm = workload.build(gf, f"{args.workload}:{args.seed}", 1)
    for op in warm:
        op.run()

    counts = {"calls": 0, "zero_or_constant": 0, "trial_division": 0,
              "backend_coprime": 0, "backend_nontrivial": 0}
    seconds = {"backend_coprime_s": 0.0, "backend_nontrivial_s": 0.0}
    seen = {"division": False, "backend": False}
    backend_s = [0.0]  # the backend's seconds in the current call

    depth = [0]

    def wrap(fn, flag, timed=False):
        def wrapper(*a, **k):
            seen[flag] = True
            if not timed or depth[0]:
                return fn(*a, **k)  # a recursive backend call is timed by its caller
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                backend_s[0] += time.perf_counter() - start
                depth[0] -= 1
        return wrapper

    polynomials._divide_terms = wrap(polynomials._divide_terms, "division")
    polynomials.int_gcd = wrap(polynomials.int_gcd, "backend", timed=True)
    cofactors = polynomials.Poly.cofactors

    def counted(self, other):
        seen["division"] = seen["backend"] = False
        backend_s[0] = 0.0
        out = cofactors(self, other)
        counts["calls"] += 1
        if seen["backend"]:
            path = "backend_coprime" if out[0].is_one() else "backend_nontrivial"
            counts[path] += 1
            seconds[path + "_s"] += backend_s[0]
        else:
            counts["trial_division" if seen["division"] else "zero_or_constant"] += 1
        return out

    polynomials.Poly.cofactors = counted
    start = time.perf_counter()
    for op in ops:
        op.run()
    block_s = time.perf_counter() - start
    print(json.dumps({"checkout": str(root), "workload": args.workload, "seed": args.seed,
                      "operations": len(ops), **counts,
                      **{k: round(v, 4) for k, v in seconds.items()},
                      "block_s": round(block_s, 4)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
