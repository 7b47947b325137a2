"""graphfield benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload tower-char0 --seed 1 --seconds 16 --trace 0

Imports graphfield from the checkout's src/ and runs a fixed, seeded
list of operations through its public API, ROUNDS times over.  Only the
calls into the program are timed; every answer is checked afterwards,
untimed.  The list is made of whole blocks, about --seconds long in all
on the machine described in perfbench/README.md; the number of blocks
depends only on --seconds, never on how fast the operations run.
Durations are scaled to a reference machine speed (see speed.py).

Set-up (import, building towers, graphs and groups, drawing the inputs,
and a warm-up on another seed) is repeated SETUP_REPEATS times from a
fresh import; setup_s is the median.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same
rounds, then wraps the package's entry points (see layers.py), runs the
list once more and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is the result object; a
copy, with per-kind counts and times, goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import ALL_ENTRIES, SETUP_ENTRIES, Tracer
from speed import Speed, current_scale
from symmetry import SymmetryWorkload
from towers import TowerWorkload

# block_seconds: one round of a block at reference speed (about its
# measured length); it only turns --seconds into a block count
WORKLOADS = {
    "tower-char0": TowerWorkload(char=0, block_seconds=5.0),
    "tower-char2": TowerWorkload(char=2, block_seconds=1.3),
    "symmetry": SymmetryWorkload(),
}
SETUP_REPEATS = 3
ROUNDS = 4
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def import_graphfield():
    """A fresh import of the package from src/, and its duration."""
    for name in [m for m in sys.modules if m == "graphfield" or m.startswith("graphfield.")]:
        del sys.modules[name]
    start = time.perf_counter()
    gf = importlib.import_module("graphfield")
    elapsed = time.perf_counter() - start
    if Path(gf.__file__).resolve().parent != ROOT / "src" / "graphfield":
        raise SystemExit(f"graphfield was imported from {gf.__file__}, not from src/")
    return gf, elapsed


def set_up(workload, seed: str, blocks: int):
    """Import, build and warm up once.  Returns the operations, the set-up
    and import durations at reference speed, and the raw set-up duration."""
    scale_before = current_scale()
    start = time.perf_counter()
    gf, import_s = import_graphfield()
    ops, warm = workload.build(gf, seed, blocks)
    for op in warm:
        try:
            op.run()
        except Exception:
            pass  # the warm-up only fills caches; the timed run reports failures
    gc.collect()
    setup_s = time.perf_counter() - start
    scale = (scale_before + current_scale()) / 2
    return gf, ops, setup_s * scale, import_s * scale, setup_s


def run_ops(ops, rounds: int, tracer=None):
    """Runs the list `rounds` times.  Each operation is timed alone and its
    answer checked afterwards, untimed.  Its latency is the median over
    the rounds of its durations at reference speed (see speed.py)."""
    clock = time.perf_counter
    speed = Speed()
    raw = [[] for _ in ops]
    ok = [True] * len(ops)
    kinds, wrong = {}, 0
    for r in range(rounds):
        for i, op in enumerate(ops):
            counts = kinds.setdefault(op.kind, {"attempted": 0, "failed": 0, "wrong": 0})
            counts["attempted"] += 1
            speed.maybe_sample(r * len(ops) + i)
            if tracer is not None:
                tracer.factor = speed.scale(r * len(ops) + i)
                tracer.recording = ALL_ENTRIES
            start = clock()
            try:
                out = op.run()
                failed = False
            except Exception:
                failed = True
            raw[i].append(clock() - start)
            if tracer is not None:
                tracer.recording = frozenset()
            if failed:
                counts["failed"] += 1
                ok[i] = False
            elif not op.check(out):
                counts["wrong"] += 1
                ok[i] = False
                wrong += 1
    speed.sample(rounds * len(ops))
    latencies = [statistics.median(t * speed.scale(r * len(ops) + i) for r, t in enumerate(ts))
                 for i, ts in enumerate(raw)]
    for op, t in zip(ops, latencies):
        kinds[op.kind]["timed_s"] = kinds[op.kind].get("timed_s", 0.0) + t
    return {"timed_s": sum(latencies), "answered": [t for t, good in zip(latencies, ok) if good],
            "latencies": sorted((t, op.kind) for op, t in zip(ops, latencies)),
            "raw_timed_s": sum(statistics.median(ts) for ts in raw),
            "kinds": kinds, "correct": wrong == 0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "graphfield" / "__init__.py").is_file():
        print(f"no graphfield package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    blocks = max(1, round(args.seconds / (ROUNDS * workload.block_seconds)))
    seed = f"{args.workload}:{args.seed}"

    setups, imports, raw_setups = [], [], []
    for _ in range(SETUP_REPEATS):
        gf, ops, setup_s, import_s, raw_setup_s = set_up(workload, seed, blocks)
        setups.append(setup_s)
        imports.append(import_s)
        raw_setups.append(raw_setup_s)

    run = run_ops(ops, ROUNDS)
    result = {"correct": run["correct"],
              "attempted": sum(k["attempted"] for k in run["kinds"].values()),
              "failed": sum(k["failed"] for k in run["kinds"].values())}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.factor = current_scale()
        tracer.recording = SETUP_ENTRIES
        workload.setup_calls(gf)
        tracer.recording = frozenset()
        traced = run_ops(ops, 1, tracer)
        metrics = tracer.metrics(statistics.median(imports))
        metrics["trace.overhead"] = {"value": traced["timed_s"] / run["timed_s"], "unit": "ratio"}
        result["correct"] = result["correct"] and traced["correct"]
    else:
        answered = run["answered"]
        deciles = statistics.quantiles(answered, n=10)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(answered) / run["timed_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(answered) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    result["metrics"] = metrics

    for kind, counts in sorted(run["kinds"].items()):
        print(f"{kind}: attempted {counts['attempted']}, failed {counts['failed']}, "
              f"wrong {counts['wrong']}")
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, blocks=blocks,
                  timed_s=run["timed_s"], raw_timed_s=run["raw_timed_s"], setups_s=setups,
                  raw_setups_s=raw_setups, kinds=run["kinds"], latencies=run["latencies"])
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
