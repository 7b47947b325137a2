"""Alternating parent/change benchmark pairs, summarised as a BENCH file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads tower-char0 tower-char2 symmetry --seeds 801-810 \\
        --durations test_criterion_03_field_construction --out BENCH_8.json

Runs `perfbench/run.py` in each checkout, one process at a time, for the
`run_seconds` that BENCHMARK.json fixes; the metrics and bounds come from
the parent's BENCHMARK.json, and the script refuses to run when the
change's copy differs.  Pair i (one per seed) runs the parent first when
i is even and the change first when i is odd; the workloads take turns
within each pair.  For every end-to-end metric it writes the medians and
quartiles of both sides, the pairs the change won and a verdict (see
VERDICT_RULE).  TRACE_RUNS traced runs per side and workload at
TRACE_SEED, the sides alternating, add the calls and the median self
time of every layer that the parent's BENCHMARK.json lists with a
`<layer>.calls` or `<layer>.self_s` metric; the script stops when a
layer's calls differ between the traced runs of one side, since the
operation list is fixed by the seed.  Each
checkout's test suite then runs once (the parent first) under `pytest
--durations=0`, and the total and the tests named in --durations are
recorded.  Uses the standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TRACE_SEED = 700
TRACE_RUNS = 3  # one traced run's self times move by up to 40 % on layers a change does not touch
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over the runs of one side"
VERDICT_RULE = (
    "improved: the change fails no larger share of operations than the parent, is better "
    "in at least 9 of 10 pairs (the same share of other counts, rounded up) and the "
    "medians differ by more than the parent's interquartile range; regressed: the change's "
    "median is worse than the parent's by more than the BENCHMARK.json bound; unresolved: "
    "the parent's interquartile range over its median exceeds the bound and not every "
    "change run beats every parent run; otherwise within bound"
)
DURATION = re.compile(r"^\s*([\d.]+)s call\s+\S+::(\w+)")
SUMMARY = re.compile(r"^=*\s*(\d+ (?:passed|failed|error).*?) in ([\d.]+)s", re.M)


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced_layers(spec: dict) -> dict[str, list[str]]:
    """{layer: ["calls", "self_s"] or the one of them listed} for the
    per_layer metrics of a BENCHMARK.json, in its order."""
    out: dict[str, list[str]] = {}
    for m in spec["per_layer"]:
        layer, _, kind = m["name"].rpartition(".")
        if kind in ("calls", "self_s"):
            out.setdefault(layer, []).append(kind)
    return out


def traced_summary(runs: dict[str, list[dict]], layers: dict[str, list[str]]) -> dict:
    """{layer: {kind: {side: value}}} over the traced runs of each side:
    the calls, which must agree between the runs of one side, and the
    median self time."""
    out: dict = {}
    for layer, kinds in layers.items():
        out[layer] = {}
        for kind in kinds:
            out[layer][kind] = {}
            for side, metrics in runs.items():
                values = [m[f"{layer}.{kind}"]["value"] for m in metrics]
                if kind == "calls" and len(set(values)) > 1:
                    sys.exit(f"{layer}.calls differs between the traced runs of the {side}: {values}")
                out[layer][kind][side] = round(statistics.median(values), 4)
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def summarise(parent: list[float], change: list[float], better: str, bound: float,
              more_failures: bool) -> dict:
    def stats(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}

    sign = 1 if better == "higher" else -1
    p, c = stats(parent), stats(change)
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    rel_iqr = iqr / p["median"]
    gain = sign * (c["median"] - p["median"])
    if not more_failures and won >= math.ceil(0.9 * len(parent)) and gain > iqr:
        verdict = "improved"
    elif -gain / p["median"] > bound:
        verdict = "regressed"
    elif rel_iqr > bound and not all(sign * (b - a) > 0 for a in parent for b in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c,
            "change_vs_parent": round((c["median"] - p["median"]) / p["median"], 4),
            "pairs_change_better": f"{won}/{len(parent)}",
            "parent_relative_iqr": round(rel_iqr, 4), "verdict": verdict,
            "parent_runs": [round(x, 4) for x in parent],
            "change_runs": [round(x, 4) for x in change]}


def run_tier1(checkout: Path, names: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--durations=0",
                          "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                         cwd=checkout, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    durations = {}
    for line in out.stdout.splitlines():
        m = DURATION.match(line)
        if m and m.group(2) in names:
            durations[m.group(2)] = float(m.group(1))
    summary = SUMMARY.findall(out.stdout)
    return {"seconds": float(summary[-1][1]) if summary else round(wall, 2),
            "tests": summary[-1][0] if summary else f"exit {out.returncode}",
            "durations": durations}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 801-810")
    ap.add_argument("--durations", nargs="*", default=[],
                    help="tests whose tier-1 durations are recorded")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = {s: json.loads((sides[s] / "BENCHMARK.json").read_text()) for s in sides}
    if spec["parent"] != spec["change"]:
        sys.exit("BENCHMARK.json differs between the checkouts; pairs would not compare")
    metrics, seconds = spec["parent"]["end_to_end"], spec["parent"]["run_seconds"]
    layers = traced_layers(spec["parent"])
    seeds = parse_seeds(args.seeds)
    runs = {w: {s: [] for s in sides} for w in args.workloads}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in args.workloads:
            for side in order:
                r = run_bench(sides[side], w, seed, seconds, 0)
                runs[w][side].append(r)
                print(f"pair {i} seed {seed} {w} {side}: "
                      + json.dumps({k: round(v["value"], 3) for k, v in r["metrics"].items()}),
                      file=sys.stderr, flush=True)

    out = {
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}; one benchmark process at a time",
        "benchmark": {
            "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {seconds} --trace 0",
            "seeds": seeds,
            "order": "pair i runs the parent first when i is even and the change first "
                     "when i is odd; the workloads take turns within each pair index",
            "quartiles": QUARTILES, "verdict_rule": VERDICT_RULE,
            "traced": f"python3 perfbench/run.py --workload <workload> --seed {TRACE_SEED} "
                      f"--seconds {seconds} --trace 1, {TRACE_RUNS} runs per side, the sides "
                      "alternating; calls agree between the runs of one side, and self times "
                      "are the median, in seconds at reference speed for one round of the "
                      "operation list"},
        "workloads": {}}
    for w in args.workloads:
        more_failures = failed_share(runs[w]["change"]) > failed_share(runs[w]["parent"])
        rec = {
            "runs_correct": {s: all(r["correct"] for r in runs[w][s]) for s in sides},
            "failed_of_attempted": {s: sorted({f"{r['failed']}/{r['attempted']}"
                                               for r in runs[w][s]}) for s in sides},
            "end_to_end": {},
        }
        for m in metrics:
            name = m["name"]
            rec["end_to_end"][name] = {"unit": m["unit"], "better": m["better"],
                                       "bound": m["bound"]}
            rec["end_to_end"][name].update(summarise(
                [r["metrics"][name]["value"] for r in runs[w]["parent"]],
                [r["metrics"][name]["value"] for r in runs[w]["change"]],
                m["better"], m["bound"], more_failures))
        traced = {s: [] for s in sides}
        for _ in range(TRACE_RUNS):
            for s in sides:
                traced[s].append(run_bench(sides[s], w, TRACE_SEED, seconds, 1)["metrics"])
        rec[f"traced_per_layer_seed_{TRACE_SEED}"] = traced_summary(traced, layers)
        out["workloads"][w] = rec
    walls = {s: run_tier1(sides[s], args.durations) for s in sides}
    out["wall_times_s"] = {
        "note": "pytest --durations=0, one full tier-1 run per side, the parent first",
        "tier1": {s: {k: walls[s][k] for k in ("seconds", "tests")} for s in sides},
    }
    for name in args.durations:
        out["wall_times_s"][name] = {s: walls[s]["durations"].get(name) for s in sides}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
