"""Steadiness self-check of the proxauth benchmark.

Runs each workload ``--runs`` times, each run with another seed, and for
every end-to-end metric prints the median and quartiles of its values and
their spread (third minus first quartile, as a share of the median) against
the metric's bound in BENCHMARK.json:

  ok     spread at most a third of the bound
  warn   spread above a third of the bound but within it
  OVER   spread above the bound

It makes two sets of runs by default, the second on fresh seeds, and also
flags any metric whose median in a later set is worse than the first set's
by more than the bound. Seeds start at 1000. With ``--traced`` it then makes one traced run per workload on
the first seed and prints the tracing overhead against the untraced run.
Exits 1 when a run fails or is incorrect, or a metric is OVER.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads login,onboard]
        [--seconds N] [--traced]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common

SEED_BASE = 1000


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(common.BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return {"result": json.loads(lines[-1]), "report": lines[:-1]}


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = common.load_benchmark_spec()
    parser = argparse.ArgumentParser(description="steadiness self-check of the benchmark")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    args = parser.parse_args()

    bad = False
    summary: dict = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
            for i in range(args.runs):
                seed = SEED_BASE + s * args.runs + i
                result = one_run(workload, seed, args.seconds, 0)["result"]
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: incorrect run {json.dumps(result)}")
                    bad = True
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
            sets.append(values)

        print(f"\n{workload}: {args.runs} runs per set, {args.seconds} s each")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, values in enumerate(sets):
                q1, median, q3 = statistics.quantiles(values[name], n=4)
                medians.append(median)
                spread = (q3 - q1) / median
                if spread > bound:
                    verdict, bad = "OVER", True
                else:
                    verdict = "ok" if spread <= bound / 3 else "warn"
                shift = ""
                if s > 0:
                    worse = worse_by(metric, medians[0], median)
                    shift = f"  worse than set 1 by {worse:+.3f}"
                    if worse > bound:
                        shift += " OVER"
                        bad = True
                print(f"  {name:<18} {s + 1:>3} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound:>6.2f}  {verdict}{shift}")
                summary[workload].setdefault(name, []).append(
                    {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "verdict": verdict}
                )
        print()

    if args.traced:
        for workload in args.workloads.split(","):
            run = one_run(workload, SEED_BASE, args.seconds, 1)
            for line in run["report"]:
                if line.startswith("tracing"):
                    print(f"{workload} {line}")
            if not run["result"]["correct"]:
                print(f"{workload}: incorrect traced run")
                bad = True

    common.OUT_DIR.mkdir(exist_ok=True)
    (common.OUT_DIR / "steady.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
