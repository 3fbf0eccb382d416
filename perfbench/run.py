"""proxauth benchmark: one run of one workload.

    python3 perfbench/run.py --workload {login,onboard} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Workloads (see BENCHMARK.json for why each exists):
  login     closed loop: 2 loopback TCP connections to a server process
            run login rounds back to back; 45% near pairs, 45% far pairs,
            10% wrong secrets, against a pre-enrolled population.
  onboard   closed loop: 2 connections back to back, each iteration enrolls
            a fresh user and runs one login round for it.

Set-up trains the served model (simulate -> split -> encode -> train forest
-> evaluate -> save -> load), decides every generated scan pair in-process
and starts the server. With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it installs timing shims
around the proxauth modules' public functions (in this process and in the
server process) and reports the per-layer metrics instead. Every line but
the last is a readable report of every figure the run measured; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result is also written to ``.perfbench_out/results/``.
``--tiny`` shrinks every size, for the smoke test only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import common


class RunContext:
    """What one run measured, and what it found wrong."""

    def __init__(self, args: argparse.Namespace, workdir: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.sizes = common.TINY if args.tiny else common.FULL
        self.workdir = workdir
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reports: list[dict] = []
        self.facts = common.facts(args.workload, args.seed, args.seconds, self.trace)
        self.end_to_end_metrics: dict[str, float] = {}
        self.layer_metrics: dict[str, float] = {}
        self.tracer = None
        if self.trace:
            import spans

            self.tracer = spans.Tracer()
            spans.install_offline_shims(self.tracer)

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def report(self, name: str, value: float, unit: str, n: int | None = None, info: bool = False) -> None:
        self.reports.append({"name": name, "value": value, "unit": unit, "n": n, "info_only": info})

    def fact(self, key: str, value) -> None:
        self.facts[key] = value

    def end_to_end(self, **metrics: float) -> None:
        self.end_to_end_metrics.update(metrics)

    def flow_counts(self, flow) -> None:
        self.layer_metrics.update(
            {
                "rf_simulator.rows": flow.rows,
                "colocation_ml.forest_nodes": flow.forest_nodes,
                "colocation_ml.model_bytes": flow.model_bytes,
            }
        )

    def serving_layers(self, server, client_rtts: dict, audit_reasons) -> None:
        """Per-layer figures of the server that served the run (traced runs)."""
        if not self.trace:
            return
        import spans

        server_spans = spans.load_spans(server.spans_path)
        self.layer_metrics.update(spans.serving_layer_metrics(server_spans, client_rtts))
        self.layer_metrics["cli.build_service_ms"] = server.build_service_ms
        self.layer_metrics["auth_service.users_json_bytes"] = server.users_json_bytes()
        for reason in ("ClassifierAuthentic", "ClassifierUnauthorized", "FirstFactorFailed", "NoOverlap", "StaleScans"):
            self.layer_metrics[f"auth_service.decisions.{reason}"] = audit_reasons.get(reason, 0)
        attempts = server_spans.attempts()
        cost_us = spans.span_cost_us()
        per_attempt = len(server_spans.spans) / attempts if attempts else 0.0
        self.facts["tracing"] = {
            "server_spans": len(server_spans.spans),
            "attempts": attempts,
            "spans_per_attempt": per_attempt,
            "span_cost_us": cost_us,
            "estimated_overhead_ms_per_attempt": per_attempt * cost_us / 1e3,
        }


def run_workload(ctx: RunContext) -> None:
    import serving

    {
        "login": serving.run_login,
        "onboard": serving.run_onboard,
    }[ctx.workload](ctx)
    if ctx.trace:
        import spans

        ctx.layer_metrics.update(spans.offline_layer_metrics(spans.SpanSet(ctx.tracer.spans)))


def result_path(ctx: RunContext, trace: bool) -> Path:
    size = "-tiny" if ctx.sizes is common.TINY else ""
    name = f"{ctx.workload}-seed{ctx.seed}-{ctx.seconds}s{size}-trace{int(trace)}.json"
    return common.OUT_DIR / "results" / name


def tracing_overhead(ctx: RunContext) -> None:
    """Traced minus untraced figures, when an untraced run of the same
    workload, seed, length and size left its result behind."""
    untraced = result_path(ctx, trace=False)
    if not untraced.exists():
        ctx.facts["tracing_overhead"] = "no untraced result with this workload, seed and length"
        return
    before = json.loads(untraced.read_text(encoding="utf-8"))["end_to_end"]
    after = ctx.end_to_end_metrics
    ctx.facts["tracing_overhead"] = {
        name: {"untraced": before[name], "traced": after[name], "difference": after[name] - before[name]}
        for name in ("latency_p50_ms", "latency_p90_ms", "throughput_per_s")
        if name in before and name in after
    }


def emit(ctx: RunContext, spec: dict) -> dict:
    key = "per_layer" if ctx.trace else "end_to_end"
    values = ctx.layer_metrics if ctx.trace else ctx.end_to_end_metrics
    missing = [m["name"] for m in spec[key] if m["name"] not in values]
    if missing:
        raise RuntimeError(f"the run measured no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    f = ctx.facts
    print(
        f"proxauth benchmark: workload={f['workload']} seed={f['seed']} seconds={f['seconds']}"
        f" trace={int(ctx.trace)} nproc={f['nproc']} python={f['python']} numpy={f['numpy']}"
        f" commit={f['git_commit']}"
    )
    if "traffic" in f:
        print(f"traffic: {f['traffic']}")
    for r in ctx.reports:
        n = f"  (n={r['n']})" if r["n"] is not None else ""
        note = "  [information only]" if r["info_only"] else ""
        print(f"  {r['name']:<28} {r['value']:>14.4f} {r['unit']}{n}{note}")
    print(f"{key} metrics:")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.4f} {m['unit']}")
    if ctx.trace:
        print(f"tracing: {json.dumps(f.get('tracing'))}")
        print(f"tracing overhead: {json.dumps(f.get('tracing_overhead'))}")
    for problem in ctx.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    return {
        "correct": not ctx.problems and ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="proxauth benchmark, one run of one workload")
    parser.add_argument("--workload", required=True, choices=("login", "onboard"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        common.use_source_tree()
        spec = common.load_benchmark_spec()
    except (common.MissingSource, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    work_root = common.OUT_DIR / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        ctx = RunContext(args, workdir)
        run_workload(ctx)
        if ctx.trace:
            tracing_overhead(ctx)
        result = emit(ctx, spec)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = result_path(ctx, ctx.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    full = {
        **result,
        "facts": ctx.facts,
        "report": ctx.reports,
        "problems": ctx.problems,
        "end_to_end": ctx.end_to_end_metrics,
        "per_layer": ctx.layer_metrics,
    }
    path.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
