"""Shared pieces of the proxauth benchmark: paths, sizes, statistics, facts.

The benchmark runs proxauth from the source tree next to it (``src/``); it
never installs the package. Everything it writes goes under
``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class MissingSource(RuntimeError):
    """The proxauth sources are not next to the benchmark."""


def use_source_tree() -> None:
    """Make ``import proxauth`` load the checkout's ``src/proxauth``."""
    if not (SRC / "proxauth" / "__init__.py").is_file():
        raise MissingSource(f"proxauth sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the source tree first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# Synthetic locations of every simulated environment, as in the paper.
LOCATIONS = 3


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. ``FULL`` is the benchmark; ``TINY`` is for
    the smoke test only."""

    rows: int  # target dataset rows per training flow
    n_trees: int
    population: int  # users enrolled while a server is set up
    pool_pairs: int  # distinct scan pairs a serving run draws from
    setup_repeats: int  # set-ups per run; setup_s is their median


FULL = Sizes(
    rows=4825,
    n_trees=100,
    population=24,
    pool_pairs=96,
    setup_repeats=7,
)
TINY = Sizes(
    rows=600,
    n_trees=8,
    population=3,
    pool_pairs=12,
    setup_repeats=1,
)

# Correct and wrong first factors used by generated users.
SECRET = "correct-horse-battery"
WRONG_SECRET = "incorrect-horse-battery"

# Criterion-2 band of the acceptance suite: accuracy >= 0.85, the rest >= 0.80.
ACCURACY_FLOOR = 0.85
OTHER_METRIC_FLOOR = 0.80


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values: list[float]) -> dict:
    """Median, p90 and p99 with the sample count. p99 is information only."""
    return {
        "n": len(values),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
    }


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def facts(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def load_benchmark_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
