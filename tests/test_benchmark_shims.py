"""perfbench/spans.py patches proxauth functions by name for its traced run.
Each name it patches must exist, or the traced benchmark fails at start-up;
the shims are installed in a child process so that this one stays unpatched."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from proxauth import auth_service, beacon_model, colocation_ml
encode, predict = beacon_model.encode_observations, colocation_ml.predict_batch
spans.install_server_shims(spans.Tracer())
spans.install_offline_shims(spans.Tracer())
assert auth_service.encode_observation.__wrapped__ is encode
assert auth_service.predict.__wrapped__ is predict
print("installed")
"""


def test_the_traced_runs_shims_install():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", INSTALL, str(ROOT / "perfbench" / "spans.py")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "installed\n", "")
