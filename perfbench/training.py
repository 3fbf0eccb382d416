"""The training flow that builds the model a serving workload serves.

One flow is simulate -> split -> encode -> train forest -> evaluate -> save
-> load, at the paper's dataset size. Every call goes through the proxauth
module attributes, so the traced run's shims see it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import common


@dataclass
class FlowResult:
    model_path: Path
    sha256: str
    rows: int
    forest_nodes: int
    model_bytes: int
    metrics: dict  # accuracy, sensitivity, specificity, precision, f1


def run_flow(seed: int, sizes: common.Sizes, workdir: Path, tag: str) -> FlowResult:
    """Train a forest on a fresh simulated dataset and round-trip it through
    a model file; checks that the loaded model scores the held-out split
    exactly like the trained one."""
    from proxauth import beacon_model, colocation_ml, rf_simulator

    env, loss = rf_simulator.EnvironmentConfig(), rf_simulator.PathLossConfig()
    sessions = rf_simulator.sessions_for_target_rows(env, loss, sizes.rows, common.LOCATIONS, seed)
    dataset = rf_simulator.generate_dataset(env, loss, sessions, common.LOCATIONS, seed)
    train, test = colocation_ml.stratified_split(dataset, 0.2, seed)
    encoder = beacon_model.build_feature_encoder(train)
    X, y = beacon_model.encode_dataset(encoder, train)
    Xt, yt = beacon_model.encode_dataset(encoder, test)
    model = colocation_ml.train_random_forest(
        X, y, colocation_ml.ForestParams(n_trees=sizes.n_trees, seed=seed)
    )
    cm = colocation_ml.evaluate(model, Xt, yt)
    path = workdir / f"{tag}.model"
    colocation_ml.save_model(path, model, encoder)
    loaded, loaded_encoder = colocation_ml.load_model(path)
    if loaded_encoder != encoder or colocation_ml.evaluate(loaded, Xt, yt) != cm:
        raise AssertionError("the loaded model does not score like the trained one")
    data = path.read_bytes()
    return FlowResult(
        model_path=path,
        sha256=hashlib.sha256(data).hexdigest(),
        rows=len(dataset),
        forest_nodes=sum(t.node_count() for t in model.trees),
        model_bytes=len(data),
        metrics=colocation_ml.compute_metrics(cm).as_dict(),
    )


def check_band(ctx, metrics: dict) -> None:
    """Report held-out metrics outside the criterion-2 band. The band is
    claimed at the paper's dataset size, so tiny runs skip it."""
    if ctx.sizes is not common.FULL:
        return
    for name, value in metrics.items():
        floor = common.ACCURACY_FLOOR if name == "accuracy" else common.OTHER_METRIC_FLOOR
        if value is None or value < floor:
            ctx.problem(f"held-out {name} {value} is below {floor}")
