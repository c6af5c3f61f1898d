"""Golden outputs: grid records and summaries compared bit for bit.

A small grid covers every training path (source_only and pseudolabel under
every correction and estimator, for both model kinds, one learning rate
large enough to roll epochs back, and a few iw_erm cells for each model
kind) on one synthetic task and one dataset task whose pools are written
here. Every field of every record except ``wall_time_seconds``, and every
line of each summary CSV, must equal ``tests/golden/grid.json`` by ``repr``,
and so must one grid's outputs when it runs on two workers. A change that
claims to keep results identical must pass unchanged; only a deliberate
change to results regenerates the file, with ``python tests/golden/regen.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from labelshift.adapt import CorrectionFlags, PseudoLabelConfig, TrainConfig
from labelshift.bench import (
    GridConfig,
    GridTask,
    aggregate,
    run_grid,
    write_summary_csv,
)
from labelshift.core import LabeledSet
from labelshift.shift import SynthTaskSpec, save_labeled_csv

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "grid.json"

ALL_CORRECTIONS = tuple(CorrectionFlags.from_label(label)
                        for label in ("none", "rs", "rw", "rs+rw"))
ALL_ESTIMATORS = ("rlls", "mlls", "baseline")
K, D, N = 3, 4, 400


def write_pools(directory: Path) -> None:
    """Two labeled pools of Gaussian blobs; the target leans toward class 0."""
    directory.mkdir(parents=True, exist_ok=True)
    gen = np.random.default_rng(20261018)
    for part, prior in (("source", [1 / 3, 1 / 3, 1 / 3]), ("target", [0.5, 0.3, 0.2])):
        labels = gen.choice(K, size=N, p=prior)
        feats = gen.standard_normal((N, D))
        feats[np.arange(N), labels] += 2.0
        save_labeled_csv(directory / f"{part}.csv", LabeledSet(feats, labels))


def grid_configs(work: Path) -> dict[str, GridConfig]:
    pools = work / "pools"
    write_pools(pools)
    synth = GridTask(name="synth", epsilon=0.5, synth=SynthTaskSpec(
        name="synth", k=K, d=D, n_source=N, n_target=N, class_separation=2.5))
    pool = GridTask(name="pool", data_dir=str(pools))
    common = dict(
        tasks=(synth, pool),
        alphas=(None, 0.5),
        seeds=(0,),
        methods=("source_only", "pseudolabel"),
        corrections=ALL_CORRECTIONS,
        estimators=ALL_ESTIMATORS,
        seed=7,
        hidden_units=8,
        train=TrainConfig(epochs=3, batch_size=64, learning_rate=0.5, l2=1e-4),
        pseudolabel=PseudoLabelConfig(tau=0.7, lambda_max=1.0),
    )
    iw_erm = dict(common, tasks=(synth,), alphas=(0.5,), methods=("source_only", "iw_erm"),
                  corrections=(ALL_CORRECTIONS[0], ALL_CORRECTIONS[3]), estimators=("rlls",),
                  train=TrainConfig(epochs=2, batch_size=64))
    return {
        "logistic": GridConfig(**common, model_kind="logistic"),
        "mlp": GridConfig(**common, model_kind="mlp"),
        # Large enough that training rolls epochs back and halves the step.
        "rollback": GridConfig(**dict(common, alphas=(0.5,), estimators=("mlls",),
                                      train=TrainConfig(epochs=4, batch_size=64,
                                                        learning_rate=8.0, l2=1e-4)),
                               model_kind="mlp"),
        "iw_erm": GridConfig(**iw_erm),
        # The mlp's random init gives iw_erm non-unit class weights from
        # epoch 0 on; the logistic model's zero init gives unit ones.
        "iw_erm_mlp": GridConfig(**iw_erm, model_kind="mlp"),
    }


def grid_outputs(cfg: GridConfig, out_dir: Path, jobs: int = 1) -> dict:
    """One grid's records (without wall times) and summary CSV lines."""
    records = run_grid(GridConfig(**{**cfg.__dict__, "output_dir": str(out_dir)}), jobs=jobs)
    summary = out_dir / "summary.csv"
    write_summary_csv(summary, aggregate(records))
    rows = []
    for r in records:
        row = r.to_json_dict()
        row.pop("wall_time_seconds", None)
        rows.append(row)
    return {"records": rows, "summary": summary.read_text().splitlines()}


def compute_outputs(work: Path) -> dict:
    """Every grid's outputs, by grid name."""
    return {name: grid_outputs(cfg, work / name)
            for name, cfg in grid_configs(work).items()}


def build_info() -> dict:
    """The numpy version and BLAS build the golden values were made with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_configuration": blas.get("openblas configuration", ""),
    }


def first_difference(golden, actual, where="") -> str | None:
    """The path and both reprs of the first leaf that differs, else None."""
    if isinstance(golden, dict) and isinstance(actual, dict):
        for key in list(golden) + [k for k in actual if k not in golden]:
            if key not in golden or key not in actual:
                return f"{where}.{key}: present in only one of golden and actual"
            found = first_difference(golden[key], actual[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            return f"{where}: {len(golden)} golden entries, {len(actual)} actual"
        for i, (g, a) in enumerate(zip(golden, actual)):
            found = first_difference(g, a, f"{where}[{i}]")
            if found:
                return found
        return None
    if repr(golden) != repr(actual):
        return f"{where}: golden {golden!r}, actual {actual!r}"
    return None


def test_grid_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = compute_outputs(tmp_path)
    found = first_difference(golden["outputs"], actual, "outputs")
    made_with = golden["made_with"]
    assert found is None, (
        f"first difference: {found}\n(golden values made with {made_with}; "
        f"this run uses {build_info()})"
    )


def test_parallel_grid_matches_golden(tmp_path):
    # Two tasks, one of them read from pools, over two alphas: 4 coordinates
    # shared between two workers.
    golden = json.loads(GOLDEN_PATH.read_text())["outputs"]["mlp"]
    actual = grid_outputs(grid_configs(tmp_path)["mlp"], tmp_path / "mlp", jobs=2)
    found = first_difference(golden, actual, "outputs.mlp")
    assert found is None, f"first difference: {found}"
