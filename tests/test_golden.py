"""Golden outputs: grid records, summaries and estimates compared bit for bit.

A small grid covers every training path (source_only and pseudolabel under
every correction and estimator, for both model kinds, one learning rate
large enough to roll epochs back, and a few iw_erm cells for each model
kind) on one synthetic task and one dataset task whose pools are written
here. Every field of every record except ``wall_time_seconds``, and every
line of each summary CSV, must equal ``tests/golden/grid.json`` by ``repr``,
and so must one grid's outputs when it runs on two workers. So must the
exit code and every stdout field of ``labelshift estimate`` for each
estimator on fixed Bayes-posterior dumps at k = 3 and 10. A change that
claims to keep results identical must pass unchanged; only a deliberate
change to results regenerates the file, with ``python tests/golden/regen.py``.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import sys
from pathlib import Path

import numpy as np

from labelshift.adapt import CorrectionFlags, PseudoLabelConfig, TrainConfig
from labelshift.bench import (
    GridConfig,
    GridTask,
    aggregate,
    read_records,
    run_grid,
    write_predictions,
    write_summary_csv,
)
from labelshift.cli import main
from labelshift.core import LabeledSet, PredictionMatrix
from labelshift.shift import SynthTaskSpec, save_labeled_csv

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "grid.json"

ALL_CORRECTIONS = tuple(CorrectionFlags.from_label(label)
                        for label in ("none", "rs", "rw", "rs+rw"))
ALL_ESTIMATORS = ("rlls", "mlls", "baseline")
K, D, N = 3, 4, 400
# `labelshift estimate` dumps: rows per dump, class counts, class separation.
DUMP_N, DUMP_KS, DUMP_SEP = 500, (3, 10), 2.5


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


def write_dumps(directory: Path, k: int) -> tuple[Path, Path]:
    """Bayes posteriors under a uniform prior for k unit-covariance Gaussian
    classes with means DUMP_SEP / sqrt(2) * e_j: a labeled source drawn
    uniformly and a target drawn from a skewed marginal."""
    directory.mkdir(parents=True, exist_ok=True)
    gen = np.random.default_rng([20261019, k])
    scale = DUMP_SEP / np.sqrt(2.0)
    paths = []
    for part, prior in (("source", np.full(k, 1.0 / k)),
                        ("target", gen.dirichlet(np.full(k, 0.5)))):
        labels = gen.choice(k, size=DUMP_N, p=prior)
        scores = scale * gen.standard_normal((DUMP_N, k))
        scores[np.arange(DUMP_N), labels] += scale * scale
        posterior = np.exp(scores - scores.max(axis=1, keepdims=True))
        path = directory / f"k{k}-{part}.csv"
        write_predictions(path, PredictionMatrix(posterior / posterior.sum(axis=1, keepdims=True)),
                          labels if part == "source" else None)
        paths.append(path)
    return paths[0], paths[1]


def estimate_outputs(work: Path) -> dict:
    """`labelshift estimate`'s exit code and parsed stdout, by k and estimator."""
    outputs = {}
    for k in DUMP_KS:
        source, target = write_dumps(work, k)
        for estimator in ALL_ESTIMATORS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(["estimate", "--source", str(source), "--target", str(target),
                             "--estimator", estimator])
            outputs[f"k{k}/{estimator}"] = {"exit_code": code,
                                            "stdout": json.loads(stdout.getvalue())}
    return outputs


def compute_outputs(work: Path) -> dict:
    """Every grid's outputs, by grid name, and the estimate outputs."""
    outputs = {name: grid_outputs(cfg, work / name)
               for name, cfg in grid_configs(work).items()}
    outputs["estimate"] = estimate_outputs(work / "estimate")
    return outputs


def openblas_core() -> str | None:
    """The core that numpy's bundled OpenBLAS runs on (it picks one at load
    time unless OPENBLAS_CORETYPE names it), or None where no bundled
    library reports one."""
    root = Path(np.__file__).parent
    for path in sorted([*(root.parent / "numpy.libs").glob("*openblas*"),
                        *(root / ".dylibs").glob("*openblas*")]):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def build_info() -> dict:
    """The numpy version, BLAS build and kernels the golden values were made
    with. The kernels are the OpenBLAS core in use and numpy's SIMD dispatch
    targets this CPU enables; either can move estimator fields by an ulp."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_configuration": blas.get("openblas configuration", ""),
        "openblas_core": openblas_core(),
        "numpy_simd": [target for target in __cpu_dispatch__ if __cpu_features__.get(target)],
    }


def golden_failure(found: str, made_with: dict) -> str:
    """The message of a golden test that found a difference. It says first
    where this run's build and kernels differ from the golden file's
    made_with, then gives the first difference and both signatures."""
    info = build_info()
    differ = [f"{key} is {info[key]!r} here, " + (f"{made_with[key]!r} in the golden file"
                                                  if key in made_with else "not recorded there")
              for key in info if made_with.get(key) != info[key]]
    lines = [f"first difference: {found}",
             f"(golden values made with {made_with}; this run uses {info})"]
    if differ:
        lines.insert(0, f"this run's build differs from the golden file's: {'; '.join(differ)}")
    return "\n".join(lines)


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
    assert found is None, golden_failure(found, golden["made_with"])


def test_parallel_grid_matches_golden(tmp_path):
    # Two tasks, one of them read from pools, over two alphas: 4 coordinates
    # shared between two workers.
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = grid_outputs(grid_configs(tmp_path)["mlp"], tmp_path / "mlp", jobs=2)
    found = first_difference(golden["outputs"]["mlp"], actual, "outputs.mlp")
    assert found is None, golden_failure(found, golden["made_with"])


def test_every_golden_record_reads_back(tmp_path):
    # The golden grids cover every training path, and the gates above hold
    # what they write to these records; each must pass the reader's checks.
    golden = json.loads(GOLDEN_PATH.read_text())["outputs"]
    rows = [row for name, grid in golden.items() if name != "estimate"
            for row in grid["records"]]
    path = tmp_path / "results.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert [r.to_json_dict() for r in read_records(path)] == rows
    assert len(rows) > 100
