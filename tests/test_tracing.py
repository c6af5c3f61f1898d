"""The benchmark's tracer still finds every package name it wraps.

benchmark/tracing.py replaces public labelshift functions by name and reads
their arguments by position, so deleting or reordering one breaks the traced
benchmark without failing any other test. This runs a small traced grid and
one traced estimate per estimator in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from labelshift.bench import write_predictions
from labelshift.core import LabeledSet, PredictionMatrix
from labelshift.estimate import ESTIMATORS
from labelshift.shift import save_labeled_csv

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
from tracing import PER_LAYER_METRICS, Tracer

tracer = Tracer()
tracer.install()
from labelshift import cli

config, source, target = sys.argv[1:4]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["run", "--config", config]))
    for estimator in sys.argv[4:]:
        codes.append(cli.main(["estimate", "--source", source, "--target", target,
                               "--estimator", estimator]))
metrics = tracer.metrics(len(codes))
print(json.dumps({"codes": codes, "missing": sorted(set(PER_LAYER_METRICS) - set(metrics)),
                  "trainings": tracer.metrics(1)["adapt.meta_adapt.calls"]["value"]}))
"""


def test_tracer_installs_and_reports_every_metric(tmp_path):
    gen = np.random.default_rng(0)
    pools = tmp_path / "pools"
    pools.mkdir()
    for part in ("source", "target"):
        labels = gen.integers(0, 3, size=150)
        feats = gen.standard_normal((150, 4))
        feats[np.arange(150), labels] += 3.0
        save_labeled_csv(pools / f"{part}.csv", LabeledSet(feats, labels))
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "output_dir": str(tmp_path / "out"),
        "tasks": [{"name": "blob", "k": 3, "d": 4, "n_source": 150, "n_target": 150},
                  {"name": "pool", "data_dir": str(pools)}],
        "alphas": [0.5],
        "seeds": [0],
        "methods": ["source_only", "pseudolabel", "iw_erm"],
        "corrections": ["none", "rs+rw"],
        "estimators": list(ESTIMATORS),
        "train": {"epochs": 2, "batch_size": 64},
    }))
    source, target = tmp_path / "source.csv", tmp_path / "target.csv"
    write_predictions(source, PredictionMatrix(gen.dirichlet(np.ones(3), size=100)),
                      labels=gen.integers(0, 3, size=100))
    write_predictions(target, PredictionMatrix(gen.dirichlet(np.ones(3), size=100)))

    # No bytecode cache, so nothing is written under benchmark/.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmark")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(source), str(target), *ESTIMATORS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 3) for code in report["codes"]), report
    assert report["missing"] == []
    # One training per task, method and resample setting.
    assert report["trainings"] == 2 * 3 * 2
