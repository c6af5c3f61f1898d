"""Grid runner, metrics, aggregation, and the prediction-dump format."""

import json
import math
import os
import signal
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import labelshift.adapt as adapt_module
import labelshift.bench as bench_module
from labelshift.adapt import CorrectionFlags, TrainConfig
from labelshift.bench import (
    RESULTS_FILENAME,
    SUMMARY_HEADER,
    Cell,
    EvalMetrics,
    GridConfig,
    GridTask,
    RunRecord,
    Summary,
    aggregate,
    build_bundle,
    evaluate,
    failed_baselines,
    ingest_predictions,
    load_pools,
    plan_cells,
    read_records,
    relative_accuracy,
    run_cell,
    run_grid,
    write_predictions,
    write_summary_csv,
)
from labelshift.cli import main
from labelshift.core import (
    DegenerateEstimateError,
    DimensionError,
    InvalidInputError,
    LabeledSet,
    LabelMarginal,
    PairingError,
    ParseError,
    PredictionMatrix,
    WorkerDiedError,
)
from labelshift.shift import SynthTaskSpec, save_labeled_csv
from tests.test_adapt import make_blobs


def synth_task(name="blob", k=2, d=2, n=120, sep=3.0, epsilon=0.0):
    return GridTask(
        name=name,
        synth=SynthTaskSpec(name=name, k=k, d=d, n_source=n, n_target=n,
                            class_separation=sep),
        epsilon=epsilon,
    )


def tiny_grid(tmp_path, **overrides):
    defaults = dict(
        tasks=(synth_task(),),
        alphas=(None, 0.5),
        seeds=(0,),
        methods=("source_only",),
        corrections=(CorrectionFlags(), CorrectionFlags(resample=True, reweight=True)),
        estimators=("rlls",),
        seed=11,
        output_dir=str(tmp_path / "out"),
        train=TrainConfig(epochs=2, batch_size=64, learning_rate=0.5, l2=1e-4),
    )
    defaults.update(overrides)
    return GridConfig(**defaults)


def without_wall_time(line):
    row = json.loads(line)
    row.pop("wall_time_seconds")
    return row


def record(method="pseudolabel", corrections="rs+rw", acc=0.8, task="t", alpha=0.5,
           seed=0, estimator="rlls", l1=None, error=None):
    return RunRecord(
        task_id=task, alpha=alpha, seed=seed, method=method, corrections=corrections,
        estimator=estimator, target_accuracy=None if error else acc,
        marginal_l1_error=l1, error=error,
    )


def baseline(acc=0.75, task="t", alpha=0.5, seed=0):
    return record(method="source_only", corrections="none", acc=acc, task=task,
                  alpha=alpha, seed=seed, estimator=None)


class TestEvaluate:
    def test_perfect_predictor(self):
        preds = PredictionMatrix(np.eye(3)[[0, 1, 2, 1]])
        assert evaluate(preds, [0, 1, 2, 1]).accuracy == 1.0

    def test_half_right(self):
        preds = PredictionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
        m = evaluate(preds, [0, 0])
        assert m.accuracy == 0.5
        assert m.marginal_l1_error is None

    def test_identical_marginals_have_zero_error(self):
        preds = PredictionMatrix(np.array([[0.6, 0.4]]))
        p = LabelMarginal(np.array([0.3, 0.7]))
        assert evaluate(preds, [0], p, p).marginal_l1_error == 0.0

    def test_argmax_ties_break_low(self):
        preds = PredictionMatrix(np.array([[0.5, 0.5]]))
        assert evaluate(preds, [0]).accuracy == 1.0
        assert evaluate(preds, [1]).accuracy == 0.0

    def test_length_mismatch(self):
        preds = PredictionMatrix(np.array([[0.6, 0.4]]))
        with pytest.raises(DimensionError):
            evaluate(preds, [0, 1])


class TestRelativeAccuracy:
    def test_worked_examples(self):
        assert relative_accuracy(record(acc=0.81), baseline(acc=0.75)) == pytest.approx(0.06)
        b = baseline(acc=0.75)
        assert relative_accuracy(b, b) == 0.0
        assert relative_accuracy(record(acc=0.70), baseline(acc=0.75)) == pytest.approx(-0.05)

    def test_baseline_must_be_uncorrected_source_only(self):
        with pytest.raises(PairingError, match="source_only"):
            relative_accuracy(record(), record(method="pseudolabel", corrections="none",
                                               estimator=None))
        with pytest.raises(PairingError):
            relative_accuracy(record(), record(method="source_only", corrections="rs",
                                               estimator=None))

    def test_coordinates_must_match(self):
        with pytest.raises(PairingError):
            relative_accuracy(record(seed=1), baseline(seed=0))
        with pytest.raises(PairingError):
            relative_accuracy(record(alpha=None), baseline(alpha=0.5))

    def test_failed_cells_cannot_pair(self):
        with pytest.raises(PairingError, match="no accuracy"):
            relative_accuracy(record(error="boom: fell over"), baseline())


class TestPlanCells:
    def test_cross_product_count(self, tmp_path):
        cfg = tiny_grid(
            tmp_path,
            alphas=(None, 10.0, 3.0, 1.0, 0.5),
            seeds=(0, 1),
            methods=("source_only", "pseudolabel"),
        )
        assert len(plan_cells(cfg)) == 40

    def test_reweight_cells_expand_over_estimators(self, tmp_path):
        cfg = tiny_grid(tmp_path, estimators=("rlls", "mlls", "baseline"))
        cells = plan_cells(cfg)
        # none stays single; rs+rw fans out across the three estimators.
        assert len(cells) == 2 * (1 + 3)
        rw = [c for c in cells if c.corrections.reweight]
        assert {c.corrections.estimator for c in rw} == {"rlls", "mlls", "baseline"}

    def test_explicit_estimator_is_not_expanded(self, tmp_path):
        cfg = tiny_grid(
            tmp_path,
            corrections=(CorrectionFlags(reweight=True, estimator="mlls"),),
            estimators=("rlls", "baseline"),
        )
        cells = plan_cells(cfg)
        assert len(cells) == 2
        assert all(c.corrections.estimator == "mlls" for c in cells)

    def test_duplicate_cells_rejected(self, tmp_path):
        cfg = tiny_grid(
            tmp_path,
            corrections=(
                CorrectionFlags(reweight=True),
                CorrectionFlags(reweight=True, estimator="rlls"),
            ),
        )
        with pytest.raises(InvalidInputError, match="duplicate"):
            plan_cells(cfg)


class TestGridConfigValidation:
    def test_empty_axes_rejected(self, tmp_path):
        for field in ("tasks", "alphas", "seeds", "methods", "corrections"):
            with pytest.raises(InvalidInputError, match=field):
                tiny_grid(tmp_path, **{field: ()})

    def test_bad_entries_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError, match="method"):
            tiny_grid(tmp_path, methods=("boosting",))
        with pytest.raises(InvalidInputError, match="estimator"):
            tiny_grid(tmp_path, estimators=("bbse",))
        with pytest.raises(InvalidInputError, match="alpha"):
            tiny_grid(tmp_path, alphas=(-1.0,))
        with pytest.raises(InvalidInputError, match="unique"):
            tiny_grid(tmp_path, tasks=(synth_task("a"), synth_task("a")))
        with pytest.raises(InvalidInputError, match="model kind"):
            tiny_grid(tmp_path, model_kind="tree")

    def test_grid_task_needs_exactly_one_source(self):
        with pytest.raises(InvalidInputError, match="exactly one"):
            GridTask(name="x")
        with pytest.raises(InvalidInputError, match="exactly one"):
            GridTask(name="x", synth=synth_task().synth, data_dir="somewhere")
        with pytest.raises(InvalidInputError):
            GridTask(name="x", data_dir="d", epsilon=-0.5)
        with pytest.raises(InvalidInputError, match="epsilon"):
            GridTask(name="x", data_dir="d", epsilon=0.5)


class TestBuildBundle:
    def test_deterministic_and_seed_sensitive(self, tmp_path):
        cfg = tiny_grid(tmp_path)
        task = cfg.tasks[0]
        a = build_bundle(cfg, task, 0.5, 0)
        b = build_bundle(cfg, task, 0.5, 0)
        c = build_bundle(cfg, task, 0.5, 1)
        assert np.array_equal(a.source_train.features, b.source_train.features)
        assert np.array_equal(a.target_test.labels, b.target_test.labels)
        assert not np.array_equal(a.target_test.features, c.target_test.features)

    def test_alpha_changes_only_the_shift(self, tmp_path):
        cfg = tiny_grid(tmp_path)
        task = cfg.tasks[0]
        none = build_bundle(cfg, task, None, 0)
        severe = build_bundle(cfg, task, 0.5, 0)
        assert none.alpha is None
        assert severe.alpha == 0.5
        assert none.k == severe.k == 2

    def test_dataset_task(self, tmp_path):
        pool_dir = tmp_path / "pools"
        pool_dir.mkdir()
        save_labeled_csv(pool_dir / "source.csv", make_blobs(3, 3, 400, 3.0, seed=0))
        save_labeled_csv(pool_dir / "target.csv", make_blobs(3, 3, 400, 3.0, seed=1))
        task = GridTask(name="disk", data_dir=str(pool_dir))
        cfg = tiny_grid(tmp_path, tasks=(task,))
        bundle = build_bundle(cfg, task, 1.0, 0, load_pools(task))
        assert bundle.k == 3 and bundle.d == 3
        assert bundle.source_train.n + bundle.source_val.n == 400
        with pytest.raises(InvalidInputError, match="'disk'"):
            build_bundle(cfg, task, 1.0, 0)


class TestRunGrid:
    def test_forty_cell_cross_product(self, tmp_path):
        cfg = tiny_grid(
            tmp_path,
            alphas=(None, 10.0, 3.0, 1.0, 0.5),
            seeds=(0, 1),
            methods=("source_only", "pseudolabel"),
        )
        records = run_grid(cfg)
        assert len(records) == 40
        assert all(r.error is None for r in records)
        for r in records:
            assert 0.0 <= r.target_accuracy <= 1.0
            assert 0.0 <= r.source_val_accuracy <= 1.0
            if r.marginal_l1_error is not None:
                assert 0.0 <= r.marginal_l1_error <= 2.0
            if r.corrections == "rs+rw":
                assert r.estimator == "rlls"
                assert r.marginal_l1_error is not None
                assert r.estimated_marginal is not None
        path = tmp_path / "out" / RESULTS_FILENAME
        assert len(path.read_text().splitlines()) == 40

    def test_rerun_requires_resume(self, tmp_path):
        cfg = tiny_grid(tmp_path)
        run_grid(cfg)
        with pytest.raises(InvalidInputError, match="resume"):
            run_grid(cfg)

    def test_resume_executes_nothing_when_complete(self, tmp_path):
        cfg = tiny_grid(tmp_path)
        first = run_grid(cfg)
        path = tmp_path / "out" / RESULTS_FILENAME
        before = path.read_text()
        second = run_grid(cfg, resume=True)
        assert path.read_text() == before
        assert [r.key() for r in second] == [r.key() for r in first]

    def test_noop_resume_labels_each_cell_at_most_twice(self, tmp_path, monkeypatch):
        # Planning computes each cell's key, and so its correction label,
        # once; the other call is the read-back record's own check.
        cfg = tiny_grid(tmp_path)
        run_grid(cfg)
        planned = len(plan_cells(cfg))
        calls = []
        label = CorrectionFlags.label
        monkeypatch.setattr(CorrectionFlags, "label",
                            lambda flags: calls.append(flags) or label(flags))
        run_grid(cfg, resume=True)
        assert 0 < len(calls) <= 2 * planned

    def test_resume_fills_only_missing_cells(self, tmp_path):
        small = tiny_grid(tmp_path, alphas=(None,))
        run_grid(small)
        path = tmp_path / "out" / RESULTS_FILENAME
        preserved = path.read_text()
        full = tiny_grid(tmp_path, alphas=(None, 0.5))
        records = run_grid(full, resume=True)
        assert path.read_text().startswith(preserved)
        keys = [r.key() for r in records]
        assert len(keys) == len(set(keys)) == len(plan_cells(full))

    def test_parallel_matches_serial(self, tmp_path):
        cfg_a = tiny_grid(tmp_path, output_dir=str(tmp_path / "serial"),
                          methods=("source_only", "pseudolabel"))
        cfg_b = tiny_grid(tmp_path, output_dir=str(tmp_path / "parallel"),
                          methods=("source_only", "pseudolabel"))
        serial = run_grid(cfg_a, jobs=1)
        parallel = run_grid(cfg_b, jobs=8)

        def strip(rec):
            d = rec.to_json_dict()
            d.pop("wall_time_seconds", None)
            return d

        assert [strip(r) for r in serial] == [strip(r) for r in parallel]

    def test_failed_cells_are_recorded_and_grid_continues(self, tmp_path):
        broken = GridTask(name="missing", data_dir=str(tmp_path / "nowhere"))
        cfg = tiny_grid(tmp_path, tasks=(synth_task(), broken), alphas=(None,),
                        corrections=(CorrectionFlags(),))
        records = run_grid(cfg)
        by_task = {r.task_id: r for r in records}
        assert by_task["missing"].error is not None
        assert by_task["missing"].target_accuracy is None
        assert by_task["blob"].error is None

    def all_arms_grid(self, tmp_path):
        return tiny_grid(
            tmp_path, methods=("source_only", "pseudolabel"),
            corrections=tuple(CorrectionFlags.from_label(label)
                              for label in ("none", "rs", "rw", "rs+rw")),
            estimators=("rlls", "mlls"),
        )

    def count_trainings(self, monkeypatch):
        """Count trainings per (task, alpha, algorithm, resample); the grids
        here have one seed."""
        calls = Counter()
        original = bench_module.meta_adapt

        def counted(algorithm, bundle, corrections, *args, **kwargs):
            calls[(bundle.name, bundle.alpha, algorithm, corrections.resample)] += 1
            return original(algorithm, bundle, corrections, *args, **kwargs)

        trainers = Counter()
        for name in ("train_erm", "pseudolabel_train"):
            def trainer(*args, _name=name, _fn=getattr(adapt_module, name), **kwargs):
                trainers[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(adapt_module, name, trainer)
        monkeypatch.setattr(bench_module, "meta_adapt", counted)
        return calls, trainers

    def test_one_training_per_method_and_resample(self, tmp_path, monkeypatch):
        cfg = self.all_arms_grid(tmp_path)
        calls, trainers = self.count_trainings(monkeypatch)
        records = run_grid(cfg)
        assert len(records) == 2 * 2 * (1 + 1 + 2 + 2)
        assert all(r.error is None for r in records)
        # 2 alphas x 2 methods x resample on and off, each trained once.
        assert len(calls) == 8 and set(calls.values()) == {1}
        assert trainers == {"train_erm": 4, "pseudolabel_train": 4}

    def test_resume_retrains_only_the_missing_arm(self, tmp_path, monkeypatch):
        cfg = self.all_arms_grid(tmp_path)
        run_grid(cfg)
        path = tmp_path / "out" / RESULTS_FILENAME
        lines = path.read_text().splitlines(keepends=True)
        victim = next(i for i, line in enumerate(lines)
                      if '"corrections": "rs+rw", "estimator": "mlls"' in line
                      and '"pseudolabel"' in line)
        deleted = lines.pop(victim)
        path.write_text("".join(lines))
        calls, _ = self.count_trainings(monkeypatch)
        run_grid(cfg, resume=True)
        appended = path.read_text().splitlines(keepends=True)[len(lines):]
        assert len(appended) == 1
        assert calls == {("blob", json.loads(deleted)["alpha"], "pseudolabel", True): 1}

        def strip(line):
            payload = json.loads(line)
            payload.pop("wall_time_seconds")
            return json.dumps(payload)

        assert strip(appended[0]) == strip(deleted)

    def test_failed_training_fails_only_its_group(self, tmp_path, monkeypatch):
        cfg = self.all_arms_grid(tmp_path)
        original = adapt_module.pseudolabel_train

        def flaky(spec, train, val, target, train_cfg, pl, corrections):
            if corrections.resample:
                raise RuntimeError("no balanced pseudo-labels today")
            return original(spec, train, val, target, train_cfg, pl, corrections)

        monkeypatch.setattr(adapt_module, "pseudolabel_train", flaky)
        records = run_grid(cfg)
        failed = {r.key() for r in records if r.error is not None}
        expected = {r.key() for r in records
                    if r.method == "pseudolabel" and "rs" in r.corrections.split("+")}
        assert failed == expected and len(failed) == 2 * (1 + 2)
        assert all(r.error == "RuntimeError: no balanced pseudo-labels today"
                   for r in records if r.key() in failed)
        assert all(r.target_accuracy is not None for r in records if r.key() not in failed)

    def test_failed_estimate_fails_only_its_arm(self, tmp_path, monkeypatch):
        cfg = self.all_arms_grid(tmp_path)
        original = adapt_module.estimate_marginal

        def no_mlls(estimator, *args, **kwargs):
            if estimator == "mlls":
                raise DegenerateEstimateError("EM posterior collapsed to zero mass")
            return original(estimator, *args, **kwargs)

        monkeypatch.setattr(adapt_module, "estimate_marginal", no_mlls)
        records = run_grid(cfg)
        failed = [r for r in records if r.error is not None]
        assert {r.key() for r in failed} == {r.key() for r in records if r.estimator == "mlls"}
        assert len(failed) == 2 * 2 * 2
        for r in failed:
            assert r.error == ("LabelShiftError: marginal estimation failed: "
                               "EM posterior collapsed to zero mass")
            assert r.target_accuracy is None and r.estimated_marginal is None
        assert all(r.target_accuracy is not None for r in records if r.error is None)

    def test_threads_read_each_pool_once(self, tmp_path, monkeypatch):
        pool_dir = tmp_path / "pools"
        pool_dir.mkdir()
        save_labeled_csv(pool_dir / "source.csv", make_blobs(3, 3, 300, 3.0, seed=0))
        save_labeled_csv(pool_dir / "target.csv", make_blobs(3, 3, 300, 3.0, seed=1))
        log = tmp_path / "reads.log"
        original = bench_module.load_labeled_csv

        def counted(path):
            # One O_APPEND write per read: a forked reader's line lands too.
            with open(log, "a") as fh:
                fh.write(Path(path).name + "\n")
            return original(path)

        def reads():
            return log.read_text().split() if log.exists() else []

        monkeypatch.setattr(bench_module, "load_labeled_csv", counted)
        grid = dict(tasks=(GridTask(name="disk", data_dir=str(pool_dir)),),
                    alphas=(None, 10.0, 3.0, 1.0, 0.5), seeds=(0, 1, 2))
        serial = run_grid(tiny_grid(tmp_path, output_dir=str(tmp_path / "serial"), **grid))
        assert sorted(reads()) == ["source.csv", "target.csv"]
        log.unlink()
        parallel = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cfg = tiny_grid(tmp_path, output_dir=str(tmp_path / "parallel"), **grid)
            worker = threading.Thread(target=lambda: parallel.extend(run_grid(cfg, jobs=8)),
                                      daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert sorted(reads()) == ["source.csv", "target.csv"]

        def strip(rec):
            d = rec.to_json_dict()
            d.pop("wall_time_seconds", None)
            return d

        assert len(serial) == 15 * 2
        assert all(r.error is None for r in serial)
        assert [strip(r) for r in parallel] == [strip(r) for r in serial]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_bad_pool_is_read_once(self, tmp_path, monkeypatch, jobs):
        pool_dir = tmp_path / "pools"
        pool_dir.mkdir()
        save_labeled_csv(pool_dir / "source.csv", make_blobs(3, 3, 300, 3.0, seed=0))
        save_labeled_csv(pool_dir / "target.csv", make_blobs(3, 3, 300, 3.0, seed=1))
        with open(pool_dir / "target.csv", "a") as fh:
            fh.write("0.5,0.5\n")
        log = tmp_path / "reads.log"
        original = bench_module.load_labeled_csv

        def counted(path):
            # One O_APPEND write per read: a forked reader's line lands too.
            with open(log, "a") as fh:
                fh.write(Path(path).name + "\n")
            return original(path)

        monkeypatch.setattr(bench_module, "load_labeled_csv", counted)
        cfg = tiny_grid(tmp_path, tasks=(GridTask(name="disk", data_dir=str(pool_dir)),),
                        alphas=(None, 0.5), seeds=(0, 1))
        records = run_grid(cfg, jobs=jobs)
        assert sorted(log.read_text().split()) == ["source.csv", "target.csv"]
        error = f"ParseError: {pool_dir / 'target.csv'}:302: expected 4 fields, got 2"
        assert len(records) == 2 * 2 * 2
        assert {r.error for r in records} == {error}
        assert all(r.target_accuracy is None for r in records)
        assert run_cell(cfg, plan_cells(cfg)[-1]).error == error

    def write_pool_tasks(self, tmp_path, count):
        tasks = []
        for t in range(count):
            pool_dir = tmp_path / f"pools{t}"
            pool_dir.mkdir()
            save_labeled_csv(pool_dir / "source.csv", make_blobs(3, 3, 300, 3.0, seed=2 * t))
            save_labeled_csv(pool_dir / "target.csv", make_blobs(3, 3, 300, 3.0, seed=2 * t + 1))
            tasks.append(GridTask(name=f"disk{t}", data_dir=str(pool_dir)))
        return tuple(tasks)

    def test_parent_reads_one_task_pools_at_a_time(self, tmp_path, monkeypatch):
        cfg = tiny_grid(tmp_path, tasks=self.write_pool_tasks(tmp_path, 3), seeds=(0, 1))
        results = tmp_path / "out" / RESULTS_FILENAME
        original = bench_module.load_pools
        reads, earlier = [], []

        def logged(task, jobs=1):
            written = results.read_text().splitlines() if results.exists() else []
            reads.append((task.name, os.getpid(), [json.loads(line)["task_id"] for line in written],
                          [ref() is not None for ref in earlier]))
            pools = original(task, jobs)
            earlier.append(weakref.ref(pools[0]))
            return pools

        monkeypatch.setattr(bench_module, "load_pools", logged)
        run_grid(cfg, jobs=2)
        per_task = 2 * 2 * 2  # alphas x seeds x corrections
        assert [name for name, *_ in reads] == ["disk0", "disk1", "disk2"]
        for t, (_, pid, written, alive) in enumerate(reads):
            assert pid == os.getpid()
            # The previous task's last record is in the file, and its pools
            # are no longer held.
            assert written == [f"disk{i}" for i in range(t) for _ in range(per_task)]
            assert alive == [False] * t

    def test_workers_inherit_the_pools(self, tmp_path, monkeypatch):
        # The parent reads the pools from a directory the task does not name,
        # so a worker that did not inherit them would fail every cell.
        (task,) = self.write_pool_tasks(tmp_path, 1)
        original = bench_module.load_pools
        monkeypatch.setattr(bench_module, "load_pools", lambda t, jobs=1: original(task, jobs))

        def lines(name, jobs):
            missing = GridTask("disk0", data_dir=str(tmp_path / "missing"))
            run_grid(tiny_grid(tmp_path, tasks=(missing,), seeds=(0, 1),
                               output_dir=str(tmp_path / name)), jobs=jobs)
            return [without_wall_time(line)
                    for line in (tmp_path / name / RESULTS_FILENAME).read_text().splitlines()]

        serial = lines("serial", 1)
        assert len(serial) == 2 * 2 * 2
        assert all("error" not in row for row in serial)
        assert lines("forked", 2) == serial
        monkeypatch.delattr(os, "fork")
        assert lines("unforked", 2) == serial

    def test_iw_erm_epoch_zero_weights_do_not_sink_the_model(self, tmp_path):
        # A coordinate where unregularized RLLS on the untrained mlp returned
        # weights [0, 0.07, 2.9] for a true ratio near [2.4, 0.3, 0.3], and
        # iw_erm ended at 11% target accuracy: below chance.
        gen = np.random.default_rng([1, 405])
        pool_dir = tmp_path / "pools"
        pool_dir.mkdir()
        for part in ("source", "target"):
            labels = gen.choice(3, size=2000, p=np.full(3, 1 / 3))
            feats = gen.standard_normal((2000, 16))
            feats[np.arange(2000), labels] += 2.5 / np.sqrt(2.0)
            save_labeled_csv(pool_dir / f"{part}.csv", LabeledSet(feats, labels))
        cfg = tiny_grid(
            tmp_path, tasks=(GridTask(name="pool", data_dir=str(pool_dir)),),
            alphas=(0.5,), seeds=(14,), seed=405, methods=("iw_erm",),
            corrections=(CorrectionFlags(resample=True),), model_kind="mlp",
            hidden_units=16,
            train=TrainConfig(epochs=2, batch_size=128, learning_rate=0.5, l2=1e-4),
        )
        (rec,) = run_grid(cfg)
        assert rec.true_marginal[0] > 0.75
        assert rec.target_accuracy > 1 / 3

    def test_parallel_file_keeps_plan_order(self, tmp_path):
        def lines(jobs):
            out = tmp_path / f"jobs{jobs}"
            run_grid(tiny_grid(tmp_path, output_dir=str(out), alphas=(None, 10.0, 3.0, 1.0, 0.5),
                               seeds=(0, 1)), jobs=jobs)
            rows = [json.loads(line) for line in (out / RESULTS_FILENAME).read_text().splitlines()]
            for row in rows:
                row.pop("wall_time_seconds")
            return rows

        serial = lines(1)
        assert len(serial) == 10 * 2
        assert lines(2) == serial

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="grid workers fork")
    def test_coordinates_finishing_out_of_order_are_written_in_plan_order(self, tmp_path,
                                                                          monkeypatch):
        grid = dict(alphas=(None, 10.0, 3.0, 1.0, 0.5), seeds=(0, 1))
        serial = tiny_grid(tmp_path, output_dir=str(tmp_path / "serial"), **grid)
        run_grid(serial)
        original = bench_module.build_bundle
        log = tmp_path / "built.log"

        def slow_first(cfg, task, alpha, seed, pools=None):
            if (alpha, seed) == (None, 0):
                time.sleep(1.0)
            with open(log, "a") as fh:
                fh.write(f"{alpha} {seed}\n")
            return original(cfg, task, alpha, seed, pools)

        monkeypatch.setattr(bench_module, "build_bundle", slow_first)
        run_grid(tiny_grid(tmp_path, output_dir=str(tmp_path / "parallel"), **grid), jobs=2)
        built = log.read_text().splitlines()
        # The other worker built every other coordinate while the first slept.
        assert built[-1] == "None 0" and len(built) == 10

        def lines(name):
            return [without_wall_time(line)
                    for line in (tmp_path / name / RESULTS_FILENAME).read_text().splitlines()]

        assert lines("parallel") == lines("serial")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="grid workers fork")
    def test_killed_worker_raises(self, tmp_path, monkeypatch):
        grid = dict(alphas=(None, 10.0, 3.0, 1.0, 0.5), seeds=(0, 1))
        run_grid(tiny_grid(tmp_path, output_dir=str(tmp_path / "serial"), **grid))
        original = bench_module.build_bundle

        def killed(cfg, task, alpha, seed, pools=None):
            # The other worker reaches coordinate 6 and dies while the first
            # sleeps; coordinate 0's records must still be written.
            if (alpha, seed) == (None, 0):
                time.sleep(1.0)
            if (alpha, seed) == (1.0, 0):
                os.kill(os.getpid(), signal.SIGKILL)
            return original(cfg, task, alpha, seed, pools)

        monkeypatch.setattr(bench_module, "build_bundle", killed)
        cfg = tiny_grid(tmp_path, **grid)
        raised = []

        def run():
            try:
                run_grid(cfg, jobs=2)
            except BaseException as exc:  # handed to the test thread
                raised.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert len(raised) == 1 and isinstance(raised[0], WorkerDiedError)
        assert "ended without sending its results" in str(raised[0])
        # Every record of coordinates 0-5, the ones before the dead worker's.
        written = (tmp_path / "out" / RESULTS_FILENAME).read_text().splitlines()
        serial = (tmp_path / "serial" / RESULTS_FILENAME).read_text().splitlines()
        assert len(written) == 12
        assert [without_wall_time(line) for line in written] == [
            without_wall_time(line) for line in serial[:12]]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="grid workers fork")
    def test_dead_worker_raises_and_resume_completes(self, tmp_path, monkeypatch):
        grid = dict(alphas=(None, 10.0, 3.0, 1.0, 0.5), seeds=(0, 1))
        serial = run_grid(tiny_grid(tmp_path, output_dir=str(tmp_path / "serial"), **grid))
        original = bench_module.build_bundle

        def dies(cfg, task, alpha, seed, pools=None):
            if (alpha, seed) == (3.0, 1):
                os._exit(1)
            return original(cfg, task, alpha, seed, pools)

        monkeypatch.setattr(bench_module, "build_bundle", dies)
        cfg = tiny_grid(tmp_path, output_dir=str(tmp_path / "parallel"), **grid)
        raised = []

        def run():
            try:
                run_grid(cfg, jobs=2)
            except BaseException as exc:  # handed to the test thread
                raised.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        assert len(raised) == 1 and isinstance(raised[0], WorkerDiedError)
        written = read_records(tmp_path / "parallel" / RESULTS_FILENAME)
        assert len(written) < len(serial)
        monkeypatch.undo()
        resumed = run_grid(cfg, jobs=2, resume=True)

        def strip(rec):
            d = rec.to_json_dict()
            d.pop("wall_time_seconds", None)
            return d

        assert [strip(r) for r in resumed] == [strip(r) for r in serial]

    def test_jobs_must_be_positive(self, tmp_path):
        with pytest.raises(InvalidInputError, match="jobs"):
            run_grid(tiny_grid(tmp_path), jobs=0)


class TestRecordIO:
    def test_json_round_trip(self):
        rec = RunRecord(
            task_id="t", alpha=None, seed=3, method="iw_erm", corrections="rw",
            estimator="mlls", target_accuracy=0.5, source_val_accuracy=0.9,
            marginal_l1_error=0.1, true_marginal=(0.5, 0.5),
            estimated_marginal=(0.4, 0.6), wall_time_seconds=1.25,
        )
        assert RunRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_metrics_at_their_bounds_read_back(self):
        rec = RunRecord(task_id="t", alpha=None, seed=0, method="source_only",
                        corrections="rw", estimator="rlls", target_accuracy=1.0,
                        source_val_accuracy=0.0, marginal_l1_error=2.0,
                        true_marginal=(1.0, 0.0), estimated_marginal=(0.0, 1.0))
        assert RunRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_none_fields_are_omitted(self):
        payload = record(error="ValueError: bad").to_json_dict()
        assert payload["v"] == 1
        assert "target_accuracy" not in payload
        assert payload["error"] == "ValueError: bad"

    def test_unknown_field_rejected(self):
        payload = baseline().to_json_dict()
        payload["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            RunRecord.from_json_dict(payload)

    def test_version_checked(self):
        payload = baseline().to_json_dict()
        payload["v"] = 2
        with pytest.raises(ParseError, match="version"):
            RunRecord.from_json_dict(payload)

    def test_read_records_reports_line_numbers(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps(baseline().to_json_dict()) + "\n{broken\n")
        with pytest.raises(ParseError, match="2"):
            read_records(path)
        # Without its newline the same line is a torn tail and is skipped.
        path.write_text(json.dumps(baseline().to_json_dict()) + "\n{broken")
        assert read_records(path) == [baseline()]

    @pytest.mark.parametrize("line, where", [
        ([1, 2], "record: expected an object"),
        ({"seed": None}, "record.seed: "),
        ({"seed": "x"}, "record.seed: "),
        ({"seed": 1.5}, "record.seed: "),
        ({"alpha": True}, "record.alpha: "),
        ({"true_marginal": 5}, "record.true_marginal: "),
        ({"true_marginal": [0.5, "x"]}, "record.true_marginal[1]: "),
        ({"task_id": 3}, "record.task_id: "),
        ({"method": None}, "record.method: "),
        ({"target_accuracy": math.nan}, "record.target_accuracy: "),
        ({"target_accuracy": 1.5}, "record.target_accuracy: "),
        ({"target_accuracy": -3}, "record.target_accuracy: "),
        ({"source_val_accuracy": math.inf}, "record.source_val_accuracy: "),
        ({"marginal_l1_error": 2.5}, "record.marginal_l1_error: "),
        ({"marginal_l1_error": math.nan}, "record.marginal_l1_error: "),
        ({"true_marginal": [1.5, -0.5]}, "record.true_marginal[1]: "),
        ({"estimated_marginal": [0.5, math.inf]}, "record.estimated_marginal[1]: "),
        ({"true_marginal": [0.5, 0.5], "estimated_marginal": [0.2, 0.3, 0.5]},
         "record.estimated_marginal: "),
        ({"true_marginal": [0.5, 0.6]}, "record.true_marginal: "),
        ({"alpha": 0}, "record.alpha: "),
        ({"alpha": -0.5}, "record.alpha: "),
        ({"estimator": "rlls"}, "record.estimator: "),
        ({"corrections": "rs+rw"}, "record.estimator: "),
        ({"error": "ValueError: bad"}, "record.target_accuracy: "),
        ({"target_accuracy": None, "error": "ValueError: bad", "true_marginal": [0.5, 0.5]},
         "record.true_marginal: "),
        ({"target_accuracy": None}, "record.target_accuracy: "),
        ({"alpha": "0.5"}, "record.alpha: "),
        ({"seed": " 3 "}, "record.seed: "),
        ({"target_accuracy": "0.75"}, "record.target_accuracy: "),
        ({"method": "magic"}, "record.method: "),
        ({"corrections": "rw+zz", "estimator": "rlls"}, "record.corrections: "),
        ({"corrections": "rw+rs", "estimator": "rlls"}, "record.corrections: "),
        ({"corrections": "none+rs"}, "record.corrections: "),
        ({"corrections": "rw", "estimator": "oracle"}, "record.estimator: "),
        ({"alpha": 10**400}, "record.alpha: "),
        ({"wall_time_seconds": math.nan}, "record.wall_time_seconds: "),
        ({"wall_time_seconds": -1.0}, "record.wall_time_seconds: "),
        ({"task_id": ""}, "record.task_id: "),
    ], ids=["list", "null-seed", "string-seed", "fractional-seed", "bool-alpha",
            "number-marginal", "string-in-marginal", "number-task-id", "null-method",
            "nan-accuracy", "accuracy-above-one", "negative-accuracy", "infinite-val-accuracy",
            "l1-above-two", "nan-l1", "negative-marginal-entry", "infinite-marginal-entry",
            "unequal-marginals", "marginal-off-simplex", "zero-alpha", "negative-alpha",
            "estimator-without-rw", "rw-without-estimator", "error-with-accuracy",
            "error-with-marginal", "success-without-accuracy", "string-alpha",
            "padded-string-seed", "string-accuracy", "unknown-method",
            "unknown-correction-token", "unordered-corrections", "none-with-corrections",
            "unknown-estimator", "alpha-too-large-for-a-float", "nan-wall-time",
            "negative-wall-time", "empty-task-id"])
    def test_bad_line_names_its_place_and_field(self, tmp_path, capsys, line, where):
        if isinstance(line, dict):
            line = {**baseline().to_json_dict(), **line}
        path = tmp_path / RESULTS_FILENAME
        path.write_text(json.dumps(baseline().to_json_dict()) + "\n" + json.dumps(line) + "\n")
        with pytest.raises(ParseError) as info:
            read_records(path)
        assert str(info.value).startswith(f"{path}:2: {where}")
        # Both commands that read a results file refuse it with one line.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output_dir": str(tmp_path), "tasks": [
            {"name": "t", "k": 2, "d": 2, "n_source": 20, "n_target": 20}]}))
        for argv in (["report", "--results", str(path), "--out", str(tmp_path / "s.csv")],
                     ["run", "--config", str(config), "--resume"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}:2: {where}") and err.count("\n") == 1


class TestAggregate:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, width=64),
                              st.integers(-8, 8).map(lambda v: v / 8)),
                    min_size=1, max_size=60))
    def test_statistics_match_numpy_bit_for_bit(self, values):
        # np.sort and numpy's own partition may order -0.0 and 0.0 apart.
        assume(len({math.copysign(1.0, v) for v in values if v == 0.0}) < 2)
        ordered = np.sort(np.asarray(values, dtype=np.float64))
        for data in (ordered, np.sort(np.append(ordered, np.nan))):
            got = [bench_module._median(data.tolist()),
                   bench_module._percentile(data.tolist(), 0.25),
                   bench_module._percentile(data.tolist(), 0.75)]
            with np.errstate(all="ignore"):  # numpy warns on inf - inf and on overflow
                want = [np.median(data), np.percentile(data, 25), np.percentile(data, 75)]
            assert [repr(v) for v in got] == [repr(float(v)) for v in want]

    def test_two_point_statistics(self):
        records = [
            baseline(acc=0.70, seed=0), baseline(acc=0.70, seed=1),
            record(acc=0.72, seed=0, l1=0.2), record(acc=0.74, seed=1, l1=0.4),
        ]
        summaries = aggregate(records)
        target = [s for s in summaries if s.method == "pseudolabel"][0]
        assert target.n == 2
        assert target.mean_rel_acc == pytest.approx(0.03)
        assert target.median_rel_acc == pytest.approx(0.03)
        assert target.q25 == pytest.approx(0.025)
        assert target.q75 == pytest.approx(0.035)
        assert target.mean_l1 == pytest.approx(0.3)
        base = [s for s in summaries if s.method == "source_only"][0]
        assert base.mean_rel_acc == 0.0
        assert base.mean_l1 is None

    def test_all_zero_group(self):
        records = [baseline(acc=0.7, seed=s) for s in range(3)]
        (summary,) = aggregate(records)
        assert (summary.mean_rel_acc, summary.median_rel_acc, summary.q25,
                summary.q75) == (0.0, 0.0, 0.0, 0.0)

    def test_percentile_convention(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.percentile(values, 25) == pytest.approx(1.75)

    def test_unpaired_record_raises(self):
        with pytest.raises(PairingError, match="baseline"):
            aggregate([record(acc=0.8)])

    def test_duplicate_baseline_raises(self):
        with pytest.raises(PairingError, match="duplicate"):
            aggregate([baseline(), baseline()])

    def test_a_failed_baseline_leaves_its_coordinate_out(self):
        kept = [baseline(acc=0.70, seed=0), record(acc=0.72, seed=0, l1=0.2),
                baseline(acc=0.60, seed=2), record(acc=0.50, seed=2, l1=0.4)]
        failed = [record(method="source_only", corrections="none", estimator=None, seed=1,
                         error="DivergedError: loss is not finite"),
                  record(acc=0.9, seed=1, l1=0.1)]
        records = kept[:2] + failed + kept[2:]
        assert failed_baselines(records) == [("t", 0.5, 1)]
        assert aggregate(records) == aggregate(kept)
        # A failed coordinate with nothing else to leave out is not named,
        # and a retry that succeeded pairs as usual.
        assert failed_baselines(kept + failed[:1]) == []
        retried = records + [baseline(acc=0.8, seed=1)]
        assert failed_baselines(retried) == []
        assert aggregate(retried) == aggregate(kept + failed[1:] + retried[-1:])

    def test_failed_records_are_skipped(self):
        records = [baseline(), record(error="RuntimeError: x")]
        summaries = aggregate(records)
        assert len(summaries) == 1
        assert summaries[0].method == "source_only"

    def test_permutation_invariance(self):
        records = [
            baseline(acc=0.70, seed=0), baseline(acc=0.65, seed=1),
            record(acc=0.72, seed=0, l1=0.3), record(acc=0.4, seed=1, l1=0.1),
            record(acc=0.9, seed=0, corrections="rs", estimator=None),
        ]
        assert aggregate(records) == aggregate(list(reversed(records)))


class TestSummaryCsv:
    def test_header_and_formatting(self, tmp_path):
        summaries = [
            Summary(alpha=None, method="source_only", corrections="none",
                    estimator=None, n=4, mean_rel_acc=0.0, median_rel_acc=0.0,
                    q25=0.0, q75=0.0, mean_l1=None, median_l1=None),
            Summary(alpha=0.5, method="pseudolabel", corrections="rs+rw",
                    estimator="rlls", n=4, mean_rel_acc=0.03125, median_rel_acc=0.03,
                    q25=0.02, q75=0.04, mean_l1=0.125, median_l1=0.125),
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(path, summaries)
        lines = path.read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert lines[1] == "none,source_only,none,,4,0.0,0.0,0.0,0.0,,"
        assert lines[2] == "0.5,pseudolabel,rs+rw,rlls,4,0.03125,0.03,0.02,0.04,0.125,0.125"


class TestPredictionDumps:
    def test_round_trip_without_labels(self, tmp_path):
        gen = np.random.default_rng(0)
        preds = PredictionMatrix(gen.dirichlet(np.ones(3), size=20))
        path = tmp_path / "preds.csv"
        write_predictions(path, preds)
        got, labels = ingest_predictions(path)
        assert labels is None
        assert np.max(np.abs(got.values - preds.values)) <= 1e-12
        assert path.read_text().splitlines()[0] == "p0,p1,p2"

    def test_round_trip_with_labels(self, tmp_path):
        preds = PredictionMatrix(np.array([[0.25, 0.75], [0.5, 0.5]]))
        path = tmp_path / "preds.csv"
        write_predictions(path, preds, labels=[1, 0])
        got, labels = ingest_predictions(path)
        assert path.read_text().splitlines()[0] == "p0,p1,y"
        assert np.array_equal(labels, [1, 0])
        assert np.allclose(got.values, preds.values, atol=1e-15)

    def test_small_deviation_renormalized(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("p0,p1\n0.5,0.5001\n")
        got, _ = ingest_predictions(path)
        assert got.values[0].sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_deviation_rejected_without_normalize(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("p0,p1\n0.5,0.5\n0.9,0.5\n")
        with pytest.raises(ParseError, match="3"):
            ingest_predictions(path)
        got, _ = ingest_predictions(path, normalize=True)
        assert got.values[1].sum() == pytest.approx(1.0, abs=1e-15)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("p0,p1\n0.5\n")
        with pytest.raises(ParseError, match="2"):
            ingest_predictions(path)
        path.write_text("p0,p1\nspam,0.5\n")
        with pytest.raises(ParseError, match="non-numeric"):
            ingest_predictions(path)
        path.write_text("p0,p1\n-0.1,1.1\n")
        with pytest.raises(ParseError, match="negative"):
            ingest_predictions(path)
        path.write_text("p0,p1\n0.0,0.0\n")
        with pytest.raises(ParseError, match="zero"):
            ingest_predictions(path)
        path.write_text("p0,p1,y\n0.5,0.5,1.5\n")
        with pytest.raises(ParseError, match="label"):
            ingest_predictions(path)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "preds.csv"
        for header in ("p1,p0", "p0,q1", "p0", "x,y"):
            path.write_text(header + "\n0.5,0.5\n")
            with pytest.raises(ParseError):
                ingest_predictions(path)
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            ingest_predictions(path)
        path.write_text("p0,p1\n")
        with pytest.raises(ParseError, match="no data"):
            ingest_predictions(path)
