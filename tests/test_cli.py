"""End-to-end command-line behavior: config parsing, exit codes, artifacts."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import labelshift
import labelshift.bench as bench_module
import labelshift.estimate as estimate_module
from labelshift.bench import SUMMARY_HEADER, read_records, write_predictions
from labelshift.cli import build_parser, load_grid_config, main
from labelshift.core import PredictionMatrix
from labelshift.shift import save_labeled_csv
from tests.test_adapt import make_blobs


def write_config(tmp_path, **overrides):
    doc = {
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
        "tasks": [{"name": "blob", "k": 2, "d": 2, "n_source": 120,
                   "n_target": 120, "class_separation": 3.0}],
        "alphas": [None, 0.5],
        "seeds": [0],
        "methods": ["source_only"],
        "corrections": ["none", "rs+rw"],
        "estimators": ["rlls"],
        "train": {"epochs": 2, "batch_size": 64, "learning_rate": 0.5, "l2": 1e-4},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def without_wall_time(line):
    record = json.loads(line)
    record.pop("wall_time_seconds")
    return record


def one_hot_dump(tmp_path, name, counts, labels=True):
    """counts[j] one-hot rows for class j, optionally labeled."""
    k = len(counts)
    rows = []
    ys = []
    for j, c in enumerate(counts):
        for _ in range(c):
            rows.append(np.eye(k)[j])
            ys.append(j)
    path = tmp_path / name
    write_predictions(path, PredictionMatrix(np.asarray(rows)),
                      labels=ys if labels else None)
    return path


class TestRun:
    def test_dry_run_prints_count_and_writes_nothing(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert not (tmp_path / "out").exists()

    def test_happy_path_writes_results_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        results = tmp_path / "out" / "results.jsonl"
        summary = tmp_path / "out" / "summary.csv"
        assert len(results.read_text().splitlines()) == 4
        lines = summary.read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        for line in results.read_text().splitlines():
            assert json.loads(line)["v"] == 1

    def test_unknown_key_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, alpa=[1.0])
        assert main(["run", "--config", str(config)]) == 1
        assert "alpa" in capsys.readouterr().err

    def test_unknown_nested_key_is_named(self, tmp_path, capsys):
        config = write_config(tmp_path, train={"epochs": 2, "momentum": 0.9})
        assert main(["run", "--config", str(config)]) == 1
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("override, where", [
        ({"train": []}, "train"),
        ({"alphas": 5}, "alphas"),
        ({"tasks": 3}, "tasks"),
        ({"tasks": [{"name": "blob", "k": [3], "d": 2, "n_source": 120,
                     "n_target": 120}]}, "tasks[0].k"),
        ({"model": "mlp"}, "model"),
        ({"corrections": [{"flags": 5}]}, "corrections[0]"),
        ({"output_dir": 5}, "output_dir"),
        ({"tasks": [{"name": 7, "k": 2, "d": 2, "n_source": 120, "n_target": 120}]},
         "tasks[0].name"),
        ({"tasks": [{"name": "pool", "data_dir": 5}]}, "tasks[0].data_dir"),
        ({"tasks": [{"name": 7, "data_dir": "pools"}]}, "tasks[0].name"),
        ({"model": {"kind": ["mlp"]}}, "model.kind"),
        ({"seeds": [1.7]}, "seeds[0]"),
        ({"train": {"epochs": 2.9}}, "train.epochs"),
        ({"train": {"learning_rate": True}}, "train.learning_rate"),
        ({"tasks": [{"name": "pool", "data_dir": None}]}, "tasks[0].data_dir"),
        ({"seed": "7"}, "seed"),
        ({"alphas": ["0.5"]}, "alphas[0]"),
        ({"train": {"epochs": "2"}}, "train.epochs"),
    ])
    def test_wrongly_typed_value_is_a_one_line_error(self, tmp_path, capsys, override,
                                                     where):
        config = write_config(tmp_path, **override)
        assert main(["run", "--config", str(config), "--dry-run"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}: ") and err.count("\n") == 1

    def test_dataset_task_takes_no_epsilon(self, tmp_path, capsys):
        config = write_config(tmp_path, tasks=[{"name": "pool", "data_dir": "pools",
                                                "epsilon": 0.5}])
        assert main(["run", "--config", str(config), "--dry-run"]) == 1
        assert capsys.readouterr().err == "error: tasks[0]: unknown key 'epsilon'\n"

    def test_readme_config_example_parses(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Grid config\n", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        config = tmp_path / "config.json"
        config.write_text(example)
        cfg = load_grid_config(config)
        assert [task.name for task in cfg.tasks] == ["blobs", "mydata"]

    def test_bad_corrections_token(self, tmp_path, capsys):
        config = write_config(tmp_path, corrections=["rs+magic"])
        assert main(["run", "--config", str(config)]) == 1
        assert "magic" in capsys.readouterr().err

    def test_config_syntax_error_reports_line(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{\n  "tasks": [,]\n}')
        assert main(["run", "--config", str(config)]) == 1
        assert ":2" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_rerun_needs_resume_flag(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config)]) == 1
        assert "resume" in capsys.readouterr().err
        results = tmp_path / "out" / "results.jsonl"
        before = results.read_text()
        assert main(["run", "--config", str(config), "--resume"]) == 0
        assert results.read_text() == before

    def test_resume_reruns_a_torn_last_line(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        results = tmp_path / "out" / "results.jsonl"
        lines = results.read_text().splitlines()
        results.write_text("\n".join(lines)[:-20])
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--resume"]) == 0
        assert "4 records, 0 failed" in capsys.readouterr().out
        resumed = results.read_text().splitlines()
        assert resumed[:3] == lines[:3]
        assert len(read_records(results)) == 4
        assert without_wall_time(resumed[3]) == without_wall_time(lines[3])

    def test_resume_retries_failed_cells(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        results = tmp_path / "out" / "results.jsonl"
        lines = results.read_text().splitlines()
        cell = json.loads(lines[1])
        failed = {name: cell[name] for name in ("v", "task_id", "alpha", "seed",
                                                "method", "corrections", "estimator")
                  if name in cell}
        failed["error"] = "RuntimeError: interrupted"
        results.write_text("\n".join([lines[0], json.dumps(failed), *lines[2:]]) + "\n")
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--resume"]) == 0
        assert "4 records, 0 failed" in capsys.readouterr().out
        resumed = results.read_text().splitlines()
        assert len(resumed) == 5
        assert without_wall_time(resumed[4]) == without_wall_time(lines[1])

    @pytest.mark.parametrize("change, field", [
        ({"train": {"epochs": 3, "batch_size": 64, "learning_rate": 0.5, "l2": 1e-4}},
         "train.epochs is 2 in "),
        ({"seed": 6}, "seed is 5 in "),
        ({"model": {"kind": "mlp"}}, 'model_kind is "logistic" in '),
        ({"tasks": [{"name": "blob", "k": 2, "d": 2, "n_source": 150, "n_target": 120,
                     "class_separation": 3.0}]}, "tasks.blob.synth.n_source is 120 in "),
    ], ids=["epochs", "seed", "model", "task"])
    def test_resume_refuses_a_changed_config(self, tmp_path, capsys, change, field):
        assert main(["run", "--config", str(write_config(tmp_path))]) == 0
        results = tmp_path / "out" / "results.jsonl"
        before = results.read_text()
        capsys.readouterr()
        assert main(["run", "--config", str(write_config(tmp_path, **change)), "--resume"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {results} holds records of another config: {field}")
        assert results.read_text() == before

    def test_resume_may_change_the_axes_and_tasks(self, tmp_path, capsys):
        assert main(["run", "--config", str(write_config(tmp_path))]) == 0
        capsys.readouterr()
        other = {"name": "other", "k": 2, "d": 2, "n_source": 100, "n_target": 100}
        grown = write_config(tmp_path, alphas=[None, 0.5, 1.0], corrections=["none"],
                             tasks=[other])
        assert main(["run", "--config", str(grown), "--resume"]) == 0
        assert "3 records, 0 failed" in capsys.readouterr().out
        # The dropped task's records stay, so its definition is still checked.
        blob = {"name": "blob", "k": 2, "d": 2, "n_source": 99, "n_target": 120,
                "class_separation": 3.0}
        assert main(["run", "--config", str(write_config(tmp_path, tasks=[blob])),
                     "--resume"]) == 1
        assert "tasks.blob.synth.n_source is 120" in capsys.readouterr().err

    def test_run_without_a_stored_config_resumes_as_before(self, tmp_path, capsys):
        assert main(["run", "--config", str(write_config(tmp_path))]) == 0
        capsys.readouterr()
        (tmp_path / "out" / "results_config.json").unlink()
        changed = write_config(tmp_path, seed=6, alphas=[None, 0.5, 1.0])
        assert main(["run", "--config", str(changed), "--resume"]) == 0
        assert "6 records, 0 failed" in capsys.readouterr().out

    def test_resume_keeps_an_unchanged_stored_config(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        stored = tmp_path / "out" / "results_config.json"
        before = stored.stat()
        assert main(["run", "--config", str(config), "--resume"]) == 0
        after = stored.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert sorted(p.name for p in stored.parent.iterdir()) == [
            "results.jsonl", "results_config.json", "summary.csv"]

    @pytest.mark.parametrize("text", ["", '{\n  "seed": 5,\n  "tasks": ['])
    def test_torn_stored_config_is_a_one_line_error(self, tmp_path, capsys, text):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        stored = tmp_path / "out" / "results_config.json"
        stored.write_text(text)
        assert main(["run", "--config", str(config), "--resume"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith(f"error: {stored}:")

    def test_partial_failure_exits_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            tasks=[
                {"name": "blob", "k": 2, "d": 2, "n_source": 120, "n_target": 120},
                {"name": "broken", "data_dir": str(tmp_path / "nowhere")},
            ],
            alphas=[None],
            corrections=["none"],
        )
        assert main(["run", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert "failed cell" in captured.err
        assert "1 failed" in captured.out

    def test_parallel_run_works(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--jobs", "4"]) == 0
        assert len((tmp_path / "out" / "results.jsonl").read_text().splitlines()) == 4

    def test_default_jobs_match_serial(self, tmp_path, capsys):
        pools = tmp_path / "pools"
        pools.mkdir()
        for part, seed in (("source", 0), ("target", 1)):
            save_labeled_csv(pools / f"{part}.csv", make_blobs(3, 3, 300, 3.0, seed=seed))
        tasks = [{"name": "blob", "k": 2, "d": 2, "n_source": 120, "n_target": 120},
                 {"name": "wide", "k": 3, "d": 3, "n_source": 120, "n_target": 120},
                 {"name": "disk", "data_dir": str(pools)}]
        outputs = []
        for name, flags in (("serial", ["--jobs", "1"]), ("default", [])):
            config = write_config(tmp_path, tasks=tasks, seeds=[0, 1],
                                  output_dir=str(tmp_path / name))
            assert main(["run", "--config", str(config), *flags]) == 0
            lines = (tmp_path / name / "results.jsonl").read_text().splitlines()
            outputs.append(([without_wall_time(line) for line in lines],
                            (tmp_path / name / "summary.csv").read_bytes()))
        assert len(outputs[0][0]) == 3 * 2 * 2 * 2
        assert outputs[1] == outputs[0]

        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        args = build_parser().parse_args(["run", "--config", str(config)])
        assert args.jobs == cpus
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--jobs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "jobs" in err

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="grid workers fork")
    def test_dead_worker_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        original = bench_module.build_bundle

        def dies(cfg, task, alpha, seed, pools=None):
            if alpha is not None:
                os._exit(1)
            return original(cfg, task, alpha, seed, pools)

        monkeypatch.setattr(bench_module, "build_bundle", dies)
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ended without sending its results" in err and "--resume" in err

    def test_no_process_imports_numpy_ma_or_a_process_pool(self, tmp_path):
        # Checked in a fresh interpreter after an rs grid at --jobs 1 and 2,
        # and in every grid worker after its coordinate.
        script = """
import json, os, sys
from labelshift import bench
from labelshift.cli import main

UNWANTED = ("numpy.ma", "concurrent.futures", "multiprocessing")
log = sys.argv[1]
original = bench.run_coordinate

def checked(cfg, cells, pools=None):
    records = original(cfg, cells, pools)
    with open(log, "a") as fh:
        fh.write(json.dumps([os.getpid(), [m for m in UNWANTED if m in sys.modules]]) + "\\n")
    return records

bench.run_coordinate = checked
codes = [main(argv.split()) for argv in sys.argv[2:]]
print(json.dumps([codes, os.getpid(), [m for m in UNWANTED if m in sys.modules]]))
"""
        runs = []
        for jobs in (1, 2):
            (tmp_path / f"jobs{jobs}").mkdir()
            config = write_config(tmp_path / f"jobs{jobs}", corrections=["none", "rs"],
                                  output_dir=str(tmp_path / f"jobs{jobs}" / "out"))
            runs.append(f"run --config {config} --jobs {jobs}")
        source = one_hot_dump(tmp_path, "source.csv", [10, 10])
        target = one_hot_dump(tmp_path, "target.csv", [3, 7], labels=False)
        runs.append(f"estimate --source {source} --target {target}")
        log = tmp_path / "modules.log"
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", script, str(log), *runs], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes, parent, unwanted = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0, 0] and unwanted == []
        coordinates = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(coordinates) == 2 * 2
        assert all(found == [] for _, found in coordinates)
        if hasattr(os, "fork"):
            assert {pid for pid, _ in coordinates} - {parent}

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--confg", "x"]) == 1
        assert "error" in capsys.readouterr().err


class TestEstimate:
    def test_perfect_classifier_all_estimators(self, tmp_path, capsys):
        source = one_hot_dump(tmp_path, "source.csv", [10, 10])
        target = one_hot_dump(tmp_path, "target.csv", [3, 7], labels=False)
        for estimator, extra in (
            ("rlls", ["--lambda", "0"]),
            ("mlls", []),
            ("baseline", []),
        ):
            code = main(["estimate", "--source", str(source), "--target",
                         str(target), "--estimator", estimator, *extra])
            payload = json.loads(capsys.readouterr().out)
            assert code == 0
            assert payload["estimator"] == estimator
            assert np.allclose(payload["marginal"], [0.3, 0.7], atol=1e-3)

    def test_baseline_is_target_column_means(self, tmp_path, capsys):
        source = one_hot_dump(tmp_path, "source.csv", [5, 5])
        target = tmp_path / "target.csv"
        write_predictions(target, PredictionMatrix(np.array([[0.2, 0.8], [0.4, 0.6]])))
        assert main(["estimate", "--source", str(source), "--target", str(target),
                     "--estimator", "baseline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["marginal"], [0.3, 0.7], atol=1e-12)

    def test_moment_matching_worked_example(self, tmp_path, capsys):
        source = tmp_path / "source.csv"
        write_predictions(source, PredictionMatrix(np.array([[0.8, 0.2], [0.6, 0.4]])),
                          labels=[0, 1])
        target = tmp_path / "target.csv"
        write_predictions(target, PredictionMatrix(np.array([[0.64, 0.36]])))
        assert main(["estimate", "--source", str(source), "--target", str(target),
                     "--estimator", "rlls", "--lambda", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["weights"], [0.4, 1.6], atol=1e-3)

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_bad_lambda_rejected_without_warnings(self, tmp_path, capsys, lam):
        source = one_hot_dump(tmp_path, "source.csv", [5, 5])
        target = one_hot_dump(tmp_path, "target.csv", [3, 7], labels=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--source", str(source), "--target", str(target),
                         "--estimator", "rlls", "--lambda", lam])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: lam must be finite and nonnegative, or None\n"

    def test_label_beyond_int64_is_a_parse_error(self, tmp_path, capsys):
        source = tmp_path / "source.csv"
        source.write_text("p0,p1,y\n0.5,0.5,0\n0.5,0.5,9223372036854775808\n")
        target = one_hot_dump(tmp_path, "target.csv", [3, 7], labels=False)
        code = main(["estimate", "--source", str(source), "--target", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {source}:3: label out of range\n"

    def test_unlabeled_source_rejected(self, tmp_path, capsys):
        source = one_hot_dump(tmp_path, "source.csv", [4, 4], labels=False)
        target = one_hot_dump(tmp_path, "target.csv", [2, 2], labels=False)
        assert main(["estimate", "--source", str(source),
                     "--target", str(target)]) == 1
        assert "y column" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        source = one_hot_dump(tmp_path, "source.csv", [4, 4])
        target = one_hot_dump(tmp_path, "target.csv", [2, 2, 2], labels=False)
        assert main(["estimate", "--source", str(source),
                     "--target", str(target)]) == 1

    def test_diagnostics_exit_three_with_best_effort_output(self, tmp_path, capsys):
        # Source never shows class 2; all target mass lands there.
        source = one_hot_dump(tmp_path, "source.csv", [5, 5, 0])
        target = one_hot_dump(tmp_path, "target.csv", [0, 0, 6], labels=False)
        code = main(["estimate", "--source", str(source), "--target", str(target),
                     "--estimator", "rlls"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["diagnostics"]
        assert "marginal" in payload

    @pytest.mark.parametrize("estimator, cap, message", [
        ("rlls", "RLLS_MAX_ITERS", "did not converge within 1 iterations"),
        ("mlls", "MLLS_MAX_ITERS", "EM did not converge within 1 iterations"),
    ])
    def test_iteration_cap_exits_three(self, tmp_path, capsys, monkeypatch, estimator,
                                       cap, message):
        # RLLS's optimum at lambda 0 has two zero coordinates here, so its
        # active-set solve needs two changes and a cap of one stops it.
        monkeypatch.setattr(estimate_module, cap, 1)
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=60)
        source, target = tmp_path / "source.csv", tmp_path / "target.csv"
        write_predictions(source, PredictionMatrix(0.5 * rng.dirichlet(np.ones(4), size=60)
                                                   + 0.5 * np.eye(4)[labels]), labels=labels)
        write_predictions(target, PredictionMatrix(np.eye(4)[rng.integers(0, 2, size=80)]))
        code = main(["estimate", "--source", str(source), "--target", str(target),
                     "--estimator", estimator, "--lambda", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["converged"] is False
        assert message in payload["diagnostics"]

    def test_p_source_override_parses(self, tmp_path, capsys):
        source = one_hot_dump(tmp_path, "source.csv", [6, 4])
        target = one_hot_dump(tmp_path, "target.csv", [5, 5], labels=False)
        assert main(["estimate", "--source", str(source), "--target", str(target),
                     "--estimator", "baseline", "--p-source", "0.5,0.5"]) == 0
        assert main(["estimate", "--source", str(source), "--target", str(target),
                     "--p-source", "0.5,oops"]) == 1

    @pytest.mark.parametrize("estimator", ["rlls", "mlls", "baseline"])
    def test_inputs_of_another_k_are_one_error_line(self, tmp_path, capsys, estimator):
        source = one_hot_dump(tmp_path, "source.csv", [4, 4, 4])
        target = one_hot_dump(tmp_path, "target.csv", [2, 3, 5], labels=False)
        code = main(["estimate", "--source", str(source), "--target", str(target),
                     "--estimator", estimator, "--p-source", "0.5,0.5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: p_s has k=2, predictions have k=3\n"

        beyond_k = tmp_path / "beyond_k.csv"
        beyond_k.write_text("p0,p1,y\n0.5,0.5,0\n0.5,0.5,5\n")
        code = main(["estimate", "--source", str(beyond_k), "--target",
                     str(one_hot_dump(tmp_path, "t2.csv", [1, 1], labels=False)),
                     "--estimator", estimator])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: labels must lie in [0, 2)\n"

    def test_normalize_flag_accepts_sloppy_rows(self, tmp_path, capsys):
        source = one_hot_dump(tmp_path, "source.csv", [4, 4])
        target = tmp_path / "target.csv"
        target.write_text("p0,p1\n0.9,0.5\n")
        assert main(["estimate", "--source", str(source),
                     "--target", str(target)]) == 1
        assert main(["estimate", "--source", str(source), "--target", str(target),
                     "--normalize", "--estimator", "baseline"]) == 0


class TestSynthAndAdapt:
    def test_synth_then_adapt_round_trip(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        assert main(["synth", "--k", "2", "--d", "2", "--n-source", "300",
                     "--n-target", "300", "--class-separation", "3.0",
                     "--alpha", "0.5", "--seed", "3", "--out", str(bundle_dir)]) == 0
        synth_payload = json.loads(capsys.readouterr().out)
        assert synth_payload["k"] == 2
        assert (bundle_dir / "manifest.json").exists()
        assert abs(sum(synth_payload["true_target_marginal"]) - 1.0) < 1e-9

        model_path = tmp_path / "model.json"
        code = main(["adapt", "--bundle", str(bundle_dir), "--method", "source_only",
                     "--corrections", "rs+rw", "--epochs", "3", "--seed", "1",
                     "--out", str(model_path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert model_path.exists()
        assert 0.0 <= payload["target_accuracy"] <= 1.0
        assert "estimated_marginal" in payload
        assert "marginal_l1_error" in payload

    def test_adapt_without_corrections_reports_raw_metrics(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        main(["synth", "--k", "2", "--d", "2", "--n-source", "200", "--n-target",
              "200", "--alpha", "none", "--out", str(bundle_dir)])
        capsys.readouterr()
        code = main(["adapt", "--bundle", str(bundle_dir), "--epochs", "2",
                     "--out", str(tmp_path / "m.json")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["corrections"] == "none"
        assert "estimated_marginal" not in payload

    def test_synth_rejects_bad_alpha_text(self, tmp_path, capsys):
        assert main(["synth", "--k", "2", "--d", "2", "--n-source", "100",
                     "--n-target", "100", "--alpha", "soon",
                     "--out", str(tmp_path / "b")]) == 1

    def test_adapt_missing_bundle(self, tmp_path, capsys):
        assert main(["adapt", "--bundle", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "m.json")]) == 1


class TestReport:
    def test_report_matches_run_summary(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        run_summary = (tmp_path / "out" / "summary.csv").read_text()
        out = tmp_path / "fresh.csv"
        assert main(["report", "--results", str(tmp_path / "out" / "results.jsonl"),
                     "--out", str(out)]) == 0
        assert out.read_text() == run_summary

    def test_a_failed_baseline_leaves_only_its_coordinate_out(self, tmp_path, capsys):
        lines = []
        for seed in range(3):
            common = {"v": 1, "task_id": "blob", "alpha": 0.5, "seed": seed}
            if seed == 1:
                base = {"error": "DivergedError: training loss is not finite"}
            else:
                base = {"target_accuracy": 0.7 + seed / 100}
            lines.append({**common, "method": "source_only", "corrections": "none",
                          "estimator": None, **base})
            lines.append({**common, "method": "pseudolabel", "corrections": "none",
                          "estimator": None, "target_accuracy": 0.75})
        paths = {}
        for name, rows in (("all", lines), ("kept", lines[:2] + lines[4:])):
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_text("".join(json.dumps(row) + "\n" for row in rows))
        summaries, errors = [], []
        for name in ("all", "kept"):
            out = tmp_path / f"{name}.csv"
            assert main(["report", "--results", str(paths[name]), "--out", str(out)]) == 0
            summaries.append(out.read_bytes())
            errors.append(capsys.readouterr().err)
        assert summaries[0] == summaries[1] and b"pseudolabel" in summaries[0]
        assert errors == ["summary leaves out task 'blob', alpha 0.5, seed 1: its uncorrected "
                          "source_only cell failed\n", ""]

    def test_run_keeps_the_summary_when_a_baseline_fails(self, tmp_path, capsys,
                                                           monkeypatch):
        original, calls = bench_module.meta_adapt, []

        def diverges(method, bundle, flags, cfg, **kwargs):
            calls.append(method)
            if calls == ["source_only"]:
                raise labelshift.DivergedError("training loss is not finite")
            return original(method, bundle, flags, cfg, **kwargs)

        monkeypatch.setattr(bench_module, "meta_adapt", diverges)
        config = write_config(tmp_path, methods=["source_only", "pseudolabel"],
                              corrections=["none"])
        assert main(["run", "--config", str(config), "--jobs", "1"]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            "summary leaves out task 'blob', alpha None, seed 0: its uncorrected "
            "source_only cell failed",
            "failed cell ('blob', None, 0, 'source_only', 'none', ''): "
            "DivergedError: training loss is not finite",
        ]
        assert "summary.csv" in out and "4 records, 1 failed" in out
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in summary[1:]] == [["0.5", "pseudolabel"],
                                                                 ["0.5", "source_only"]]

    def test_report_missing_results(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path / "s.csv")]) == 1


def test_python_dash_m_labelshift_runs_the_cli():
    src = str(Path(labelshift.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "labelshift", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: labelshift ")
    assert "RuntimeWarning" not in proc.stderr
