"""One benchmark workload, run in a process of its own.

``run.py`` starts this file once per run with BLAS and OpenMP pinned to one
thread. It generates the workload's inputs from the seed (several times, to
time set-up), runs one warm-up op, then runs whole rounds of ops against the
program's public entry point (``labelshift.cli.main``, in process) until the
requested seconds have been measured, checks every output against
computations of its own, and prints one JSON result as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracing import ESTIMATOR_KS, Tracer

HERE = Path(__file__).resolve().parent
MAX_ROUNDS = 1000
SETUP_REPS = 5

# grid_paper: the acceptance-grid shape (k=3, d=16, 10k examples per domain,
# logistic, 20 epochs); every cell trains a distinct model.
PAPER_K, PAPER_D, PAPER_N, PAPER_SEP = 3, 16, 10_000, 2.75

# grid_arms: one dataset-backed task whose pools the benchmark writes; 8 cells
# per (coordinate, method) share 2 distinct trainings.
ARMS_K, ARMS_D, ARMS_N, ARMS_SEP = 3, 16, 2_000, 2.5

# estimate_sweep: Bayes-calibrated prediction dumps, no conditional shift.
EST_ROWS, EST_SEP, EST_ALPHA, EST_MIN_SHIFT = 4_000, 2.5, 0.3, 0.5
ESTIMATORS = ("rlls", "mlls", "baseline")
# The dumps at these k are drawn from a fixed seed, because the rlls calls on
# them fail every time (see KNOWN_FAULT): a failing op must not depend on
# --seed, or the share of failed ops would vary between runs.
EST_FIXED_SEED = 20260
KNOWN_FAULT = {("rlls", 10), ("rlls", 50)}

HOLDOUT_FRACTION = 0.2  # the program's train/holdout split of each domain


def import_program():
    """Import the package from scratch and return its CLI module."""
    for name in [m for m in sys.modules if m == "labelshift" or m.startswith("labelshift.")]:
        del sys.modules[name]
    return importlib.import_module("labelshift.cli")


# ---------------------------------------------------------------------------
# The benchmark's own Gaussian layout: k unit-covariance classes with means on
# one-hot vertices scaled to pairwise distance `sep` (the layout the program's
# synthetic tasks use too).


def gaussian_draw(rng, k, d, n, sep, marginal):
    labels = rng.choice(k, size=n, p=marginal)
    x = rng.standard_normal((n, d))
    x[np.arange(n), labels] += sep / math.sqrt(2.0)
    return x, labels


def bayes_posterior(x, k, sep, prior):
    # log N(x; m e_j, I) differs across j only by m * x_j.
    scores = np.log(prior)[None, :] + (sep / math.sqrt(2.0)) * x[:, :k]
    scores -= scores.max(axis=1, keepdims=True)
    p = np.exp(scores)
    return p / p.sum(axis=1, keepdims=True)


def bayes_accuracy(k, sep):
    """Accuracy of the Bayes rule under a uniform prior:
    integral of phi(z) * Phi(z + m)^(k-1) dz with m = sep / sqrt(2)."""
    z = np.linspace(-12.0, 12.0, 48_001)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    cdf = np.array([0.5 * math.erfc(-(v + sep / math.sqrt(2.0)) / math.sqrt(2.0)) for v in z])
    return float(np.sum(phi * cdf ** (k - 1)) * (z[1] - z[0]))


def write_rows(path, header, values, labels=None):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(values.tolist()):
            line = ",".join(map(repr, row))
            if labels is not None:
                line += f",{int(labels[i])}"
            fh.write(line + "\n")


def l1(p, q):
    return float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())


# ---------------------------------------------------------------------------
# Grid workloads: one op is one grid cell; one round is one `labelshift run`.


class GridWorkload:
    TASK_K: dict[str, int]
    # Tasks whose α=None coordinates are unshifted: name -> (k, sep, pool rows).
    UNSHIFTED: dict[str, tuple]

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.problems: list[str] = []
        self.failed = 0
        self.samples: dict[tuple, list] = {}
        self.bayes = {name: (bayes_accuracy(k, sep), round(HOLDOUT_FRACTION * n))
                      for name, (k, sep, n) in self.UNSHIFTED.items()}

    def run_config(self, cfg: dict, name: str) -> tuple[int, float]:
        """Write a grid config, then time `labelshift run` on it alone."""
        path = self.work / f"{name}.json"
        cfg = dict(cfg, output_dir=str(self.work / name))
        path.write_text(json.dumps(cfg))
        cli = sys.modules["labelshift.cli"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(["run", "--config", str(path)])
            elapsed = time.perf_counter() - start
        self.check(cfg, code)
        return len(planned_keys(cfg)), elapsed

    def warmup(self):
        cfg = self.config(0)
        cfg.update(tasks=cfg["tasks"][:1], alphas=[None], methods=["source_only"],
                   corrections=["none"])
        self.run_config(cfg, "warmup")

    def round(self, r: int) -> tuple[int, float]:
        return self.run_config(self.config(r), f"round{r}")

    def check(self, cfg: dict, code: int) -> None:
        results = Path(cfg["output_dir"]) / "results.jsonl"
        lines = results.read_text().splitlines() if results.exists() else []
        records = [json.loads(line) for line in lines if line.strip()]
        keys = [(r["task_id"], r["alpha"], r["seed"], r["method"], r["corrections"],
                 r.get("estimator")) for r in records]
        planned = planned_keys(cfg)
        if sorted(keys, key=repr) != sorted(planned, key=repr):
            self.problems.append(f"{cfg['output_dir']}: {len(keys)} records for "
                                 f"{len(planned)} planned cells, or keys differ")
        errors = [r for r in records if "error" in r]
        self.failed += len(errors)
        for r in errors:
            self.problems.append(f"cell failed: {r['error']}")
        if code != (2 if errors else 0):
            self.problems.append(f"labelshift run exited {code}")

        val_acc: dict[tuple, set] = {}
        for r in records:
            if "error" in r:
                continue
            acc = r["target_accuracy"]
            if not acc > 1.0 / self.TASK_K[r["task_id"]]:
                self.problems.append(f"{r['task_id']} accuracy {acc} at or below chance")
            if r["alpha"] is None and r["task_id"] in self.bayes:
                bound, n_test = self.bayes[r["task_id"]]
                slack = 4.0 * math.sqrt(bound * (1.0 - bound) / n_test) + 1.0 / n_test
                if acc > bound + slack:
                    self.problems.append(
                        f"{r['task_id']} accuracy {acc} above Bayes {bound:.4f} + {slack:.4f}")
            if "estimated_marginal" in r:
                want = l1(r["true_marginal"], r["estimated_marginal"])
                if abs(want - r["marginal_l1_error"]) > 1e-12:
                    self.problems.append(
                        f"marginal_l1_error {r['marginal_l1_error']} != computed {want}")
            shared = (r["task_id"], r["alpha"], r["seed"], r["method"],
                      "rs" in r["corrections"].split("+"))
            val_acc.setdefault(shared, set()).add(r["source_val_accuracy"])
            arm = (r["method"], r["corrections"], r.get("estimator") or "")
            self.samples.setdefault(arm, []).append((acc, r.get("marginal_l1_error")))
        for shared, values in val_acc.items():
            if len(values) != 1:
                self.problems.append(f"source_val_accuracy differs within {shared}: {values}")

    def reference(self) -> dict:
        out = {}
        for arm, rows in sorted(self.samples.items()):
            errs = [e for _, e in rows if e is not None]
            out["/".join(filter(None, arm))] = {
                "cells": len(rows),
                "target_accuracy": statistics.fmean(a for a, _ in rows),
                "marginal_l1": statistics.fmean(errs) if errs else None,
            }
        return out


def planned_keys(cfg: dict) -> list[tuple]:
    """The cells a config plans, worked out here rather than by the program."""
    keys = []
    for task in cfg["tasks"]:
        for alpha in cfg["alphas"]:
            for seed in cfg["seeds"]:
                for method in cfg["methods"]:
                    for corr in cfg["corrections"]:
                        ests = cfg["estimators"] if "rw" in corr.split("+") else [None]
                        keys.extend((task["name"], alpha, seed, method, corr, e) for e in ests)
    return keys


class GridPaper(GridWorkload):
    TASK_K = {"eps0": PAPER_K, "eps1": PAPER_K}
    UNSHIFTED = {"eps0": (PAPER_K, PAPER_SEP, PAPER_N)}

    def setup(self):
        pass  # the program generates these tasks itself

    def config(self, r: int) -> dict:
        return {
            "seed": self.seed,
            "tasks": [{"name": f"eps{eps}", "k": PAPER_K, "d": PAPER_D,
                       "n_source": PAPER_N, "n_target": PAPER_N,
                       "class_separation": PAPER_SEP, "epsilon": float(eps)}
                      for eps in (0, 1)],
            "alphas": [None, 0.5],
            "seeds": [r],
            "methods": ["source_only", "pseudolabel"],
            "corrections": ["none", "rs+rw"],
            "estimators": ["rlls"],
            "model": {"kind": "logistic"},
            "train": {"epochs": 20, "batch_size": 128, "learning_rate": 0.5, "l2": 1e-4},
            "pseudolabel": {"tau": 0.9, "lambda_max": 1.0},
        }


class GridArms(GridWorkload):
    TASK_K = {"pool": ARMS_K}
    UNSHIFTED = {"pool": (ARMS_K, ARMS_SEP, ARMS_N)}  # pools carry no conditional shift

    def setup(self):
        rng = np.random.default_rng([1, self.seed])
        pools = self.work / "pools"
        pools.mkdir(exist_ok=True)
        header = [f"f{j}" for j in range(ARMS_D)] + ["y"]
        uniform = np.full(ARMS_K, 1.0 / ARMS_K)
        for part in ("source", "target"):
            x, y = gaussian_draw(rng, ARMS_K, ARMS_D, ARMS_N, ARMS_SEP, uniform)
            write_rows(pools / f"{part}.csv", header, x, y)

    def config(self, r: int) -> dict:
        return {
            "seed": self.seed,
            "tasks": [{"name": "pool", "data_dir": str(self.work / "pools")}],
            "alphas": [None, 0.5],
            "seeds": [r],
            "methods": ["source_only", "pseudolabel", "iw_erm"],
            "corrections": ["none", "rs", "rw", "rs+rw"],
            "estimators": list(ESTIMATORS),
            "model": {"kind": "mlp", "hidden_units": 16},
            "train": {"epochs": 2, "batch_size": 128, "learning_rate": 0.5, "l2": 1e-4},
            "pseudolabel": {"tau": 0.9, "lambda_max": 1.0},
        }


# ---------------------------------------------------------------------------
# estimate_sweep: one op is one `labelshift estimate` call (dump parse plus
# estimator); one round is every estimator at every k.


class EstimateSweep:
    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.problems: list[str] = []
        self.failed = 0
        self.samples: dict[tuple, list] = {}

    def dump_paths(self, k):
        return (self.work / f"k{k}-source.csv", self.work / f"k{k}-target.csv")

    def setup(self):
        self.truth = {}
        for k in ESTIMATOR_KS:
            seed = self.seed if k == 3 else EST_FIXED_SEED
            rng = np.random.default_rng([2, k, seed])
            uniform = np.full(k, 1.0 / k)
            while True:  # a shift large enough that correcting for it matters
                p_t = rng.dirichlet(np.full(k, EST_ALPHA))
                if l1(p_t, uniform) >= EST_MIN_SHIFT:
                    break
            xs, ys = gaussian_draw(rng, k, k, EST_ROWS, EST_SEP, uniform)
            xt, yt = gaussian_draw(rng, k, k, EST_ROWS, EST_SEP, p_t)
            header = [f"p{j}" for j in range(k)]
            src, tgt = self.dump_paths(k)
            write_rows(src, header + ["y"], bayes_posterior(xs, k, EST_SEP, uniform), ys)
            write_rows(tgt, header, bayes_posterior(xt, k, EST_SEP, uniform))
            self.truth[k] = np.bincount(yt, minlength=k) / yt.size

    def read_dumps(self):
        """The dumps as the benchmark reads them, for the output checks."""
        self.dumps = {}
        for k in ESTIMATOR_KS:
            src, tgt = self.dump_paths(k)
            s = np.loadtxt(src, delimiter=",", skiprows=1)
            t = np.loadtxt(tgt, delimiter=",", skiprows=1)
            labels = s[:, -1].astype(np.int64)
            p_s = np.bincount(labels, minlength=k) / labels.size
            self.dumps[k] = (p_s, t / t.sum(axis=1, keepdims=True))

    def call(self, k, estimator):
        src, tgt = self.dump_paths(k)
        cli = sys.modules["labelshift.cli"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["estimate", "--source", str(src), "--target", str(tgt),
                             "--estimator", estimator])
        return code, out.getvalue()

    def warmup(self):
        self.read_dumps()
        self.call(ESTIMATOR_KS[0], ESTIMATORS[0])

    def round(self, r: int) -> tuple[int, float]:
        outputs = []
        start = time.perf_counter()
        for k in ESTIMATOR_KS:
            for estimator in ESTIMATORS:
                outputs.append((k, estimator, *self.call(k, estimator)))
        elapsed = time.perf_counter() - start
        for k, estimator, code, text in outputs:
            self.check(k, estimator, code, text)
        return len(outputs), elapsed

    def check(self, k, estimator, code, text) -> None:
        where = f"{estimator} k={k}"
        try:
            out = json.loads(text)
            marginal = np.asarray(out["marginal"], dtype=float)
            weights = np.asarray(out["weights"], dtype=float)
        except (ValueError, KeyError) as exc:
            self.failed += 1
            self.problems.append(f"{where}: exit {code}, unreadable output ({exc})")
            return
        p_s, target = self.dumps[k]
        problems = []
        if code not in (0, 3) or (code == 3) != bool(out["diagnostics"]):
            problems.append(f"exit {code} with diagnostics {out['diagnostics']}")
        if marginal.shape != (k,) or marginal.min() < 0 or abs(marginal.sum() - 1) > 1e-9:
            problems.append(f"marginal is not a probability vector: {marginal}")
        if weights.shape != (k,) or weights.min() < 0 or abs(weights @ p_s - 1) > 1e-6:
            problems.append(f"weights break sum w * p_s = 1: {weights @ p_s!r}")
        col_means = target.mean(axis=0)
        if estimator == "baseline" and np.abs(marginal - col_means).max() > 1e-12:
            problems.append("baseline differs from the dump's column means")
        if estimator == "mlls":
            # One EM step from the returned marginal must leave it in place.
            post = target * (marginal / p_s)
            step = (post / post.sum(axis=1, keepdims=True)).mean(axis=0)
            if l1(step, marginal) > 1e-6:
                problems.append(f"mlls output moves by {l1(step, marginal):.3g} under one EM step")
        error = l1(marginal, self.truth[k])
        self.samples.setdefault((estimator, k), []).append(error)
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)
            return
        baseline_error = l1(col_means, self.truth[k])
        if estimator != "baseline" and not error < baseline_error:
            # The rlls default lambda = 1/sqrt(n) (estimate.py:174) is the rate
            # for the unsquared objective; the squared solver then shrinks w
            # toward 1 and lands further from the truth than no correction.
            self.failed += 1
            if (estimator, k) not in KNOWN_FAULT:
                self.problems.append(
                    f"{where}: l1 {error:.4f} not below baseline {baseline_error:.4f}")

    def reference(self) -> dict:
        return {f"{e}/k{k}": {"calls": len(v), "marginal_l1": statistics.fmean(v)}
                for (e, k), v in sorted(self.samples.items())}


WORKLOADS = {"grid_paper": GridPaper, "grid_arms": GridArms, "estimate_sweep": EstimateSweep}


def machine_loop_us() -> float:
    """Microseconds per pass of a fixed numpy loop that calls no labelshift
    code, so a slow machine can be told apart from a slow program."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((128, 16)), rng.standard_normal((16, 3))
    passes = 5000
    start = time.perf_counter()
    for _ in range(passes):
        z = x @ w
        z = np.exp(z - z.max(axis=1, keepdims=True))
        z /= z.sum(axis=1, keepdims=True)
    return (time.perf_counter() - start) / passes * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    out_root = HERE / "out"
    work = out_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            import_program()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        loop_before = machine_loop_us()

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        workload.warmup()  # its problems stay reported; its op is not counted
        workload.failed = 0
        workload.samples.clear()
        if tracer is not None:
            tracer.reset()

        rates, attempted, timed = [], 0, 0.0
        while timed < args.seconds and len(rates) < MAX_ROUNDS:
            ops, elapsed = workload.round(len(rates) + 1)
            rates.append(ops / elapsed)
            attempted += ops
            timed += elapsed
        loop_after = machine_loop_us()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": bool(args.trace),
            "rounds": len(rates),
            "timed_s": timed,
            "ops_per_s": attempted / timed,
            "round_ops_per_s": rates,
            "setup_reps_s": setup_times,
            "machine_loop_us": [loop_before, loop_after],
            "reference": workload.reference(),
            "problems": workload.problems[:20],
        }
        if tracer is not None:
            metrics = tracer.metrics(attempted)
            trace_path = out_root / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(trace_path)
            info["trace_file"] = str(trace_path.relative_to(HERE.parent))
            info["trace_overhead_share"] = tracer.overhead_s() / timed
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "ops_per_s": {"value": attempted / timed, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        print(json.dumps(info))
        print(json.dumps({
            "correct": not workload.problems,
            "attempted": attempted,
            "failed": workload.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
