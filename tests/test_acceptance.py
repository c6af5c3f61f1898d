"""End-to-end acceptance checks for the label-shift benchmark.

One test per numbered criterion. Each test prints a single
``[criterion NN] PASS/FAIL`` line with the measured values (run pytest with
``-s`` to see the lines for passing tests; failures always show them).

The benchmark-level checks (criteria 1-3) share one deterministic grid:
two Gaussian-blob tasks (conditional-shift budgets 0 and 1), k=3 classes in
16 dimensions, 10,000 examples per domain, 10 seeds, methods source_only and
pseudolabel, corrections none and rs+rw. Every number in this file is a pure
function of the pinned seeds, so a green run is stable.
"""

import json
import time

import numpy as np
import pytest

from labelshift.adapt import (
    CorrectionFlags,
    ModelSpec,
    PseudoLabelConfig,
    TrainConfig,
    init_parameters,
    iw_erm_train,
    loss_and_grad,
    meta_adapt,
    pseudolabel_train,
    train_erm,
)
from labelshift.bench import (
    SUMMARY_HEADER,
    GridConfig,
    GridTask,
    RunRecord,
    Summary,
    run_grid,
    write_predictions,
    ingest_predictions,
    write_summary_csv,
)
from labelshift.core import (
    LabelMarginal,
    PredictionMatrix,
    RngStream,
    _available_cpus,
    project_simplex,
)
from labelshift.estimate import (
    estimate_marginal,
    mlls_estimate,
    rlls_estimate,
)
from labelshift.shift import (
    ShiftSpec,
    SynthTaskSpec,
    bayes_predictions,
    class_means,
    load_bundle,
    save_bundle,
    save_labeled_csv,
    synth_relaxed_task,
)


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


# --------------------------------------------------------------------------
# Shared benchmark grid for criteria 1-3.

GRID_SEEDS = tuple(range(10))


def _grid_config(output_dir: str) -> GridConfig:
    tasks = tuple(
        GridTask(
            name=f"eps{eps}",
            epsilon=float(eps),
            synth=SynthTaskSpec(
                name=f"eps{eps}", k=3, d=16, n_source=10_000, n_target=10_000,
                class_separation=2.75,
            ),
        )
        for eps in (0, 1)
    )
    return GridConfig(
        tasks=tasks,
        alphas=(None, 0.5),
        seeds=GRID_SEEDS,
        methods=("source_only", "pseudolabel"),
        corrections=(CorrectionFlags(), CorrectionFlags(resample=True, reweight=True)),
        estimators=("rlls",),
        seed=2026,
        output_dir=output_dir,
        train=TrainConfig(epochs=20, batch_size=128, learning_rate=0.5, l2=1e-4),
        pseudolabel=PseudoLabelConfig(tau=0.9, lambda_max=1.0),
    )


@pytest.fixture(scope="session")
def shift_grid(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_grid")
    start = time.perf_counter()
    records = run_grid(_grid_config(str(out)), jobs=_available_cpus())
    wall = time.perf_counter() - start
    failed = [r for r in records if r.error is not None]
    assert not failed, f"grid cells failed: {[r.key() for r in failed]}"
    return records, wall


def _mean_acc(records, alpha, corrections, method=None):
    vals = [
        r.target_accuracy
        for r in records
        if r.alpha == alpha and r.corrections == corrections
        and (method is None or r.method == method)
    ]
    assert vals, f"no records for alpha={alpha} corrections={corrections}"
    return float(np.mean(vals))


def _pooled_uncorrected_rel_acc(records, alpha):
    base = {
        (r.task_id, r.seed): r.target_accuracy
        for r in records
        if r.alpha == alpha and r.method == "source_only" and r.corrections == "none"
    }
    vals = [
        r.target_accuracy - base[(r.task_id, r.seed)]
        for r in records
        if r.alpha == alpha and r.corrections == "none"
    ]
    return float(np.mean(vals))


def test_c01_no_shift_neutrality(shift_grid):
    records, wall = shift_grid
    corrected = _mean_acc(records, None, "rs+rw")
    plain = _mean_acc(records, None, "none")
    diff = corrected - plain
    ok = abs(diff) < 0.005 and wall < 600.0
    _report(
        1, "no-shift neutrality", ok,
        f"mean acc rs+rw={corrected:.4f} none={plain:.4f} "
        f"diff={100 * diff:+.3f}pt (bar 0.5pt), grid wall={wall:.0f}s (bar 600s)",
    )


def test_c02_severe_shift_improvement(shift_grid):
    records, wall = shift_grid
    corrected = _mean_acc(records, 0.5, "rs+rw")
    plain = _mean_acc(records, 0.5, "none")
    src_plain = _mean_acc(records, 0.5, "none", method="source_only")
    per_method = {
        m: _mean_acc(records, 0.5, "rs+rw", method=m)
        - _mean_acc(records, 0.5, "none", method=m)
        for m in ("source_only", "pseudolabel")
    }
    ok = corrected >= plain + 0.02 and corrected >= src_plain and wall < 900.0
    _report(
        2, "severe-shift improvement", ok,
        f"mean acc rs+rw={corrected:.4f} none={plain:.4f} "
        f"gain={100 * (corrected - plain):+.2f}pt (bar +2.0), "
        f"vs uncorrected source_only {100 * (corrected - src_plain):+.2f}pt; "
        f"per-method gains src={100 * per_method['source_only']:+.2f} "
        f"pl={100 * per_method['pseudolabel']:+.2f}; wall={wall:.0f}s (bar 900s)",
    )


def test_c03_shift_severity_monotonicity(shift_grid):
    records, _ = shift_grid
    rel_none = _pooled_uncorrected_rel_acc(records, None)
    rel_severe = _pooled_uncorrected_rel_acc(records, 0.5)
    ok = rel_severe <= rel_none
    _report(
        3, "severity monotonicity", ok,
        f"uncorrected mean relative acc alpha=0.5 {100 * rel_severe:+.3f}pt "
        f"<= alpha=none {100 * rel_none:+.3f}pt",
    )


# --------------------------------------------------------------------------
# Criterion 4: estimator consistency under exact label shift.

_C4_K, _C4_D = 3, 6
_C4_MEANS = class_means(
    SynthTaskSpec(name="c4", k=_C4_K, d=_C4_D, n_source=10, n_target=10,
                  class_separation=2.0)
)
_C4_UNIFORM = LabelMarginal(np.full(_C4_K, 1.0 / _C4_K))


def _consistency_errors(m: int, n_seeds: int = 20) -> dict[str, float]:
    errs = {"rlls": [], "mlls": []}
    for seed in range(n_seeds):
        base = RngStream(417).derive("consistency", seed)
        p_t = base.derive("marginal").generator().dirichlet(np.ones(_C4_K))
        gs = base.derive("source", m).generator()
        ys = gs.choice(_C4_K, size=m)
        xs = _C4_MEANS[ys] + gs.standard_normal((m, _C4_D))
        gt = base.derive("target", m).generator()
        yt = gt.choice(_C4_K, size=m, p=p_t)
        xt = _C4_MEANS[yt] + gt.standard_normal((m, _C4_D))
        preds_s = bayes_predictions(xs, _C4_MEANS, _C4_UNIFORM)
        preds_t = bayes_predictions(xt, _C4_MEANS, _C4_UNIFORM)
        for est in ("rlls", "mlls"):
            out = estimate_marginal(
                est, preds_s, ys, preds_t,
                classifier_prior=_C4_UNIFORM, lam=0.0,
            )
            errs[est].append(float(np.abs(out.marginal.probs - p_t).sum()))
    return {est: float(np.mean(v)) for est, v in errs.items()}


def test_c04_estimator_consistency():
    at_m = {m: _consistency_errors(m) for m in (2_500, 10_000, 40_000)}
    ok = (
        at_m[10_000]["rlls"] < 0.05
        and at_m[10_000]["mlls"] < 0.05
        and at_m[40_000]["rlls"] <= at_m[2_500]["rlls"]
        and at_m[40_000]["mlls"] <= at_m[2_500]["mlls"]
    )
    _report(
        4, "estimator consistency", ok,
        "mean l1 at m=10000: rlls={rlls:.4f} mlls={mlls:.4f} (bar 0.05); ".format(**at_m[10_000])
        + f"rate rlls {at_m[40_000]['rlls']:.4f}@40k <= {at_m[2_500]['rlls']:.4f}@2.5k, "
        f"mlls {at_m[40_000]['mlls']:.4f}@40k <= {at_m[2_500]['mlls']:.4f}@2.5k",
    )


# --------------------------------------------------------------------------
# Criterion 5: oracle equivalence against brute-force references.

def _rlls_vs_solve(k: int, n_instances: int) -> float:
    """Worst max-abs gap between projected-gradient weights and the exact
    linear solve, on well-conditioned instances with an interior optimum."""
    worst = 0.0
    for i in range(n_instances):
        gen = RngStream(811).derive("solve", k, i).generator()
        p_s = gen.dirichlet(np.full(k, 8.0))
        q_star = gen.dirichlet(np.full(k, 6.0))
        w_star = q_star / p_s
        cols = 0.55 * np.eye(k) + 0.45 * gen.dirichlet(np.full(k, 4.0), size=k).T
        confusion = cols * p_s[None, :]
        mu = confusion @ w_star
        result = rlls_estimate(confusion, mu, LabelMarginal(p_s), lam=0.0)
        direct = np.linalg.solve(confusion, mu)
        worst = max(worst, float(np.abs(result.weights.weights - direct).max()))
    return worst


def _mlls_vs_grid(n_instances: int) -> float:
    """Worst l1 gap between the EM estimate and a 1e-3 grid maximization of
    the same mean log-likelihood, on two-class calibrated instances."""
    grid = np.linspace(0.0, 1.0, 1001)
    worst = 0.0
    for i in range(n_instances):
        gen = RngStream(811).derive("grid", i).generator()
        p_true = gen.uniform(0.05, 0.95)
        prior = LabelMarginal(np.array([p := gen.uniform(0.2, 0.8), 1.0 - p]))
        y = (gen.random(400) > p_true).astype(int)
        x = np.where(y == 0, -1.0, 1.0) + gen.standard_normal(400)
        preds = bayes_predictions(
            x[:, None], np.array([[-1.0], [1.0]]), prior
        )
        f0, f1 = preds.values[:, 0], preds.values[:, 1]
        mix = (
            np.outer(f0 / prior.probs[0], grid)
            + np.outer(f1 / prior.probs[1], 1.0 - grid)
        )
        best = grid[np.argmax(np.mean(np.log(np.maximum(mix, 1e-300)), axis=0))]
        result = mlls_estimate(preds, prior)
        gap = float(np.abs(result.marginal.probs - np.array([best, 1.0 - best])).sum())
        worst = max(worst, gap)
    return worst


def _projection_vs_grid(n_vectors: int) -> tuple[float, float]:
    """Distance-gap bounds for project_simplex against a 1/100-step simplex
    grid: the projection must be no farther than the best grid point, and the
    best grid point no more than one covering radius farther than the
    projection. Returns (most-negative gap, largest gap)."""
    steps = 100
    ii, jj = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
    keep = ii + jj <= steps
    grid = np.stack([ii[keep], jj[keep], steps - ii[keep] - jj[keep]], axis=1) / steps
    lo, hi = np.inf, -np.inf
    for i in range(n_vectors):
        gen = RngStream(811).derive("proj", i).generator()
        v = 1.5 * gen.standard_normal(3)
        p = project_simplex(v)
        d_proj = float(np.linalg.norm(v - p))
        d_grid = float(np.sqrt(((grid - v) ** 2).sum(axis=1).min()))
        gap = d_grid - d_proj
        lo, hi = min(lo, gap), max(hi, gap)
    return lo, hi


def test_c05_oracle_equivalence():
    start = time.perf_counter()
    solve_gap = max(_rlls_vs_solve(2, 10), _rlls_vs_solve(3, 10))
    grid_gap = _mlls_vs_grid(50)
    proj_lo, proj_hi = _projection_vs_grid(100)
    wall = time.perf_counter() - start
    ok = (
        solve_gap < 1e-3
        and grid_gap < 1e-2
        and proj_lo >= -1e-12
        and proj_hi <= 1.0 / 100
        and wall < 60.0
    )
    _report(
        5, "oracle equivalence", ok,
        f"rlls-vs-solve max gap {solve_gap:.2e} (bar 1e-3); "
        f"mlls-vs-grid max l1 {grid_gap:.2e} (bar 1e-2); "
        f"projection-vs-grid gap in [{proj_lo:.2e}, {proj_hi:.2e}] "
        f"(bars [-1e-12, 1e-2]); wall={wall:.1f}s (bar 60s)",
    )


# --------------------------------------------------------------------------
# Criterion 6: EM ascent property.

def test_c06_em_log_likelihood_monotone():
    worst = np.inf
    for i in range(100):
        gen = RngStream(905).derive("em", i).generator()
        k = 2 + i % 3
        n = int(gen.integers(30, 300))
        preds = PredictionMatrix(gen.dirichlet(np.full(k, 0.5), size=n))
        prior = LabelMarginal(gen.dirichlet(np.full(k, 3.0)))
        trace = np.array(mlls_estimate(preds, prior).log_likelihoods)
        assert trace.size >= 1
        if trace.size > 1:
            worst = min(worst, float(np.diff(trace).min()))
    ok = worst >= -1e-12
    _report(
        6, "EM log-likelihood monotone", ok,
        f"smallest per-iteration increase {worst:.2e} over 100 instances (bar -1e-12)",
    )


# --------------------------------------------------------------------------
# Criterion 7: analytic gradients vs central finite differences.

def _fd_gradient(spec, params, x, y, weights, l2, h=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        lu, _ = loss_and_grad(spec, up, x, y, class_weights=weights, l2=l2)
        ld, _ = loss_and_grad(spec, down, x, y, class_weights=weights, l2=l2)
        grad[i] = (lu - ld) / (2 * h)
    return grad


def test_c07_gradient_check():
    worst = 0.0
    for kind in ("logistic", "mlp"):
        spec = ModelSpec(kind=kind, input_dim=4, classes=3, hidden_units=8)
        for point in range(5):
            gen = RngStream(333).derive("fd", kind, point).generator()
            params = 0.5 * gen.standard_normal(spec.n_parameters)
            x = gen.standard_normal((7, 4))
            y = gen.integers(0, 3, size=7)
            weights = gen.uniform(0.5, 2.0, size=3)
            _, grad = loss_and_grad(spec, params, x, y, class_weights=weights, l2=0.01)
            fd = _fd_gradient(spec, params, x, y, weights, 0.01)
            rel = float(np.abs(grad - fd).max() / max(1.0, np.abs(fd).max()))
            worst = max(worst, rel)
    ok = worst < 1e-5
    _report(
        7, "gradient correctness", ok,
        f"max relative error {worst:.2e} over both model kinds x 5 points (bar 1e-5)",
    )


# --------------------------------------------------------------------------
# Criterion 8: reduction identities, bit for bit.

def test_c08_reduction_identities():
    bundle = synth_relaxed_task(
        SynthTaskSpec(name="reduce", k=3, d=4, n_source=600, n_target=600,
                      class_separation=2.0, seed=5),
        ShiftSpec(alpha=0.5, epsilon=0.0, seed=5),
    )
    spec = ModelSpec(kind="logistic", input_dim=4, classes=3)
    cfg = TrainConfig(epochs=4, batch_size=64, learning_rate=0.5, l2=1e-4, seed=11)

    erm = train_erm(spec, bundle.source_train, bundle.source_val, cfg)
    lam0 = pseudolabel_train(
        spec, bundle.source_train, bundle.source_val, bundle.target_train.features,
        cfg, PseudoLabelConfig(lambda_max=0.0), CorrectionFlags(),
    )
    unit = iw_erm_train(
        spec, bundle.source_train, bundle.source_val, bundle.target_train.features,
        cfg, weight_fn=lambda preds_s, labels_s, preds_t: np.ones(3),
    )
    checks = {
        "pseudolabel lambda_max=0 == ERM": np.array_equal(lam0.parameters, erm.parameters),
        "iw_erm unit weights == ERM": np.array_equal(unit.parameters, erm.parameters),
    }

    off = CorrectionFlags()
    meta_src = meta_adapt("source_only", bundle, off, cfg, model_spec=spec)
    checks["meta source_only == bare ERM"] = np.array_equal(
        meta_src.model.parameters, erm.parameters
    )
    pl_cfg = PseudoLabelConfig()
    bare_pl = pseudolabel_train(
        spec, bundle.source_train, bundle.source_val, bundle.target_train.features,
        cfg, pl_cfg, off,
    )
    meta_pl = meta_adapt("pseudolabel", bundle, off, cfg, model_spec=spec, pl=pl_cfg)
    checks["meta pseudolabel == bare pseudolabel"] = np.array_equal(
        meta_pl.model.parameters, bare_pl.parameters
    )
    bare_iw = iw_erm_train(spec, bundle.source_train, bundle.source_val,
                           bundle.target_train.features, cfg)
    meta_iw = meta_adapt("iw_erm", bundle, off, cfg, model_spec=spec)
    checks["meta iw_erm == bare iw_erm"] = np.array_equal(
        meta_iw.model.parameters, bare_iw.parameters
    )

    ok = all(checks.values())
    _report(
        8, "reduction identities", ok,
        "; ".join(f"{name}: {'yes' if hit else 'NO'}" for name, hit in checks.items()),
    )


# --------------------------------------------------------------------------
# Criterion 9: parallel/serial record equality and duplicate-free resume.

def _tiny_grid(output_dir: str) -> GridConfig:
    task = GridTask(
        name="tiny",
        synth=SynthTaskSpec(name="tiny", k=2, d=2, n_source=400, n_target=400,
                            class_separation=3.0),
    )
    return GridConfig(
        tasks=(task,),
        alphas=(None, 1.0),
        seeds=(0, 1),
        methods=("source_only", "pseudolabel"),
        corrections=(CorrectionFlags(), CorrectionFlags(resample=True, reweight=True)),
        estimators=("rlls",),
        seed=7,
        output_dir=output_dir,
        train=TrainConfig(epochs=3, batch_size=64, learning_rate=0.5, l2=1e-4),
    )


def _strip_wall(record: RunRecord) -> dict:
    out = record.to_json_dict()
    out.pop("wall_time_seconds", None)
    return out


def test_c09_protocol_determinism(tmp_path):
    serial = run_grid(_tiny_grid(str(tmp_path / "serial")), jobs=1)
    parallel = run_grid(_tiny_grid(str(tmp_path / "parallel")), jobs=8)
    serial_set = sorted(json.dumps(_strip_wall(r), sort_keys=True) for r in serial)
    parallel_set = sorted(json.dumps(_strip_wall(r), sort_keys=True) for r in parallel)
    same = serial_set == parallel_set

    results = tmp_path / "serial" / "results.jsonl"
    before = results.read_bytes()
    resumed = run_grid(_tiny_grid(str(tmp_path / "serial")), jobs=1, resume=True)
    after = results.read_bytes()
    no_dupes = before == after and len(resumed) == len(serial)

    ok = same and no_dupes
    _report(
        9, "protocol determinism", ok,
        f"8-way parallel records == serial: {'yes' if same else 'NO'} "
        f"({len(serial)} cells, wall_time excluded); "
        f"resume appended {'nothing' if no_dupes else 'DUPLICATES'}",
    )


# --------------------------------------------------------------------------
# Criterion 10: format round-trips and golden headers.

_GOLDEN_RECORD_LINE = (
    '{"v": 1, "task_id": "golden", "alpha": 0.5, "seed": 3, '
    '"method": "source_only", "corrections": "rs+rw", "estimator": "rlls", '
    '"target_accuracy": 0.875, "source_val_accuracy": 0.9, '
    '"marginal_l1_error": 0.125, "true_marginal": [0.25, 0.75], '
    '"estimated_marginal": [0.3, 0.7]}'
)


def test_c10_format_round_trips(tmp_path):
    checks = {}

    gen = RngStream(42).derive("dump").generator()
    preds = PredictionMatrix(gen.dirichlet(np.ones(3), size=40))
    labels = gen.integers(0, 3, size=40)
    dump = tmp_path / "preds.csv"
    write_predictions(dump, preds, labels)
    back, back_labels = ingest_predictions(dump)
    checks["prediction dump round trip <= 1e-12"] = (
        float(np.abs(back.values - preds.values).max()) <= 1e-12
        and np.array_equal(back_labels, labels)
    )
    checks["prediction header"] = dump.read_text().splitlines()[0] == "p0,p1,p2,y"

    bundle = synth_relaxed_task(
        SynthTaskSpec(name="golden", k=2, d=3, n_source=80, n_target=80,
                      class_separation=2.0, seed=9),
        ShiftSpec(alpha=1.0, epsilon=0.5, seed=9),
    )
    bdir = tmp_path / "bundle"
    save_bundle(bundle, bdir)
    loaded = load_bundle(bdir)
    checks["bundle save->load equality"] = (
        loaded.name == bundle.name
        and loaded.alpha == bundle.alpha
        and loaded.epsilon == bundle.epsilon
        and loaded.seed == bundle.seed
        and np.array_equal(loaded.true_target_marginal.probs,
                           bundle.true_target_marginal.probs)
        and all(
            np.array_equal(getattr(loaded, part).features,
                           getattr(bundle, part).features)
            and np.array_equal(getattr(loaded, part).labels,
                               getattr(bundle, part).labels)
            for part in ("source_train", "source_val", "target_train", "target_test")
        )
    )

    record = RunRecord(
        task_id="golden", alpha=0.5, seed=3, method="source_only",
        corrections="rs+rw", estimator="rlls", target_accuracy=0.875,
        source_val_accuracy=0.9, marginal_l1_error=0.125,
        true_marginal=(0.25, 0.75), estimated_marginal=(0.3, 0.7),
    )
    checks["results line matches golden bytes"] = (
        json.dumps(record.to_json_dict()) == _GOLDEN_RECORD_LINE
    )
    checks["results line round trip"] = (
        RunRecord.from_json_dict(json.loads(_GOLDEN_RECORD_LINE)) == record
    )

    summary_path = tmp_path / "summary.csv"
    write_summary_csv(summary_path, [Summary(
        alpha=0.5, method="source_only", corrections="rs+rw", estimator="rlls",
        n=4, mean_rel_acc=0.03125, median_rel_acc=0.03, q25=0.02, q75=0.04,
        mean_l1=0.125, median_l1=0.125,
    )])
    checks["summary header bytes"] = (
        summary_path.read_text().splitlines()[0]
        == "alpha,method,corrections,estimator,n,mean_rel_acc,median_rel_acc,q25,q75,mean_l1,median_l1"
        == SUMMARY_HEADER
    )

    csv_path = tmp_path / "labeled.csv"
    save_labeled_csv(csv_path, bundle.source_val)
    checks["labeled csv header"] = csv_path.read_text().splitlines()[0] == "f0,f1,f2,y"

    ok = all(checks.values())
    _report(
        10, "format round-trips", ok,
        "; ".join(f"{name}: {'yes' if hit else 'NO'}" for name, hit in checks.items()),
    )
