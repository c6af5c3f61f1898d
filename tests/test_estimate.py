import numpy as np
import pytest

from labelshift.adapt import Model, ModelSpec, init_parameters
from labelshift.core import (
    DimensionError,
    ImportanceWeights,
    InvalidInputError,
    LabelMarginal,
    PredictionMatrix,
    RngStream,
    l1_distance,
    project_simplex,
    weights_to_marginal,
)
import labelshift.estimate as estimate_module
from labelshift.estimate import (
    ESTIMATORS,
    MLLS_MAX_ITERS,
    MLLS_TOL,
    estimate_marginal,
    mean_prediction,
    mlls_estimate,
    rlls_estimate,
    soft_confusion,
)


def random_instance(rng, k, n):
    # Diagonally dominant confusion from a synthetic "mostly right" classifier;
    # interior true weights so the linear-solve oracle applies.
    preds = rng.dirichlet(np.full(k, 0.3), size=n)
    labels = rng.integers(0, k, size=n)
    preds = 0.2 * preds
    preds[np.arange(n), labels] += 0.8
    pm = PredictionMatrix(preds)
    confusion = soft_confusion(pm, labels)
    p_s = LabelMarginal.from_labels(labels, k)
    w_true = rng.uniform(0.3, 2.0, size=k)
    w_true = w_true / (w_true @ p_s.probs)
    mu = confusion.matrix @ w_true
    return confusion, mu, p_s, w_true


class TestSoftConfusion:
    def test_worked_example(self):
        preds = PredictionMatrix(np.array([[0.8, 0.2], [0.6, 0.4]]))
        got = soft_confusion(preds, [0, 1])
        np.testing.assert_allclose(got.matrix, [[0.4, 0.3], [0.1, 0.2]], atol=1e-12)
        assert got.zero_classes == ()

    def test_column_sums_are_empirical_marginal(self):
        rng = np.random.default_rng(3)
        preds = PredictionMatrix(rng.dirichlet(np.ones(4), size=200))
        labels = rng.integers(0, 4, size=200)
        got = soft_confusion(preds, labels)
        np.testing.assert_allclose(
            got.column_sums(), np.bincount(labels, minlength=4) / 200, atol=1e-12
        )

    def test_missing_class_flagged_with_zero_column(self):
        preds = PredictionMatrix(np.array([[0.9, 0.05, 0.05], [0.2, 0.7, 0.1]]))
        got = soft_confusion(preds, [0, 0])
        assert got.zero_classes == (1, 2)
        np.testing.assert_array_equal(got.matrix[:, 1], 0.0)

    def test_label_range_checked(self):
        preds = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidInputError):
            soft_confusion(preds, [2])
        with pytest.raises(DimensionError):
            soft_confusion(preds, [0, 1])


def test_mean_prediction_column_means():
    preds = PredictionMatrix(np.array([[0.6, 0.4], [0.2, 0.8]]))
    np.testing.assert_allclose(mean_prediction(preds).probs, [0.4, 0.6], atol=1e-12)


class TestRlls:
    def test_worked_example_unregularized(self):
        confusion = np.array([[0.45, 0.05], [0.05, 0.45]])
        mu = np.array([0.26, 0.74])
        p_s = LabelMarginal(np.array([0.5, 0.5]))
        res = rlls_estimate(confusion, mu, p_s, lam=0.0)
        np.testing.assert_allclose(res.weights.weights, [0.4, 1.6], atol=1e-4)
        assert res.converged

    def test_diagonal_confusion(self):
        confusion = np.diag([0.5, 0.5])
        p_s = LabelMarginal(np.array([0.5, 0.5]))
        res = rlls_estimate(confusion, np.array([0.3, 0.7]), p_s, lam=0.0)
        np.testing.assert_allclose(res.weights.weights, [0.6, 1.4], atol=1e-4)

    def test_huge_regularization_pins_unit_weights(self):
        confusion = np.array([[0.45, 0.05], [0.05, 0.45]])
        p_s = LabelMarginal(np.array([0.5, 0.5]))
        res = rlls_estimate(confusion, np.array([0.26, 0.74]), p_s, lam=1e6)
        np.testing.assert_allclose(res.weights.weights, [1.0, 1.0], atol=1e-3)

    def test_output_always_feasible(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            k = int(rng.integers(2, 6))
            confusion, mu, p_s, _ = random_instance(rng, k, n=200)
            lam = float(rng.choice([0.0, 0.01, 1.0]))
            res = rlls_estimate(confusion, mu, p_s, lam=lam)
            w = res.weights.weights
            assert np.all(w >= 0)
            assert w @ p_s.probs == pytest.approx(1.0, abs=1e-6)

    def test_matches_linear_solve_when_unregularized(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            confusion, mu, p_s, w_true = random_instance(rng, k=3, n=500)
            res = rlls_estimate(confusion, mu, p_s, lam=0.0)
            oracle = np.linalg.solve(confusion.matrix, mu)
            np.testing.assert_allclose(res.weights.weights, oracle, atol=1e-3)
            np.testing.assert_allclose(oracle, w_true, atol=1e-9)

    def test_zero_column_with_target_mass_is_ill_conditioned(self):
        confusion = np.array([[0.5, 0.0], [0.3, 0.0]])
        # No validation path here: raw matrix with a dead second class.
        p_s = LabelMarginal(np.array([0.8, 0.2]))
        res = rlls_estimate(confusion, np.array([0.5, 0.5]), p_s, lam=0.1)
        assert res.ill_conditioned
        assert res.diagnostics
        assert np.all(res.weights.weights >= 0)

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_bad_lam_rejected(self, lam):
        confusion = np.array([[0.45, 0.05], [0.05, 0.45]])
        p_s = LabelMarginal(np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError, match="lam"):
            rlls_estimate(confusion, np.array([0.3, 0.7]), p_s, lam=lam)

    def test_default_lam_uses_sample_count(self):
        rng = np.random.default_rng(5)
        confusion, mu, p_s, _ = random_instance(rng, k=2, n=400)
        res_default = rlls_estimate(confusion, mu, p_s, n_source_val=400)
        res_explicit = rlls_estimate(confusion, mu, p_s, lam=1.0 / np.sqrt(400))
        np.testing.assert_allclose(res_default.weights.weights, res_explicit.weights.weights)


def bayes_posteriors(gen, k, n, prior, sep=2.0):
    """Bayes posteriors under a uniform prior for k unit-covariance Gaussian
    classes with means sep / sqrt(2) * e_j, drawn with the given class prior."""
    labels = gen.choice(k, size=n, p=prior)
    scale = sep / np.sqrt(2.0)
    scores = scale * gen.standard_normal((n, k))
    scores[np.arange(n), labels] += scale * scale
    posterior = np.exp(scores - scores.max(axis=1, keepdims=True))
    return PredictionMatrix(posterior / posterior.sum(axis=1, keepdims=True)), labels


def rlls_problem(k, seed, n=1000, missing_class=None):
    """A labeled source with a uniform prior and a target drawn from a skewed
    Dirichlet marginal, so that some optimal coordinates sit at zero."""
    gen = np.random.default_rng([seed, k])
    preds, labels = bayes_posteriors(gen, k, n, np.full(k, 1.0 / k))
    if missing_class is not None:
        labels[labels == missing_class] = (missing_class + 1) % k
    target, _ = bayes_posteriors(gen, k, n, gen.dirichlet(np.full(k, 0.5)))
    return (soft_confusion(preds, labels), mean_prediction(target).probs,
            LabelMarginal.from_labels(labels, k), n)


def rlls_objective_terms(confusion, mu, p_s, lam):
    """H, lin and the constant of the RLLS objective q'Hq - 2 lin'q + c in
    q = w * p_s, over the classes with source support."""
    sup = p_s.probs > 0
    a = confusion.matrix[:, sup] / p_s.probs[sup]
    d_inv = 1.0 / p_s.probs[sup]
    hess = a.T @ a + lam * np.diag(d_inv**2)
    return sup, hess, a.T @ mu + lam * d_inv, mu @ mu + lam * d_inv.size


def pgd_reference(hess, lin, q, max_iters=200_000):
    """Projected gradient descent on the simplex with step 1/L, run until a
    step moves q by less than 1e-15 in l1."""
    step = 1.0 / np.linalg.eigvalsh(hess)[-1]
    for _ in range(max_iters):
        q_next = project_simplex(q - step * (hess @ q - lin))
        if np.abs(q_next - q).sum() < 1e-15:
            return q_next
        q = q_next
    return q


def check_rlls_optimal(confusion, mu, p_s, lam):
    """Feasibility, KKT and an objective no worse than a tight PGD reference;
    returns the result."""
    res = rlls_estimate(confusion, mu, p_s, lam=lam)
    assert res.converged
    sup, hess, lin, const = rlls_objective_terms(confusion, mu, p_s, lam)
    q = res.weights.weights[sup] * p_s.probs[sup]
    assert q.min() >= 0.0
    assert abs(q.sum() - 1.0) <= 1e-12
    assert np.all(res.weights.weights[~sup] == 0.0)
    # KKT: the half gradient H q - lin equals -nu on positive coordinates
    # and is at least -nu on zero ones.
    grad = hess @ q - lin
    nu = -grad[np.argmax(q)]
    tol = 1e-9 * (np.abs(hess).max() + np.abs(lin).max())
    assert np.abs(grad[q > 0] + nu).max() <= tol
    assert np.all(grad[q == 0] + nu >= -tol)

    def objective(v):
        return float(v @ hess @ v - 2.0 * lin @ v + const)

    assert objective(q) == pytest.approx(res.objective, rel=1e-9, abs=1e-14)
    assert objective(q) <= objective(pgd_reference(hess, lin, p_s.probs[sup])) + 1e-12
    return res


class TestRllsActiveSet:
    """The active-set solve returns the exact constrained optimum."""

    @pytest.mark.parametrize("k", [3, 10, 50])
    @pytest.mark.parametrize("lam_kind", ["zero", "default", "small"])
    def test_random_problems_are_solved_exactly(self, k, lam_kind):
        for seed in range(2):
            confusion, mu, p_s, n = rlls_problem(k, seed)
            lam = {"zero": 0.0, "default": 1.0 / np.sqrt(n), "small": 1.0 / (n * k * k)}[lam_kind]
            check_rlls_optimal(confusion, mu, p_s, lam)

    def test_a_fixed_coordinate_is_freed_again(self):
        # Each change fixes or frees one coordinate, so more changes than
        # zeros at the optimum means some coordinate was fixed and then freed.
        confusion, mu, p_s, _ = rlls_problem(50, 4)
        res = check_rlls_optimal(confusion, mu, p_s, 0.0)
        assert res.iterations > np.count_nonzero(res.weights.weights == 0.0)

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_zero_support_class(self, lam):
        confusion, mu, p_s, _ = rlls_problem(10, 5, missing_class=4)
        assert p_s.probs[4] == 0.0 and confusion.zero_classes == (4,)
        res = check_rlls_optimal(confusion, mu, p_s, lam)
        assert res.ill_conditioned

    @pytest.mark.parametrize("k", [3, 10])
    def test_constant_classifier_takes_the_least_squares_path(self, monkeypatch, k):
        # Every row predicts the same vector, so A'A has rank one and every
        # feasible q fits equally well; the least-norm steps keep w = 1.
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        labels = np.arange(30 * k) % k
        row = np.random.default_rng(k).dirichlet(np.ones(k))
        confusion = soft_confusion(PredictionMatrix(np.tile(row, (labels.size, 1))), labels)
        mu = np.random.default_rng(k + 1).dirichlet(np.ones(k))
        res = check_rlls_optimal(confusion, mu, LabelMarginal.from_labels(labels, k), 0.0)
        assert calls
        np.testing.assert_allclose(res.weights.weights, 1.0, atol=1e-12)


class TestRllsChangesAtSmallLam:
    """At lam = 1/(n k^2) the penalty no longer dominates the data term; the
    solve must still end within 2k active-set changes."""

    def test_bayes_posteriors_at_k50(self):
        k = 50
        for seed in range(3):
            confusion, mu, p_s, n = rlls_problem(k, 100 + seed, n=2000)
            res = rlls_estimate(confusion, mu, p_s, lam=1.0 / (n * k * k))
            assert res.converged
            assert res.iterations <= 2 * k

    @pytest.mark.parametrize("k", [3, 10, 50])
    def test_untrained_mlp_epoch_zero_estimate(self, k):
        # iw_erm's first weight estimate: source-train and target predictions
        # of a freshly initialized network.
        gen = np.random.default_rng([7, k])
        d, n = 16, 2000
        spec = ModelSpec("mlp", input_dim=d, classes=k, hidden_units=16)
        model = Model(spec, init_parameters(spec, RngStream(k).derive("init")))

        def draw(prior):
            labels = gen.choice(k, size=n, p=prior)
            feats = gen.standard_normal((n, d))
            feats[np.arange(n), labels % d] += 2.0
            return model.predict(feats), labels

        preds_src, labels = draw(np.full(k, 1.0 / k))
        preds_tgt, _ = draw(gen.dirichlet(np.full(k, 0.5)))
        res = rlls_estimate(soft_confusion(preds_src, labels), mean_prediction(preds_tgt),
                            LabelMarginal.from_labels(labels, k), lam=1.0 / (n * k * k))
        assert res.converged
        assert res.iterations <= 2 * k


class TestConfigs:
    """RLLS's penalty lam is the one estimator setting; estimate_marginal
    checks it before dispatching, so every estimator rejects a bad value."""

    PREDS = PredictionMatrix(np.array([[0.6, 0.4], [0.3, 0.7]]))

    @pytest.mark.parametrize("kwargs, field", [
        ({"lam": float("nan")}, "lam"),
        ({"lam": float("inf")}, "lam"),
        ({"lam": -0.1}, "lam"),
    ])
    def test_rlls_config_rejects(self, kwargs, field):
        for name in ESTIMATORS:
            with pytest.raises(InvalidInputError, match=field):
                estimate_marginal(name, self.PREDS, [0, 1], self.PREDS, **kwargs)

    def test_valid_configs_construct(self):
        for name in ESTIMATORS:
            for lam in (None, 0.0, 1e6):
                out = estimate_marginal(name, self.PREDS, [0, 1], self.PREDS, lam=lam)
                assert out.estimator == name


def cap_inputs():
    """An informative k=4 classifier and a target predicted only as classes
    0 and 1: RLLS's optimum at lam = 0 has two zero coordinates, so its
    active-set solve needs at least two changes."""
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=60)
    preds_src = 0.5 * rng.dirichlet(np.ones(4), size=60) + 0.5 * np.eye(4)[labels]
    preds_tgt = np.eye(4)[rng.integers(0, 2, size=80)]
    return PredictionMatrix(preds_src), labels, PredictionMatrix(preds_tgt)


@pytest.mark.parametrize("estimator, cap, message", [
    ("rlls", "RLLS_MAX_ITERS", "did not converge within 1 iterations"),
    ("mlls", "MLLS_MAX_ITERS", "EM did not converge within 1 iterations"),
])
def test_iteration_cap_is_reported(monkeypatch, estimator, cap, message):
    preds_src, labels, preds_tgt = cap_inputs()
    uncapped = estimate_marginal(estimator, preds_src, labels, preds_tgt, lam=0.0)
    assert uncapped.converged
    if estimator == "rlls":
        assert np.count_nonzero(uncapped.weights.weights == 0.0) == 2
    monkeypatch.setattr(estimate_module, cap, 1)
    out = estimate_marginal(estimator, preds_src, labels, preds_tgt, lam=0.0)
    assert not out.converged
    assert message in out.diagnostics


class TestMlls:
    def test_worked_example_converges_to_vertex(self):
        # Pre-computed grid-search maximizer for this instance is [1, 0].
        preds = PredictionMatrix(np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]]))
        res = mlls_estimate(preds, LabelMarginal(np.array([0.5, 0.5])))
        np.testing.assert_allclose(res.marginal.probs, [1.0, 0.0], atol=1e-6)
        assert res.converged

    def test_one_hot_predictions_recover_their_marginal(self):
        preds = PredictionMatrix(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]]))
        res = mlls_estimate(preds, LabelMarginal(np.array([0.5, 0.5])))
        np.testing.assert_allclose(res.marginal.probs, [0.75, 0.25], atol=1e-7)

    def test_log_likelihood_trace_is_monotone(self):
        rng = np.random.default_rng(17)
        for trial in range(20):
            k = int(rng.integers(2, 5))
            preds = PredictionMatrix(rng.dirichlet(np.full(k, 0.6), size=100))
            res = mlls_estimate(preds, LabelMarginal(rng.dirichlet(np.full(k, 4.0))))
            steps = np.diff(res.log_likelihoods)
            # EM ascends exactly in exact arithmetic; allow float rounding.
            assert steps.min() >= -1e-12

    def test_floor_flagged_on_impossible_rows(self):
        preds = PredictionMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        res = mlls_estimate(preds, LabelMarginal(np.array([0.0, 1.0])))
        assert res.floored
        np.testing.assert_allclose(res.marginal.probs, [0.0, 1.0], atol=1e-12)

    def test_zero_prior_classes_stay_zero(self):
        preds = PredictionMatrix(np.array([[0.6, 0.2, 0.2], [0.1, 0.6, 0.3]]))
        res = mlls_estimate(preds, LabelMarginal(np.array([0.5, 0.5, 0.0])))
        assert res.marginal.probs[2] == 0.0

    def test_a_subnormal_denominator_is_divided_exactly(self):
        # A row's posterior does not change when the row is scaled, so a row
        # whose supported mass is 3e-310 pulls p as it does at full scale,
        # although 1 / denom overflows for it.
        rows = [[0.6, 0.3, 0.1], [0.3, 0.6, 0.1], [0.2, 0.7, 0.1], [0.7, 0.2, 0.1]]
        p_s = LabelMarginal(np.array([0.5, 0.5, 0.0]))
        tiny = mlls_estimate(PredictionMatrix(np.array([[1e-310, 2e-310, 1.0]] + rows)), p_s)
        full = mlls_estimate(PredictionMatrix(np.array([[1 / 3, 2 / 3, 0.0]] + rows)), p_s)
        assert tiny.converged and tiny.floored and not full.floored
        np.testing.assert_allclose(tiny.marginal.probs, full.marginal.probs, rtol=0, atol=1e-9)

    def test_extrapolation_outside_the_simplex_falls_back(self):
        # The worked example under p_s = [0.3, 0.7]: the first SqS3 cycle
        # extrapolates to [1.095, -0.095], so the cycle keeps its EM step.
        # So does every later one, and plain EM reaches the vertex.
        preds = PredictionMatrix(np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]]))
        p_s = LabelMarginal(np.array([0.3, 0.7]))
        p0 = p_s.probs
        p1 = em_step(preds, p_s, p0)
        p2 = em_step(preds, p_s, p1)
        r, v = p1 - p0, p2 - 2.0 * p1 + p0
        alpha = min(-np.linalg.norm(r) / np.linalg.norm(v), -1.0)
        assert (p0 - 2.0 * alpha * r + alpha * alpha * v)[1] < 0
        res = mlls_estimate(preds, p_s)
        assert res.converged and res.cycles == 0
        np.testing.assert_allclose(res.marginal.probs, [1.0, 0.0], atol=1e-6)
        assert np.diff(res.log_likelihoods).min() >= -8 * np.finfo(float).eps


def em_step(preds, p_s, p):
    """One plain EM step from p. A row with a zero denominator adds nothing.
    Ratios below the smallest normal float count as 0: this moves the step
    by less than 1e-290 and keeps thousands of steps toward a face of the
    simplex off the slow subnormal path."""
    ratio = p / np.where(p_s.probs > 0, p_s.probs, np.inf)
    ratio[ratio < np.finfo(float).tiny] = 0.0
    denom = preds.values @ ratio
    inv = np.divide(1.0, denom, out=np.zeros_like(denom), where=denom > 0)
    step = ratio * (preds.values.T @ inv)
    return step / step.sum()


def plain_em(preds, p_s, tol=MLLS_TOL, max_iters=MLLS_MAX_ITERS):
    """EM from p_s without acceleration until a step moves p by less than tol
    in l1: mlls_estimate's reference. Returns (p, EM steps, converged)."""
    p = p_s.probs
    for iterations in range(1, max_iters + 1):
        p_next = em_step(preds, p_s, p)
        delta = np.abs(p_next - p).sum()
        p = p_next
        if delta < tol:
            return p, iterations, True
    return p, iterations, False


def mlls_case(name):
    if name == "k50_zero_support":
        rng = np.random.default_rng(16)
        p_s = rng.dirichlet(np.full(50, 2.0))
        p_s[7] = 0.0
        preds = rng.dirichlet(np.full(50, 0.3), size=1000)
        return PredictionMatrix(preds), LabelMarginal(p_s / p_s.sum())
    rng = np.random.default_rng(17)
    if name == "k3":
        preds = rng.dirichlet(np.full(3, 0.6), size=400)
        return PredictionMatrix(preds), LabelMarginal(rng.dirichlet(np.full(3, 4.0)))
    # Rows with all their mass on the zero-support class have a zero
    # denominator; rows with 1e-14 on every supported class have a positive
    # one below the floor.
    preds = rng.dirichlet(np.full(4, 0.5), size=300)
    preds[:10] = [0.0, 0.0, 0.0, 1.0]
    if name == "floored_below":
        preds[10:20] = [1e-14, 1e-14, 1e-14, 1.0 - 3e-14]
    return PredictionMatrix(preds), LabelMarginal(np.array([0.4, 0.3, 0.3, 0.0]))


@pytest.mark.parametrize("name", ["k50_zero_support", "floored_zero", "floored_below", "k3"])
def test_mlls_matches_posterior_mean_reference(name):
    preds, p_s = mlls_case(name)
    plain, _, plain_converged = plain_em(preds, p_s)
    fixed_point, _, fixed_converged = plain_em(preds, p_s, tol=1e-14, max_iters=100_000)
    assert plain_converged and fixed_converged
    res = mlls_estimate(preds, p_s)
    assert res.converged
    assert 1 <= res.cycles < res.iterations
    gap = np.abs(res.marginal.probs - fixed_point).sum()
    assert gap <= max(np.abs(plain - fixed_point).sum(), 1e-6)
    assert res.floored == name.startswith("floored")
    assert np.all(res.marginal.probs[p_s.probs == 0] == 0.0)
    assert len(res.log_likelihoods) == res.iterations + 1
    assert np.diff(res.log_likelihoods).min() >= -8 * np.finfo(float).eps


def bayes_dumps(k, seed=20260):
    """Target predictions and the source label marginal, drawn as the
    benchmark's estimate_sweep draws its dumps at k = 10 and 50: 4,000 rows a
    domain from k unit-covariance Gaussians with means 2.5 / sqrt(2) on the
    one-hot vertices, a uniform source, a Dirichlet(0.3) target marginal at
    least 0.5 from uniform in l1, and Bayes posteriors under a uniform prior."""
    rng = np.random.default_rng([2, k, seed])
    uniform = np.full(k, 1.0 / k)
    while True:
        p_t = rng.dirichlet(np.full(k, 0.3))
        if np.abs(p_t - uniform).sum() >= 0.5:
            break
    mean = 2.5 / np.sqrt(2.0)

    def draw(marginal):
        labels = rng.choice(k, size=4000, p=marginal)
        x = rng.standard_normal((4000, k))
        x[np.arange(4000), labels] += mean
        return x, labels

    _, source_labels = draw(uniform)
    x, _ = draw(p_t)
    scores = np.log(uniform)[None, :] + mean * x
    scores -= scores.max(axis=1, keepdims=True)
    post = np.exp(scores)
    preds = PredictionMatrix(post / post.sum(axis=1, keepdims=True))
    return preds, LabelMarginal.from_labels(source_labels, k)


@pytest.mark.parametrize("k", [3, 10, 50])
def test_mlls_takes_a_third_of_plain_em_steps_on_bayes_dumps(k):
    preds, p_s = bayes_dumps(k)
    _, plain_steps, _ = plain_em(preds, p_s)
    res = mlls_estimate(preds, p_s)
    assert res.converged
    assert 1 <= res.cycles < res.iterations
    assert 3 * res.iterations <= plain_steps
    # The benchmark's output check: one EM step leaves the answer in place.
    p = res.marginal.probs
    assert np.abs(em_step(preds, p_s, p) - p).sum() <= 1e-6


class TestEstimateMarginal:
    def test_unknown_name_rejected(self):
        preds = PredictionMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidInputError, match="bbse"):
            estimate_marginal("bbse", preds, [0], preds)

    def test_perfect_one_hot_classifier_all_estimators(self):
        # Source: perfectly predicted labels with marginal [0.5, 0.5];
        # target: one-hot predictions with marginal [0.25, 0.75].
        src_labels = np.array([0, 1] * 50)
        eye = np.eye(2)
        preds_src = PredictionMatrix(eye[src_labels])
        tgt_labels = np.array([0] * 25 + [1] * 75)
        preds_tgt = PredictionMatrix(eye[tgt_labels])
        for name in ESTIMATORS:
            out = estimate_marginal(name, preds_src, src_labels, preds_tgt,
                                    lam=0.0)
            np.testing.assert_allclose(out.marginal.probs, [0.25, 0.75], atol=1e-5)
            np.testing.assert_allclose(out.weights.weights, [0.5, 1.5], atol=1e-4)

    def test_estimators_share_output_shape(self):
        rng = np.random.default_rng(29)
        preds_src = PredictionMatrix(rng.dirichlet(np.ones(3), size=60))
        labels = rng.integers(0, 3, size=60)
        preds_tgt = PredictionMatrix(rng.dirichlet(np.ones(3), size=80))
        for name in ESTIMATORS:
            out = estimate_marginal(name, preds_src, labels, preds_tgt)
            assert out.estimator == name
            assert isinstance(out.marginal, LabelMarginal)
            assert isinstance(out.weights, ImportanceWeights)
            np.testing.assert_allclose(
                weights_to_marginal(out.weights, out.weights.reference).probs,
                out.marginal.probs,
                atol=1e-9,
            )

    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_inputs_of_another_k_rejected_alike(self, name):
        rng = np.random.default_rng(37)
        preds_src = PredictionMatrix(rng.dirichlet(np.ones(3), size=30))
        labels = np.arange(30) % 3
        preds_tgt = PredictionMatrix(rng.dirichlet(np.ones(3), size=40))
        two = LabelMarginal.uniform(2)
        with pytest.raises(DimensionError, match="^p_s has k=2, predictions have k=3$"):
            estimate_marginal(name, preds_src, labels, preds_tgt, p_s=two)
        with pytest.raises(DimensionError,
                           match="^classifier_prior has k=2, predictions have k=3$"):
            estimate_marginal(name, preds_src, labels, preds_tgt, classifier_prior=two)
        with pytest.raises(InvalidInputError, match=r"^labels must lie in \[0, 3\)$"):
            estimate_marginal(name, preds_src, np.where(labels == 0, 3, labels), preds_tgt)

    def test_classifier_prior_feeds_mlls_only(self):
        rng = np.random.default_rng(31)
        preds_src = PredictionMatrix(rng.dirichlet(np.ones(2), size=40))
        labels = np.array([0] * 30 + [1] * 10)
        preds_tgt = PredictionMatrix(rng.dirichlet(np.ones(2), size=40))
        uniform = LabelMarginal.uniform(2)
        skewed = estimate_marginal("mlls", preds_src, labels, preds_tgt)
        balanced = estimate_marginal("mlls", preds_src, labels, preds_tgt,
                                     classifier_prior=uniform)
        assert l1_distance(skewed.marginal, balanced.marginal) > 1e-4
