"""Target label-marginal estimators.

Three interchangeable estimators, all black-box in the classifier:

* ``rlls``: regularized least squares on the soft confusion matrix, with both
  norms squared, solved exactly over the simplex by a primal active-set method.
* ``mlls``: maximum-likelihood EM fixed point, accelerated by SQUAREM.
* ``baseline``: the mean target prediction, no correction for classifier error.

``estimate_marginal`` is the uniform entry point used by the adaptation loop
and the CLI. Its one setting is rlls's penalty ``lam``; the iteration caps of
both estimators and mlls's stopping tolerance are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from labelshift.core import (
    DegenerateEstimateError,
    DimensionError,
    ImportanceWeights,
    InvalidInputError,
    LabelMarginal,
    PredictionMatrix,
    SoftConfusion,
    project_simplex,
    weights_to_marginal,
)

ESTIMATORS = ("rlls", "mlls", "baseline")

# Guard cap on the active-set changes of RLLS's solve. The method ends at the
# optimum after finitely many; the tests see at most 2k.
RLLS_MAX_ITERS = 10000

# MLLS stops when an EM step moves the marginal by less than this in l1, or
# after MLLS_MAX_ITERS steps.
MLLS_TOL = 1e-8
MLLS_MAX_ITERS = 10000

# An EM denominator below this is reported as floored, and its row's posterior
# is taken term by term, because 1 / denom can overflow.
MLLS_DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class RllsResult:
    weights: ImportanceWeights
    converged: bool
    iterations: int
    objective: float
    ill_conditioned: bool = False
    diagnostics: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class MllsResult:
    marginal: LabelMarginal
    converged: bool
    # EM steps run. Each SqS3 cycle takes two; a run can end after the first.
    iterations: int
    # SqS3 cycles that kept their extrapolated point; the others ended at
    # their second EM step.
    cycles: int = 0
    # Mean log-likelihood at the start of each EM step and at the answer;
    # length is iterations + 1. Non-decreasing up to rounding.
    log_likelihoods: tuple[float, ...] = ()
    floored: bool = False


@dataclass(frozen=True, eq=False)
class EstimatorOutput:
    """Common shape returned by estimate_marginal for all three estimators."""

    estimator: str
    marginal: LabelMarginal
    weights: ImportanceWeights
    converged: bool
    diagnostics: tuple[str, ...] = ()


def soft_confusion(preds: PredictionMatrix, labels) -> SoftConfusion:
    """Joint soft confusion C[i, j] = (1/n) sum_x f_i(x) 1{y(x) = j}.

    Column j sums to the empirical frequency of class j; a class with no
    examples yields an all-zero column and is reported in zero_classes.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != preds.n:
        raise DimensionError(
            f"got {labels.shape} labels for {preds.n} prediction rows"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= preds.k):
        raise InvalidInputError(f"labels must lie in [0, {preds.k})")
    labels = labels.astype(np.int64)
    onehot = np.zeros((preds.n, preds.k))
    onehot[np.arange(preds.n), labels] = 1.0
    matrix = preds.values.T @ onehot / preds.n
    counts = np.bincount(labels, minlength=preds.k)
    zero = tuple(int(j) for j in np.nonzero(counts == 0)[0])
    return SoftConfusion(matrix=matrix, zero_classes=zero)


def mean_prediction(preds: PredictionMatrix) -> LabelMarginal:
    """Column means of the prediction matrix; rows are stochastic so this is a marginal."""
    return LabelMarginal(preds.values.mean(axis=0))


def _simplex_qp(hess: np.ndarray, lin: np.ndarray, q: np.ndarray,
                solve) -> tuple[np.ndarray, bool, int]:
    """Minimize q'Hq/2 - lin'q over the simplex by a primal active-set method
    from the feasible point q; return (q, converged, active-set changes).

    Coordinates are free or fixed at zero. Each step solves the KKT system
    of the equality QP on the free ones, for the step d and the multiplier
    nu of sum(q) = 1: H_FF d_F + nu = (lin - H q)_F, sum(d_F) = 0, with
    solve(matrix, rhs). If d drives a free coordinate negative, the step
    stops at the boundary and fixes the first one to reach it. Otherwise the
    full step lands on the face's optimum, where each fixed coordinate's
    multiplier H q - lin + nu must be nonnegative; the most negative one is
    freed. Each fix or free is one change; the solve stops at optimality,
    or unconverged rather than make change RLLS_MAX_ITERS + 1 (Lawson &
    Hanson 1974, with the equality constraint added as in Nocedal & Wright,
    Algorithm 16.3).
    """
    # Multipliers above -tol count as zero; tol sits well above the rounding
    # in H q - lin.
    tol = 1e-12 * (np.abs(hess).max() + np.abs(lin).max())
    fixed = np.zeros(q.size, dtype=bool)
    changes = 0
    converged = False
    while True:
        free = np.flatnonzero(~fixed)
        kkt = np.ones((free.size + 1, free.size + 1))
        kkt[:-1, :-1] = hess[np.ix_(free, free)]
        kkt[-1, -1] = 0.0
        rhs = np.zeros(free.size + 1)
        rhs[:-1] = lin[free] - hess[free] @ q
        step = solve(kkt, rhs)
        target = q.copy()
        target[free] += step[:-1]
        blocking = free[target[free] < 0.0]
        if blocking.size:
            ratios = q[blocking] / (q[blocking] - target[blocking])
            change = blocking[np.argmin(ratios)]
            q = np.maximum(q + ratios.min() * (target - q), 0.0)
            q[change] = 0.0
        else:
            q = target
            multipliers = hess[fixed] @ q - lin[fixed] + step[-1]
            if not fixed.any() or multipliers.min() >= -tol:
                converged = True
                break
            change = np.flatnonzero(fixed)[np.argmin(multipliers)]
        if changes == RLLS_MAX_ITERS:
            break
        fixed[change] = not fixed[change]
        changes += 1
    # Clean the rounding in sum(q) = 1; fixed coordinates stay exactly zero.
    q[~fixed] = project_simplex(q[~fixed])
    return q, converged, changes


def _coerce_confusion(confusion) -> tuple[np.ndarray, tuple[int, ...]]:
    if isinstance(confusion, SoftConfusion):
        return confusion.matrix, confusion.zero_classes
    matrix = np.asarray(confusion, dtype=np.float64)
    zero = tuple(int(j) for j in np.nonzero(np.all(matrix == 0.0, axis=0))[0])
    return matrix, zero


def _check_lam(lam) -> None:
    if lam is not None and not (np.isfinite(lam) and lam >= 0):
        raise InvalidInputError("lam must be finite and nonnegative, or None")


def rlls_estimate(
    confusion,
    mu,
    p_s: LabelMarginal,
    lam: float | None = None,
    n_source_val: int | None = None,
) -> RllsResult:
    """Estimate importance weights from moments: find feasible w with C w ~ mu.

    The objective is ||C w - mu||^2 + lam * ||w - 1||^2 over feasible w.
    lam must be finite and nonnegative; None selects the rate default
    1/sqrt(n) from n_source_val (0 when no count is given).

    The feasible set {w >= 0, sum_y w(y) p_s(y) = 1} maps to the probability
    simplex under q(y) = w(y) p_s(y), where the objective is the convex
    quadratic ||A q - mu||^2 + lam * ||D q - 1||^2 with A = C diag(1/p_s) and
    D = diag(1/p_s). A primal active-set method solves it exactly from
    q = p_s; ``iterations`` counts its active-set changes, and ``converged``
    is false only if RLLS_MAX_ITERS of them did not reach the optimum. One
    simplex projection cleans the rounding at the end. At lam = 0 the
    quadratic can be singular, and the steps are then least-norm solutions.
    Classes with zero source mass stay pinned at q = 0; if target
    predictions still put mass there the problem is unidentifiable and the
    result is flagged ill-conditioned (best-effort weights are returned
    either way).
    """
    matrix, zero_cols = _coerce_confusion(confusion)
    mu_vec = mu.probs if isinstance(mu, LabelMarginal) else np.asarray(mu, dtype=np.float64)
    ps = p_s.probs
    k = ps.size
    if matrix.shape != (k, k):
        raise DimensionError(f"confusion shape {matrix.shape} does not match k={k}")
    if mu_vec.size != k:
        raise DimensionError(f"mu has {mu_vec.size} entries for k={k}")
    _check_lam(lam)
    if lam is None:
        lam = 1.0 / np.sqrt(n_source_val) if n_source_val else 0.0

    diagnostics: list[str] = []
    support = ps > 0
    dead = sorted(set(np.nonzero(~support)[0].tolist()) | set(zero_cols))
    ill = bool(any(mu_vec[j] > 0 and (j in zero_cols or not support[j]) for j in range(k)))
    if ill:
        diagnostics.append(
            "ill-conditioned: target predictions put mass on classes with no "
            f"source support {dead}"
        )
    # Optimize only over classes the source can ever produce.
    active = np.nonzero(support)[0]
    a_mat = matrix[:, active] / ps[active][None, :]
    d_inv = 1.0 / ps[active]

    hess = a_mat.T @ a_mat + lam * np.diag(d_inv**2)
    q = ps[active]
    if not hess.any():
        diagnostics.append("degenerate problem: zero curvature, returning w = 1")
        converged, iterations = True, 0
    else:
        solve = np.linalg.solve
        if lam == 0 and np.linalg.matrix_rank(hess) < active.size:
            # A singular A'A (a constant classifier makes A's columns alike)
            # leaves the optimum non-unique, and an LU solve turns rounding
            # into large steps. Least-norm steps leave q in place along the
            # directions where the objective is flat.
            def solve(matrix, rhs):
                return np.linalg.lstsq(matrix, rhs, rcond=None)[0]
        q, converged, iterations = _simplex_qp(hess, a_mat.T @ mu_vec + lam * d_inv, q, solve)
        if not converged:
            diagnostics.append(f"did not converge within {RLLS_MAX_ITERS} iterations")

    w = np.zeros(k)
    w[active] = q / ps[active]
    resid = a_mat @ q - mu_vec
    reg = d_inv * q - 1.0
    return RllsResult(
        weights=ImportanceWeights(w, p_s),
        converged=converged,
        iterations=iterations,
        objective=float(resid @ resid + lam * (reg @ reg)),
        ill_conditioned=ill,
        diagnostics=tuple(diagnostics),
    )


def mlls_estimate(preds_target: PredictionMatrix, p_s: LabelMarginal) -> MllsResult:
    """Maximum-likelihood marginal via the EM fixed point, accelerated by SQUAREM.

    An EM step maps p to the mean over target examples of the reweighted
    posterior r(y) f_y(x) / sum_y' r(y') f_y'(x), r = p / p_s: two
    matrix-vector products on the predictions F, denom = F r and then
    p <- r * (F^T (1 / denom)), renormalized. Each row is divided by its
    true denominator (term by term below MLLS_DENOMINATOR_FLOOR), and a row
    whose denominator is exactly 0 adds nothing, so every step is an EM step
    on the rows the model can explain.

    From p = p_s the loop runs SqS3 cycles (Varadhan & Roland 2008): two EM
    steps p0 -> p1 -> p2, then, with r = p1 - p0, v = p2 - 2 p1 + p0 and
    alpha = min(-||r|| / ||v||, -1), the extrapolated point
    p0 - 2 alpha r + alpha^2 v. The next cycle starts from that point if it
    is strictly positive on the source support and its mean log-likelihood
    is at least that of p1, the last recorded iterate; otherwise from p2.
    The loop stops when one EM step moves p by less than MLLS_TOL in l1, or
    after MLLS_MAX_ITERS EM steps.

    The mean log-likelihood, the mean log of the positive denominators, is
    recorded before each EM step and once at the end; EM ascent and the
    acceptance rule keep it non-decreasing. ``floored`` flags a recorded
    iterate with a denominator below MLLS_DENOMINATOR_FLOOR. Consistency
    assumes roughly calibrated predictions. Classes with p_s(y) = 0 have no
    ratio and stay 0.
    """
    if preds_target.k != p_s.k:
        raise DimensionError(f"predictions have k={preds_target.k}, marginal k={p_s.k}")
    values = preds_target.values
    ps = p_s.probs
    support = ps > 0
    inv_ps = np.where(support, 1.0 / np.where(support, ps, 1.0), 0.0)

    def likelihood(pvec: np.ndarray) -> tuple[float, np.ndarray]:
        # The mean log of the positive denominators at pvec, and all of them.
        denom = values @ (pvec * inv_ps)
        positive = denom > 0
        if not positive.any():
            raise DegenerateEstimateError("EM posterior collapsed to zero mass")
        logs = np.log(denom, out=np.zeros_like(denom), where=positive)
        return float(logs.sum() / np.count_nonzero(positive)), denom

    def em_step(pvec: np.ndarray, denom: np.ndarray) -> np.ndarray:
        ratio = pvec * inv_ps
        large = denom >= MLLS_DENOMINATOR_FLOOR
        step = ratio * (values.T @ np.divide(1.0, denom, out=np.zeros_like(denom), where=large))
        small = (denom > 0) & ~large
        if small.any():
            # 1 / denom can overflow here, but no posterior term exceeds 1.
            step += (values[small] * ratio / denom[small, None]).sum(axis=0)
        return step / step.sum()

    p = ps
    ll, denom = likelihood(p)
    floored = False
    lls: list[float] = []
    iterations = cycles = 0
    while True:
        lls.append(ll)
        floored |= denom.min() < MLLS_DENOMINATOR_FLOOR
        p_next = em_step(p, denom)
        iterations += 1
        converged = float(np.abs(p_next - p).sum()) < MLLS_TOL
        if converged or iterations == MLLS_MAX_ITERS:
            p = p_next
            break
        if iterations % 2:  # the first of a cycle's two EM steps
            p0, p = p, p_next
            ll, denom = likelihood(p)
        else:
            r = p - p0
            v = p_next - 2.0 * p + p0
            norm_v = np.linalg.norm(v)
            alpha = -max(np.linalg.norm(r) / norm_v, 1.0) if norm_v > 0 else -1.0
            jump = p0 - 2.0 * alpha * r + alpha * alpha * v
            found = None
            if np.all(jump[support] > 0):
                jump /= jump.sum()  # sum(r) = sum(v) = 0 up to rounding
                found = likelihood(jump)
            if found is None or found[0] < ll:
                jump, found = p_next, likelihood(p_next)
            else:
                cycles += 1
            p, (ll, denom) = jump, found
    ll, denom = likelihood(p)
    lls.append(ll)

    return MllsResult(
        marginal=LabelMarginal(p),
        converged=converged,
        iterations=iterations,
        cycles=cycles,
        log_likelihoods=tuple(lls),
        floored=bool(floored or denom.min() < MLLS_DENOMINATOR_FLOOR),
    )


def _weights_from_marginal(marginal: LabelMarginal, p_s: LabelMarginal) -> ImportanceWeights:
    # Ratio estimate w = p_t / p_s restricted to the source support; target
    # mass on unsupported classes is dropped and the rest renormalized.
    sup = p_s.probs > 0
    mass = float(marginal.probs[sup].sum())
    if mass <= 0:
        raise DegenerateEstimateError("estimated marginal has no mass on source-supported classes")
    w = np.zeros(p_s.k)
    w[sup] = (marginal.probs[sup] / mass) / p_s.probs[sup]
    return ImportanceWeights(w, p_s)


def estimate_marginal(
    estimator: str,
    preds_source_val: PredictionMatrix,
    labels_source_val,
    preds_target: PredictionMatrix,
    p_s: LabelMarginal | None = None,
    classifier_prior: LabelMarginal | None = None,
    lam: float | None = None,
) -> EstimatorOutput:
    """Run one of the named estimators and return marginal plus weights.

    p_s defaults to the empirical marginal of the source validation labels.
    classifier_prior is the label marginal the classifier was trained on
    (uniform when training was class-balanced); it only affects mlls, whose
    ratio p(y)/prior(y) refers to the training prior. rlls and baseline are
    prior-free in the classifier. lam is the rlls penalty (None for its
    sample-count default). lam, the source labels and the k of both
    marginals are checked against the predictions here, the same way for
    every estimator.
    """
    if estimator not in ESTIMATORS:
        raise InvalidInputError(
            f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}"
        )
    _check_lam(lam)
    k = preds_source_val.k
    if preds_target.k != k:
        raise DimensionError(f"source predictions have k={k}, target k={preds_target.k}")
    for name, marginal in (("p_s", p_s), ("classifier_prior", classifier_prior)):
        if marginal is not None and marginal.k != k:
            raise DimensionError(f"{name} has k={marginal.k}, predictions have k={k}")
    labels = np.asarray(labels_source_val)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise InvalidInputError(f"labels must lie in [0, {k})")
    if p_s is None:
        p_s = LabelMarginal.from_labels(labels, k)
    if classifier_prior is None:
        classifier_prior = p_s

    if estimator == "rlls":
        confusion = soft_confusion(preds_source_val, labels_source_val)
        res = rlls_estimate(confusion, mean_prediction(preds_target), p_s, lam,
                            n_source_val=preds_source_val.n)
        weights, converged, diagnostics = res.weights, res.converged, res.diagnostics
        marginal = weights_to_marginal(weights, p_s)
    elif estimator == "mlls":
        res = mlls_estimate(preds_target, classifier_prior)
        marginal, converged, diagnostics = res.marginal, res.converged, ()
        weights = _weights_from_marginal(marginal, p_s)
        if res.floored:
            diagnostics += ("EM denominators hit the numerical floor",)
        if not converged:
            diagnostics += (f"EM did not converge within {MLLS_MAX_ITERS} iterations",)
    else:
        marginal, converged, diagnostics = mean_prediction(preds_target), True, ()
        weights = _weights_from_marginal(marginal, p_s)
    return EstimatorOutput(estimator=estimator, marginal=marginal, weights=weights,
                           converged=converged, diagnostics=diagnostics)
