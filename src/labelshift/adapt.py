"""Classifier training and label-shift corrections.

Two small float64 models (softmax regression and a one-hidden-layer tanh
network) trained by minibatch gradient descent with hand-derived gradients
and a safeguarded step size: whenever the full-train objective increases at
an epoch boundary, the epoch is rolled back and the learning rate halves, so
the recorded loss sequence is non-increasing by construction. The three
training algorithms share that one loop and differ only in each epoch's data
and class weights and in an optional extra gradient term per step.

meta_adapt wraps any of the training algorithms with the two corrections:
class re-balancing of the training data (rs) and post-hoc re-weighting of the
predictions by an estimated target marginal (rw). It is two halves: training
under rs, then reweight_result for rw, which applies to a trained model alone,
so every rw arm of one (algorithm, rs) model can share a single training.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from labelshift.core import (
    DimensionError,
    DivergedError,
    EmptyInputError,
    InvalidInputError,
    LabelMarginal,
    LabelShiftError,
    LabeledSet,
    ParseError,
    PredictionMatrix,
    RngStream,
    _read_fields,
    _schema,
)
from labelshift.estimate import (
    EstimatorOutput,
    estimate_marginal,
)
from labelshift.shift import TaskBundle, _largest_remainder

ALGORITHMS = ("source_only", "pseudolabel", "iw_erm")
MODEL_KINDS = ("logistic", "mlp")

# Estimated marginals are clipped here and renormalized before re-weighting,
# so a single zeroed class cannot erase a prediction column.
MARGINAL_FLOOR = 1e-6


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    classes: int
    hidden_units: int = 32

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise InvalidInputError(f"unknown model kind {self.kind!r}; expected {MODEL_KINDS}")
        if self.input_dim < 1 or self.classes < 2 or self.hidden_units < 1:
            raise InvalidInputError("model dimensions must be positive (classes >= 2)")

    @property
    def n_parameters(self) -> int:
        d, k, h = self.input_dim, self.classes, self.hidden_units
        if self.kind == "logistic":
            return d * k + k
        return d * h + h + h * k + k


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 128
    learning_rate: float = 0.5
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidInputError("epochs and batch_size must be positive")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidInputError("learning_rate must be positive")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise InvalidInputError("l2 must be nonnegative")


@dataclass(frozen=True)
class PseudoLabelConfig:
    """Self-training term: confident argmax pseudo-labels enter the loss with
    weight ramping linearly from 0 to lambda_max over the first ramp_fraction
    of all steps, then staying constant."""

    tau: float = 0.9
    lambda_max: float = 1.0
    ramp_fraction: float = 0.4

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise InvalidInputError("tau must lie in (0, 1]")
        if not (np.isfinite(self.lambda_max) and self.lambda_max >= 0):
            raise InvalidInputError("lambda_max must be finite and nonnegative")
        if not (0.0 <= self.ramp_fraction <= 1.0):
            raise InvalidInputError("ramp_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class CorrectionFlags:
    """Which corrections to apply around a training algorithm.

    estimator names the marginal estimator and is meaningful only when
    reweight is set; None defers to the caller's default ("rlls").
    """

    resample: bool = False
    reweight: bool = False
    estimator: str | None = None

    def label(self) -> str:
        parts = [s for s, on in (("rs", self.resample), ("rw", self.reweight)) if on]
        return "+".join(parts) if parts else "none"

    @classmethod
    def from_label(cls, label: str, estimator: str | None = None) -> "CorrectionFlags":
        parts = set(label.split("+")) if label != "none" else set()
        unknown = parts - {"rs", "rw"}
        if unknown:
            raise InvalidInputError(f"unknown correction tokens {sorted(unknown)} in {label!r}")
        return cls(resample="rs" in parts, reweight="rw" in parts, estimator=estimator)


@dataclass(frozen=True, eq=False)
class Model:
    """A trained classifier: spec, flat parameter vector, the per-epoch
    source-validation accuracy log, and the safeguarded objective values
    (non-increasing by construction)."""

    spec: ModelSpec
    parameters: np.ndarray
    training_log: tuple[float, ...] = ()
    loss_log: tuple[float, ...] = ()

    def __post_init__(self):
        p = np.asarray(self.parameters, dtype=np.float64)
        if p.shape != (self.spec.n_parameters,):
            raise DimensionError(
                f"expected {self.spec.n_parameters} parameters for {self.spec.kind}, got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise InvalidInputError("parameters contain non-finite values")
        p = np.array(p, copy=True)
        p.setflags(write=False)
        object.__setattr__(self, "parameters", p)
        object.__setattr__(self, "training_log", tuple(float(v) for v in self.training_log))
        object.__setattr__(self, "loss_log", tuple(float(v) for v in self.loss_log))

    def predict(self, features) -> PredictionMatrix:
        probs = _forward(self.spec, self.parameters, _check_features(self.spec, features))
        return PredictionMatrix(probs)

    def predict_labels(self, features) -> np.ndarray:
        return self.predict(features).argmax_labels()


@dataclass(frozen=True, eq=False)
class AdaptResult:
    """Output of meta_adapt: the trained model, the label marginal it was
    trained under (uniform after rs), the estimated target marginal (None
    when re-weighting was off or estimation failed), and the estimator's raw
    output."""

    model: Model
    train_marginal: LabelMarginal
    p_hat_t: LabelMarginal | None = None
    estimate: EstimatorOutput | None = None
    diagnostics: tuple[str, ...] = ()

    def reweighted(self, preds: PredictionMatrix) -> PredictionMatrix:
        """Predictions of self.model with the correction applied."""
        if self.p_hat_t is None:
            return preds
        return reweight_predictions(preds, self.p_hat_t, self.train_marginal)

    def adjusted(self, features) -> PredictionMatrix:
        return self.reweighted(self.model.predict(features))


def _check_features(spec: ModelSpec, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise DimensionError(f"features must have shape (n, {spec.input_dim}), got {x.shape}")
    if x.shape[0] < 1:
        raise EmptyInputError("no feature rows")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("features contain non-finite values")
    return x


def _unpack(spec: ModelSpec, params: np.ndarray):
    d, k, h = spec.input_dim, spec.classes, spec.hidden_units
    if spec.kind == "logistic":
        return params[: d * k].reshape(d, k), params[d * k :]
    i0 = d * h
    i1 = i0 + h
    i2 = i1 + h * k
    return (
        params[:i0].reshape(d, h),
        params[i0:i1],
        params[i1:i2].reshape(h, k),
        params[i2:],
    )


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1, keepdims=True), reduced down the columns of a contiguous
    transposed copy: numpy reduces a short last axis one row at a time, which
    is slow when there are few classes and many rows. Max is exact, so the
    values are equal."""
    return np.maximum.reduce(np.ascontiguousarray(a.T), axis=0)[:, None]


def _softmax_terms(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """The shared forward pass: the max-shifted logits z, exp(z), the row sums
    of exp(z) (kept 2-D) and the hidden layer (None for the logistic model)."""
    if spec.kind == "logistic":
        w, b = _unpack(spec, params)
        z = x @ w
        z += b
        hidden = None
    else:
        w1, b1, w2, b2 = _unpack(spec, params)
        hidden = x @ w1
        hidden += b1
        np.tanh(hidden, out=hidden)
        z = hidden @ w2
        z += b2
    z -= _row_max(z)
    expz = np.exp(z)
    return z, expz, expz.sum(axis=1, keepdims=True), hidden


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    _, probs, denom, _ = _softmax_terms(spec, params, x)
    probs /= denom
    return probs


def init_parameters(spec: ModelSpec, stream: RngStream) -> np.ndarray:
    """Zero init for the convex model; scaled Gaussian weights (zero biases)
    for the network, drawn from the given stream."""
    if spec.kind == "logistic":
        return np.zeros(spec.n_parameters)
    gen = stream.generator()
    d, k, h = spec.input_dim, spec.classes, spec.hidden_units
    w1 = gen.standard_normal((d, h)) / np.sqrt(d)
    w2 = gen.standard_normal((h, k)) / np.sqrt(h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])


def _loss_half(spec: ModelSpec, params: np.ndarray, y: np.ndarray, cw: np.ndarray,
               l2: float, terms, rows: np.ndarray) -> float:
    """loss_and_grad's objective from _softmax_terms of the same rows; cw holds
    each row's weight and rows is arange(n)."""
    z, _, denom, _ = terms
    logp = z[rows, y] - np.log(denom[:, 0])
    data_loss = -float(cw @ logp) / z.shape[0]
    if spec.kind == "logistic":
        w, _ = _unpack(spec, params)
        penalty = 0.5 * l2 * float((w * w).sum())
    else:
        w1, _, w2, _ = _unpack(spec, params)
        penalty = 0.5 * l2 * float((w1 * w1).sum() + (w2 * w2).sum())
    return data_loss + penalty


def _grad_half(spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
               cw: np.ndarray, l2: float, terms, rows: np.ndarray) -> np.ndarray:
    """loss_and_grad's gradient from _softmax_terms of the same rows (their
    exp(z) and hidden layer are overwritten); cw holds each row's weight and
    rows is arange(n)."""
    _, dlogits, denom, hidden = terms
    dlogits /= denom
    dlogits *= cw[:, None]
    dlogits[rows, y] -= cw
    dlogits /= x.shape[0]
    grad = np.empty(spec.n_parameters)
    if spec.kind == "logistic":
        w, _ = _unpack(spec, params)
        gw, gb = _unpack(spec, grad)
        np.matmul(x.T, dlogits, out=gw)
        gw += l2 * w
        np.add.reduce(dlogits, axis=0, out=gb)
    else:
        w1, _, w2, _ = _unpack(spec, params)
        gw1, gb1, gw2, gb2 = _unpack(spec, grad)
        np.matmul(hidden.T, dlogits, out=gw2)
        gw2 += l2 * w2
        np.add.reduce(dlogits, axis=0, out=gb2)
        dz1 = dlogits @ w2.T
        hidden *= hidden
        np.subtract(1.0, hidden, out=hidden)
        dz1 *= hidden
        np.matmul(x.T, dz1, out=gw1)
        gw1 += l2 * w1
        np.add.reduce(dz1, axis=0, out=gb1)
    return grad


def loss_and_grad(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    class_weights: np.ndarray | None = None,
    l2: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Weighted mean cross-entropy plus (l2/2) * ||weights||^2 (biases exempt),
    with the analytic gradient in the flat parameter layout.

    class_weights, when given, is a length-k vector applied per example
    through its label: loss = (1/n) sum_i cw[y_i] * ce_i + penalty.
    It is one forward pass plus two halves that the training loop also calls
    on their own: minibatch steps need only the gradient, the safeguard only
    the loss.
    """
    n = x.shape[0]
    y = np.asarray(y)
    if y.shape != (n,) or not np.issubdtype(y.dtype, np.integer):
        raise InvalidInputError(f"labels must be {n} integers, got shape {y.shape} of {y.dtype}")
    if np.any(y < 0) or np.any(y >= spec.classes):
        raise InvalidInputError(f"labels must lie in [0, {spec.classes})")
    cw = np.ones(n) if class_weights is None else np.asarray(class_weights, dtype=np.float64)[y]
    rows = np.arange(n)
    terms = _softmax_terms(spec, params, x)
    loss = _loss_half(spec, params, y, cw, l2, terms, rows)
    return loss, _grad_half(spec, params, x, y, cw, l2, terms, rows)


def class_balanced_indices(labels, size: int, stream: RngStream) -> np.ndarray:
    """Sample `size` indices with replacement, class-uniform over nonempty
    classes: per-class counts come from largest-remainder allocation of
    size/m (so they differ by at most 1, ties favoring lower class index),
    then draws are uniform within each class."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptyInputError("cannot balance an empty label vector")
    if size < 1:
        raise InvalidInputError(f"size must be positive, got {size}")
    # numpy's unique classes by sort and compare, since the first call of its
    # unique function in a process imports numpy.ma (some 8 ms in a worker).
    ordered = np.sort(labels, axis=None)
    classes = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    shares = _largest_remainder(size, np.full(classes.size, 1.0 / classes.size))
    gen = stream.generator()
    picks = []
    for cls, count in zip(classes, shares):
        if count == 0:
            continue
        pool = np.nonzero(labels == cls)[0]
        picks.append(gen.choice(pool, size=int(count), replace=True))
    return np.concatenate(picks)


def reweight_predictions(
    preds: PredictionMatrix,
    p_hat_t: LabelMarginal,
    p_train: LabelMarginal,
) -> PredictionMatrix:
    """Post-hoc prior correction: scale column j by p_hat_t(j) / p_train(j)
    and renormalize rows. p_train is the marginal the classifier was trained
    on (uniform after class-balanced training). Rows that would lose all mass
    are kept unchanged and reported via a warning."""
    if preds.k != p_hat_t.k or preds.k != p_train.k:
        raise DimensionError("predictions and marginals disagree on the number of classes")
    if np.any(p_train.probs <= 0):
        raise InvalidInputError("p_train must be strictly positive")
    ratio = p_hat_t.probs / p_train.probs
    scaled = preds.values * ratio
    mass = scaled.sum(axis=1)
    dead = mass <= 0
    if np.any(dead):
        warnings.warn(
            f"{int(dead.sum())} prediction rows have no mass under the estimated "
            "marginal and were left unchanged",
            RuntimeWarning,
            stacklevel=2,
        )
        scaled[dead] = preds.values[dead]
        mass[dead] = 1.0
    return PredictionMatrix(scaled / mass[:, None])


def _accuracy(spec: ModelSpec, params: np.ndarray, data: LabeledSet) -> float:
    probs = _forward(spec, params, data.features)
    return float(np.mean(np.argmax(probs, axis=1) == data.labels))


def _batch_slices(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield slice(start, min(start + batch_size, n))


def _train(
    spec: ModelSpec,
    train: LabeledSet,
    val: LabeledSet,
    cfg: TrainConfig,
    epoch_data: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    step_extra: Callable[[int, int, np.ndarray], np.ndarray | None] | None = None,
) -> Model:
    """The safeguarded minibatch loop shared by every training algorithm.

    epoch_data(epoch, params) returns the epoch's (x, y, class_weights);
    step_extra(batch_index, step, params), when given, returns a term added to
    the minibatch gradient, or None to use the gradient unchanged. Each
    minibatch is gathered from x by its slice of the epoch's shuffled order
    (ndarray.take, which gathers rows faster than fancy indexing), so the
    loop holds one batch beside the epoch's data, never a shuffled copy of
    it. The safeguard monitors the full-train objective on the epoch's own
    data.
    Outside the hooks the arithmetic is that of plain ERM, which keeps the
    reduction identities bit-exact. A step computes only loss_and_grad's
    gradient and the safeguard only its objective, each on the rows and in
    the order loss_and_grad would see them, so both are bit for bit what
    loss_and_grad returns. The model keeps the parameters of the epoch with
    the best source-validation accuracy, the earliest on a tie."""
    if train.d != spec.input_dim:
        raise DimensionError("training features disagree with the model spec")
    if train.labels.max() >= spec.classes:
        raise InvalidInputError(f"training labels exceed classes={spec.classes}")
    if val.d != spec.input_dim:
        raise DimensionError("validation features disagree with the model spec")

    base = RngStream(cfg.seed)
    params = init_parameters(spec, base.derive("init"))
    shuffle_gen = base.derive("shuffle").generator()
    lr = cfg.learning_rate
    prev_params, prev_loss = params, np.inf
    best_params, best_acc = params, -np.inf
    log: list[float] = []
    losses: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        # Drop the last epoch's data first, so that an epoch re-balanced by
        # epoch_data is never held twice.
        x = y = None
        x, y, weights = epoch_data(epoch, params)
        n = x.shape[0]
        rows = np.arange(n)
        order = shuffle_gen.permutation(n)
        for i, sl in enumerate(_batch_slices(n, cfg.batch_size)):
            batch = order[sl]
            xb, yb = x.take(batch, axis=0), y[batch]
            terms = _softmax_terms(spec, params, xb)
            grad = _grad_half(spec, params, xb, yb, weights[yb], cfg.l2, terms,
                              rows[: xb.shape[0]])
            extra = None if step_extra is None else step_extra(i, step, params)
            if extra is not None:
                grad += extra
            grad *= lr
            params = params - grad
            step += 1
        full_loss = _loss_half(spec, params, y, weights[y], cfg.l2,
                               _softmax_terms(spec, params, x), rows)
        # Safeguard: reject the epoch and halve the step on any increase of
        # the monitored objective, so the recorded sequence never rises.
        if not np.isfinite(full_loss):
            raise DivergedError(f"training loss became {full_loss!r}")
        if full_loss > prev_loss:
            # The restored parameters were scored at the end of the last epoch.
            params = prev_params
            lr /= 2.0
            acc = log[-1]
        else:
            prev_params, prev_loss = params, full_loss
            acc = _accuracy(spec, params, val)
        losses.append(prev_loss)
        log.append(acc)
        if acc > best_acc:
            best_acc, best_params = acc, params
    return Model(spec, best_params, tuple(log), tuple(losses))


def train_erm(
    spec: ModelSpec,
    train: LabeledSet,
    val: LabeledSet,
    cfg: TrainConfig,
    example_weights: np.ndarray | None = None,
) -> Model:
    """Minibatch gradient descent on the (optionally class-weighted)
    cross-entropy. example_weights is a length-k vector of per-class weights
    applied to each example through its label; None and all-ones produce
    bit-identical trajectories."""
    weights = np.ones(spec.classes) if example_weights is None else np.asarray(example_weights, dtype=np.float64)
    if weights.shape != (spec.classes,):
        raise DimensionError(f"example_weights must have length {spec.classes}")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise InvalidInputError("example_weights must be finite and nonnegative")
    data = (train.features, train.labels, weights)
    return _train(spec, train, val, cfg, lambda epoch, params: data)


def pseudolabel_train(
    spec: ModelSpec,
    source_train: LabeledSet,
    source_val: LabeledSet,
    target_features,
    cfg: TrainConfig,
    pl: PseudoLabelConfig = PseudoLabelConfig(),
    corrections: CorrectionFlags = CorrectionFlags(),
) -> Model:
    """Self-training: every step takes a labeled source batch plus a target
    batch whose confident argmax pseudo-labels enter the loss with the ramped
    weight. With corrections.resample, each epoch re-balances the source on
    true labels and the target on current pseudo-labels before sampling.

    The safeguard monitors the labeled source objective only; the pseudo-label
    term is nonstationary. With lambda_max = 0 the trajectory is bit-identical
    to train_erm under the same config.
    """
    target_x = _check_features(spec, target_features)
    weights = np.ones(spec.classes)
    base = RngStream(cfg.seed)
    target_gen = base.derive("target_shuffle").generator()
    steps_per_epoch = int(np.ceil(source_train.n / cfg.batch_size))
    # Entry i * batch_size + j of an epoch's target indices is the j-th target
    # row of step i: the shuffled target order, wrapped round to fill every
    # step. Each step gathers its own rows from them.
    wrapped = np.arange(steps_per_epoch * cfg.batch_size)
    target_idx = None

    def epoch_data(epoch, params):
        nonlocal target_idx
        x, y = source_train.features, source_train.labels
        tgt_idx = np.arange(target_x.shape[0])
        if corrections.resample:
            idx = class_balanced_indices(y, source_train.n, base.derive("balance_source", epoch))
            x, y = x[idx], y[idx]
            probs_t = _forward(spec, params, target_x)
            tgt_idx = class_balanced_indices(
                np.argmax(probs_t, axis=1), target_x.shape[0],
                base.derive("balance_target", epoch),
            )
        target_order = target_gen.permutation(tgt_idx)
        target_idx = target_order[wrapped % target_order.size]
        return x, y, weights

    ramp_steps = pl.ramp_fraction * cfg.epochs * steps_per_epoch

    def step_extra(i, step, params):
        lam_t = pl.lambda_max * min(1.0, step / ramp_steps) if ramp_steps > 0 else pl.lambda_max
        if lam_t > 0.0:
            tb = target_x.take(target_idx[i * cfg.batch_size:(i + 1) * cfg.batch_size], axis=0)
            probs_tb = _forward(spec, params, tb)
            confident = _row_max(probs_tb)[:, 0] >= pl.tau
            if confident.any():
                pseudo = np.argmax(probs_tb[confident], axis=1)
                # Forward the confident rows again rather than reusing their
                # rows of probs_tb: a matmul over fewer rows may round
                # differently.
                tc = tb[confident]
                m = tc.shape[0]
                ugrad = _grad_half(spec, params, tc, pseudo, np.ones(m), 0.0,
                                   _softmax_terms(spec, params, tc), np.arange(m))
                # Mean over the full target batch, not just confident rows.
                return lam_t * (confident.sum() / tb.shape[0]) * ugrad
        return None

    return _train(spec, source_train, source_val, cfg, epoch_data, step_extra)


def _default_weight_fn(
    preds_source: PredictionMatrix,
    labels_source: np.ndarray,
    preds_target: PredictionMatrix,
) -> np.ndarray:
    # RLLS's default regularization pulls the weights toward 1 when the
    # model's confusion matrix says little, as the untrained model's does at
    # epoch 0. Unregularized, that first estimate can land near a vertex
    # (weights [0, 0.07, 2.9] against a true ratio of [2.4, 0.3, 0.3]) and
    # leave the model below chance.
    return estimate_marginal("rlls", preds_source, labels_source, preds_target).weights.weights


def iw_erm_train(
    spec: ModelSpec,
    source_train: LabeledSet,
    source_val: LabeledSet,
    target_features,
    cfg: TrainConfig,
    weight_fn: Callable[[PredictionMatrix, np.ndarray, PredictionMatrix], np.ndarray] | None = None,
) -> Model:
    """ERM whose per-class weights are re-estimated at the start of every
    epoch from the current model's source-train and target-train predictions
    (moment matching by default). A weight_fn returning all ones makes the
    trajectory bit-identical to train_erm."""
    target_x = _check_features(spec, target_features)
    if weight_fn is None:
        weight_fn = _default_weight_fn
    x, y = source_train.features, source_train.labels
    weights = np.ones(spec.classes)

    def epoch_data(epoch, params):
        nonlocal weights
        try:
            probs_s = _forward(spec, params, x)
            probs_t = _forward(spec, params, target_x)
            weights = np.asarray(
                weight_fn(PredictionMatrix(probs_s), y, PredictionMatrix(probs_t)),
                dtype=np.float64,
            )
        except LabelShiftError as exc:
            # stacklevel points past the loop at iw_erm_train's caller.
            warnings.warn(f"weight estimation failed, keeping previous weights: {exc}",
                          RuntimeWarning, stacklevel=4)
        return x, y, weights

    return _train(spec, source_train, source_val, cfg, epoch_data)


def meta_adapt(
    algorithm: str,
    bundle: TaskBundle,
    corrections: CorrectionFlags,
    cfg: TrainConfig,
    model_spec: ModelSpec | None = None,
    pl: PseudoLabelConfig = PseudoLabelConfig(),
) -> AdaptResult:
    """Run a training algorithm inside the correction loop.

    With resample on, the source is class-balanced before training (the
    pseudo-label loop instead re-balances source and target every epoch), so
    the classifier sees a uniform prior. With reweight on, reweight_result
    then corrects the trained model's predictions. The model depends on
    corrections.resample only, never on reweight or the estimator."""
    if algorithm not in ALGORITHMS:
        raise InvalidInputError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if model_spec is None:
        model_spec = ModelSpec("logistic", input_dim=bundle.d, classes=bundle.k)

    source_train = bundle.source_train
    train_marginal = (
        LabelMarginal.uniform(bundle.k)
        if corrections.resample
        else LabelMarginal.from_labels(source_train.labels, bundle.k)
    )
    if corrections.resample and algorithm != "pseudolabel":
        idx = class_balanced_indices(
            source_train.labels, source_train.n, RngStream(cfg.seed).derive("balance_source")
        )
        source_train = source_train.subset(idx)

    if algorithm == "source_only":
        model = train_erm(model_spec, source_train, bundle.source_val, cfg)
    elif algorithm == "pseudolabel":
        model = pseudolabel_train(
            model_spec, source_train, bundle.source_val,
            bundle.target_train.features, cfg, pl, corrections,
        )
    else:
        model = iw_erm_train(
            model_spec, source_train, bundle.source_val,
            bundle.target_train.features, cfg,
        )
    trained = AdaptResult(model, train_marginal)
    if not corrections.reweight:
        return trained
    return reweight_result(trained, bundle, model.predict(bundle.source_val.features),
                           model.predict(bundle.target_test.features),
                           corrections.estimator)


def reweight_result(
    trained: AdaptResult,
    bundle: TaskBundle,
    source_preds: PredictionMatrix,
    target_preds: PredictionMatrix,
    estimator: str | None = None,
) -> AdaptResult:
    """The rw half of meta_adapt: estimate the target marginal from
    trained.model's predictions on source-val (source_preds) and on the
    unlabeled target holdout (target_preds), floor it, and divide by the
    training prior to adjust predictions. Taking the predictions lets arms
    that share one model predict once. Estimation failures leave the
    uncorrected model with a diagnostic."""
    try:
        estimate = estimate_marginal(
            estimator or "rlls",
            source_preds,
            bundle.source_val.labels,
            target_preds,
            classifier_prior=trained.train_marginal,
        )
        floored = np.maximum(estimate.marginal.probs, MARGINAL_FLOOR)
        p_hat = LabelMarginal(floored / floored.sum())
    except LabelShiftError as exc:
        return replace(trained, diagnostics=(f"marginal estimation failed: {exc}",))
    return replace(trained, p_hat_t=p_hat, estimate=estimate, diagnostics=estimate.diagnostics)


def save_model(model: Model, path) -> None:
    """Serialize spec, parameters, and training log as JSON; floats round-trip
    exactly."""
    payload = {
        "kind": model.spec.kind,
        "input_dim": model.spec.input_dim,
        "classes": model.spec.classes,
        "hidden_units": model.spec.hidden_units,
        "parameters": model.parameters.tolist(),
        "training_log": list(model.training_log),
        "loss_log": list(model.loss_log),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_model(path) -> Model:
    """A save_model file, with every key typed and required as it writes it."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    model_fields = ("parameters", "training_log", "loss_log")  # Model's, after spec
    keys = ("kind", "input_dim", "classes", "hidden_units", *model_fields)  # all required
    schema = _schema(ModelSpec, required=keys, **dict.fromkeys(model_fields, tuple[float, ...]))
    values = _read_fields(payload, schema, f"{path}: model")
    rest = [values.pop(key) for key in model_fields]
    try:
        return Model(ModelSpec(**values), *rest)
    except (InvalidInputError, DimensionError) as exc:
        raise ParseError(f"{path}: {exc}") from None
