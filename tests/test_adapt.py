"""Training, corrections, and the adaptation meta-loop."""

import math
import tracemalloc

import numpy as np
import pytest

from labelshift.adapt import (
    _grad_half,
    _loss_half,
    _row_max,
    _softmax_terms,
    _unpack,
    AdaptResult,
    CorrectionFlags,
    Model,
    ModelSpec,
    PseudoLabelConfig,
    TrainConfig,
    class_balanced_indices,
    init_parameters,
    iw_erm_train,
    load_model,
    loss_and_grad,
    meta_adapt,
    pseudolabel_train,
    reweight_predictions,
    save_model,
    train_erm,
)
from labelshift.core import (
    DimensionError,
    DivergedError,
    EmptyInputError,
    InvalidInputError,
    LabelMarginal,
    LabeledSet,
    ParseError,
    PredictionMatrix,
    RngStream,
    l1_distance,
)
from labelshift.estimate import DegenerateEstimateError
from labelshift.shift import ShiftSpec, SynthTaskSpec, synth_relaxed_task


def make_blobs(k, d, n, separation, seed, marginal=None):
    gen = np.random.default_rng(seed)
    p = np.full(k, 1.0 / k) if marginal is None else np.asarray(marginal)
    labels = gen.choice(k, size=n, p=p)
    means = np.zeros((k, d))
    means[np.arange(k), np.arange(k)] = separation / np.sqrt(2.0)
    feats = gen.standard_normal((n, d)) + means[labels]
    return LabeledSet(feats, labels)


def small_bundle(alpha=0.5, epsilon=0.0, seed=3, k=3, d=3, n=1200, sep=2.0):
    task = SynthTaskSpec(name="t", k=k, d=d, n_source=n, n_target=n,
                         class_separation=sep, seed=seed)
    return synth_relaxed_task(task, ShiftSpec(alpha=alpha, epsilon=epsilon, seed=seed + 1))


def accuracy(preds: PredictionMatrix, labels) -> float:
    return float(np.mean(preds.argmax_labels() == np.asarray(labels)))


@pytest.fixture(scope="module")
def blob_data():
    train = make_blobs(2, 2, 400, 6.0, seed=0)
    val = make_blobs(2, 2, 200, 6.0, seed=1)
    return train, val


@pytest.fixture(scope="module")
def shifted_bundle():
    return small_bundle(alpha=0.5, epsilon=0.0, seed=3)


CFG = TrainConfig(epochs=20, batch_size=64, learning_rate=0.5, l2=1e-4, seed=7)


class TestConfigs:
    def test_model_spec_validation(self):
        with pytest.raises(InvalidInputError, match="kind"):
            ModelSpec("tree", 3, 2)
        with pytest.raises(InvalidInputError):
            ModelSpec("logistic", 0, 2)
        with pytest.raises(InvalidInputError):
            ModelSpec("logistic", 3, 1)
        with pytest.raises(InvalidInputError):
            ModelSpec("mlp", 3, 2, hidden_units=0)

    def test_parameter_counts(self):
        assert ModelSpec("logistic", 3, 2).n_parameters == 8
        assert ModelSpec("mlp", 3, 2, hidden_units=4).n_parameters == 12 + 4 + 8 + 2

    def test_train_config_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(l2=-1e-3)

    def test_pseudo_label_config_validation(self):
        with pytest.raises(InvalidInputError):
            PseudoLabelConfig(tau=0.0)
        with pytest.raises(InvalidInputError):
            PseudoLabelConfig(tau=1.2)
        with pytest.raises(InvalidInputError):
            PseudoLabelConfig(lambda_max=-0.1)
        with pytest.raises(InvalidInputError, match="lambda_max"):
            PseudoLabelConfig(lambda_max=float("nan"))
        with pytest.raises(InvalidInputError, match="lambda_max"):
            PseudoLabelConfig(lambda_max=float("inf"))
        with pytest.raises(InvalidInputError):
            PseudoLabelConfig(ramp_fraction=1.5)

    def test_correction_labels_round_trip(self):
        for label, flags in [
            ("none", CorrectionFlags()),
            ("rs", CorrectionFlags(resample=True)),
            ("rw", CorrectionFlags(reweight=True)),
            ("rs+rw", CorrectionFlags(resample=True, reweight=True)),
        ]:
            assert flags.label() == label
            assert CorrectionFlags.from_label(label) == flags

    def test_correction_label_unknown_token(self):
        with pytest.raises(InvalidInputError, match="rot13"):
            CorrectionFlags.from_label("rs+rot13")


class TestLossAndGrad:
    def finite_difference(self, spec, params, x, y, cw, l2, eps=1e-6):
        grad = np.zeros_like(params)
        for i in range(params.size):
            bump = np.zeros_like(params)
            bump[i] = eps
            up, _ = loss_and_grad(spec, params + bump, x, y, cw, l2)
            down, _ = loss_and_grad(spec, params - bump, x, y, cw, l2)
            grad[i] = (up - down) / (2.0 * eps)
        return grad

    @pytest.mark.parametrize("spec", [
        ModelSpec("logistic", 3, 3),
        ModelSpec("mlp", 3, 3, hidden_units=4),
    ])
    def test_gradient_matches_finite_differences(self, spec):
        gen = np.random.default_rng(11)
        x = gen.standard_normal((12, 3))
        y = gen.integers(0, 3, size=12)
        cw = gen.uniform(0.5, 2.0, size=3)
        worst = 0.0
        for _ in range(5):
            params = 0.5 * gen.standard_normal(spec.n_parameters)
            _, analytic = loss_and_grad(spec, params, x, y, cw, l2=0.01)
            numeric = self.finite_difference(spec, params, x, y, cw, l2=0.01)
            rel = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(analytic)))
            worst = max(worst, rel)
        assert worst < 1e-7

    def test_uniform_prediction_loss_is_log_k(self):
        spec = ModelSpec("logistic", 2, 2)
        params = np.zeros(spec.n_parameters)
        x = np.array([[1.0, -2.0]])
        loss, _ = loss_and_grad(spec, params, x, np.array([0]))
        assert math.isclose(loss, math.log(2.0), rel_tol=0, abs_tol=1e-12)

    def test_class_weights_scale_the_loss(self):
        spec = ModelSpec("logistic", 2, 2)
        params = np.zeros(spec.n_parameters)
        x = np.array([[1.0, -2.0]])
        loss, _ = loss_and_grad(spec, params, x, np.array([0]), np.array([3.0, 1.0]))
        assert math.isclose(loss, 3.0 * math.log(2.0), rel_tol=0, abs_tol=1e-12)

    def test_l2_penalty_on_weights_only(self):
        spec = ModelSpec("logistic", 2, 2)
        gen = np.random.default_rng(0)
        params = gen.standard_normal(spec.n_parameters)
        x = gen.standard_normal((5, 2))
        y = gen.integers(0, 2, size=5)
        base, _ = loss_and_grad(spec, params, x, y, l2=0.0)
        reg, _ = loss_and_grad(spec, params, x, y, l2=0.2)
        w = params[:4]
        assert math.isclose(reg - base, 0.1 * float(w @ w), rel_tol=1e-12)

    def test_none_weights_equal_unit_weights(self):
        spec = ModelSpec("mlp", 2, 2, hidden_units=3)
        gen = np.random.default_rng(1)
        params = gen.standard_normal(spec.n_parameters)
        x = gen.standard_normal((7, 2))
        y = gen.integers(0, 2, size=7)
        loss_a, grad_a = loss_and_grad(spec, params, x, y, None, 0.01)
        loss_b, grad_b = loss_and_grad(spec, params, x, y, np.ones(2), 0.01)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    @pytest.mark.parametrize("labels", [[-1], [3], [0, 1], [[0]], [0.0]])
    def test_bad_labels_rejected(self, labels):
        # -1 would score as class k-1 and k would index past the logits.
        spec = ModelSpec("logistic", 2, 3)
        params = np.zeros(spec.n_parameters)
        with pytest.raises(InvalidInputError, match="labels"):
            loss_and_grad(spec, params, np.array([[1.0, 2.0]]), np.array(labels))


def reference_forward(spec, params, x):
    """The forward pass as it was written before the loss and gradient were
    split: softmax probabilities, shifted logits and hidden layer."""
    if spec.kind == "logistic":
        w, b = _unpack(spec, params)
        hidden = None
        logits = x @ w + b
    else:
        w1, b1, w2, b2 = _unpack(spec, params)
        hidden = np.tanh(x @ w1 + b1)
        logits = hidden @ w2 + b2
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    return expz / expz.sum(axis=1, keepdims=True), z, hidden


def reference_loss_and_grad(spec, params, x, y, class_weights=None, l2=0.0):
    """loss_and_grad as one function, before it was split into halves."""
    n = x.shape[0]
    cw = np.ones(n) if class_weights is None else np.asarray(class_weights, dtype=np.float64)[y]
    probs, z, hidden = reference_forward(spec, params, x)
    idx = np.arange(n)
    logp = z[idx, y] - np.log(np.exp(z).sum(axis=1))
    data_loss = -float(cw @ logp) / n
    dlogits = probs * cw[:, None]
    dlogits[idx, y] -= cw
    dlogits /= n
    if spec.kind == "logistic":
        w, _ = _unpack(spec, params)
        grad = np.concatenate([(x.T @ dlogits + l2 * w).ravel(), dlogits.sum(axis=0)])
        penalty = 0.5 * l2 * float((w * w).sum())
    else:
        w1, _, w2, _ = _unpack(spec, params)
        gw2 = hidden.T @ dlogits + l2 * w2
        dz1 = (dlogits @ w2.T) * (1.0 - hidden * hidden)
        gw1 = x.T @ dz1 + l2 * w1
        grad = np.concatenate([gw1.ravel(), dz1.sum(axis=0), gw2.ravel(), dlogits.sum(axis=0)])
        penalty = 0.5 * l2 * float((w1 * w1).sum() + (w2 * w2).sum())
    return data_loss + penalty, grad


class TestLossHalves:
    """The gradient half and the loss half are bit for bit loss_and_grad's
    outputs, and loss_and_grad is bit for bit the unsplit formula."""

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("weights", ["none", "ones", "skewed"])
    @pytest.mark.parametrize("rows", [128, 77, 1000])
    def test_halves_equal_loss_and_grad(self, kind, k, weights, rows):
        spec = ModelSpec(kind, 16, k, hidden_units=32)
        gen = np.random.default_rng(rows)
        params = gen.standard_normal(spec.n_parameters)
        x = gen.standard_normal((1000, 16))[:rows]
        y = gen.integers(0, k, size=1000)[:rows]
        class_weights = {"none": None, "ones": np.ones(k),
                         "skewed": np.linspace(0.3, 2.7, k)}[weights]
        loss, grad = loss_and_grad(spec, params, x, y, class_weights, 1e-4)
        ref_loss, ref_grad = reference_loss_and_grad(spec, params, x, y, class_weights, 1e-4)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)

        cw = np.ones(rows) if class_weights is None else class_weights[y]
        idx = np.arange(rows)
        terms = _softmax_terms(spec, params, x)
        assert _loss_half(spec, params, y, cw, 1e-4, terms, idx) == loss
        terms = _softmax_terms(spec, params, x)
        assert np.array_equal(_grad_half(spec, params, x, y, cw, 1e-4, terms, idx), grad)


class TestRowMax:
    @pytest.mark.parametrize("k", [2, 3, 10, 50])
    def test_equals_max_over_rows(self, k):
        gen = np.random.default_rng(k)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -1.5])
        blocks = [
            gen.standard_normal((300, k)),
            gen.choice(special, size=(300, k)),  # ties, signed zeros, infinities
            np.zeros((1, k)), np.full((1, k), -0.0), np.full((1, k), np.inf),
            np.full((1, k), -np.inf),
        ]
        a = np.concatenate(blocks)
        # Values are compared: which zero a tie of +0.0 and -0.0 returns
        # depends on numpy's loop, and exp(z) does not see the sign.
        assert np.array_equal(_row_max(a), a.max(axis=1, keepdims=True))
        assert np.array_equal(_row_max(a[:1]), a[:1].max(axis=1, keepdims=True))


def reference_train(spec, train, val, cfg, epoch_data, step_extra=None):
    """_train as it was before the split: public loss_and_grad for every step
    and for the safeguard, batches gathered one at a time."""
    base = RngStream(cfg.seed)
    params = init_parameters(spec, base.derive("init"))
    shuffle_gen = base.derive("shuffle").generator()
    lr = cfg.learning_rate
    prev_params, prev_loss = params, np.inf
    best_params, best_acc = params, -np.inf
    log, losses, step = [], [], 0
    for epoch in range(cfg.epochs):
        x, y, weights = epoch_data(epoch, params)
        n = x.shape[0]
        order = shuffle_gen.permutation(n)
        for i, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start:start + cfg.batch_size]
            _, grad = loss_and_grad(spec, params, x[batch], y[batch], weights, cfg.l2)
            extra = None if step_extra is None else step_extra(i, step, params)
            if extra is not None:
                grad = grad + extra
            params = params - lr * grad
            step += 1
        full_loss, _ = loss_and_grad(spec, params, x, y, weights, cfg.l2)
        if full_loss > prev_loss:
            params = prev_params
            lr /= 2.0
            acc = log[-1]
        else:
            prev_params, prev_loss = params, full_loss
            probs = reference_forward(spec, params, val.features)[0]
            acc = float(np.mean(np.argmax(probs, axis=1) == val.labels))
        losses.append(prev_loss)
        log.append(acc)
        if acc > best_acc:
            best_acc, best_params = acc, params
    return best_params, tuple(log), tuple(losses)


def reference_pseudolabel(spec, train, val, target_x, cfg, pl, resample):
    base = RngStream(cfg.seed)
    target_gen = base.derive("target_shuffle").generator()
    state = {}

    def epoch_data(epoch, params):
        source, tgt_idx = train, np.arange(target_x.shape[0])
        if resample:
            source = train.subset(class_balanced_indices(
                train.labels, train.n, base.derive("balance_source", epoch)))
            probs_t = reference_forward(spec, params, target_x)[0]
            tgt_idx = class_balanced_indices(np.argmax(probs_t, axis=1), target_x.shape[0],
                                             base.derive("balance_target", epoch))
        state["order"] = target_gen.permutation(tgt_idx)
        return source.features, source.labels, np.ones(spec.classes)

    ramp_steps = pl.ramp_fraction * cfg.epochs * int(np.ceil(train.n / cfg.batch_size))

    def step_extra(i, step, params):
        lam_t = pl.lambda_max * min(1.0, step / ramp_steps)
        if lam_t > 0.0:
            order = state["order"]
            take = np.arange(i * cfg.batch_size, (i + 1) * cfg.batch_size) % order.size
            tb = target_x[order[take]]
            probs_tb = reference_forward(spec, params, tb)[0]
            confident = probs_tb.max(axis=1) >= pl.tau
            if confident.any():
                pseudo = np.argmax(probs_tb[confident], axis=1)
                _, ugrad = loss_and_grad(spec, params, tb[confident], pseudo, None, 0.0)
                return lam_t * (confident.sum() / tb.shape[0]) * ugrad
        return None

    return reference_train(spec, train, val, cfg, epoch_data, step_extra)


def reference_iw_erm(spec, train, val, target_x, cfg, weight_fn):
    def epoch_data(epoch, params):
        probs_s = reference_forward(spec, params, train.features)[0]
        probs_t = reference_forward(spec, params, target_x)[0]
        weights = weight_fn(PredictionMatrix(probs_s), train.labels, PredictionMatrix(probs_t))
        return train.features, train.labels, np.asarray(weights, dtype=np.float64)

    return reference_train(spec, train, val, cfg, epoch_data)


def prior_ratio(preds_source, labels_source, preds_target):
    """A cheap stand-in for the RLLS weights: mean target prediction over the
    source label frequency."""
    freq = np.bincount(labels_source, minlength=preds_source.k) / labels_source.size
    return preds_target.values.mean(axis=0) / freq


class TestTrajectory:
    """Every trainer's parameters and logs are bit for bit those of the loop
    before the loss and gradient were split, including rolled-back epochs."""

    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_trainers_match_the_reference_loop(self, kind):
        train = make_blobs(3, 16, 600, 2.5, seed=21)
        val = make_blobs(3, 16, 200, 2.5, seed=22)
        # 500 target rows < 10 steps x 64: the target order wraps round. At
        # d=16 a pseudo-label step that reused the batch forward's confident
        # rows instead of forwarding them again would drift.
        target = make_blobs(3, 16, 500, 2.5, seed=23, marginal=[0.6, 0.3, 0.1]).features
        spec = ModelSpec(kind, 16, 3, hidden_units=8)
        # Learning rate 40 rolls back at least one epoch of every run.
        cfg = TrainConfig(epochs=6, batch_size=64, learning_rate=40.0, l2=1e-3, seed=5)
        pl = PseudoLabelConfig(tau=0.8)
        skewed = np.array([0.5, 1.0, 2.0])
        runs = [
            (train_erm(spec, train, val, cfg, skewed),
             reference_train(spec, train, val, cfg,
                             lambda epoch, params: (train.features, train.labels, skewed))),
            (iw_erm_train(spec, train, val, target, cfg, prior_ratio),
             reference_iw_erm(spec, train, val, target, cfg, prior_ratio)),
        ]
        for resample in (False, True):
            model = pseudolabel_train(spec, train, val, target, cfg, pl,
                                      CorrectionFlags(resample=resample))
            runs.append((model, reference_pseudolabel(spec, train, val, target, cfg, pl,
                                                      resample)))
        for model, (params, log, losses) in runs:
            assert np.array_equal(model.parameters, params)
            assert model.training_log == log
            assert model.loss_log == losses
            assert any(a == b for a, b in zip(losses, losses[1:]))  # a rollback


class TestClassBalancedIndices:
    def test_worked_example_two_to_one(self):
        labels = np.array([0] * 10 + [1] * 30)
        idx = class_balanced_indices(labels, 40, RngStream(0))
        assert idx.shape == (40,)
        assert np.bincount(labels[idx]).tolist() == [20, 20]

    def test_empty_classes_are_skipped(self):
        labels = np.array([0] * 5 + [2] * 5)
        idx = class_balanced_indices(labels, 10, RngStream(1))
        counts = np.bincount(labels[idx], minlength=3)
        assert counts.tolist() == [5, 0, 5]

    def test_odd_remainder_goes_to_lowest_class(self):
        labels = np.array([0, 0, 1, 1])
        idx = class_balanced_indices(labels, 7, RngStream(2))
        assert np.bincount(labels[idx]).tolist() == [4, 3]

    def test_oversampling_with_replacement(self):
        labels = np.array([0, 1])
        idx = class_balanced_indices(labels, 10, RngStream(3))
        assert np.bincount(labels[idx]).tolist() == [5, 5]

    def test_deterministic(self):
        labels = np.array([0] * 9 + [1] * 3)
        a = class_balanced_indices(labels, 12, RngStream(4, 9))
        b = class_balanced_indices(labels, 12, RngStream(4, 9))
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(EmptyInputError):
            class_balanced_indices(np.array([]), 4, RngStream(0))
        with pytest.raises(InvalidInputError):
            class_balanced_indices(np.array([0, 1]), 0, RngStream(0))


class TestReweightPredictions:
    def test_worked_example(self):
        preds = PredictionMatrix(np.array([[0.6, 0.4]]))
        out = reweight_predictions(
            preds,
            LabelMarginal(np.array([0.25, 0.75])),
            LabelMarginal(np.array([0.5, 0.5])),
        )
        assert np.allclose(out.values, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)

    def test_identity_when_marginals_match(self):
        preds = PredictionMatrix(np.array([[0.2, 0.8], [0.7, 0.3]]))
        out = reweight_predictions(preds, LabelMarginal.uniform(2), LabelMarginal.uniform(2))
        assert np.allclose(out.values, preds.values, atol=1e-12)

    def test_zero_mass_rows_kept_with_warning(self):
        preds = PredictionMatrix(np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.warns(RuntimeWarning, match="no mass"):
            out = reweight_predictions(
                preds,
                LabelMarginal(np.array([0.0, 1.0])),
                LabelMarginal(np.array([0.5, 0.5])),
            )
        assert np.allclose(out.values[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(out.values[1], [0.0, 1.0], atol=1e-12)

    def test_validation(self):
        preds = PredictionMatrix(np.array([[0.6, 0.4]]))
        with pytest.raises(DimensionError):
            reweight_predictions(preds, LabelMarginal.uniform(3), LabelMarginal.uniform(3))
        with pytest.raises(InvalidInputError, match="positive"):
            reweight_predictions(
                preds, LabelMarginal.uniform(2), LabelMarginal(np.array([1.0, 0.0]))
            )


class TestTrainErm:
    def test_separable_blobs_are_learned(self, blob_data):
        train, val = blob_data
        model = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        assert accuracy(model.predict(val.features), val.labels) >= 0.99
        assert len(model.training_log) == CFG.epochs
        assert len(model.loss_log) == CFG.epochs

    def test_safeguard_keeps_losses_non_increasing(self, blob_data):
        train, val = blob_data
        # Deliberately oversized steps. Only the network's forces rejected epochs.
        rollbacks = 0
        for kind, learning_rate in (("logistic", 25.0), ("mlp", 100.0)):
            cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=learning_rate,
                              l2=1e-4, seed=2)
            model = train_erm(ModelSpec(kind, 2, 2), train, val, cfg)
            losses = np.array(model.loss_log)
            assert np.all(np.diff(losses) <= 0.0)
            # A rolled-back epoch restores the previous parameters, so it logs
            # the previous validation accuracy too.
            rolled = np.nonzero(np.diff(losses) == 0.0)[0] + 1
            rollbacks += rolled.size
            for i in rolled:
                assert model.training_log[i] == model.training_log[i - 1]
        assert rollbacks > 0

    def test_early_stop_returns_best_validation_epoch(self, blob_data):
        train, val = blob_data
        model = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        got = accuracy(model.predict(val.features), val.labels)
        assert math.isclose(got, max(model.training_log), rel_tol=0, abs_tol=1e-12)

    def test_unit_example_weights_change_nothing(self, blob_data):
        train, val = blob_data
        a = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        b = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG, example_weights=np.ones(2))
        assert np.array_equal(a.parameters, b.parameters)
        assert a.training_log == b.training_log

    def test_skewed_example_weights_change_the_model(self, blob_data):
        train, val = blob_data
        a = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        b = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG,
                      example_weights=np.array([4.0, 0.25]))
        assert not np.array_equal(a.parameters, b.parameters)

    def test_mlp_learns_xor(self):
        gen = np.random.default_rng(5)
        corners = gen.integers(0, 2, size=(600, 2)) * 2 - 1
        feats = corners + 0.25 * gen.standard_normal((600, 2))
        labels = (corners[:, 0] * corners[:, 1] > 0).astype(np.int64)
        data = LabeledSet(feats, labels)
        train, val = data.subset(np.arange(400)), data.subset(np.arange(400, 600))
        cfg = TrainConfig(epochs=80, batch_size=64, learning_rate=0.5, l2=1e-5, seed=1)
        mlp = train_erm(ModelSpec("mlp", 2, 2, hidden_units=16), train, val, cfg)
        logistic = train_erm(ModelSpec("logistic", 2, 2), train, val, cfg)
        assert accuracy(mlp.predict(val.features), val.labels) >= 0.9
        assert accuracy(logistic.predict(val.features), val.labels) <= 0.75

    def test_divergence_is_reported(self, blob_data):
        train, val = blob_data
        cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=1e160, l2=1e-4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergedError):
            train_erm(ModelSpec("logistic", 2, 2), train, val, cfg)

    def test_input_validation(self, blob_data):
        train, val = blob_data
        with pytest.raises(DimensionError):
            train_erm(ModelSpec("logistic", 5, 2), train, val, CFG)
        bad = LabeledSet(train.features, np.full(train.n, 7))
        with pytest.raises(InvalidInputError, match="classes"):
            train_erm(ModelSpec("logistic", 2, 2), bad, val, CFG)


@pytest.mark.parametrize("trainer, copies", [
    ("train_erm", 0), ("pseudolabel_train", 0), ("iw_erm_train", 0), ("pseudolabel_train_rs", 1),
])
def test_training_holds_no_needless_copy_of_the_data(trainer, copies):
    # Minibatches are gathered by index: no (n, d) array is allocated, such
    # as a shuffled copy of the epoch or a wrapped copy of the target. With
    # rs, pseudolabel holds one re-balanced copy of the source at a time.
    n, d = 4000, 64
    train = make_blobs(3, d, n, 2.0, seed=4)
    target = make_blobs(3, d, n, 2.0, seed=5).features
    spec, cfg = ModelSpec("logistic", d, 3), TrainConfig(epochs=2, seed=1)
    run = {
        "train_erm": lambda: train_erm(spec, train, train, cfg),
        "pseudolabel_train": lambda: pseudolabel_train(spec, train, train, target, cfg),
        "iw_erm_train": lambda: iw_erm_train(spec, train, train, target, cfg),
        "pseudolabel_train_rs": lambda: pseudolabel_train(
            spec, train, train, target, cfg, corrections=CorrectionFlags(resample=True)),
    }[trainer]
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < (copies + 0.5) * n * d * 8


class TestPseudoLabel:
    def test_zero_lambda_reduces_to_erm(self, blob_data):
        train, val = blob_data
        target = make_blobs(2, 2, 300, 6.0, seed=9).features
        erm = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        pl = pseudolabel_train(
            ModelSpec("logistic", 2, 2), train, val, target, CFG,
            PseudoLabelConfig(lambda_max=0.0),
        )
        assert np.array_equal(erm.parameters, pl.parameters)
        assert erm.training_log == pl.training_log
        assert erm.loss_log == pl.loss_log

    def test_active_pseudo_labels_change_the_model(self, blob_data):
        train, val = blob_data
        target = make_blobs(2, 2, 300, 6.0, seed=9).features
        erm = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        pl = pseudolabel_train(ModelSpec("logistic", 2, 2), train, val, target, CFG)
        assert not np.array_equal(erm.parameters, pl.parameters)
        assert len(pl.training_log) == CFG.epochs

    def test_resampling_handles_imbalanced_source(self):
        train = make_blobs(2, 2, 400, 4.0, seed=2, marginal=[0.9, 0.1])
        val = make_blobs(2, 2, 200, 4.0, seed=3)
        target = make_blobs(2, 2, 300, 4.0, seed=4).features
        model = pseudolabel_train(
            ModelSpec("logistic", 2, 2), train, val, target, CFG,
            corrections=CorrectionFlags(resample=True),
        )
        assert accuracy(model.predict(val.features), val.labels) >= 0.9

    def test_not_worse_than_erm_under_conditional_shift(self):
        gaps = []
        for seed in (11, 12, 13):
            bundle = small_bundle(alpha=None, epsilon=1.0, seed=seed, n=1000, sep=2.5)
            spec = ModelSpec("logistic", bundle.d, bundle.k)
            erm = train_erm(spec, bundle.source_train, bundle.source_val, CFG)
            pl = pseudolabel_train(
                spec, bundle.source_train, bundle.source_val,
                bundle.target_train.features, CFG,
            )
            test = bundle.target_test
            gaps.append(
                accuracy(pl.predict(test.features), test.labels)
                - accuracy(erm.predict(test.features), test.labels)
            )
        assert float(np.mean(gaps)) >= -0.005


class TestIwErm:
    def test_unit_weight_fn_reduces_to_erm(self, blob_data):
        train, val = blob_data
        target = make_blobs(2, 2, 300, 6.0, seed=9).features
        erm = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        iw = iw_erm_train(
            ModelSpec("logistic", 2, 2), train, val, target, CFG,
            weight_fn=lambda ps, ys, pt: np.ones(2),
        )
        assert np.array_equal(erm.parameters, iw.parameters)
        assert erm.loss_log == iw.loss_log

    def test_default_weights_react_to_label_shift(self, shifted_bundle):
        bundle = shifted_bundle
        spec = ModelSpec("logistic", bundle.d, bundle.k)
        erm = train_erm(spec, bundle.source_train, bundle.source_val, CFG)
        iw = iw_erm_train(
            spec, bundle.source_train, bundle.source_val,
            bundle.target_train.features, CFG,
        )
        assert not np.array_equal(erm.parameters, iw.parameters)
        test = bundle.target_test
        assert accuracy(iw.predict(test.features), test.labels) >= 0.5

    def test_failing_weight_fn_warns_and_keeps_unit_weights(self, blob_data):
        train, val = blob_data
        target = make_blobs(2, 2, 300, 6.0, seed=9).features

        def broken(ps, ys, pt):
            raise DegenerateEstimateError("no estimate")

        erm = train_erm(ModelSpec("logistic", 2, 2), train, val, CFG)
        with pytest.warns(RuntimeWarning, match="weight estimation failed"):
            iw = iw_erm_train(ModelSpec("logistic", 2, 2), train, val, target, CFG,
                              weight_fn=broken)
        assert np.array_equal(erm.parameters, iw.parameters)


class TestMetaAdapt:
    def test_unknown_algorithm_rejected(self, shifted_bundle):
        with pytest.raises(InvalidInputError, match="algorithm"):
            meta_adapt("boosting", shifted_bundle, CorrectionFlags(), CFG)

    def test_no_corrections_matches_bare_erm(self, shifted_bundle):
        bundle = shifted_bundle
        res = meta_adapt("source_only", bundle, CorrectionFlags(), CFG)
        direct = train_erm(ModelSpec("logistic", bundle.d, bundle.k),
                           bundle.source_train, bundle.source_val, CFG)
        assert isinstance(res, AdaptResult)
        assert res.p_hat_t is None
        assert res.estimate is None
        assert np.array_equal(res.model.parameters, direct.parameters)
        feats = bundle.target_test.features[:17]
        assert np.array_equal(res.adjusted(feats).values, res.model.predict(feats).values)

    def test_reweighting_tracks_the_true_marginal(self, shifted_bundle):
        bundle = shifted_bundle
        flags = CorrectionFlags(resample=True, reweight=True, estimator="rlls")
        res = meta_adapt("source_only", bundle, flags, CFG)
        assert res.p_hat_t is not None
        assert res.estimate is not None
        uniform = LabelMarginal.uniform(bundle.k)
        assert l1_distance(res.p_hat_t, bundle.true_target_marginal) < l1_distance(
            uniform, bundle.true_target_marginal
        )

    def test_estimated_reweighting_close_to_true_marginal_oracle(self):
        bundle = small_bundle(alpha=0.5, epsilon=0.0, seed=21, n=3000, sep=2.0)
        flags = CorrectionFlags(resample=True, reweight=True, estimator="mlls")
        cfg = TrainConfig(epochs=15, batch_size=128, learning_rate=0.5, l2=1e-4, seed=5)
        res = meta_adapt("source_only", bundle, flags, cfg)
        test = bundle.target_test
        raw = res.model.predict(test.features)
        oracle = reweight_predictions(
            raw, bundle.true_target_marginal, LabelMarginal.uniform(bundle.k)
        )
        got = accuracy(res.adjusted(test.features), test.labels)
        want = accuracy(oracle, test.labels)
        assert got >= want - 0.01

    def test_estimator_failure_keeps_uncorrected_model(self, shifted_bundle):
        flags = CorrectionFlags(reweight=True, estimator="psych")
        res = meta_adapt("source_only", shifted_bundle, flags, CFG)
        assert res.p_hat_t is None
        assert res.estimate is None
        assert any("estimation failed" in d for d in res.diagnostics)
        feats = shifted_bundle.target_test.features[:11]
        assert np.array_equal(res.adjusted(feats).values, res.model.predict(feats).values)

    @pytest.mark.parametrize("algorithm", ["pseudolabel", "iw_erm"])
    def test_all_algorithms_run_with_full_corrections(self, shifted_bundle, algorithm):
        flags = CorrectionFlags(resample=True, reweight=True, estimator="mlls")
        cfg = TrainConfig(epochs=8, batch_size=64, learning_rate=0.5, l2=1e-4, seed=3)
        res = meta_adapt(algorithm, shifted_bundle, flags, cfg)
        test = shifted_bundle.target_test
        assert res.p_hat_t is not None
        assert accuracy(res.adjusted(test.features), test.labels) >= 0.5


class TestModelSerialization:
    def test_round_trip_is_exact(self, tmp_path, blob_data):
        train, val = blob_data
        cfg = TrainConfig(epochs=3, batch_size=64, learning_rate=0.5, l2=1e-4, seed=0)
        model = train_erm(ModelSpec("mlp", 2, 2, hidden_units=5), train, val, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.spec == model.spec
        assert np.array_equal(back.parameters, model.parameters)
        assert back.training_log == model.training_log
        assert back.loss_log == model.loss_log

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(path)

    def test_rejects_missing_or_extra_keys(self, tmp_path, blob_data):
        train, val = blob_data
        cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.5, l2=0.0, seed=0)
        model = train_erm(ModelSpec("logistic", 2, 2), train, val, cfg)
        path = tmp_path / "model.json"
        save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        del payload["classes"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="missing required key 'classes'"):
            load_model(path)
        payload["classes"] = 2
        payload["extra"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="unknown key 'extra'"):
            load_model(path)

    @pytest.mark.parametrize("key,value", [
        ("hidden_units", 32.9), ("hidden_units", True), ("hidden_units", None),
        ("input_dim", 2.5), ("classes", False), ("kind", 5),
        ("training_log", [True]), ("parameters", [True] + [0.0] * (2 * 32 + 32 + 32 * 2 + 1)),
        ("hidden_units", "32"), ("parameters", ["0.5"] + [0.0] * (2 * 32 + 32 + 32 * 2 + 1)),
    ])
    def test_mistyped_spec_field_names_file_and_key(self, tmp_path, key, value):
        import json

        path = tmp_path / "model.json"
        payload = {"kind": "mlp", "input_dim": 2, "classes": 2, "hidden_units": 32,
                   "parameters": [0.0] * (2 * 32 + 32 + 32 * 2 + 2),
                   "training_log": [], "loss_log": [], key: value}
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError) as info:
            load_model(path)
        message = str(info.value)
        where = f"model.{key}[0]" if isinstance(value, list) else f"model.{key}"
        assert message.startswith(f"{path}: {where}: ") and "\n" not in message

    def test_integral_float_reads_as_int(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        payload = {"kind": "mlp", "input_dim": 2, "classes": 2, "hidden_units": 16.0,
                   "parameters": [0.0] * (2 * 16 + 16 + 16 * 2 + 2),
                   "training_log": [], "loss_log": []}
        path.write_text(json.dumps(payload))
        spec = load_model(path).spec
        assert spec == ModelSpec("mlp", 2, 2, hidden_units=16)
        assert type(spec.hidden_units) is int

    def test_rejects_bad_kind(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        payload = {"kind": "tree", "input_dim": 2, "classes": 2, "hidden_units": 4,
                   "parameters": [0.0] * 6, "training_log": [], "loss_log": []}
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_model(path)


class TestModelPredict:
    def test_zero_parameters_predict_uniform(self):
        spec = ModelSpec("logistic", 3, 4)
        model = Model(spec, np.zeros(spec.n_parameters))
        preds = model.predict(np.random.default_rng(0).standard_normal((6, 3)))
        assert np.allclose(preds.values, 0.25, atol=1e-15)
        assert np.array_equal(model.predict_labels(np.ones((2, 3))), [0, 0])

    def test_feature_validation(self):
        spec = ModelSpec("logistic", 3, 2)
        model = Model(spec, np.zeros(spec.n_parameters))
        with pytest.raises(DimensionError):
            model.predict(np.ones((4, 2)))
        with pytest.raises(InvalidInputError):
            model.predict(np.array([[np.nan, 0.0, 1.0]]))

    def test_parameter_shape_checked(self):
        with pytest.raises(DimensionError):
            Model(ModelSpec("logistic", 3, 2), np.zeros(5))

    def test_init_parameters_deterministic(self):
        spec = ModelSpec("mlp", 3, 2, hidden_units=4)
        a = init_parameters(spec, RngStream(8).derive("init"))
        b = init_parameters(spec, RngStream(8).derive("init"))
        assert np.array_equal(a, b)
        assert init_parameters(ModelSpec("logistic", 3, 2), RngStream(8)).sum() == 0.0
