import json
import tracemalloc

import numpy as np
import pytest

from labelshift.core import (
    InfeasibleMarginalError,
    InvalidInputError,
    LabelMarginal,
    LabeledSet,
    ParseError,
    RngStream,
    l1_distance,
)
from labelshift.shift import (
    HOLDOUT_FRACTION,
    ShiftSpec,
    SynthTaskSpec,
    TaskBundle,
    apply_shift_protocol,
    bayes_predictions,
    class_means,
    conditional_shift_deltas,
    dirichlet_marginal,
    load_bundle,
    load_labeled_csv,
    realize_marginal,
    save_bundle,
    save_labeled_csv,
    split_holdout,
    synth_relaxed_task,
)

# Normalized-Gamma reference draw computed ahead of time for seed 17,
# alpha = 10, uniform base over 3 classes.
FROZEN_DIRICHLET_DRAW = [0.22036011293180163, 0.30744907235138974, 0.4721908147168086]


class TestDirichletMarginal:
    def test_none_alpha_is_identity(self):
        p0 = LabelMarginal(np.array([0.25, 0.75]))
        got = dirichlet_marginal(p0, ShiftSpec(alpha=None, seed=99))
        np.testing.assert_array_equal(got.probs, p0.probs)

    def test_reference_draw_is_reproduced(self):
        got = dirichlet_marginal(LabelMarginal.uniform(3), ShiftSpec(alpha=10.0, seed=17))
        np.testing.assert_allclose(got.probs, FROZEN_DIRICHLET_DRAW, rtol=0, atol=1e-15)

    def test_zero_base_mass_stays_zero(self):
        p0 = LabelMarginal(np.array([0.5, 0.5, 0.0]))
        got = dirichlet_marginal(p0, ShiftSpec(alpha=1.0, seed=4))
        assert got.probs[2] == 0.0
        assert got.probs[:2].sum() == pytest.approx(1.0)

    def test_mean_of_many_draws_matches_base(self):
        p0 = LabelMarginal(np.array([0.25, 0.75]))
        acc = np.zeros(2)
        for seed in range(10_000):
            acc += dirichlet_marginal(p0, ShiftSpec(alpha=3.0, seed=seed)).probs
        assert l1_distance(acc / 10_000, p0.probs) < 0.02

    def test_smaller_alpha_is_more_severe(self):
        p0 = LabelMarginal.uniform(3)
        sev = {}
        for alpha in (0.5, 10.0):
            dists = [
                l1_distance(dirichlet_marginal(p0, ShiftSpec(alpha=alpha, seed=s)), p0)
                for s in range(300)
            ]
            sev[alpha] = np.mean(dists)
        assert sev[0.5] > sev[10.0]

    def test_alpha_validation(self):
        with pytest.raises(InvalidInputError):
            ShiftSpec(alpha=-1.0)
        with pytest.raises(InvalidInputError):
            ShiftSpec(alpha=1.0, epsilon=-0.5)


def brute_force_max_subsample(counts, target):
    # Oracle: scan all N and return the largest feasible largest-remainder fit.
    for n in range(int(counts.sum()), 0, -1):
        raw = n * target
        base = np.floor(raw).astype(int)
        rem = raw - base
        order = np.argsort(-rem, kind="stable")
        base[order[: n - base.sum()]] += 1
        if np.all(base <= counts):
            return n, base
    return 0, None


class TestRealizeMarginal:
    def test_worked_example(self):
        pool = np.array([0] * 100 + [1] * 100)
        target = LabelMarginal(np.array([0.8, 0.2]))
        idx = realize_marginal(pool, target, RngStream(0))
        labels = pool[idx]
        assert idx.size == 125
        assert np.bincount(labels).tolist() == [100, 25]
        oracle_n, oracle_counts = brute_force_max_subsample(np.array([100, 100]), target.probs)
        assert oracle_n == 125 and oracle_counts.tolist() == [100, 25]

    def test_matching_marginal_takes_everything(self):
        pool = np.array([0] * 30 + [1] * 70)
        target = LabelMarginal(np.array([0.3, 0.7]))
        idx = realize_marginal(pool, target, RngStream(1))
        np.testing.assert_array_equal(idx, np.arange(100))

    def test_point_mass_takes_one_class(self):
        pool = np.array([0] * 100 + [1] * 100)
        idx = realize_marginal(pool, LabelMarginal(np.array([1.0, 0.0])), RngStream(2))
        assert idx.size == 100
        assert np.all(pool[idx] == 0)

    def test_realized_within_one_over_n(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            k = int(rng.integers(2, 5))
            pool = rng.integers(0, k, size=int(rng.integers(50, 400)))
            if np.bincount(pool, minlength=k).min() == 0:
                continue
            target = LabelMarginal(rng.dirichlet(np.full(k, 1.5)))
            idx = realize_marginal(pool, target, RngStream(trial))
            got = np.bincount(pool[idx], minlength=k) / idx.size
            assert np.abs(got - target.probs).max() <= 1.0 / idx.size + 1e-12
            assert np.unique(idx).size == idx.size
            oracle_n, _ = brute_force_max_subsample(np.bincount(pool, minlength=k), target.probs)
            assert idx.size == oracle_n

    def test_missing_class_is_infeasible(self):
        pool = np.array([0] * 10)
        with pytest.raises(InfeasibleMarginalError, match=r"\[1\]"):
            realize_marginal(pool, LabelMarginal(np.array([0.5, 0.5])), RngStream(0))

    def test_deterministic_in_stream(self):
        pool = np.array([0] * 50 + [1] * 50)
        target = LabelMarginal(np.array([0.6, 0.4]))
        a = realize_marginal(pool, target, RngStream(5))
        b = realize_marginal(pool, target, RngStream(5))
        np.testing.assert_array_equal(a, b)


class TestSplitHoldout:
    def test_sizes_round(self):
        train, hold = split_holdout(10, 0.2, RngStream(0))
        assert hold.size == 2 and train.size == 8

    def test_minimum_one_holdout(self):
        train, hold = split_holdout(2, 0.2, RngStream(0))
        assert hold.size == 1 and train.size == 1

    def test_disjoint_cover(self):
        train, hold = split_holdout(137, 0.25, RngStream(9))
        combined = np.sort(np.concatenate([train, hold]))
        np.testing.assert_array_equal(combined, np.arange(137))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            split_holdout(1, 0.2, RngStream(0))
        with pytest.raises(InvalidInputError):
            split_holdout(10, 1.0, RngStream(0))


def reference_synth_bundle(task, shift):
    """synth_relaxed_task in its plain form: each pool is means[y]
    (+ deltas[y]) + noise, and the target splits come from a copy of the
    realized target."""
    means = class_means(task)
    deltas = conditional_shift_deltas(task, shift.epsilon)
    base = RngStream(task.seed)
    g_src = base.derive("source").generator()
    src_labels = g_src.integers(0, task.k, size=task.n_source)
    source = LabeledSet(means[src_labels] + g_src.standard_normal((task.n_source, task.d)),
                        src_labels)
    p_t = dirichlet_marginal(LabelMarginal.uniform(task.k), shift)
    g_tgt = base.derive("target").generator()
    tgt_labels = g_tgt.choice(task.k, size=task.n_target, p=p_t.probs)
    pool = LabeledSet(means[tgt_labels] + deltas[tgt_labels]
                      + g_tgt.standard_normal((task.n_target, task.d)), tgt_labels)

    # apply_shift_protocol's draw around the uniform base is the same p_t.
    counts = np.bincount(pool.labels, minlength=task.k)
    mass = np.where(counts > 0, p_t.probs, 0.0)
    p_t = LabelMarginal(mass / mass.sum())
    stream = RngStream(shift.seed)
    target = pool.subset(realize_marginal(pool.labels, p_t, stream.derive("realize")))
    src_train, src_val = split_holdout(source.n, HOLDOUT_FRACTION, stream.derive("split_source"))
    tgt_train, tgt_test = split_holdout(target.n, HOLDOUT_FRACTION, stream.derive("split_target"))
    return TaskBundle(
        name=task.name, k=task.k, d=task.d, alpha=shift.alpha, epsilon=shift.epsilon,
        seed=shift.seed, source_train=source.subset(src_train),
        source_val=source.subset(src_val), target_train=target.subset(tgt_train),
        target_test=target.subset(tgt_test),
        true_target_marginal=LabelMarginal.from_labels(target.labels, task.k),
    )


class TestSynthTask:
    def test_class_means_equidistant(self):
        task = SynthTaskSpec("t", k=4, d=6, n_source=10, n_target=10, class_separation=3.0)
        m = class_means(task)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(m[i] - m[j]) == pytest.approx(3.0)

    def test_delta_norms_equal_epsilon(self):
        task = SynthTaskSpec("t", k=3, d=5, n_source=10, n_target=10)
        d = conditional_shift_deltas(task, 1.5)
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.5, atol=1e-12)
        np.testing.assert_array_equal(conditional_shift_deltas(task, 0.0), 0.0)

    def test_dimension_requirement(self):
        with pytest.raises(InvalidInputError):
            SynthTaskSpec("t", k=3, d=2, n_source=10, n_target=10)

    def test_bundle_shapes_and_marginal(self):
        task = SynthTaskSpec("blob", k=3, d=3, n_source=1000, n_target=1000, seed=7)
        bundle = synth_relaxed_task(task, ShiftSpec(alpha=None, epsilon=0.0, seed=7))
        assert bundle.source_train.n + bundle.source_val.n == 1000
        assert bundle.source_val.n == 200
        # alpha=None over a uniform base: realized target is uniform.
        combined = np.concatenate([bundle.target_train.labels, bundle.target_test.labels])
        counts = np.bincount(combined, minlength=3)
        assert counts.max() - counts.min() <= 1
        np.testing.assert_allclose(
            bundle.true_target_marginal.probs,
            counts / counts.sum(),
            atol=1e-12,
        )

    def test_generation_is_deterministic(self):
        task = SynthTaskSpec("blob", k=2, d=2, n_source=100, n_target=100, seed=3)
        shift = ShiftSpec(alpha=1.0, epsilon=0.5, seed=11)
        a = synth_relaxed_task(task, shift)
        b = synth_relaxed_task(task, shift)
        np.testing.assert_array_equal(a.source_train.features, b.source_train.features)
        np.testing.assert_array_equal(a.target_test.features, b.target_test.features)
        np.testing.assert_array_equal(
            a.true_target_marginal.probs, b.true_target_marginal.probs
        )

    @pytest.mark.parametrize("alpha, epsilon", [(None, 0.0), (0.5, 1.0)])
    def test_bundle_matches_the_unfused_reference(self, alpha, epsilon):
        task = SynthTaskSpec("blob", k=3, d=4, n_source=500, n_target=500, seed=13)
        shift = ShiftSpec(alpha=alpha, epsilon=epsilon, seed=17)
        got, want = synth_relaxed_task(task, shift), reference_synth_bundle(task, shift)
        for name in ("source_train", "source_val", "target_train", "target_test"):
            assert np.array_equal(getattr(got, name).features, getattr(want, name).features)
            assert np.array_equal(getattr(got, name).labels, getattr(want, name).labels)
        assert np.array_equal(got.true_target_marginal.probs, want.true_target_marginal.probs)

    @pytest.mark.parametrize("alpha, epsilon", [(None, 0.0), (0.5, 1.0)])
    def test_bundle_build_peak_memory(self, alpha, epsilon):
        # A grid_paper-shaped bundle: the pools, their splits and one
        # temporary per pool, not several copies of each dataset.
        task = SynthTaskSpec("paper", k=3, d=16, n_source=10_000, n_target=10_000,
                             class_separation=2.75, seed=5)
        shift = ShiftSpec(alpha=alpha, epsilon=epsilon, seed=9)
        synth_relaxed_task(task, shift)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            synth_relaxed_task(task, shift)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        pools = (task.n_source + task.n_target) * task.d * 8
        assert peak <= 3 * pools

    def test_epsilon_translates_class_conditionals(self):
        task = SynthTaskSpec("blob", k=2, d=2, n_source=20000, n_target=20000, seed=5)
        bundle = synth_relaxed_task(task, ShiftSpec(alpha=None, epsilon=4.0, seed=5))
        deltas = conditional_shift_deltas(task, 4.0)
        means = class_means(task)
        for y in range(2):
            src = bundle.source_train.features[bundle.source_train.labels == y].mean(axis=0)
            tgt = bundle.target_train.features[bundle.target_train.labels == y].mean(axis=0)
            np.testing.assert_allclose(src, means[y], atol=0.1)
            np.testing.assert_allclose(tgt - src, deltas[y], atol=0.15)

    def test_bayes_predictions_peak_at_own_mean(self):
        task = SynthTaskSpec("blob", k=3, d=3, n_source=10, n_target=10, class_separation=4.0)
        means = class_means(task)
        preds = bayes_predictions(means, means, LabelMarginal.uniform(3))
        np.testing.assert_array_equal(preds.argmax_labels(), [0, 1, 2])
        np.testing.assert_allclose(preds.values.sum(axis=1), 1.0, atol=1e-12)


class TestShiftProtocol:
    def test_unpopulated_classes_dropped_from_draw(self):
        rng = np.random.default_rng(0)
        source = LabeledSet(rng.normal(size=(60, 2)), rng.integers(0, 3, 60))
        target = LabeledSet(rng.normal(size=(60, 2)), rng.integers(0, 2, 60))
        p0 = LabelMarginal(np.array([0.2, 0.3, 0.5]))
        bundle = apply_shift_protocol("t", 3, source, target, ShiftSpec(alpha=None, seed=1), p_t0=p0)
        assert bundle.true_target_marginal.probs[2] == 0.0

    def test_recorded_marginal_must_match_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 2))
        y = np.array([0] * 5 + [1] * 5)
        ds = LabeledSet(x, y)
        with pytest.raises(InvalidInputError):
            TaskBundle(
                name="bad", k=2, d=2, alpha=None, epsilon=0.0, seed=0,
                source_train=ds, source_val=ds, target_train=ds, target_test=ds,
                true_target_marginal=LabelMarginal(np.array([0.9, 0.1])),
            )


class TestPersistence:
    def test_labeled_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = LabeledSet(rng.normal(size=(40, 3)), rng.integers(0, 4, 40))
        path = tmp_path / "set.csv"
        save_labeled_csv(path, ds)
        assert path.read_text().splitlines()[0] == "f0,f1,f2,y"
        back = load_labeled_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_csv_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,y\n0.5,0.5,0\n0.1,oops,1\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            load_labeled_csv(path)
        path.write_text("f0,f1,y\n0.5,0.5\n")
        with pytest.raises(ParseError, match="expected 3 fields"):
            load_labeled_csv(path)
        path.write_text("f0,f9,y\n0.5,0.5,0\n")
        with pytest.raises(ParseError, match="f9"):
            load_labeled_csv(path)

    def test_bundle_round_trip(self, tmp_path):
        task = SynthTaskSpec("rt", k=3, d=3, n_source=200, n_target=200, seed=13)
        bundle = synth_relaxed_task(task, ShiftSpec(alpha=0.5, epsilon=1.0, seed=13))
        save_bundle(bundle, tmp_path / "bundle")
        back = load_bundle(tmp_path / "bundle")
        assert back.name == "rt" and back.k == 3 and back.alpha == 0.5
        assert back.epsilon == 1.0 and back.seed == 13
        for attr in ("source_train", "source_val", "target_train", "target_test"):
            np.testing.assert_array_equal(
                getattr(back, attr).features, getattr(bundle, attr).features
            )
            np.testing.assert_array_equal(
                getattr(back, attr).labels, getattr(bundle, attr).labels
            )
        np.testing.assert_array_equal(
            back.true_target_marginal.probs, bundle.true_target_marginal.probs
        )

    def test_manifest_strictness(self, tmp_path):
        task = SynthTaskSpec("m", k=2, d=2, n_source=50, n_target=50, seed=1)
        bundle = synth_relaxed_task(task, ShiftSpec(alpha=None, seed=1))
        save_bundle(bundle, tmp_path / "b")
        manifest = (tmp_path / "b" / "manifest.json")
        data = manifest.read_text()
        manifest.write_text(data.replace('"k": 2', '"k": 2, "extra": 1'))
        with pytest.raises(ParseError, match="extra"):
            load_bundle(tmp_path / "b")
        for bad in ("null", "2.5", "true", '"2"'):
            manifest.write_text(data.replace('"k": 2', f'"k": {bad}'))
            with pytest.raises(ParseError, match=r"manifest\.json: manifest\.k: expected int"):
                load_bundle(tmp_path / "b")
        for bad in ([True, 0], ["0.5", 0.5]):
            manifest.write_text(json.dumps({**json.loads(data), "true_target_marginal": bad}))
            with pytest.raises(ParseError, match=r"manifest\.json: manifest\."
                               r"true_target_marginal\[0\]: expected float"):
                load_bundle(tmp_path / "b")
        # Provenance no task is made with: ShiftSpec's alpha and epsilon
        # checks, and a nonempty name.
        for key, bad, message in (("alpha", -1.0, "alpha must be positive or None, got -1.0"),
                                  ("alpha", 0, "alpha must be positive or None, got 0.0"),
                                  ("epsilon", -2.0, "epsilon must be a nonnegative float"),
                                  ("epsilon", float("nan"), "epsilon must be a nonnegative float"),
                                  ("name", "", "task name must be nonempty")):
            manifest.write_text(json.dumps({**json.loads(data), key: bad}))
            with pytest.raises(ParseError, match=r"manifest\.json: manifest: " + message):
                load_bundle(tmp_path / "b")
