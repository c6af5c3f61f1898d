import ast
import concurrent.futures
import json
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import labelshift
from labelshift.bench import RunRecord, read_records
from labelshift.core import (
    DegenerateEstimateError,
    DimensionError,
    EmptyInputError,
    ImportanceWeights,
    InvalidInputError,
    LabelMarginal,
    LabeledSet,
    PredictionMatrix,
    RngStream,
    SoftConfusion,
    l1_distance,
    project_simplex,
    weights_to_marginal,
)


def brute_force_projection(v, resolution=2e-5):
    # Dense scan of the 1-simplex; oracle for k=2 projections.
    ts = np.arange(0.0, 1.0 + resolution, resolution)
    points = np.stack([ts, 1.0 - ts], axis=1)
    dists = ((points - np.asarray(v)[None, :]) ** 2).sum(axis=1)
    return points[np.argmin(dists)]


class TestProjectSimplex:
    def test_single_overshoot_clips_exactly(self):
        got = project_simplex([1.2, -0.2])
        np.testing.assert_allclose(got, [1.0, 0.0], atol=1e-12)
        oracle = brute_force_projection([1.2, -0.2])
        assert np.abs(got - oracle).max() <= 2e-5

    def test_simplex_point_is_fixed(self):
        np.testing.assert_allclose(project_simplex([0.3, 0.3, 0.4]), [0.3, 0.3, 0.4], atol=1e-12)

    def test_matches_brute_force_on_random_k2(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            v = rng.normal(scale=2.0, size=2)
            got = project_simplex(v)
            oracle = brute_force_projection(v)
            assert np.abs(got - oracle).max() <= 4e-5

    def test_rejects_nonfinite_and_empty(self):
        with pytest.raises(InvalidInputError):
            project_simplex([np.nan, 0.5])
        with pytest.raises(EmptyInputError):
            project_simplex([])

    @given(
        st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8)
    )
    @settings(max_examples=200, deadline=None)
    def test_output_is_on_simplex_and_idempotent(self, vec):
        p = project_simplex(vec)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(project_simplex(p), p, atol=1e-9)


class TestL1Distance:
    def test_opposite_corners(self):
        assert l1_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_identical_vectors(self):
        assert l1_distance([0.2, 0.8], [0.2, 0.8]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            l1_distance([0.5, 0.5], [1.0, 0.0, 0.0])

    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=6),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=6),
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_triangle(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a, b, c = a[:n], b[:n], c[:n]
        assert l1_distance(a, b) == pytest.approx(l1_distance(b, a))
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c) + 1e-9


class TestWeightsToMarginal:
    def test_worked_example(self):
        got = weights_to_marginal([0.4, 1.6], [0.5, 0.5])
        np.testing.assert_allclose(got.probs, [0.2, 0.8], atol=1e-12)

    def test_unit_weights_recover_source(self):
        ps = LabelMarginal(np.array([0.3, 0.7]))
        got = weights_to_marginal(np.ones(2), ps)
        np.testing.assert_allclose(got.probs, ps.probs, atol=1e-12)

    def test_zero_mass_is_degenerate(self):
        with pytest.raises(DegenerateEstimateError):
            weights_to_marginal([0.0, 5.0], [1.0, 0.0])

    def test_accepts_wrapped_types(self):
        ps = LabelMarginal(np.array([0.5, 0.5]))
        w = ImportanceWeights(np.array([0.4, 1.6]), ps)
        got = weights_to_marginal(w, ps)
        np.testing.assert_allclose(got.probs, [0.2, 0.8], atol=1e-12)


class TestContainers:
    def test_marginal_renormalizes_within_tolerance(self):
        m = LabelMarginal(np.array([0.5, 0.5 + 5e-7]))
        assert m.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_marginal_rejects_bad_mass(self):
        with pytest.raises(InvalidInputError):
            LabelMarginal(np.array([0.5, 0.6]))
        with pytest.raises(InvalidInputError):
            LabelMarginal(np.array([-0.1, 1.1]))
        with pytest.raises(DimensionError):
            LabelMarginal(np.array([1.0]))

    def test_marginal_is_read_only(self):
        m = LabelMarginal(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            m.probs[0] = 0.9

    def test_from_labels_counts(self):
        m = LabelMarginal.from_labels([0, 0, 1, 2], k=4)
        np.testing.assert_allclose(m.probs, [0.5, 0.25, 0.25, 0.0])

    def test_from_labels_rejects_a_label_of_k_or_more(self):
        with pytest.raises(InvalidInputError, match=r"\[0, 2\)"):
            LabelMarginal.from_labels([0, 5], k=2)

    def test_from_labels_rejects_a_negative_label(self):
        with pytest.raises(InvalidInputError, match=r"\[0, 2\)"):
            LabelMarginal.from_labels([0, -1], k=2)

    def test_importance_weights_feasibility_checked(self):
        ps = LabelMarginal(np.array([0.5, 0.5]))
        ImportanceWeights(np.array([0.4, 1.6]), ps)
        with pytest.raises(InvalidInputError):
            ImportanceWeights(np.array([1.0, 2.0]), ps)
        with pytest.raises(InvalidInputError):
            ImportanceWeights(np.array([-0.4, 2.4]), ps)

    def test_prediction_rows_validated_and_renormalized(self):
        with pytest.raises(InvalidInputError):
            PredictionMatrix(np.array([[0.7, 0.2], [0.5, 0.5]]))
        m = PredictionMatrix(np.array([[0.5, 0.5 + 2e-7], [1.0, 0.0]]))
        np.testing.assert_allclose(m.values.sum(axis=1), [1.0, 1.0], atol=1e-15)

    def test_argmax_ties_break_low(self):
        m = PredictionMatrix(np.array([[0.5, 0.5], [0.25, 0.75]]))
        np.testing.assert_array_equal(m.argmax_labels(), [0, 1])

    def test_labeled_set_shape_checks(self):
        with pytest.raises(DimensionError):
            LabeledSet(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(InvalidInputError):
            LabeledSet(np.zeros((2, 2)), np.array([0, -1]))
        with pytest.raises(EmptyInputError):
            LabeledSet(np.zeros((0, 2)), np.array([], dtype=int))

    def test_labeled_set_subset(self):
        ds = LabeledSet(np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 3]))
        sub = ds.subset([2, 0])
        np.testing.assert_array_equal(sub.labels, [2, 0])
        np.testing.assert_array_equal(sub.features[0], [4.0, 5.0])

    def test_labeled_set_copies_a_writeable_array(self):
        x = np.arange(8.0).reshape(4, 2)
        y = np.array([0, 1, 0, 1])
        ds = LabeledSet(x, y)
        assert not np.shares_memory(ds.features, x)
        assert not np.shares_memory(ds.labels, y)
        x[0, 0], y[0] = 99.0, 1
        assert (ds.features[0, 0], ds.labels[0]) == (0.0, 0)

    def test_labeled_set_copies_a_read_only_view(self):
        # The view is read-only, but its base is not: the caller can still
        # write the values through the base.
        base = np.arange(8.0).reshape(4, 2)
        view = base[:]
        view.setflags(write=False)
        ds = LabeledSet(view, np.array([0, 1, 0, 1]))
        assert not np.shares_memory(ds.features, base)

    def test_labeled_set_adopts_a_read_only_array_that_owns_its_data(self):
        x = np.arange(8.0).reshape(4, 2).copy()
        y = np.array([0, 1, 0, 1])
        x.setflags(write=False)
        y.setflags(write=False)
        ds = LabeledSet(x, y)
        assert ds.features is x and ds.labels is y

    def test_adopted_arrays_are_read_only(self):
        ds = LabeledSet(np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 3]))
        sub = ds.subset([2, 0])
        preds = PredictionMatrix(np.array([[0.25, 0.75], [0.5, 0.5]]))
        for arr in (ds.features, ds.labels, sub.features, sub.labels, preds.values):
            assert not arr.flags.writeable and arr.flags.owndata
        assert not np.shares_memory(sub.features, ds.features)
        with pytest.raises(ValueError):
            sub.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            preds.values[0, 0] = 1.0

    def test_soft_confusion_total_mass_checked(self):
        SoftConfusion(np.array([[0.4, 0.3], [0.1, 0.2]]))
        with pytest.raises(InvalidInputError):
            SoftConfusion(np.array([[0.4, 0.4], [0.4, 0.4]]))


class TestRngStream:
    def test_equal_keys_equal_draws(self):
        a = RngStream(seed=123, stream_id=9).generator().standard_normal(10_000)
        b = RngStream(seed=123, stream_id=9).generator().standard_normal(10_000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(7).derive("shuffle").generator().standard_normal(100)
        b = RngStream(7).derive("init").generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_order_sensitive(self):
        s = RngStream(5)
        assert s.derive("a", 1) == s.derive("a", 1)
        assert s.derive("a", 1) != s.derive(1, "a")

    def test_thread_consumption_does_not_change_draws(self):
        # Same key must yield the same first draws no matter which thread
        # consumes the stream or how many run at once.
        def draw(_):
            return RngStream(seed=42, stream_id=3).generator().standard_normal(10_000)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(draw, range(8)))
        for r in results[1:]:
            np.testing.assert_array_equal(results[0], r)

    def test_rejects_unhashable_labels(self):
        with pytest.raises(InvalidInputError):
            RngStream(1).derive(object())


class TestOneCheckedReader:
    # Functions that parse JSON without core._read_fields, each with its reason.
    UNCHECKED = {
        # Round-trips the config document it builds itself into JSON values.
        ("bench.py", "_config_document"),
        # Reads results_config.json, which _check_same_records compares field
        # by field with the current config; nothing is built from it.
        ("bench.py", "run_grid"),
    }

    def test_json_is_read_through_the_checked_reader(self):
        # A JSON document the package reads is checked by _read_fields, or by
        # RunRecord.from_json_dict, which calls it: no file format gets a
        # reader with its own key and type checks.
        found = set()
        for path in sorted(Path(labelshift.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "json":
                    found.add((path.name, "import"))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    calls = {ast.unparse(call.func) for call in ast.walk(node)
                             if isinstance(call, ast.Call)}
                    if (calls & {"json.load", "json.loads"}
                            and not calls & {"_read_fields", "RunRecord.from_json_dict"}):
                        found.add((path.name, node.name))
        assert found == self.UNCHECKED

    def test_no_annotation_work_per_value(self, tmp_path, monkeypatch):
        # A schema resolves each field's type once, on its first read; reading
        # records after that looks at no annotation, however many records.
        rows = [RunRecord(task_id=f"t{i}", alpha=[None, 0.5][i % 2], seed=i,
                          method="source_only", corrections="rs+rw", estimator="mlls",
                          target_accuracy=0.75, marginal_l1_error=0.1,
                          true_marginal=(0.5, 0.5), estimated_marginal=(0.45, 0.55),
                          wall_time_seconds=1.5)
                for i in range(20)]
        path = tmp_path / "results.jsonl"
        path.write_text("".join(json.dumps(r.to_json_dict()) + "\n" for r in rows))
        assert read_records(path) == rows
        calls = []
        for name in ("get_origin", "get_args"):
            counted = getattr(typing, name)
            monkeypatch.setattr(typing, name,
                                lambda kind, f=counted: calls.append(kind) or f(kind))
        assert read_records(path) == rows
        assert calls == []


class TestImports:
    def test_every_imported_name_is_used(self):
        # A name a module imports and never uses reads as a dependency it does
        # not have. A name used only in an annotation counts as used.
        unused = []
        for path in sorted(Path(labelshift.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                unused += [f"{path.name}: {name}" for name in names if name not in used]
        assert unused == []
