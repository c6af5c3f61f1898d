"""Per-layer tracing for the benchmark, installed from outside the package.

Each wrapper replaces a public labelshift function in the namespace its
caller looks it up in (``bench.run_cell`` is called by ``run_grid`` through
``labelshift.bench``, ``aggregate`` by ``cmd_run`` through ``labelshift.cli``,
and so on). Layer boundaries record spans (name, start, end, parent) in
memory; hot leaf calls (``loss_and_grad``, ``project_simplex``,
``RngStream.derive``) only bump counters. Nothing is written until the run
ends. The package itself is never edited.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter_ns

ESTIMATOR_KS = (3, 10, 50)

# name -> unit. "/op" values are divided by the ops of the timed phase,
# "/call" values by the calls of that estimator at that k.
PER_LAYER_METRICS = {
    "cli.load_grid_config.ms": "ms/op",
    "bench.run_cell.calls": "count/op",
    "bench.run_cell.self_ms": "ms/op",
    "bench.evaluate.ms": "ms/op",
    "bench.aggregate.ms": "ms/op",
    "bench.build_bundle.ms": "ms/op",
    "bench.ingest_predictions.ms": "ms/op",
    "bench.ingest_predictions.rows": "count/op",
    "shift.load_labeled_csv.calls": "count/op",
    "shift.load_labeled_csv.ms": "ms/op",
    "shift.load_labeled_csv.rows": "count/op",
    "shift.synth_relaxed_task.ms": "ms/op",
    "shift.apply_shift_protocol.self_ms": "ms/op",
    "adapt.meta_adapt.calls": "count/op",
    "adapt.train.calls": "count/op",
    "adapt.train.distinct": "count/op",
    "adapt.train.useful_ratio": "ratio",
    "adapt.train.ms": "ms/op",
    "adapt.loss_and_grad.calls": "count/op",
    "adapt.step.us_p50": "us",
    "adapt.full_pass.ms": "ms/op",
    "adapt.epochs": "count/op",
    "adapt.rollbacks": "count/op",
    "adapt.predict.calls": "count/op",
    "adapt.predict.ms": "ms/op",
    "adapt.class_balanced_indices.ms": "ms/op",
    "adapt.reweight_predictions.ms": "ms/op",
    "estimate.estimate_marginal.calls": "count/op",
    "estimate.soft_confusion.ms": "ms/op",
    **{
        f"estimate.{est}.k{k}.{what}": unit
        for k in ESTIMATOR_KS
        for est in ("rlls", "mlls")
        for what, unit in (("ms", "ms/call"), ("iters", "count/call"))
    },
    "core.project_simplex.calls": "count/op",
    "core.project_simplex.ms": "ms/op",
    "core.RngStream.derive.calls": "count/op",
}


class Tracer:
    """Spans, counters and per-call extras for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.step_ns: list[int] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.train_keys: set = set()
        self.train_rows: int | None = None

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up op), in place,
        because the installed wrappers hold references to these objects."""
        self.spans.clear()
        self.stack.clear()
        for c in self.counters.values():
            c[0] = c[1] = 0
        self.step_ns.clear()
        self.extra.clear()
        self.train_keys.clear()

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, result, record[2] - record[1])
            return result

        return wrapper

    def counter(self, name, fn):
        count = self.counters[name]

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            count[1] += perf_counter_ns() - start
            count[0] += 1
            return result

        return wrapper

    # -- hooks ----------------------------------------------------------

    def _loss_and_grad(self, fn):
        full = self.counters["adapt.full_pass"]
        calls = self.counters["adapt.loss_and_grad"]
        steps = self.step_ns

        def wrapper(spec, params, x, *args, **kwargs):
            start = perf_counter_ns()
            result = fn(spec, params, x, *args, **kwargs)
            elapsed = perf_counter_ns() - start
            calls[0] += 1
            # A call over the whole training set is the per-epoch objective;
            # anything smaller is a minibatch (or pseudo-label) step.
            if x.shape[0] == self.train_rows:
                full[0] += 1
                full[1] += elapsed
            else:
                steps.append(elapsed)
            return result

        return wrapper

    def _start_training(self, args) -> None:
        self.train_rows = args[1].n

    def _finish_training(self, args, model, elapsed) -> None:
        losses = model.loss_log
        self.extra["adapt.epochs"] += len(losses)
        # A rolled-back epoch re-records the previous objective unchanged.
        self.extra["adapt.rollbacks"] += sum(
            1 for a, b in zip(losses, losses[1:]) if a == b)

    def _meta_adapt(self, args) -> None:
        algorithm, bundle, corrections = args[0], args[1], args[2]
        self.train_keys.add((bundle.name, bundle.alpha, bundle.seed, algorithm,
                             corrections.resample))

    def _estimator(self, name, k_of):
        def after(args, result, elapsed):
            key = f"estimate.{name}.k{k_of(args)}"
            self.extra[key + ".calls"] += 1
            self.extra[key + ".ns"] += elapsed
            self.extra[key + ".iters"] += result.iterations
        return after

    def _rows(self, name, rows_of):
        def after(args, result, elapsed):
            self.extra[name] += rows_of(result)
        return after

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions where their callers find them."""
        from labelshift import adapt, bench, cli, core, estimate, shift

        span = self.span
        cli.load_grid_config = span("cli.load_grid_config", cli.load_grid_config)
        cli.aggregate = span("bench.aggregate", cli.aggregate)
        cli.ingest_predictions = span(
            "bench.ingest_predictions", cli.ingest_predictions,
            after=self._rows("bench.ingest_predictions.rows", lambda r: r[0].n))
        cli.estimate_marginal = adapt.estimate_marginal = span(
            "estimate.estimate_marginal", estimate.estimate_marginal)

        bench.run_cell = span("bench.run_cell", bench.run_cell)
        bench.build_bundle = span("bench.build_bundle", bench.build_bundle)
        bench.evaluate = span("bench.evaluate", bench.evaluate)
        bench.meta_adapt = span("adapt.meta_adapt", bench.meta_adapt,
                                before=self._meta_adapt)
        bench.load_labeled_csv = span(
            "shift.load_labeled_csv", bench.load_labeled_csv,
            after=self._rows("shift.load_labeled_csv.rows", lambda r: r.n))
        bench.synth_relaxed_task = span("shift.synth_relaxed_task", bench.synth_relaxed_task)
        shift.apply_shift_protocol = bench.apply_shift_protocol = span(
            "shift.apply_shift_protocol", shift.apply_shift_protocol)

        for name in ("train_erm", "pseudolabel_train", "iw_erm_train"):
            setattr(adapt, name, span("adapt.train", getattr(adapt, name),
                                      before=self._start_training,
                                      after=self._finish_training))
        adapt.loss_and_grad = self._loss_and_grad(adapt.loss_and_grad)
        adapt.Model.predict = span("adapt.predict", adapt.Model.predict)
        adapt.class_balanced_indices = span("adapt.class_balanced_indices",
                                            adapt.class_balanced_indices)
        adapt.reweight_predictions = span("adapt.reweight_predictions",
                                          adapt.reweight_predictions)

        estimate.soft_confusion = span("estimate.soft_confusion", estimate.soft_confusion)
        estimate.rlls_estimate = span("estimate.rlls", estimate.rlls_estimate,
                                      after=self._estimator("rlls", lambda a: a[2].k))
        estimate.mlls_estimate = span("estimate.mlls", estimate.mlls_estimate,
                                      after=self._estimator("mlls", lambda a: a[1].k))
        estimate.project_simplex = self.counter("core.project_simplex",
                                                estimate.project_simplex)
        core.RngStream.derive = self.counter("core.RngStream.derive", core.RngStream.derive)

    # -- results ----------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, normalised per op of the timed phase
        (per call for the per-k estimator entries)."""
        total = defaultdict(int)
        own = defaultdict(int)
        calls = defaultdict(int)
        children = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[i]
            calls[name] += 1

        def per_op_ms(ns):
            return ns / 1e6 / ops

        trainings = calls["adapt.train"]
        out = {
            "cli.load_grid_config.ms": per_op_ms(total["cli.load_grid_config"]),
            "bench.run_cell.calls": calls["bench.run_cell"] / ops,
            "bench.run_cell.self_ms": per_op_ms(own["bench.run_cell"]),
            "bench.evaluate.ms": per_op_ms(total["bench.evaluate"]),
            "bench.aggregate.ms": per_op_ms(total["bench.aggregate"]),
            "bench.build_bundle.ms": per_op_ms(total["bench.build_bundle"]),
            "bench.ingest_predictions.ms": per_op_ms(total["bench.ingest_predictions"]),
            "bench.ingest_predictions.rows": self.extra["bench.ingest_predictions.rows"] / ops,
            "shift.load_labeled_csv.calls": calls["shift.load_labeled_csv"] / ops,
            "shift.load_labeled_csv.ms": per_op_ms(total["shift.load_labeled_csv"]),
            "shift.load_labeled_csv.rows": self.extra["shift.load_labeled_csv.rows"] / ops,
            "shift.synth_relaxed_task.ms": per_op_ms(total["shift.synth_relaxed_task"]),
            "shift.apply_shift_protocol.self_ms": per_op_ms(own["shift.apply_shift_protocol"]),
            "adapt.meta_adapt.calls": calls["adapt.meta_adapt"] / ops,
            "adapt.train.calls": trainings / ops,
            "adapt.train.distinct": len(self.train_keys) / ops,
            "adapt.train.useful_ratio": len(self.train_keys) / trainings if trainings else 0.0,
            "adapt.train.ms": per_op_ms(total["adapt.train"]),
            "adapt.loss_and_grad.calls": self.counters["adapt.loss_and_grad"][0] / ops,
            "adapt.step.us_p50": statistics.median(self.step_ns) / 1e3 if self.step_ns else 0.0,
            "adapt.full_pass.ms": per_op_ms(self.counters["adapt.full_pass"][1]),
            "adapt.epochs": self.extra["adapt.epochs"] / ops,
            "adapt.rollbacks": self.extra["adapt.rollbacks"] / ops,
            "adapt.predict.calls": calls["adapt.predict"] / ops,
            "adapt.predict.ms": per_op_ms(total["adapt.predict"]),
            "adapt.class_balanced_indices.ms": per_op_ms(total["adapt.class_balanced_indices"]),
            "adapt.reweight_predictions.ms": per_op_ms(total["adapt.reweight_predictions"]),
            "estimate.estimate_marginal.calls": calls["estimate.estimate_marginal"] / ops,
            "estimate.soft_confusion.ms": per_op_ms(total["estimate.soft_confusion"]),
            "core.project_simplex.calls": self.counters["core.project_simplex"][0] / ops,
            "core.project_simplex.ms": per_op_ms(self.counters["core.project_simplex"][1]),
            "core.RngStream.derive.calls": self.counters["core.RngStream.derive"][0] / ops,
        }
        for k in ESTIMATOR_KS:
            for est in ("rlls", "mlls"):
                key = f"estimate.{est}.k{k}"
                n = self.extra[key + ".calls"]
                out[key + ".ms"] = self.extra[key + ".ns"] / 1e6 / n if n else 0.0
                out[key + ".iters"] = self.extra[key + ".iters"] / n if n else 0.0
        return {name: {"value": out[name], "unit": unit}
                for name, unit in PER_LAYER_METRICS.items()}

    def overhead_s(self) -> float:
        """Estimated time the wrappers added to the timed phase: the calls
        they recorded times the measured cost of a wrapper around a no-op."""
        probe = Tracer()

        def noop():
            return None

        def cost_ns(fn, n=20_000):
            start = perf_counter_ns()
            for _ in range(n):
                fn()
            return (perf_counter_ns() - start) / n

        base = cost_ns(noop)
        span_ns = cost_ns(probe.span("probe", noop)) - base
        counter_ns = cost_ns(probe.counter("probe", noop)) - base
        leaf_calls = sum(self.counters[name][0] for name in (
            "adapt.loss_and_grad", "core.project_simplex", "core.RngStream.derive"))
        return (len(self.spans) * span_ns + leaf_calls * counter_ns) / 1e9

    def dump(self, path) -> None:
        """Write the raw spans and counters of the timed phase as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "spans": [{"name": n, "start_ns": s, "end_ns": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counters": {name: {"calls": c[0], "ns": c[1]}
                             for name, c in self.counters.items()},
                "extra": dict(self.extra),
            }, fh)
