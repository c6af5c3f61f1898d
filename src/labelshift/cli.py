"""Command-line interface.

One binary, five subcommands:

  run       execute a benchmark grid from a JSON config
  estimate  estimate a target label marginal from prediction dumps
  adapt     train a corrected classifier on a saved task bundle
  synth     generate and save a synthetic task bundle
  report    aggregate a results file into the summary CSV

Exit codes: 0 success, 1 configuration or input error, 2 partial cell
failure, 3 estimator diagnostic (best-effort output still printed). All
randomness flows from explicit seeds; no environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from labelshift.adapt import (
    ALGORITHMS,
    MODEL_KINDS,
    CorrectionFlags,
    ModelSpec,
    PseudoLabelConfig,
    TrainConfig,
    meta_adapt,
    save_model,
)
from labelshift.bench import (
    GridConfig,
    GridTask,
    RESULTS_FILENAME,
    SUMMARY_FILENAME,
    aggregate,
    evaluate,
    failed_baselines,
    ingest_predictions,
    plan_cells,
    read_records,
    run_grid,
    write_summary_csv,
)
from labelshift.core import (
    DegenerateEstimateError,
    DivergedError,
    InvalidInputError,
    LabelMarginal,
    LabelShiftError,
    PairingError,
    ParseError,
    WorkerDiedError,
    _available_cpus,
    _caster,
    _check_keys,
    _fork_pays,
    _items,
    _read_pair,
    _read_fields,
    _schema,
)
from labelshift.estimate import ESTIMATORS, estimate_marginal
from labelshift.shift import (
    ShiftSpec,
    SynthTaskSpec,
    load_bundle,
    save_bundle,
    synth_relaxed_task,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Bad flags are configuration errors (exit 1), not argparse's default 2.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# The keys of each config section. Each key is typed by the dataclass field
# it sets; the cell seeds a task's generator and its training itself.
_GRID_KEYS = ("seed", "output_dir", "alphas", "seeds", "methods", "estimators")
_TOP_KEYS = {*_GRID_KEYS, "tasks", "corrections", "model", "train", "pseudolabel"}
_SYNTH_TASK_KEYS = ("name", "k", "d", "n_source", "n_target", "class_separation")
_TRAIN_KEYS = ("epochs", "batch_size", "learning_rate", "l2")


def _parse_task(entry, index: int) -> GridTask:
    where = f"tasks[{index}]"
    if isinstance(entry, dict) and "data_dir" in entry:
        return GridTask(**_read_fields(entry, _schema(GridTask, ("name",), data_dir=str), where))
    synth = _read_fields(entry, _schema(SynthTaskSpec, _SYNTH_TASK_KEYS, epsilon=float), where)
    task = {"epsilon": synth.pop("epsilon")} if "epsilon" in synth else {}
    return GridTask(name=synth["name"], synth=SynthTaskSpec(**synth), **task)


def _parse_corrections(entry, index: int) -> CorrectionFlags:
    where = f"corrections[{index}]"
    estimator = None
    if isinstance(entry, dict):
        _check_keys(entry, {"flags", "estimator"}, {"flags"}, where)
        entry, estimator = entry["flags"], entry.get("estimator")
    return CorrectionFlags.from_label(_caster(str)(entry, where), estimator=estimator)


def load_grid_config(path) -> GridConfig:
    """Parse and strictly validate a grid configuration document: every axis
    is a list, every section and task entry an object, and every value casts
    to the type of the field it sets; a violation is a ParseError naming the
    key. A key the document leaves out takes its dataclass's default."""
    path = Path(path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
    _check_keys(doc, _TOP_KEYS, {"tasks"}, str(path))

    casters = _schema(GridConfig, _GRID_KEYS)[0]
    kwargs = {key: casters[key](doc[key], key) for key in _GRID_KEYS if key in doc}
    kwargs["tasks"] = tuple(_parse_task(t, i) for i, t in enumerate(_items(doc["tasks"], "tasks")))
    if "corrections" in doc:
        kwargs["corrections"] = tuple(_parse_corrections(c, i) for i, c
                                      in enumerate(_items(doc["corrections"], "corrections")))
    model = _schema(GridConfig, ("hidden_units",), kind=str)
    for key, value in _read_fields(doc.get("model", {}), model, "model").items():
        kwargs["model_kind" if key == "kind" else key] = value
    for section, cls, keys in (("train", TrainConfig, _TRAIN_KEYS),
                               ("pseudolabel", PseudoLabelConfig, ())):
        if section in doc:
            kwargs[section] = cls(**_read_fields(doc[section], _schema(cls, keys), section))
    return GridConfig(**kwargs)


def _summarize(records, path) -> None:
    """Write the summary of records to path, after one stderr line for each
    coordinate the summary leaves out because its baseline failed."""
    for task_id, alpha, seed in failed_baselines(records):
        print(f"summary leaves out task {task_id!r}, alpha {alpha}, seed {seed}: its "
              "uncorrected source_only cell failed", file=sys.stderr)
    write_summary_csv(path, aggregate(records))


def cmd_run(args) -> int:
    cfg = load_grid_config(args.config)
    if args.dry_run:
        cells = plan_cells(cfg)
        for cell in cells:
            print(" ".join(str(part) for part in cell.key()))
        print(f"{len(cells)} cells")
        return 0
    try:
        records = run_grid(cfg, jobs=args.jobs, resume=args.resume)
    except WorkerDiedError as exc:
        raise LabelShiftError(f"{exc} The records written so far are kept; rerun with "
                              "--resume to finish the grid.") from None
    failed = [r for r in records if r.error is not None]
    out_dir = Path(cfg.output_dir)
    try:
        _summarize(records, out_dir / SUMMARY_FILENAME)
        print(f"wrote {out_dir / RESULTS_FILENAME} and {out_dir / SUMMARY_FILENAME}")
    except PairingError as exc:
        print(f"summary skipped: {exc}", file=sys.stderr)
        print(f"wrote {out_dir / RESULTS_FILENAME}")
    for r in failed:
        print(f"failed cell {r.key()}: {r.error}", file=sys.stderr)
    print(f"{len(records)} records, {len(failed)} failed")
    return 2 if failed else 0


def cmd_estimate(args) -> int:
    def read(dump):
        path, labeled = dump
        preds, labels = ingest_predictions(path, normalize=args.normalize)
        if labeled and labels is None:
            raise InvalidInputError(f"{path} has no y column; the source dump must be labeled")
        return preds, labels

    (preds_source, labels), (preds_target, _) = _read_pair(
        read, (args.source, True), (args.target, False),
        _fork_pays(_available_cpus(), args.source, args.target))
    p_s = None
    if args.p_source is not None:
        p_s = LabelMarginal([float(v) for v in args.p_source.split(",")])
    try:
        out = estimate_marginal(args.estimator, preds_source, labels, preds_target,
                                p_s=p_s, lam=args.lam)
    except (DegenerateEstimateError, DivergedError) as exc:
        # Estimation-level failure: report it, but distinguish it from bad
        # inputs via the dedicated exit code.
        print(json.dumps({"estimator": args.estimator,
                          "error": f"{type(exc).__name__}: {exc}"}, indent=2))
        return 3
    print(json.dumps({
        "estimator": out.estimator,
        "marginal": [float(v) for v in out.marginal.probs],
        "weights": [float(v) for v in out.weights.weights],
        "converged": out.converged,
        "diagnostics": list(out.diagnostics),
    }, indent=2))
    return 3 if out.diagnostics else 0


def cmd_adapt(args) -> int:
    bundle = load_bundle(args.bundle)
    flags = CorrectionFlags.from_label(args.corrections, estimator=args.estimator)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.learning_rate, l2=args.l2, seed=args.seed)
    spec = ModelSpec(args.model, input_dim=bundle.d, classes=bundle.k,
                     hidden_units=args.hidden_units)
    result = meta_adapt(args.method, bundle, flags, cfg, model_spec=spec)
    save_model(result.model, args.out)
    test = bundle.target_test
    metrics = evaluate(result.adjusted(test.features), test.labels,
                       result.p_hat_t, bundle.true_target_marginal)
    val = bundle.source_val
    payload = {
        "model": str(args.out),
        "method": args.method,
        "corrections": flags.label(),
        "target_accuracy": metrics.accuracy,
        "source_val_accuracy": evaluate(result.model.predict(val.features),
                                        val.labels).accuracy,
        "diagnostics": list(result.diagnostics),
    }
    if metrics.marginal_l1_error is not None:
        payload["marginal_l1_error"] = metrics.marginal_l1_error
    if result.p_hat_t is not None:
        payload["estimated_marginal"] = [float(v) for v in result.p_hat_t.probs]
    print(json.dumps(payload, indent=2))
    return 3 if result.diagnostics else 0


def cmd_synth(args) -> int:
    task = SynthTaskSpec(name=args.name, k=args.k, d=args.d,
                         n_source=args.n_source, n_target=args.n_target,
                         class_separation=args.class_separation, seed=args.seed)
    shift = ShiftSpec(alpha=args.alpha, epsilon=args.epsilon, seed=args.seed)
    bundle = synth_relaxed_task(task, shift)
    save_bundle(bundle, args.out)
    print(json.dumps({
        "out": str(args.out),
        "k": bundle.k,
        "d": bundle.d,
        "true_target_marginal": [float(v) for v in bundle.true_target_marginal.probs],
    }, indent=2))
    return 0


def cmd_report(args) -> int:
    _summarize(read_records(args.results), args.out)
    print(f"wrote {args.out}")
    return 0


def _positive_or_none_alpha(value: str):
    if value.lower() == "none":
        return None
    return float(value)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="labelshift",
                     description="Label-shift adaptation benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a benchmark grid from a JSON config")
    run.add_argument("--config", required=True, help="path to the grid config JSON")
    run.add_argument("--jobs", type=int, default=_available_cpus(),
                     help="run up to N (task, alpha, seed) coordinates at once in worker "
                          "processes; results.jsonl keeps the serial order (default: the "
                          "CPUs this process may use, here %(default)s)")
    run.add_argument("--resume", action="store_true",
                     help="skip cells already present in the results file")
    run.add_argument("--dry-run", action="store_true",
                     help="print the cell plan and count without running")
    run.set_defaults(func=cmd_run)

    est = sub.add_parser("estimate",
                         help="estimate the target label marginal from dumps")
    est.add_argument("--source", required=True,
                     help="labeled source-validation prediction dump (needs y)")
    est.add_argument("--target", required=True,
                     help="unlabeled target prediction dump")
    est.add_argument("--estimator", default="rlls", choices=ESTIMATORS)
    est.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="override the moment-matching regularization strength")
    est.add_argument("--p-source", default=None,
                     help="source marginal as comma-separated probabilities")
    est.add_argument("--normalize", action="store_true",
                     help="renormalize rows whose sums are off by more than 1e-3")
    est.set_defaults(func=cmd_estimate)

    adapt = sub.add_parser("adapt", help="train a corrected model on a bundle")
    adapt.add_argument("--bundle", required=True, help="task bundle directory")
    adapt.add_argument("--method", default="source_only", choices=ALGORITHMS)
    adapt.add_argument("--corrections", default="none",
                       help="none, rs, rw, or rs+rw")
    adapt.add_argument("--estimator", default=None, choices=ESTIMATORS,
                       help="marginal estimator used with rw (default rlls)")
    adapt.add_argument("--model", default="logistic", choices=MODEL_KINDS)
    adapt.add_argument("--hidden-units", type=int, default=ModelSpec.hidden_units)
    adapt.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    adapt.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    adapt.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    adapt.add_argument("--l2", type=float, default=TrainConfig.l2)
    adapt.add_argument("--seed", type=int, default=TrainConfig.seed)
    adapt.add_argument("--out", default="model.json", help="model output path")
    adapt.set_defaults(func=cmd_adapt)

    synth = sub.add_parser("synth", help="generate a synthetic task bundle")
    synth.add_argument("--name", default="synth")
    synth.add_argument("--k", type=int, required=True)
    synth.add_argument("--d", type=int, required=True)
    synth.add_argument("--n-source", type=int, required=True)
    synth.add_argument("--n-target", type=int, required=True)
    synth.add_argument("--class-separation", type=float,
                       default=SynthTaskSpec.class_separation)
    synth.add_argument("--alpha", type=_positive_or_none_alpha, default=None,
                       help="Dirichlet severity; 'none' disables the shift")
    synth.add_argument("--epsilon", type=float, default=ShiftSpec.epsilon,
                       help="conditional-shift budget")
    synth.add_argument("--seed", type=int, default=SynthTaskSpec.seed)
    synth.add_argument("--out", required=True, help="bundle output directory")
    synth.set_defaults(func=cmd_synth)

    report = sub.add_parser("report", help="aggregate results into summary CSV")
    report.add_argument("--results", required=True, help="results.jsonl path")
    report.add_argument("--out", default="summary.csv", help="summary CSV path")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LabelShiftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
