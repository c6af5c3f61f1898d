"""Benchmark grid over tasks, shift severities, seeds, methods, and
corrections.

Every cell derives its randomness from the top-level seed plus its own
coordinates, so results are identical whether cells run serially, in worker
processes, or across resumed invocations. The unit of work is one (task,
alpha, seed) coordinate: its bundle is built once, one model is trained per
(method, resample), and each reweighting arm corrects that model's
predictions. Records append to a JSONL file as their coordinate completes;
aggregation pairs each record with its uncorrected source_only baseline and
reports relative-accuracy statistics as CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from contextlib import closing
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import groupby
from pathlib import Path

import numpy as np

from labelshift.adapt import (
    ALGORITHMS,
    MODEL_KINDS,
    CorrectionFlags,
    ModelSpec,
    PseudoLabelConfig,
    TrainConfig,
    meta_adapt,
    reweight_result,
)
from labelshift.core import (
    DimensionError,
    InvalidInputError,
    LabeledSet,
    LabelShiftError,
    PairingError,
    ParseError,
    PredictionMatrix,
    SUM_TOLERANCE,
    RngStream,
    _fork_map,
    _fork_pays,
    _read_pair,
    _read_fields,
    _schema,
    l1_distance,
)
from labelshift.estimate import ESTIMATORS
from labelshift.shift import (
    ShiftSpec,
    SynthTaskSpec,
    _PREDICTION_DUMP,
    apply_shift_protocol,
    load_labeled_csv,
    synth_relaxed_task,
)

RESULTS_FILENAME = "results.jsonl"
SUMMARY_FILENAME = "summary.csv"
# The config that made the records in results.jsonl, kept beside it.
CONFIG_FILENAME = "results_config.json"
# Grid axes: changing one only adds or removes cells, so a resume may.
_AXES = ("alphas", "seeds", "methods", "corrections", "estimators")


@dataclass(frozen=True)
class GridTask:
    """One task axis entry: either a synthetic generator (its name and seed
    are overridden per cell) or a directory holding source.csv / target.csv
    pools. epsilon is the synthetic task's conditional-shift budget; dataset
    pools carry whatever conditional shift their data has, so a data_dir
    task takes no nonzero epsilon."""

    name: str
    synth: SynthTaskSpec | None = None
    data_dir: str | None = None
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise InvalidInputError("task name must be nonempty")
        if (self.synth is None) == (self.data_dir is None):
            raise InvalidInputError(
                f"task {self.name!r} must set exactly one of synth or data_dir"
            )
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidInputError("epsilon must be finite and nonnegative")
        if self.data_dir is not None and self.epsilon != 0:
            raise InvalidInputError(f"data_dir task {self.name!r} takes no epsilon")


@dataclass(frozen=True)
class GridConfig:
    tasks: tuple[GridTask, ...]
    alphas: tuple[float | None, ...] = (None, 10.0, 3.0, 1.0, 0.5)
    seeds: tuple[int, ...] = (0, 1)
    methods: tuple[str, ...] = ("source_only", "pseudolabel")
    corrections: tuple[CorrectionFlags, ...] = (
        CorrectionFlags(), CorrectionFlags(resample=True, reweight=True))
    estimators: tuple[str, ...] = ("rlls",)
    seed: int = 0
    output_dir: str = "results"
    model_kind: str = "logistic"
    hidden_units: int = 32
    train: TrainConfig = TrainConfig()
    pseudolabel: PseudoLabelConfig = PseudoLabelConfig()

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(
            self, "alphas",
            tuple(None if a is None else float(a) for a in self.alphas),
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "corrections", tuple(self.corrections))
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for field in ("tasks", "alphas", "seeds", "methods", "corrections"):
            if not getattr(self, field):
                raise InvalidInputError(f"grid needs a nonempty {field} axis")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"task names must be unique, got {names}")
        for task in self.tasks:
            if not isinstance(task, GridTask):
                raise InvalidInputError("tasks must be GridTask entries")
        for a in self.alphas:
            if a is not None and not (np.isfinite(a) and a > 0):
                raise InvalidInputError(f"alpha must be None or positive, got {a}")
        for m in self.methods:
            if m not in ALGORITHMS:
                raise InvalidInputError(f"unknown method {m!r}; expected one of {ALGORITHMS}")
        for c in self.corrections:
            if not isinstance(c, CorrectionFlags):
                raise InvalidInputError("corrections must be CorrectionFlags entries")
            if c.estimator is not None and c.estimator not in ESTIMATORS:
                raise InvalidInputError(f"unknown estimator {c.estimator!r}")
        for e in self.estimators:
            if e not in ESTIMATORS:
                raise InvalidInputError(f"unknown estimator {e!r}; expected one of {ESTIMATORS}")
        if any(c.reweight and c.estimator is None for c in self.corrections):
            if not self.estimators:
                raise InvalidInputError("reweighting corrections need an estimators list")
        if self.model_kind not in MODEL_KINDS:
            raise InvalidInputError(f"unknown model kind {self.model_kind!r}")
        if self.hidden_units < 1:
            raise InvalidInputError("hidden_units must be positive")


def _cell_key(task_id, alpha, seed, method, corrections, estimator=None, **results) -> tuple:
    """A cell's identity from its record's fields. No estimator keys as "",
    so that keys sort."""
    return (task_id, alpha, seed, method, corrections, estimator or "")


@dataclass(frozen=True)
class Cell:
    """One planned grid cell with the estimator already resolved."""

    task: GridTask
    alpha: float | None
    seed: int
    method: str
    corrections: CorrectionFlags

    def record_fields(self) -> dict:
        """The coordinates this cell's record carries."""
        return dict(
            task_id=self.task.name,
            alpha=self.alpha,
            seed=self.seed,
            method=self.method,
            corrections=self.corrections.label(),
            estimator=self.corrections.estimator,
        )

    def __post_init__(self):
        # Planning and resuming look each cell up by its key several times.
        object.__setattr__(self, "_key", _cell_key(**self.record_fields()))

    def key(self) -> tuple:
        return self._key


# The range of each metric a record may carry, from 0 up to this bound.
_METRIC_BOUNDS = {"target_accuracy": 1.0, "source_val_accuracy": 1.0, "marginal_l1_error": 2.0}
_MARGINALS = ("true_marginal", "estimated_marginal")


@dataclass(frozen=True)
class RunRecord:
    """One results line. It is written as "v" and then the fields in order:
    each field without a default, even when None, and each other field that
    is set."""

    task_id: str
    alpha: float | None
    seed: int
    method: str
    corrections: str
    estimator: str | None = None
    target_accuracy: float | None = None
    source_val_accuracy: float | None = None
    marginal_l1_error: float | None = None
    true_marginal: tuple[float, ...] | None = None
    estimated_marginal: tuple[float, ...] | None = None
    wall_time_seconds: float | None = None
    error: str | None = None

    def __post_init__(self):
        """Refuse a record that claims what did not happen, with an
        InvalidInputError whose message begins with the field at fault."""
        if not self.task_id:
            raise InvalidInputError(f"task_id: expected a nonempty name, got {self.task_id!r}")
        if self.alpha is not None and not 0.0 < self.alpha < math.inf:
            raise InvalidInputError(f"alpha: expected a positive number or null, "
                                    f"got {self.alpha!r}")
        if self.method not in ALGORITHMS:
            raise InvalidInputError(f"method: expected one of {ALGORITHMS}, got {self.method!r}")
        try:
            flags = CorrectionFlags.from_label(self.corrections)
        except InvalidInputError:
            flags = None
        if flags is None or flags.label() != self.corrections:
            raise InvalidInputError(f"corrections: expected a correction label as the grid "
                                    f"writes it, such as 'rs+rw', got {self.corrections!r}")
        if self.estimator is not None and self.estimator not in ESTIMATORS:
            raise InvalidInputError(f"estimator: expected one of {ESTIMATORS} or null, "
                                    f"got {self.estimator!r}")
        if flags.reweight != (self.estimator is not None):
            need = "need an estimator" if flags.reweight else "apply no estimator"
            raise InvalidInputError(f"estimator: corrections {self.corrections!r} {need}, "
                                    f"got {self.estimator!r}")
        for key, bound in _METRIC_BOUNDS.items():
            value = getattr(self, key)
            if value is not None and not 0.0 <= value <= bound:
                raise InvalidInputError(f"{key}: expected a number in [0, {bound:g}], "
                                        f"got {value!r}")
        for key in _MARGINALS:
            marginal = getattr(self, key)
            for i, value in enumerate(marginal or ()):
                if not 0.0 <= value < math.inf:
                    raise InvalidInputError(f"{key}[{i}]: expected a finite, non-negative "
                                            f"number, got {value!r}")
            if marginal is not None and abs(math.fsum(marginal) - 1.0) > SUM_TOLERANCE:
                raise InvalidInputError(f"{key}: expected entries that sum to 1 within "
                                        f"{SUM_TOLERANCE}, got {list(marginal)}")
        if self.wall_time_seconds is not None and not 0.0 <= self.wall_time_seconds < math.inf:
            raise InvalidInputError(f"wall_time_seconds: expected a finite, non-negative "
                                    f"number or null, got {self.wall_time_seconds!r}")
        if (self.true_marginal is not None and self.estimated_marginal is not None
                and len(self.true_marginal) != len(self.estimated_marginal)):
            raise InvalidInputError(f"estimated_marginal: expected {len(self.true_marginal)} "
                                    f"entries, as true_marginal has, got "
                                    f"{len(self.estimated_marginal)}")
        if self.error is not None:
            for key in (*_METRIC_BOUNDS, *_MARGINALS):
                if getattr(self, key) is not None:
                    raise InvalidInputError(f"{key}: expected none in an error record, "
                                            f"got {getattr(self, key)!r}")
        elif self.target_accuracy is None:
            raise InvalidInputError("target_accuracy: expected a number in a record "
                                    "without an error, got None")

    def key(self) -> tuple:
        return _cell_key(**vars(self))

    def to_json_dict(self) -> dict:
        out = {"v": 1}
        # The class's field table: fields() builds a new tuple on each call,
        # and one per record raised the peak memory of long grid runs.
        for f in self.__dataclass_fields__.values():
            value = getattr(self, f.name)
            if value is not None or f.default is MISSING:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_json_dict(cls, payload) -> "RunRecord":
        """The record a results line holds. A value of the wrong type, or a
        record __post_init__ refuses, is a ParseError naming its key."""
        if isinstance(payload, dict) and payload.get("v") != 1:
            raise ParseError(f"unsupported record version {payload.get('v')!r}")
        values = _read_fields(payload, _schema(cls, v=int), "record")
        del values["v"]
        try:
            return cls(**values)
        except InvalidInputError as exc:
            raise ParseError(f"record.{exc}") from None


@dataclass(frozen=True)
class Summary:
    """Aggregated relative-accuracy and marginal-error statistics for one
    (alpha, method, corrections, estimator) group."""

    alpha: float | None
    method: str
    corrections: str
    estimator: str | None
    n: int
    mean_rel_acc: float
    median_rel_acc: float
    q25: float
    q75: float
    mean_l1: float | None
    median_l1: float | None


SUMMARY_HEADER = ",".join(f.name for f in fields(Summary))


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    marginal_l1_error: float | None = None


def evaluate(preds: PredictionMatrix, labels, p_hat_t=None, p_true=None) -> EvalMetrics:
    """Target accuracy (argmax, ties toward the lowest class) plus the l1
    error between estimated and true marginal when both are given."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != preds.n:
        raise DimensionError(
            f"labels have shape {labels.shape}, predictions have {preds.n} rows"
        )
    accuracy = float(np.mean(preds.argmax_labels() == labels))
    l1 = None
    if p_hat_t is not None and p_true is not None:
        l1 = l1_distance(p_hat_t, p_true)
    return EvalMetrics(accuracy=accuracy, marginal_l1_error=l1)


def relative_accuracy(record: RunRecord, baseline: RunRecord) -> float:
    """record.target_accuracy minus the paired uncorrected source_only
    accuracy on the same (task, alpha, seed)."""
    if baseline.method != "source_only" or baseline.corrections != "none":
        raise PairingError(
            f"baseline must be uncorrected source_only, got "
            f"{baseline.method}/{baseline.corrections}"
        )
    mine = (record.task_id, record.alpha, record.seed)
    theirs = (baseline.task_id, baseline.alpha, baseline.seed)
    if mine != theirs:
        raise PairingError(f"record {mine} paired against baseline {theirs}")
    if record.target_accuracy is None or baseline.target_accuracy is None:
        raise PairingError(f"cell {record.key()} has no accuracy (failed run?)")
    return record.target_accuracy - baseline.target_accuracy


def plan_cells(cfg: GridConfig) -> list[Cell]:
    """The full cross product with reweighting entries expanded over the
    configured estimators. Deterministic order; duplicate cells rejected."""
    cells: list[Cell] = []
    seen = set()
    for task in cfg.tasks:
        for alpha in cfg.alphas:
            for seed in cfg.seeds:
                for method in cfg.methods:
                    for flags in cfg.corrections:
                        if flags.reweight:
                            estimators = (
                                (flags.estimator,) if flags.estimator else cfg.estimators
                            )
                            resolved = [replace(flags, estimator=e) for e in estimators]
                        else:
                            resolved = [replace(flags, estimator=None)]
                        for r in resolved:
                            cell = Cell(task, alpha, seed, method, r)
                            if cell.key() in seen:
                                raise InvalidInputError(f"duplicate grid cell {cell.key()}")
                            seen.add(cell.key())
                            cells.append(cell)
    return cells


def _derived_seed(top_seed: int, *labels) -> int:
    return RngStream(top_seed).derive(*labels).stream_id


def load_pools(task: GridTask, jobs: int = 1) -> tuple[LabeledSet, LabeledSet]:
    """Read a dataset task's source and target pools, both at once when
    jobs > 1 and they are large enough for that to pay."""
    source, target = Path(task.data_dir) / "source.csv", Path(task.data_dir) / "target.csv"
    return _read_pair(load_labeled_csv, source, target, _fork_pays(jobs, source, target))


def build_bundle(cfg: GridConfig, task: GridTask, alpha: float | None, seed: int,
                 pools: tuple[LabeledSet, LabeledSet] | None = None):
    """Materialize the task bundle for one (task, alpha, seed) coordinate.
    All methods and corrections at that coordinate share this bundle. A
    dataset task resamples the given pools."""
    shift = ShiftSpec(
        alpha=alpha,
        epsilon=task.epsilon,
        seed=_derived_seed(cfg.seed, "shift", task.name, alpha, seed),
    )
    if task.synth is not None:
        spec = replace(
            task.synth,
            name=task.name,
            seed=_derived_seed(cfg.seed, "bundle", task.name, alpha, seed),
        )
        return synth_relaxed_task(spec, shift)
    if pools is None:
        raise InvalidInputError(f"dataset task {task.name!r} was given no pools")
    source_pool, target_pool = pools
    k = int(max(source_pool.labels.max(), target_pool.labels.max())) + 1
    return apply_shift_protocol(task.name, k, source_pool, target_pool, shift)


def _failed(cell: Cell, exc: Exception, seconds: float) -> RunRecord:
    return RunRecord(**cell.record_fields(), wall_time_seconds=seconds,
                     error=f"{type(exc).__name__}: {exc}")


def run_cell(cfg: GridConfig, cell: Cell) -> RunRecord:
    """Execute one cell on its own, as a grid run would; failures come back
    as records carrying the error string instead of metrics."""
    return next(_run_pools_group(cfg, [[cell]], 1))[0]


def run_coordinate(cfg: GridConfig, cells: list[Cell],
                   pools: tuple[LabeledSet, LabeledSet] | None = None) -> list[RunRecord]:
    """Execute cells that share one (task, alpha, seed) coordinate, in their
    order: build the bundle once, train once per (method, resample), and
    apply each reweighting arm to that model. A dataset task resamples the
    given pools. A failure becomes an error record for every cell it
    touches: the coordinate's at the bundle, the group's at training, one
    cell's at its arm.

    A cell's wall time is its even share of the bundle build, its even share
    of its group's training and predictions, and its own arm, so the cell
    times of a run add up to the run's."""
    first = cells[0]
    started = time.perf_counter()
    try:
        bundle = build_bundle(cfg, first.task, first.alpha, first.seed, pools)
    except Exception as exc:  # the grid must survive any single coordinate
        share = (time.perf_counter() - started) / len(cells)
        return [_failed(cell, exc, share) for cell in cells]
    share = (time.perf_counter() - started) / len(cells)
    groups: dict[tuple, list[Cell]] = {}
    for cell in cells:
        groups.setdefault((cell.method, cell.corrections.resample), []).append(cell)
    records = {}
    for group in groups.values():
        for cell, record in zip(group, _run_group(cfg, bundle, group, share)):
            records[cell.key()] = record
    return [records[cell.key()] for cell in cells]


def _run_group(cfg: GridConfig, bundle, cells: list[Cell], share: float) -> list[RunRecord]:
    """Train the one model that cells of the same (coordinate, method,
    resample) share, then evaluate each cell's reweighting arm on its
    predictions."""
    first = cells[0]
    started = time.perf_counter()
    try:
        train_cfg = replace(
            cfg.train,
            seed=_derived_seed(cfg.seed, "train", first.task.name, first.alpha,
                               first.seed, first.method),
        )
        spec = ModelSpec(cfg.model_kind, input_dim=bundle.d, classes=bundle.k,
                         hidden_units=cfg.hidden_units)
        trained = meta_adapt(first.method, bundle,
                             CorrectionFlags(resample=first.corrections.resample),
                             train_cfg, model_spec=spec, pl=cfg.pseudolabel)
        test, val = bundle.target_test, bundle.source_val
        test_preds = trained.model.predict(test.features)
        val_preds = trained.model.predict(val.features)
        source_val_accuracy = evaluate(val_preds, val.labels).accuracy
        true_marginal = tuple(float(v) for v in bundle.true_target_marginal.probs)
    except Exception as exc:  # the grid must survive any single group
        share += (time.perf_counter() - started) / len(cells)
        return [_failed(cell, exc, share) for cell in cells]
    share += (time.perf_counter() - started) / len(cells)
    records = []
    for cell in cells:
        started = time.perf_counter()
        try:
            result = trained
            if cell.corrections.reweight:
                result = reweight_result(trained, bundle, val_preds, test_preds,
                                         cell.corrections.estimator)
                if result.p_hat_t is None:
                    # Estimation failed and left the model uncorrected.
                    raise LabelShiftError(result.diagnostics[0])
            metrics = evaluate(result.reweighted(test_preds), test.labels,
                               result.p_hat_t, bundle.true_target_marginal)
            records.append(RunRecord(
                **cell.record_fields(),
                target_accuracy=metrics.accuracy,
                source_val_accuracy=source_val_accuracy,
                marginal_l1_error=metrics.marginal_l1_error,
                true_marginal=true_marginal,
                estimated_marginal=(tuple(float(v) for v in result.p_hat_t.probs)
                                    if result.p_hat_t is not None else None),
                wall_time_seconds=share + time.perf_counter() - started,
            ))
        except Exception as exc:  # the grid must survive any single cell
            records.append(_failed(cell, exc, share + time.perf_counter() - started))
    return records


def read_records(path) -> list[RunRecord]:
    """Parse a results file. An unparseable final line without a trailing
    newline is the fragment a killed writer leaves and is skipped; any other
    bad line raises ParseError with its line number."""
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):
                    break
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            try:
                records.append(RunRecord.from_json_dict(payload))
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return records


def _config_document(cfg: GridConfig) -> dict:
    """cfg as CONFIG_FILENAME holds it: every field but output_dir, as JSON
    values."""
    doc = asdict(cfg)
    del doc["output_dir"]
    return json.loads(json.dumps(doc))


def _record_inputs(doc: dict, names) -> dict:
    """What in a config document decides the values of its records: every
    field but the axes, with the tasks named in names keyed by name."""
    inputs = {key: value for key, value in doc.items() if key not in _AXES}
    inputs["tasks"] = {task["name"]: task for task in doc["tasks"] if task["name"] in names}
    return inputs


def _first_difference(old, new, where: str = ""):
    """(dotted path, old value, new value) of the first field where two JSON
    values differ, in new's order, or None when they are equal."""
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = [(old.get(key), new.get(key), f"{where}.{key}" if where else key)
                 for key in {**new, **old}]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(a, b, f"{where}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return None if old == new else (where, old, new)
    return next(filter(None, (_first_difference(a, b, path) for a, b, path in pairs)), None)


def _check_same_records(config_path: Path, stored, current: dict) -> None:
    """Refuse to resume records that another config made. The axes may
    change, and tasks may come and go; a task kept must be the same."""
    if not (isinstance(stored, dict) and isinstance(stored.get("tasks"), list)
            and all(isinstance(task, dict) and "name" in task for task in stored["tasks"])):
        raise ParseError(f"{config_path}: not a grid config document")
    names = ({task["name"] for task in stored["tasks"]}
             & {task["name"] for task in current["tasks"]})
    found = _first_difference(_record_inputs(stored, names), _record_inputs(current, names))
    if found is not None:
        field, old, new = found
        raise InvalidInputError(
            f"{config_path.parent / RESULTS_FILENAME} holds records of another config: "
            f"{field} is {json.dumps(old)} in {config_path}, {json.dumps(new)} now; "
            "use a new output_dir"
        )


def _alpha_order(alpha):
    return (0, 0.0) if alpha is None else (1, -float(alpha))


def _record_order(record: RunRecord):
    task_id, alpha, *rest = record.key()
    return (task_id, _alpha_order(alpha), *rest)


def _pools_key(cells: list[Cell]) -> str | None:
    """The dataset task whose pools a coordinate uses, or None if synthetic."""
    task = cells[0].task
    return None if task.data_dir is None else task.name


def _run_pools_group(cfg: GridConfig, groups: list[list[Cell]], jobs: int):
    """Yield each coordinate's records in order, for coordinates that share
    their pools: a dataset task's, or none for a run of synthetic tasks. A
    dataset task's pools are read here, once; a failed read is the error of
    every cell, each with an even share of the read's time, and no worker
    starts. Workers are forked once the pools are read, so each inherits
    them; without os.fork the coordinates run here."""
    task = groups[0][0].task
    pools = None
    if task.data_dir is not None:
        started = time.perf_counter()
        try:
            pools = load_pools(task, jobs)
        except Exception as exc:  # the grid must survive any single task
            share = (time.perf_counter() - started) / sum(map(len, groups))
            for cells in groups:
                yield [_failed(cell, exc, share) for cell in cells]
            return
    workers = min(jobs, len(groups))
    if workers == 1 or not hasattr(os, "fork"):
        for cells in groups:
            yield run_coordinate(cfg, cells, pools)
        return
    yield from _fork_map(lambda cells: run_coordinate(cfg, cells, pools), groups, workers)


def run_grid(cfg: GridConfig, jobs: int = 1, resume: bool = False) -> list[RunRecord]:
    """Run every planned cell, appending each record to
    output_dir/results.jsonl through a single writer, coordinate by
    coordinate in plan order. With jobs > 1, up to jobs worker processes run
    coordinates: one set of workers per dataset task, and one per run of
    consecutive synthetic tasks, forked once the parent has read the task's
    pools, so the parent holds one task's pools at a time. Without os.fork,
    every coordinate runs in this process. The file order is the same as a
    serial run's.

    With resume=True, cells that already have a successful record are
    skipped and failed cells run again; a torn final line is cut off before
    appending. The result holds one record per planned cell, the latest one
    for a retried cell. Without resume, a nonempty results file is an error so
    runs never silently mix configurations. The config, but for output_dir,
    is kept in output_dir/results_config.json, replaced whole when it
    changes; a resume whose config
    differs from it in anything but the axes (alphas, seeds, methods,
    corrections, estimators), or in a task it keeps, is an error naming the
    first such field. A worker process that dies raises WorkerDiedError
    once the records of every coordinate before its own are written; those
    stay, and resume completes the grid.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")
    cells = plan_cells(cfg)
    out_dir = Path(cfg.output_dir)
    results_path = out_dir / RESULTS_FILENAME
    existing: list[RunRecord] = []
    if results_path.exists() and results_path.stat().st_size > 0:
        if not resume:
            raise InvalidInputError(
                f"{results_path} already contains records; rerun with resume "
                "or remove the file"
            )
        # A record counts once its newline is written; drop a torn tail so
        # the next record cannot fuse with it.
        with open(results_path, "rb+") as fh:
            data = fh.read()
            if not data.endswith(b"\n"):
                fh.truncate(data.rfind(b"\n") + 1)
        existing = read_records(results_path)
    config = _config_document(cfg)
    config_path = out_dir / CONFIG_FILENAME
    stored = None
    if existing and config_path.exists():
        with open(config_path) as fh:
            try:
                stored = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{config_path}:{exc.lineno}: {exc.msg}") from None
        _check_same_records(config_path, stored, config)
        # Keep the tasks this run drops: their records stay in the file.
        names = {task["name"] for task in config["tasks"]}
        config["tasks"] += [task for task in stored["tasks"] if task["name"] not in names]
    planned_keys = {c.key() for c in cells}
    # A retried cell appends after its error record, so the last one wins.
    latest = {r.key(): r for r in existing if r.key() in planned_keys}
    records = [r for r in latest.values() if r.error is None]
    done_keys = {r.key() for r in records}
    coordinates: dict[tuple, list[Cell]] = {}
    for cell in cells:
        if cell.key() not in done_keys:
            coordinates.setdefault((cell.task.name, cell.alpha, cell.seed), []).append(cell)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config != stored:
        # Written whole and then renamed, so a crash never leaves a torn one.
        partial = out_dir / (CONFIG_FILENAME + ".partial")
        partial.write_text(json.dumps(config, indent=2) + "\n")
        os.replace(partial, config_path)
    with open(results_path, "a") as fh:
        # Plan order keeps a task's coordinates together.
        for _, groups in groupby(coordinates.values(), key=_pools_key):
            # Closed however the loop ends, so no worker outlives it.
            with closing(_run_pools_group(cfg, list(groups), jobs)) as batches:
                for batch in batches:
                    for record in batch:
                        fh.write(json.dumps(record.to_json_dict()) + "\n")
                        fh.flush()
                    records.extend(batch)
    return sorted(records, key=_record_order)


def failed_baselines(records) -> list[tuple]:
    """The (task, alpha, seed) coordinates that aggregate leaves out, in
    record order: each holds a successful record, but its uncorrected
    source_only record is an error record, with no successful one beside it."""
    succeeded, paired, failed = set(), set(), {}
    for r in records:
        key = (r.task_id, r.alpha, r.seed)
        baseline = r.method == "source_only" and r.corrections == "none"
        if r.error is None:
            succeeded.add(key)
            if baseline:
                paired.add(key)
        elif baseline:
            failed[key] = None
    return [key for key in failed if key in succeeded and key not in paired]


def aggregate(records) -> list[Summary]:
    """Group successful records by (alpha, method, corrections, estimator)
    and summarize relative accuracy and marginal l1 error against the
    uncorrected source_only record of the same (task, alpha, seed). Quartiles
    use linear interpolation between order statistics. Records that failed
    are skipped, and so is every record of a coordinate whose baseline
    failed (failed_baselines); a baseline that was never run is an error."""
    left_out = set(failed_baselines(records))
    records = [r for r in records
               if r.error is None and (r.task_id, r.alpha, r.seed) not in left_out]
    by_key = {}
    for b in records:
        if b.method != "source_only" or b.corrections != "none":
            continue
        key = (b.task_id, b.alpha, b.seed)
        if key in by_key:
            raise PairingError(f"duplicate baseline for cell {key}")
        by_key[key] = b

    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.alpha, r.method, r.corrections, r.estimator), []).append(r)

    summaries = []
    for group, members in sorted(
        groups.items(),
        key=lambda item: (_alpha_order(item[0][0]), item[0][1], item[0][2],
                          item[0][3] or ""),
    ):
        rel = []
        for r in members:
            baseline = by_key.get((r.task_id, r.alpha, r.seed))
            if baseline is None:
                raise PairingError(
                    f"no uncorrected source_only baseline for cell {r.key()}"
                )
            rel.append(relative_accuracy(r, baseline))
        # Statistics run over sorted values so aggregation is bit-identical
        # under any permutation of the input records.
        rel = np.sort(np.asarray(rel))
        l1 = np.sort(np.asarray([r.marginal_l1_error for r in members
                                 if r.marginal_l1_error is not None]))
        ordered = rel.tolist()
        summaries.append(Summary(
            *group,
            n=len(members),
            mean_rel_acc=float(rel.mean()),
            median_rel_acc=_median(ordered),
            q25=_percentile(ordered, 0.25),
            q75=_percentile(ordered, 0.75),
            mean_l1=float(l1.mean()) if l1.size else None,
            median_l1=_median(l1.tolist()) if l1.size else None,
        ))
    return summaries


# numpy's median and percentile functions give the same values, but the first
# call of either in a process imports numpy.ma (about 6 ms), and each call
# costs some 20 us.


def _median(ordered: list[float]) -> float:
    """numpy's median of sorted values, bit for bit: the mean of the middle value
    or two, summed from 0.0 as np.mean sums (so -0.0 becomes 0.0); nan where
    there is a nan (np.sort puts it last)."""
    if math.isnan(ordered[-1]):
        return ordered[-1]
    half = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[half]
    return (0.0 + ordered[half - 1] + ordered[half]) / 2


def _percentile(ordered: list[float], q: float) -> float:
    """numpy's percentile 100 * q of sorted values, bit for bit: its default
    linear interpolation between the values around index (n - 1) * q, taken
    from the upper value when the fraction t is 0.5 or more; nan where there
    is a nan."""
    if math.isnan(ordered[-1]):
        return ordered[-1]
    index = (len(ordered) - 1) * q
    # From index n - 1 on, numpy takes the last value twice, as index -1.
    low = math.floor(index) if index < len(ordered) - 1 else -1
    a, b = ordered[low], ordered[low + 1 if low >= 0 else -1]
    t, d = index - low, b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def write_summary_csv(path, summaries) -> None:
    """CSV with one column per Summary field, in order; alpha None prints as
    "none", and any other None (no estimator, no l1 statistics) as an empty
    cell. Floats print as their repr."""
    with open(path, "w", newline="") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        writer = csv.writer(fh)
        for s in summaries:
            row = {f.name: getattr(s, f.name) for f in fields(s)}
            row["alpha"] = "none" if s.alpha is None else s.alpha
            writer.writerow("" if value is None else value for value in row.values())


# ---------------------------------------------------------------------------
# Prediction dumps: the exchange format for externally produced classifier
# outputs. shift._PREDICTION_DUMP owns the format; it writes and reads them.


def write_predictions(path, preds: PredictionMatrix, labels=None) -> None:
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (preds.n,):
            raise DimensionError(
                f"labels have shape {labels.shape}, predictions have {preds.n} rows"
            )
    _PREDICTION_DUMP.write(path, preds.values, labels)


def ingest_predictions(path, normalize: bool = False):
    """Parse a prediction dump into (PredictionMatrix, labels or None).

    Row sums within 1e-3 of 1 are silently renormalized; larger deviations
    are an error unless normalize is set. Every error names its line; see
    shift._NumericCsv.
    """
    return _PREDICTION_DUMP.read(path, normalize)
