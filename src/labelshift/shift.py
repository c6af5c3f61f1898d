"""Shift simulation and task construction.

Implements the benchmark protocol: draw a target label marginal from a
Dirichlet around the pool's base marginal (smaller alpha = more severe
shift), subsample the target pool to realize that marginal exactly (up to
rounding), and split both domains into train/holdout parts. The synthetic
generator produces Gaussian class-conditional tasks where the conditional
shift between domains is a per-class translation of norm epsilon, which
bounds the per-class Wasserstein-infinity distance by exactly epsilon
(epsilon = 0 is pure label shift).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass
from functools import partialmethod, reduce
from pathlib import Path

import numpy as np

from labelshift.core import (
    DegenerateEstimateError,
    DimensionError,
    EmptyInputError,
    InfeasibleMarginalError,
    InvalidInputError,
    LabelMarginal,
    LabeledSet,
    LabelShiftError,
    ParseError,
    PredictionMatrix,
    RngStream,
    _read_fields,
    _schema,
    _sealed,
)

# Fraction of each domain held out for validation / final evaluation.
HOLDOUT_FRACTION = 0.2


@dataclass(frozen=True)
class ShiftSpec:
    """One marginal-shift scenario: Dirichlet concentration, conditional-shift
    budget, and the seed that makes the draw reproducible.

    alpha=None means no external marginal shift (the base marginal is kept).
    """

    alpha: float | None
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.alpha is not None and not (np.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidInputError(f"alpha must be positive or None, got {self.alpha!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidInputError(f"epsilon must be a nonnegative float, got {self.epsilon!r}")


@dataclass(frozen=True)
class SynthTaskSpec:
    """Gaussian-blob task: k unit-covariance classes in d >= k dimensions with
    means on scaled one-hot vertices (pairwise distance class_separation)."""

    name: str
    k: int
    d: int
    n_source: int
    n_target: int
    class_separation: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise InvalidInputError(f"need k >= 2 classes, got {self.k}")
        if self.d < self.k:
            raise InvalidInputError(
                f"the vertex layout needs d >= k, got d={self.d} < k={self.k}"
            )
        if self.n_source < 2 or self.n_target < 2:
            raise InvalidInputError("need at least 2 source and 2 target examples")
        if not (np.isfinite(self.class_separation) and self.class_separation > 0):
            raise InvalidInputError("class_separation must be positive")


def _check_provenance(name: str, alpha, epsilon) -> None:
    """Refuse what no task is made with: an empty name, or an alpha or
    epsilon ShiftSpec refuses (with ShiftSpec's message)."""
    if not name:
        raise InvalidInputError("task name must be nonempty")
    ShiftSpec(alpha, epsilon)


# A bundle's labeled splits; a bundle directory stores each as <split>.csv.
_SPLITS = ("source_train", "source_val", "target_train", "target_test")


@dataclass(frozen=True, eq=False)
class TaskBundle:
    """A fully materialized benchmark task: four labeled splits plus the
    realized target marginal and the provenance scalars that generated them.

    The recorded marginal must match the empirical marginal of
    target_train + target_test to within 1/n per class.
    """

    name: str
    k: int
    d: int
    alpha: float | None
    epsilon: float
    seed: int
    source_train: LabeledSet
    source_val: LabeledSet
    target_train: LabeledSet
    target_test: LabeledSet
    true_target_marginal: LabelMarginal

    def __post_init__(self):
        _check_provenance(self.name, self.alpha, self.epsilon)
        for label in _SPLITS:
            ds = getattr(self, label)
            if ds.d != self.d:
                raise DimensionError(f"{label} has d={ds.d}, manifest says {self.d}")
            if ds.labels.max() >= self.k:
                raise InvalidInputError(f"{label} contains labels >= k={self.k}")
        if self.true_target_marginal.k != self.k:
            raise DimensionError("true_target_marginal does not match k")
        combined = np.concatenate([self.target_train.labels, self.target_test.labels])
        empirical = np.bincount(combined, minlength=self.k) / combined.size
        dev = np.abs(empirical - self.true_target_marginal.probs).max()
        if dev > 1.0 / combined.size + 1e-9:
            raise InvalidInputError(
                f"recorded target marginal deviates from the data by {dev:.3g} per class"
            )


def dirichlet_marginal(p_t0: LabelMarginal, spec: ShiftSpec) -> LabelMarginal:
    """One draw p ~ Dirichlet(alpha * p_t0), via normalized Gamma variables.

    alpha=None returns p_t0 unchanged; classes with zero base mass stay zero.
    Deterministic in spec.seed.
    """
    if spec.alpha is None:
        return p_t0
    beta = spec.alpha * p_t0.probs
    positive = beta > 0
    gen = RngStream(spec.seed).derive("dirichlet").generator()
    for _ in range(100):
        draws = np.zeros(p_t0.k)
        draws[positive] = gen.standard_gamma(beta[positive])
        total = draws.sum()
        if total > 0:
            return LabelMarginal(draws / total)
    raise DegenerateEstimateError("Dirichlet draw underflowed to zero mass repeatedly")


def _largest_remainder(n: int, target: np.ndarray) -> np.ndarray:
    raw = n * target
    counts = np.floor(raw).astype(np.int64)
    shortfall = int(n - counts.sum())
    if shortfall > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def realize_marginal(pool_labels, target: LabelMarginal, stream: RngStream) -> np.ndarray:
    """Select the largest subsample whose label proportions hit the target.

    Finds the largest N whose largest-remainder allocation round(N * target_y)
    fits within the pool's per-class counts, then draws that many indices per
    class without replacement. The realized marginal is within 1/N of the
    target per class. Returns sorted pool indices.
    """
    labels = np.asarray(pool_labels)
    if labels.size == 0:
        raise EmptyInputError("pool is empty")
    k = target.k
    if labels.min() < 0 or labels.max() >= k:
        raise InvalidInputError(f"pool labels must lie in [0, {k})")
    counts = np.bincount(labels, minlength=k)
    t = target.probs
    missing = np.nonzero((t > 0) & (counts == 0))[0]
    if missing.size:
        raise InfeasibleMarginalError(
            f"target marginal needs classes {missing.tolist()} absent from the pool"
        )

    need = t > 0
    cap = int(np.floor(((counts[need] + 1) / t[need]).min()))
    allocation = None
    for n in range(min(cap, int(labels.size)), 0, -1):
        candidate = _largest_remainder(n, t)
        if np.all(candidate <= counts):
            allocation = candidate
            break
    if allocation is None:
        raise InfeasibleMarginalError("no feasible subsample size")

    gen = stream.generator()
    chosen = []
    for y in range(k):
        if allocation[y] == 0:
            continue
        pool_y = np.nonzero(labels == y)[0]
        chosen.append(gen.choice(pool_y, size=int(allocation[y]), replace=False))
    return np.sort(np.concatenate(chosen))


def split_holdout(n: int, fraction: float, stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Random disjoint (train, holdout) index split with round(fraction * n)
    holdout rows, clamped so both sides keep at least one row."""
    if n < 2:
        raise InvalidInputError(f"need n >= 2 to split, got {n}")
    if not (0.0 < fraction < 1.0):
        raise InvalidInputError(f"fraction must lie in (0, 1), got {fraction!r}")
    n_hold = int(np.floor(fraction * n + 0.5))
    n_hold = max(1, min(n_hold, n - 1))
    perm = stream.generator().permutation(n)
    return np.sort(perm[n_hold:]), np.sort(perm[:n_hold])


def class_means(task: SynthTaskSpec) -> np.ndarray:
    """(k, d) class means: one-hot vertices scaled so pairwise distances equal
    class_separation exactly."""
    means = np.zeros((task.k, task.d))
    means[np.arange(task.k), np.arange(task.k)] = task.class_separation / np.sqrt(2.0)
    return means


def conditional_shift_deltas(task: SynthTaskSpec, epsilon: float) -> np.ndarray:
    """Per-class translation vectors of norm epsilon in seeded random directions."""
    if epsilon == 0.0:
        return np.zeros((task.k, task.d))
    gen = RngStream(task.seed).derive("delta").generator()
    raw = gen.standard_normal((task.k, task.d))
    return epsilon * raw / np.linalg.norm(raw, axis=1, keepdims=True)


def bayes_predictions(features, means: np.ndarray, marginal: LabelMarginal) -> PredictionMatrix:
    """Exact posterior for unit-covariance Gaussian classes under a marginal.

    This is the calibrated reference classifier for synthetic tasks; pass
    means + deltas to score against the shifted target conditionals.
    """
    x = np.asarray(features, dtype=np.float64)
    logp = np.where(marginal.probs > 0, np.log(np.maximum(marginal.probs, 1e-300)), -np.inf)
    sq = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    scores = logp[None, :] - 0.5 * sq
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    return PredictionMatrix(exp / exp.sum(axis=1, keepdims=True))


def apply_shift_protocol(
    name: str,
    k: int,
    source_pool: LabeledSet,
    target_pool: LabeledSet,
    shift: ShiftSpec,
    p_t0: LabelMarginal | None = None,
) -> TaskBundle:
    """Turn a fixed pair of pools into a benchmark task under one shift draw.

    Draws the target marginal around p_t0 (default: the target pool's
    empirical marginal), zeroes classes the pool cannot supply, realizes the
    draw by subsampling, and splits both domains 80/20. For non-synthetic
    pools shift.epsilon is recorded as metadata; the actual conditional shift
    is whatever the data carries.
    """
    if source_pool.d != target_pool.d:
        raise DimensionError(
            f"source pool has d={source_pool.d}, target pool d={target_pool.d}"
        )
    if p_t0 is None:
        p_t0 = LabelMarginal.from_labels(target_pool.labels, k)
    p_t = dirichlet_marginal(p_t0, shift)

    # A draw can ask for classes the pool never produced; drop them and
    # renormalize. The recorded truth is the realized empirical marginal.
    counts = np.bincount(target_pool.labels, minlength=k)
    mass = np.where(counts > 0, p_t.probs, 0.0)
    if mass.sum() <= 0:
        raise InfeasibleMarginalError("drawn marginal has no mass on populated classes")
    p_t = LabelMarginal(mass / mass.sum())

    base = RngStream(shift.seed)
    # Pool indices of the realized target; its splits are gathered from the
    # pool directly, without an intermediate copy of the realized rows.
    realized = realize_marginal(target_pool.labels, p_t, base.derive("realize"))

    src_train_idx, src_val_idx = split_holdout(
        source_pool.n, HOLDOUT_FRACTION, base.derive("split_source")
    )
    tgt_train_idx, tgt_test_idx = split_holdout(
        realized.size, HOLDOUT_FRACTION, base.derive("split_target")
    )
    return TaskBundle(
        name=name,
        k=k,
        d=source_pool.d,
        alpha=shift.alpha,
        epsilon=shift.epsilon,
        seed=shift.seed,
        source_train=source_pool.subset(src_train_idx),
        source_val=source_pool.subset(src_val_idx),
        target_train=target_pool.subset(realized[tgt_train_idx]),
        target_test=target_pool.subset(realized[tgt_test_idx]),
        true_target_marginal=LabelMarginal.from_labels(target_pool.labels[realized], k),
    )


def synth_relaxed_task(task: SynthTaskSpec, shift: ShiftSpec) -> TaskBundle:
    """Generate a synthetic relaxed-label-shift task.

    Source labels are uniform; target pool labels are drawn from the
    Dirichlet marginal around uniform and then realized exactly. Target
    class-conditionals are the source Gaussians translated by norm-epsilon
    deltas in seeded random directions.
    """
    means = class_means(task)
    deltas = conditional_shift_deltas(task, shift.epsilon)
    base = RngStream(task.seed)

    # Each pool is its noise with the class means added in place: addition
    # commutes and a gather commutes with it, so these are the bits of
    # means[y] + noise and of means[y] + deltas[y] + noise.
    g_src = base.derive("source").generator()
    src_labels = g_src.integers(0, task.k, size=task.n_source)
    src_x = g_src.standard_normal((task.n_source, task.d))
    src_x += means[src_labels]
    source_pool = LabeledSet(_sealed(src_x), _sealed(src_labels))

    p_t = dirichlet_marginal(LabelMarginal.uniform(task.k), shift)
    g_tgt = base.derive("target").generator()
    tgt_labels = g_tgt.choice(task.k, size=task.n_target, p=p_t.probs)
    tgt_x = g_tgt.standard_normal((task.n_target, task.d))
    tgt_x += (means + deltas)[tgt_labels]
    target_pool = LabeledSet(_sealed(tgt_x), _sealed(tgt_labels))

    return apply_shift_protocol(
        task.name, task.k, source_pool, target_pool, shift,
        p_t0=LabelMarginal.uniform(task.k),
    )


# ---------------------------------------------------------------------------
# Persistence: numeric CSV tables and bundle directories. One _NumericCsv per
# kind of table (labeled CSVs, prediction dumps) writes that kind and reads it.

# The TaskBundle fields manifest.json holds, in the order it writes them.
_MANIFEST_KEYS = ("name", "k", "d", "alpha", "epsilon", "seed", "true_target_marginal")


def save_labeled_csv(path, data: LabeledSet) -> None:
    """Write a labeled set as CSV with header f0,...,f{d-1},y; floats use the
    shortest exact representation so round-trips are lossless."""
    _LABELED_CSV.write(path, data.features, data.labels)


def _loadtxt_rejects_float_ints() -> bool:
    """Whether loadtxt refuses "3.0" in an integer column, as int() does;
    where it casts it, labeled bodies skip the fast pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            np.loadtxt(["3.0"], dtype=np.int64)
        except ValueError:
            return True
    return False


_LOADTXT_STRICT_INTS = _loadtxt_rejects_float_ints()


class _NumericCsv:
    """One kind of numeric CSV table: value columns prefix0, prefix1, ... and
    an optional label column y. columns(path, header) checks the header and
    returns (width, labeled). row(values, label, *options) parses one row's
    fields (label is None without a y column), or raises ValueError with its
    first fault's message. finish(values, labels, *options) makes the result
    from read-only columns, and raises ValueError or LabelShiftError wherever
    row would. skip_blank skips blank lines, else each is a row of 0 fields."""

    def __init__(self, prefix: str, columns, row, finish, skip_blank: bool):
        self.prefix, self.columns, self.row, self.finish = prefix, columns, row, finish
        self.skip_blank = skip_blank

    def write(self, path, values: np.ndarray, labels: np.ndarray | None = None) -> None:
        """The header this kind reads, then per row the repr of each float and
        int of its label. Lines end in CRLF, as csv.writer ends them."""
        header = [f"{self.prefix}{j}" for j in range(values.shape[1])]
        rows = (",".join(map(repr, row.tolist())) for row in values)
        if labels is not None:
            header.append("y")
            rows = (f"{row},{int(y)}" for row, y in zip(rows, labels.tolist()))
        with open(path, "w", newline="") as fh:
            fh.writelines(line + "\r\n" for line in itertools.chain([",".join(header)], rows))

    def read(self, path, *options):
        """The fast pass's result, or the line parser's where the fast pass fails."""
        try:
            return self.fast(path, *options)
        except (OSError, ValueError, LabelShiftError):
            return self.lines(path, *options)

    def _read(self, fast: bool, path, *options):
        path = Path(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            parsed = []
            try:
                header = next(reader, None)
                if header is None:
                    raise ParseError(f"{path}: empty file")
                width, labeled = self.columns(path, header)
                if fast:
                    return self.finish(*_loadtxt_rows(fh, width, labeled, self.skip_blank),
                                       *options)
                for lineno, fields in enumerate(reader, start=2):
                    if not fields and self.skip_blank:
                        continue
                    try:
                        if len(fields) != len(header):
                            raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
                        parsed.append(self.row(fields[:width], fields[width] if labeled else None,
                                               *options))
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: {exc}") from None
            except (csv.Error, UnicodeDecodeError) as exc:
                # A decoding fault is in a block of the file, not at a line.
                line = "" if isinstance(exc, UnicodeDecodeError) else f":{reader.line_num}"
                raise ParseError(f"{path}{line}: {exc}") from None
        if not parsed:
            raise ParseError(f"{path}: no data rows")
        rows, labels = zip(*parsed)
        labels = _sealed(np.array(labels, dtype=np.int64)) if labeled else None
        return self.finish(_sealed(np.array(rows, dtype=np.float64)), labels, *options)

    # The np.loadtxt pass, which raises ValueError where a row would fail, and
    # the line parser, which gives the same values and owns every message.
    fast = partialmethod(_read, True)
    lines = partialmethod(_read, False)


def _loadtxt_rows(fh, width: int, labeled: bool, skip_blank: bool):
    """The rest of an open CSV in one np.loadtxt pass: a C-contiguous (n,
    width) float64 array and, when labeled, the trailing column as int64
    (else None), both read-only so that a LabeledSet adopts them without a
    copy. Raises ValueError for any body it may not read exactly as
    csv.reader with float()/int() would. numpy gets the lines the file
    iterator splits, as csv.reader does, and fails on quoted fields,
    whitespace-only lines, "#" and literals such as 1_0.5. Empty lines are
    skipped when skip_blank is set, else they defer."""
    def nonempty_lines():
        for line in fh:
            if line in ("\n", "\r\n", "\r"):  # csv.reader yields [] for these
                if not skip_blank:
                    raise ValueError("blank line")
                continue
            yield line

    lines = nonempty_lines()
    first = next(lines, None)
    if first is None:
        # Checked here because loadtxt would warn "input contained no data".
        raise ValueError("no data rows")
    if labeled and not _LOADTXT_STRICT_INTS:
        raise ValueError("this numpy casts float fields into integer columns")
    fields = [("v", np.float64, (width,))] + ([("y", np.int64)] if labeled else [])
    table = np.loadtxt(itertools.chain([first], lines), dtype=fields, delimiter=",",
                       comments=None, ndmin=1)
    labels = _sealed(np.ascontiguousarray(table["y"])) if labeled else None
    return _sealed(np.ascontiguousarray(table["v"])), labels


def _labeled_columns(path, header: list[str]) -> tuple[int, bool]:
    """Check a labeled CSV header; its feature count d, and True for y."""
    if len(header) < 2 or header[-1] != "y":
        raise ParseError(f"{path}: header must be f0,...,f{{d-1}},y")
    for j, col in enumerate(header[:-1]):
        if col != f"f{j}":
            raise ParseError(f"{path}: feature column {j} is named {col!r}, expected f{j}")
    return len(header) - 1, True


def _labeled_row(features: list[str], label: str):
    features = [float(v) for v in features]
    label = int(label)
    if not all(map(math.isfinite, features)):
        raise ValueError("non-finite feature")
    if not -2**63 <= label < 2**63:
        raise ValueError("label out of range")
    if label < 0:
        raise ValueError("negative label")
    return features, label


# LabeledSet refuses a non-finite feature or a negative label.
_LABELED_CSV = _NumericCsv("f", _labeled_columns, _labeled_row, LabeledSet, skip_blank=False)


def _dump_columns(path, header: list[str]) -> tuple[int, bool]:
    """Check a dump header and return (k, whether it has a y column)."""
    has_labels = bool(header) and header[-1] == "y"
    prob_cols = header[:-1] if has_labels else header
    if len(prob_cols) < 2 or prob_cols != [f"p{j}" for j in range(len(prob_cols))]:
        raise ParseError(f"{path}:1: header must be p0,...,p{{k-1}} with optional trailing y")
    return len(prob_cols), has_labels


def _dump_row(probs: list[str], label: str | None, normalize: bool):
    try:
        probs = [float(v) for v in probs]
    except ValueError:
        raise ValueError("non-numeric probability") from None
    if not all(map(math.isfinite, probs)):
        raise ValueError("non-finite probability")
    if any(p < 0 for p in probs):
        raise ValueError("negative probability")
    # An explicit left-to-right sum: from Python 3.12 on, sum() of floats is
    # compensated and would normalize rows differently.
    total = reduce(operator.add, probs)
    if not math.isfinite(total):
        raise ValueError("probabilities sum to inf")
    if total <= 0:
        raise ValueError("probabilities sum to zero")
    if abs(total - 1.0) > 1e-3 and not normalize:
        raise ValueError(f"probabilities sum to {total!r}; rerun with normalization "
                         "enabled to accept")
    if label is not None:
        try:
            label = int(label)
        except ValueError:
            raise ValueError("non-integer label") from None
        if label < 0:
            raise ValueError("negative label")
        if label >= 2**63:
            raise ValueError("label out of range")
    return probs, label


def _dump_finish(probs: np.ndarray, labels, normalize: bool):
    """Each row divided by its left-to-right sum, as _dump_row sums it. A sum
    that overflows defers to _dump_row, which names its line."""
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        raise ValueError("non-finite or negative probability")
    with np.errstate(over="ignore"):
        total = reduce(operator.add, probs.T)
    if not np.all((0 < total) & (total < np.inf)) or (
            not normalize and np.any(np.abs(total - 1.0) > 1e-3)):
        raise ValueError("row sum out of range")
    if labels is not None and np.any(labels < 0):
        raise ValueError("negative label")
    return PredictionMatrix(probs / total[:, None]), labels


_PREDICTION_DUMP = _NumericCsv("p", _dump_columns, _dump_row, _dump_finish, skip_blank=True)


def load_labeled_csv(path) -> LabeledSet:
    """Read a labeled CSV with header f0,...,f{d-1},y. Every error names its
    line; see _NumericCsv."""
    return _LABELED_CSV.read(path)


def save_bundle(bundle: TaskBundle, directory) -> None:
    """Persist a bundle as four CSVs plus manifest.json in a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for split in _SPLITS:
        save_labeled_csv(directory / f"{split}.csv", getattr(bundle, split))
    manifest = {key: getattr(bundle, key) for key in _MANIFEST_KEYS}
    manifest["true_target_marginal"] = bundle.true_target_marginal.probs.tolist()
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_bundle(directory) -> TaskBundle:
    """Read a bundle directory. Each manifest key is cast to the type of its
    TaskBundle field (true_target_marginal first to a list of floats); a bad,
    unknown or missing key, or a name, alpha or epsilon that no task is made
    with, is a ParseError naming the manifest and the key."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise ParseError(f"{manifest_path}: missing manifest")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{manifest_path}: {exc}") from None
    where = f"{manifest_path}: manifest"
    schema = _schema(TaskBundle, _MANIFEST_KEYS, true_target_marginal=tuple[float, ...])
    values = _read_fields(manifest, schema, where)
    try:
        _check_provenance(values["name"], values["alpha"], values["epsilon"])
    except InvalidInputError as exc:
        raise ParseError(f"{where}: {exc}") from None
    try:
        values["true_target_marginal"] = LabelMarginal(values["true_target_marginal"])
    except LabelShiftError as exc:
        raise ParseError(f"{where}.true_target_marginal: {exc}") from None
    sets = {split: load_labeled_csv(directory / f"{split}.csv") for split in _SPLITS}
    try:
        return TaskBundle(**values, **sets)
    except (InvalidInputError, DimensionError) as exc:
        raise ParseError(f"{directory}: inconsistent bundle: {exc}") from None
