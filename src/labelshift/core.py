"""Core types, errors, deterministic RNG streams, and simplex utilities.

Everything downstream (estimators, shift simulation, training, the benchmark
harness) builds on the validated containers and the counter-based RNG defined
here. Arrays stored in the containers are float64 and read-only. A container
adopts an array that nothing else can write (read-only, owning its data), as
the package hands over the arrays it has just made, and copies any other.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import types
import typing
from dataclasses import dataclass

import numpy as np

# Tolerance used when validating that probability mass sums to 1. Vectors are
# renormalized to an exact sum after passing this check.
SUM_TOLERANCE = 1e-6


class LabelShiftError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LabelShiftError):
    """Input contains non-finite, negative, or otherwise out-of-range values."""


class DimensionError(LabelShiftError):
    """Shapes of related inputs do not line up."""


class EmptyInputError(LabelShiftError):
    """An operation received zero rows where at least one is required."""


class DegenerateEstimateError(LabelShiftError):
    """An estimate collapsed to zero mass everywhere and cannot be normalized."""


class InfeasibleMarginalError(LabelShiftError):
    """A requested label marginal cannot be realized from the available pool."""


class ParseError(LabelShiftError):
    """A file being ingested violates its documented format."""


class PairingError(LabelShiftError):
    """Two records being compared do not belong to the same benchmark cell."""


class DivergedError(LabelShiftError):
    """An iterative routine produced non-finite values."""


class WorkerDiedError(LabelShiftError):
    """A worker process ended without sending back the result of its work."""


def _as_float_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


def _sealed(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only; for arrays the package has just made."""
    arr.setflags(write=False)
    return arr


def _freeze(arr, dtype=np.float64) -> np.ndarray:
    """A read-only array of arr's values: arr itself when nothing else can
    write to it (a read-only array of the dtype that owns its data), else a
    copy."""
    out = np.asarray(arr, dtype=dtype)
    if out.flags.writeable or not out.flags.owndata:
        out = _sealed(np.array(out, copy=True))
    return out


@dataclass(frozen=True, eq=False)
class LabelMarginal:
    """A probability vector over k >= 2 classes.

    Entries must be nonnegative and sum to 1 within SUM_TOLERANCE; the stored
    vector is renormalized to an exact unit sum.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = _as_float_vector(self.probs, "probs")
        if p.size < 2:
            raise DimensionError(f"a label marginal needs k >= 2 classes, got {p.size}")
        if np.any(p < 0):
            raise InvalidInputError("marginal entries must be nonnegative")
        total = float(p.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidInputError(f"marginal sums to {total!r}, expected 1 within {SUM_TOLERANCE}")
        object.__setattr__(self, "probs", _sealed(p / total))

    @property
    def k(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, k: int) -> "LabelMarginal":
        return cls(np.full(k, 1.0 / k))

    @classmethod
    def from_labels(cls, labels, k: int) -> "LabelMarginal":
        """Empirical marginal of an integer label vector over k classes."""
        labels = np.asarray(labels)
        if labels.size == 0:
            raise EmptyInputError("cannot take the empirical marginal of zero labels")
        if labels.min() < 0 or labels.max() >= k:
            raise InvalidInputError(f"labels must lie in [0, {k})")
        counts = np.bincount(labels, minlength=k).astype(np.float64)
        return cls(counts / counts.sum())


@dataclass(frozen=True, eq=False)
class ImportanceWeights:
    """Per-class importance ratios w(y) = p_t(y) / p_s(y) against a reference marginal.

    Feasible weights satisfy w >= 0 and sum_y w(y) * reference(y) = 1 within
    SUM_TOLERANCE.
    """

    weights: np.ndarray
    reference: LabelMarginal

    def __post_init__(self):
        w = _as_float_vector(self.weights, "weights")
        if w.size != self.reference.k:
            raise DimensionError(
                f"got {w.size} weights for a {self.reference.k}-class reference marginal"
            )
        if np.any(w < 0):
            raise InvalidInputError("importance weights must be nonnegative")
        mass = float(w @ self.reference.probs)
        if abs(mass - 1.0) > SUM_TOLERANCE:
            raise InvalidInputError(
                f"weights are infeasible: sum_y w(y) p_s(y) = {mass!r}, expected 1"
            )
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def k(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class PredictionMatrix:
    """Row-stochastic (n, k) matrix of predicted class probabilities.

    Rows must be nonnegative and sum to 1 within SUM_TOLERANCE; each row is
    renormalized to an exact unit sum. The renormalized rows are a new array,
    which the matrix keeps read-only; the given array is never stored.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DimensionError(f"predictions must be 2-dimensional, got shape {v.shape}")
        if v.shape[0] < 1:
            raise EmptyInputError("prediction matrix has no rows")
        if v.shape[1] < 2:
            raise DimensionError(f"predictions need k >= 2 columns, got {v.shape[1]}")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("predictions contain non-finite values")
        if np.any(v < 0):
            raise InvalidInputError("predicted probabilities must be nonnegative")
        sums = v.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > SUM_TOLERANCE)[0]
        if bad.size:
            raise InvalidInputError(
                f"prediction row {bad[0]} sums to {sums[bad[0]]!r}, expected 1 within {SUM_TOLERANCE}"
            )
        object.__setattr__(self, "values", _sealed(v / sums[:, None]))

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def k(self) -> int:
        return int(self.values.shape[1])

    def argmax_labels(self) -> np.ndarray:
        """Hard labels; ties break toward the lowest class index."""
        return np.argmax(self.values, axis=1)


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """An (n, d) float feature matrix paired with n integer labels.

    Both are stored read-only. A float64 feature array or int64 label array
    that is read-only and owns its data is adopted as it is, since nothing
    can write to it; any other array, such as a caller's writeable one, is
    copied. subset and the package's readers and generators hand over the
    arrays they make this way, so a set is built with one copy of its rows.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        if x.ndim != 2:
            raise DimensionError(f"features must be 2-dimensional, got shape {x.shape}")
        if x.shape[0] < 1:
            raise EmptyInputError("labeled set has no examples")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("features contain non-finite values")
        if y.ndim != 1:
            raise DimensionError(f"labels must be 1-dimensional, got shape {y.shape}")
        if y.shape[0] != x.shape[0]:
            raise DimensionError(f"{x.shape[0]} feature rows but {y.shape[0]} labels")
        if not np.issubdtype(y.dtype, np.integer):
            if not np.all(y == np.floor(y)):
                raise InvalidInputError("labels must be integers")
            y = y.astype(np.int64)
        if np.any(y < 0):
            raise InvalidInputError("labels must be nonnegative")
        object.__setattr__(self, "features", _freeze(x))
        object.__setattr__(self, "labels", _freeze(y, np.int64))

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices) -> "LabeledSet":
        """The rows at indices, gathered once and adopted."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledSet(_sealed(self.features[idx]), _sealed(self.labels[idx]))


@dataclass(frozen=True, eq=False)
class SoftConfusion:
    """Joint matrix C[i, j] = (1/n) sum_x f_i(x) 1{y(x) = j}.

    Column j sums to the empirical source frequency of class j, so the whole
    matrix sums to 1. zero_classes lists classes with no support (all-zero
    columns), which downstream solvers treat as unidentifiable.
    """

    matrix: np.ndarray
    zero_classes: tuple[int, ...] = ()

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"confusion matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise DimensionError("confusion matrix needs k >= 2 classes")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("confusion matrix contains non-finite values")
        if np.any(m < 0):
            raise InvalidInputError("confusion matrix entries must be nonnegative")
        total = float(m.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise InvalidInputError(f"confusion matrix sums to {total!r}, expected 1")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "zero_classes", tuple(int(j) for j in self.zero_classes))

    @property
    def k(self) -> int:
        return int(self.matrix.shape[0])

    def column_sums(self) -> np.ndarray:
        """Empirical source label marginal implied by the matrix."""
        return self.matrix.sum(axis=0)


def _jsonable(label):
    if isinstance(label, np.integer):
        return int(label)
    if isinstance(label, np.floating):
        return float(label)
    if label is None or isinstance(label, (bool, int, float, str)):
        return label
    raise InvalidInputError(f"stream labels must be JSON scalars, got {type(label).__name__}")


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream addressed by (seed, stream_id).

    Streams with equal keys produce identical draw sequences on every platform
    and under any scheduling; generator() always starts from the beginning of
    the stream. derive() hashes labels into a child stream id, so independent
    purposes ("init", "shuffle", ...) never share draws.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % 2**64, self.stream_id % 2**64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def derive(self, *labels) -> "RngStream":
        payload = json.dumps(
            [self.stream_id % 2**64, *[_jsonable(x) for x in labels]],
            separators=(",", ":"),
        ).encode()
        child = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
        return RngStream(self.seed, child)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of a finite vector onto the probability simplex.

    Sort-based O(k log k) form: with u the descending sort of v and
    theta_j = (cumsum(u)_j - 1) / j, the active threshold is theta at the
    largest j with u_j > theta_j, and the projection is max(v - theta, 0).
    """
    v = _as_float_vector(v, "v")
    if v.size == 0:
        raise EmptyInputError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    thresholds = (np.cumsum(u) - 1.0) / np.arange(1, v.size + 1)
    rho = np.nonzero(u > thresholds)[0][-1]
    return np.clip(v - thresholds[rho], 0.0, None)


def l1_distance(p, q) -> float:
    """Sum of absolute coordinate differences between two equal-length vectors."""
    p = _as_float_vector(getattr(p, "probs", p), "p")
    q = _as_float_vector(getattr(q, "probs", q), "q")
    if p.size != q.size:
        raise DimensionError(f"length mismatch: {p.size} vs {q.size}")
    return float(np.abs(p - q).sum())


# ---------------------------------------------------------------------------
# Work in forked children: reading two input files at once, and grid workers.
# os.fork, not the standard library's process pools: importing them costs a
# one-shot command about 6 ms, and a spawned child would import numpy again.
# A child sends its results with _send and leaves by os._exit, with status 0
# only once all it sends is written.


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Below this many bytes in all, two files are read as fast in turn as with a
# fork: a one-shot `labelshift estimate` on 2 CPUs breaks even at about 0.8 MB.
_FORK_MIN_BYTES = 1 << 20


def _fork_pays(processes: int, *paths) -> bool:
    """Whether to read paths at once: processes is 2 or more and the files
    hold _FORK_MIN_BYTES or more. A file that cannot be stat'ed is left to
    the serial read, which reports it."""
    if processes < 2:
        return False
    try:
        return sum(os.stat(path).st_size for path in paths) >= _FORK_MIN_BYTES
    except OSError:
        return False


def _send(pipe, message) -> None:
    """Write message to a binary pipe file: its length in 8 bytes, then its
    pickle. Protocol 5 sends arrays bit for bit, and read-only when they are
    read-only (an older protocol makes them writeable)."""
    data = pickle.dumps(message, protocol=5)
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe):
    """The next message _send wrote to a pipe file, or None where the pipe
    ends before a whole message."""
    header = pipe.read(8)
    if len(header) < 8:
        return None
    size = int.from_bytes(header, "little")
    data = pipe.read(size)
    return pickle.loads(data) if len(data) == size else None


def _outcome(function, item) -> tuple:
    """(True, function(item)), or (False, the exception it raised)."""
    try:
        return True, function(item)
    except Exception as exc:
        return False, exc


def _read_pair(reader, first, second, concurrent: bool) -> tuple:
    """(reader(first), reader(second)); with concurrent, second is read in a
    forked child while this process reads first.

    The child sends back its result, or the exception it raised, by _send.
    The exception of first is raised before that of second, with its own
    class and message, as a serial read would raise it; if first raises, the
    child is killed. The child is always waited for, and if it exits without
    sending a whole result, second is read here. Without concurrent, or
    without os.fork, the two are read in turn.
    """
    if not (concurrent and hasattr(os, "fork")):
        return reader(first), reader(second)
    receiver, sender = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(receiver)
        os.close(sender)
        return reader(first), reader(second)
    if pid == 0:
        _send_read(reader, second, receiver, sender)
    os.close(sender)
    sent = None
    try:
        with open(receiver, "rb") as pipe:
            value = reader(first)
            sent = _receive(pipe)
    finally:
        if sent is None:
            import signal  # here: importing it costs a one-shot command 0.4 ms
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if status != 0 or sent is None:
        return value, reader(second)
    ok, result = sent
    if not ok:
        raise result
    return value, result


def _send_read(reader, item, receiver: int, sender: int) -> None:
    """A forked child's part of _read_pair: send the outcome of reader(item)
    and exit. An exception the parent could not rebuild is not sent, so the
    parent reads item itself and meets it there."""
    status = 1
    try:
        os.close(receiver)
        result = _outcome(reader, item)
        if not result[0]:
            pickle.loads(pickle.dumps(result, protocol=5))
        with open(sender, "wb") as pipe:
            _send(pipe, result)
        status = 0
    finally:
        os._exit(status)


def _fork_map(function, items: list, workers: int):
    """Yield function(item) for each of items, in their order, computed in
    `workers` (at most len(items)) forked children, which inherit function
    and items.

    Each child is handed the index of the next item as soon as it sends back
    a result, so a slow item holds up only its own child; a result that comes
    early is held here until its turn. An exception function raises in a
    child is raised here, in its item's turn. A child that ends without
    sending a whole result raises WorkerDiedError. However this ends (the
    last result, an error, or the generator closed), every child is killed
    and waited for.
    """
    import select
    import signal

    poller = select.poll()
    children = {}  # a child's result fd -> (pid, its task fd, its result pipe)
    working, done = {}, {}  # result fd -> index of the child's item; index -> outcome
    todo = iter(range(len(items)))

    def hand_next(fd: int) -> None:
        index = next(todo, None)
        if index is None:
            poller.unregister(fd)  # the child has nothing left to send
            return
        working[fd] = index
        try:
            os.write(children[fd][1], index.to_bytes(8, "little"))
        except BrokenPipeError:
            pass  # the child is dead, which its result pipe shows

    try:
        for _ in range(workers):
            task_out, task_in = os.pipe()
            result_out, result_in = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_out, task_in, result_out, result_in):
                    os.close(fd)
                raise
            if pid == 0:
                inherited = [task_in, result_out]
                for _, task, pipe in children.values():
                    inherited += [task, pipe.fileno()]
                _serve(function, items, task_out, result_in, inherited)
            os.close(task_out)
            os.close(result_in)
            children[result_out] = pid, task_in, open(result_out, "rb")
            poller.register(result_out, select.POLLIN)
            hand_next(result_out)
        for turn in range(len(items)):
            while turn not in done:
                for fd, _ in poller.poll():
                    outcome = _receive(children[fd][2])
                    if outcome is None:
                        raise WorkerDiedError(
                            f"worker process {children[fd][0]} ended without sending its results"
                        )
                    done[working.pop(fd)] = outcome
                    hand_next(fd)
            ok, value = done.pop(turn)
            if not ok:
                raise value
            yield value
    finally:
        for pid, _, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        for pid, task, pipe in children.values():
            os.waitpid(pid, 0)
            os.close(task)
            pipe.close()


def _serve(function, items: list, tasks: int, results: int, inherited: list) -> None:
    """A forked child's part of _fork_map: close the parent's pipe ends it
    inherited, then send the outcome of function(items[i]) for each index i
    received, until the task pipe closes, and exit."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(tasks, "rb") as inbox, open(results, "wb") as outbox:
            while len(index := inbox.read(8)) == 8:
                _send(outbox, _outcome(function, items[int.from_bytes(index, "little")]))
        status = 0
    finally:
        os._exit(status)


def weights_to_marginal(weights, source_marginal) -> LabelMarginal:
    """Convert importance weights into the target marginal w(y) * p_s(y), normalized."""
    if isinstance(weights, ImportanceWeights):
        weights = weights.weights
    if isinstance(source_marginal, LabelMarginal):
        source_marginal = source_marginal.probs
    w = _as_float_vector(weights, "weights")
    p = _as_float_vector(source_marginal, "source_marginal")
    if w.size != p.size:
        raise DimensionError(f"length mismatch: {w.size} weights vs {p.size} classes")
    if np.any(w < 0) or np.any(p < 0):
        raise InvalidInputError("weights and marginal entries must be nonnegative")
    mass = w * p
    total = mass.sum()
    if total <= 0:
        raise DegenerateEstimateError("w(y) * p_s(y) has zero total mass")
    return LabelMarginal(mass / total)


# ---------------------------------------------------------------------------
# Checked reading of the JSON objects the package reads back: grid configs,
# results records and bundle manifests. A key's type is the annotation of the
# dataclass field it sets.


@functools.cache
def _field_types(cls, names: tuple | None = None) -> types.MappingProxyType:
    """{name: annotated type} for the named fields of a dataclass, or for all
    of its fields, in order. Resolved when a file is first read, not at
    import, since get_type_hints evaluates every annotation of the class."""
    hints = typing.get_type_hints(cls)
    names = names or [f.name for f in dataclasses.fields(cls)]
    return types.MappingProxyType({name: hints[name] for name in names})


def _required_fields(cls) -> set:
    """The fields of a dataclass that have no default."""
    return {f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING}


def _check_keys(obj, allowed, required, where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ParseError(f"{where}: missing required key {missing[0]!r}")


def _items(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {value!r}")
    return value


def _cast(kind, value, where: str):
    """value as the annotated type kind, or a ParseError naming where.

    None fits only an optional type, and a list only a tuple[X, ...], whose
    items are cast to X. A str takes only a string. An int or float takes
    what its constructor takes except a bool, and an int no float with a
    fraction, which int() would drop. Any other kind is called on the value.
    """
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if value is None:
            return None
        (kind,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(_cast(item, v, f"{where}[{i}]") for i, v in enumerate(_items(value, where)))
    if kind not in (str, int, float):
        try:
            return kind(value)
        except (TypeError, ValueError, LabelShiftError) as exc:
            raise ParseError(f"{where}: {exc}") from None
    fits = isinstance(value, str) if kind is str else not isinstance(value, bool)
    if kind is int and isinstance(value, float) and not value.is_integer():
        fits = False
    if fits:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ParseError(f"{where}: expected {kind.__name__}, got {value!r}")


def _read_fields(obj, schema: dict, required, where: str) -> dict:
    """The keys a JSON object sets, each cast to its type in schema. A key
    outside schema, or a required key the object lacks, is a ParseError."""
    _check_keys(obj, schema, required, where)
    return {key: _cast(schema[key], value, f"{where}.{key}") for key, value in obj.items()}
