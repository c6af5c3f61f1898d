"""Work in forked children: reading a command's two input files at once,
and grid workers.

`labelshift estimate` reads its two dumps and `labelshift run` a dataset
task's two pools through core._read_pair, which reads the second file in a
forked child while the process reads the first, once the files are large
enough for a fork to pay (core._fork_pays). Such a read must give what a
serial read gives: the same values, in read-only arrays, and the same first
error. A serial read (one CPU, small files, or `--jobs 1`) must not fork.
`labelshift run` computes coordinates in children forked by core._fork_map,
which must give each result in turn and leave no child behind.
"""

import contextlib
import io
import json
import os
import time

import numpy as np
import pytest

import labelshift.cli as cli_module
import labelshift.core as core_module
from labelshift.bench import GridTask, load_pools
from labelshift.cli import main
from labelshift.core import LabeledSet, ParseError, _fork_map, _fork_pays, _read_pair
from labelshift.shift import save_labeled_csv
from tests.test_adapt import make_blobs
from tests.test_golden import ALL_ESTIMATORS, write_dumps

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the concurrent reads fork")


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, each fork still made."""
    real, made = os.fork, []

    def fork():
        pid = real()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("a serial read forked")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.fixture
def any_size(monkeypatch):
    """Fork for files of any size, so small test files take the fork path."""
    monkeypatch.setattr(core_module, "_FORK_MIN_BYTES", 0)


def arrays_of(value):
    """Every array in a reader's result, for flag and bit comparisons."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in arrays_of(item)]
    if isinstance(value, LabeledSet):
        return [value.features, value.labels]
    return []


def assert_same_arrays(got, want):
    got, want = arrays_of(got), arrays_of(want)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable


class BadError(Exception):
    """An exception pickle cannot rebuild: its constructor takes two values."""

    def __init__(self, path, line):
        super().__init__(f"{path}:{line}: bad")


class TestReadPair:
    def test_second_is_read_in_a_forked_child(self, forks):
        got = _read_pair(lambda item: (item, os.getpid()), "a", "b", True)
        assert [item for item, _ in got] == ["a", "b"]
        assert got[0][1] == os.getpid() and got[1][1] == forks[0]
        assert len(forks) == 1

    def test_arrays_arrive_bit_identical_and_read_only(self, forks):
        def reader(seed):
            gen = np.random.default_rng(seed)
            x = gen.standard_normal((50, 4))
            y = gen.integers(0, 3, 50)
            column = x[:, 0].copy()
            column.setflags(write=False)  # as the package's readers hand arrays over
            return LabeledSet(x, y), (column, None)

        got = _read_pair(reader, 1, 2, True)
        assert len(forks) == 1
        assert_same_arrays(got, (reader(1), reader(2)))
        assert got[1][1][1] is None

    @pytest.mark.parametrize("bad, raised", [({1, 2}, 1), ({1}, 1), ({2}, 2)])
    def test_first_error_is_raised_first(self, forks, bad, raised):
        def reader(item):
            if item in bad:
                raise ParseError(f"item {item} is bad")
            return item

        with pytest.raises(ParseError) as info:
            _read_pair(reader, 1, 2, True)
        assert str(info.value) == f"item {raised} is bad"
        assert len(forks) == 1

    def test_failed_first_read_kills_the_child(self, forks):
        parent = os.getpid()

        def reader(item):
            if os.getpid() == parent:
                raise OSError("first read failed")
            time.sleep(60)
            return item

        started = time.perf_counter()
        with pytest.raises(OSError, match="first read failed"):
            _read_pair(reader, 1, 2, True)
        assert time.perf_counter() - started < 30
        assert len(forks) == 1

    @pytest.mark.parametrize("fault", ["exit", "unpicklable result", "unpicklable error"])
    def test_what_the_child_does_not_send_is_read_here(self, forks, fault):
        parent = os.getpid()

        def reader(item):
            if os.getpid() != parent:
                if fault == "exit":
                    os._exit(1)
                if fault == "unpicklable result":
                    return lambda: item
            if fault == "unpicklable error":
                raise BadError(f"item{item}", 3)
            return item * 10

        if fault == "unpicklable error":
            with pytest.raises(BadError, match="^item1:3: bad$"):
                _read_pair(reader, 1, 2, True)
            with pytest.raises(BadError, match="^item2:3: bad$"):
                _read_pair(lambda item: item if item == 1 else reader(item), 1, 2, True)
        else:
            assert _read_pair(reader, 1, 2, True) == (10, 20)
        assert len(forks) >= 1

    def test_serial_read_does_not_fork(self, no_fork):
        assert _read_pair(lambda item: item + 1, 1, 2, False) == (2, 3)

    def test_fork_pays_for_two_processes_and_enough_bytes(self, tmp_path, monkeypatch):
        small, large = tmp_path / "small", tmp_path / "large"
        small.write_bytes(b"x" * 10)
        large.write_bytes(b"x" * 100)
        monkeypatch.setattr(core_module, "_FORK_MIN_BYTES", 100)
        assert _fork_pays(2, small, large) and _fork_pays(8, large)
        assert not _fork_pays(1, small, large)
        assert not _fork_pays(2, small, small)
        assert not _fork_pays(2, large, tmp_path / "missing")


class TestForkMap:
    def test_a_free_worker_takes_the_next_item(self, forks):
        def work(item):
            time.sleep(item)
            return item, os.getpid()

        got = list(_fork_map(work, [1.0, 0, 0, 0, 0, 0], 2))
        assert [item for item, _ in got] == [1.0, 0, 0, 0, 0, 0]
        assert len(forks) == 2
        # While the first item sleeps, its worker takes no other.
        assert {pid for _, pid in got[1:]} == {forks[1]} and got[0][1] == forks[0]

    def test_an_error_is_raised_in_its_turn(self, forks):
        got = []
        with pytest.raises(ZeroDivisionError):
            for value in _fork_map(lambda item: 1 / item, [1, 2, 0, 4], 2):
                got.append(value)
        assert got == [1.0, 0.5]

    def test_closing_kills_the_workers(self, forks):
        def work(item):
            if item:
                time.sleep(60)
            return item

        started = time.perf_counter()
        results = _fork_map(work, [0, 1, 2, 3], 3)
        assert next(results) == 0
        results.close()
        assert time.perf_counter() - started < 30
        assert len(forks) == 3


def run_cli(argv, cpus, monkeypatch):
    """(exit code, stdout, stderr) of main with cpus available CPUs."""
    monkeypatch.setattr(cli_module, "_available_cpus", lambda: cpus)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    work = tmp_path_factory.mktemp("dumps")
    return {k: write_dumps(work, k) for k in (3, 10, 50)}


class TestEstimate:
    @pytest.mark.parametrize("k", [3, 10, 50])
    @pytest.mark.parametrize("estimator", ALL_ESTIMATORS)
    def test_stdout_matches_serial_read(self, dumps, monkeypatch, forks, any_size, k,
                                        estimator):
        source, target = dumps[k]
        argv = ["estimate", "--source", str(source), "--target", str(target),
                "--estimator", estimator]
        concurrent = run_cli(argv, 2, monkeypatch)
        assert len(forks) == 1
        assert concurrent[1].startswith("{")
        assert concurrent == run_cli(argv, 1, monkeypatch)
        assert len(forks) == 1

    def test_dumps_under_the_cut_off_are_read_without_a_fork(self, dumps, monkeypatch, forks):
        monkeypatch.setattr(core_module, "_FORK_MIN_BYTES",
                            sum(os.path.getsize(path) for path in dumps[10]))
        for k, forked in ((3, 0), (10, 1)):
            source, target = dumps[k]
            argv = ["estimate", "--source", str(source), "--target", str(target)]
            assert run_cli(argv, 2, monkeypatch)[0] == 0
            assert len(forks) == forked

    def dump(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    @pytest.mark.parametrize("source, target, message", [
        ("p0,p1,y\n0.5,0.5,0\n0.5,x,1\n", "p0,p1\n0.5,0.5\n", "source.csv:3: non-numeric"),
        ("p0,p1,y\n0.5,0.5,0\n", "p0,p1\n0.5,0.5\n0.9,0.3\n", "target.csv:3: probabilities sum"),
        ("p0,p1,y\n0.5,0.5,-1\n", "p0,p1\n0.5\n", "source.csv:2: negative label"),
        (None, "p0,p1\n0.5,0.5\n", "No such file"),
        ("p0,p1,y\n0.5,0.5,0\n", None, "No such file"),
        ("p0,p1\n0.5,0.5\n", "p0,p1\nbad\n", "source.csv has no y column"),
    ], ids=["bad-source", "bad-target", "both-bad", "missing-source", "missing-target",
            "no-y-column"])
    def test_error_matches_serial_read(self, tmp_path, monkeypatch, forks, any_size, source,
                                       target, message):
        paths = [tmp_path / "absent" / name if text is None else self.dump(tmp_path, name, text)
                 for name, text in (("source.csv", source), ("target.csv", target))]
        argv = ["estimate", "--source", str(paths[0]), "--target", str(paths[1])]
        concurrent = run_cli(argv, 2, monkeypatch)
        # A missing file is left to the serial read, which names it.
        assert len(forks) == (0 if None in (source, target) else 1)
        code, out, err = concurrent
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert concurrent == run_cli(argv, 1, monkeypatch)


class TestPools:
    def write_pools(self, tmp_path):
        pool_dir = tmp_path / "pools"
        pool_dir.mkdir()
        save_labeled_csv(pool_dir / "source.csv", make_blobs(3, 4, 300, 3.0, seed=0))
        save_labeled_csv(pool_dir / "target.csv", make_blobs(3, 4, 200, 3.0, seed=1))
        return GridTask(name="disk", data_dir=str(pool_dir))

    def test_pools_match_serial_read(self, tmp_path, forks, any_size):
        task = self.write_pools(tmp_path)
        serial = load_pools(task)
        assert forks == []
        assert_same_arrays(load_pools(task, jobs=8), serial)
        assert len(forks) == 1

    def test_pool_error_matches_serial_read(self, tmp_path, forks, any_size):
        task = self.write_pools(tmp_path)
        target = tmp_path / "pools" / "target.csv"
        target.write_text(target.read_text() + "0.5,oops,0.5,0.5,1\n")
        with pytest.raises(ParseError) as serial:
            load_pools(task)
        with pytest.raises(ParseError) as concurrent:
            load_pools(task, jobs=2)
        assert str(concurrent.value) == str(serial.value) and "target.csv:202" in str(serial.value)
        assert len(forks) == 1

    def test_run_with_one_job_never_forks(self, tmp_path, monkeypatch, no_fork, any_size):
        task = self.write_pools(tmp_path)
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "output_dir": str(tmp_path / "out"),
            "tasks": [{"name": "disk", "data_dir": task.data_dir}],
            "alphas": [None, 0.5], "seeds": [0, 1], "methods": ["source_only"],
            "corrections": ["none"], "train": {"epochs": 2}}))
        code, out, err = run_cli(["run", "--config", str(config), "--jobs", "1"], 2, monkeypatch)
        assert (code, err) == (0, "") and "4 records, 0 failed" in out
