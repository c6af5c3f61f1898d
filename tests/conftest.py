"""Checks that hold for every test."""

import glob
import multiprocessing
import os
import signal

import pytest


def forked_children() -> set[int]:
    """The pids of this process's children, running or not yet waited for,
    as Linux lists them; empty where /proc has no children files."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process behind, such as a reader or
    grid worker that was never waited for; the leftovers are killed, so the
    next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for process in left:
        process.kill()
        process.join()
    # A child made by os.fork is not in active_children.
    forked = forked_children()
    for pid in forked:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert not left and not forked, f"processes left running: {left or sorted(forked)}"
