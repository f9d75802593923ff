"""Shared fixtures for the test suite."""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.config import AlgorithmParameters
from repro.radio.network import RadioNetwork
from repro.topology import grid, line, star


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def path4():
    """0 - 1 - 2 - 3"""
    return line(4)


@pytest.fixture
def small_grid():
    return grid(4, 4)


@pytest.fixture
def small_star():
    return star(6)


@pytest.fixture
def triangle_plus_tail():
    """Triangle 0-1-2 with a tail 2-3-4: mixes cycles and a path."""
    return RadioNetwork([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], name="tri+tail")


@pytest.fixture
def fast_params():
    return AlgorithmParameters.fast()


def _proc_stamp(pid):
    """``(state, start time)`` of ``pid`` from ``/proc``, or None once
    the pid is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], fields[19]


class ChildWatch:
    """The child processes of ``pid``, recorded while it lives, so a test
    can kill ``pid`` and then require that none of them outlives it.
    Reads ``/proc`` (Linux)."""

    def __init__(self, pid):
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            self.children = {
                int(c): _proc_stamp(int(c)) for c in f.read().split()
            }

    def _alive(self, pid):
        now = _proc_stamp(pid)
        return (
            now is not None
            and now[1] == self.children[pid][1]  # not a reused pid
            and now[0] not in ("Z", "X")  # exited, not yet reaped
        )

    def stragglers(self, within=5.0):
        """Children still running ``within`` seconds from now.  They are
        SIGKILLed before returning, so a failing test leaks nothing."""
        deadline = time.monotonic() + within
        alive = [c for c, stamp in self.children.items() if stamp]
        while alive and time.monotonic() < deadline:
            time.sleep(0.05)
            alive = [c for c in alive if self._alive(c)]
        for c in alive:
            try:
                os.kill(c, signal.SIGKILL)
            except OSError:
                pass
        return alive


@pytest.fixture
def child_watch():
    return ChildWatch
