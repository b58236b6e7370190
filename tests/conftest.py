"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

import repro
from repro.runtime import spmd_run

#: The paper's running example data set (§1): sum-reduce = 55,
#: scan = [6,13,19,22,30,32,40,44,52,55], octant counts = [0,1,2,1,0,2,1,3].
PAPER_DATA = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3]


def block_split(data, p: int, r: int):
    """Contiguous block decomposition (BlockDist bounds) of a sequence."""
    n = len(data)
    base, extra = divmod(n, p)
    lo = r * base + min(r, extra)
    hi = lo + base + (1 if r < extra else 0)
    return data[lo:hi]


def fresh_env() -> dict[str, str]:
    """The environment of a new interpreter that sees only this
    checkout's ``src`` — wherever the tree under test is checked out."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return {**os.environ, "PYTHONPATH": src}


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that sees only this checkout's
    ``src`` (what it imports is then its own doing); returns stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=fresh_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def conserved(stats) -> bool:
    """The conservation identity of ``Engine.stats()``: every submitted
    job is in exactly one place."""
    return stats["submitted"] == (
        stats["completed"] + stats["failed"] + stats["cancelled"]
        + stats["pending"] + stats["inflight"] + stats["retry_backlog"]
    )


@contextlib.contextmanager
def watch_conservation(engine):
    """Read ``engine.stats()`` from a side thread for as long as the
    block runs; every read must satisfy :func:`conserved`."""
    broken, stop = [], threading.Event()

    def poll():
        while not stop.is_set():
            stats = engine.stats()
            if not conserved(stats):
                broken.append(stats)
            stop.wait(0.001)

    thread = threading.Thread(target=poll, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()
    assert not broken, broken[0]


def run_all(fn, nprocs: int, **kwargs):
    """spmd_run and return the per-rank returns list."""
    return spmd_run(fn, nprocs, **kwargs).returns


def gather_scan(fn, nprocs: int, **kwargs):
    """spmd_run a function returning per-rank lists; concatenate them."""
    out = []
    for part in spmd_run(fn, nprocs, **kwargs).returns:
        out.extend(part)
    return out


@pytest.fixture
def paper_data():
    return list(PAPER_DATA)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
