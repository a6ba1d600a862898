import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

# Starts the command and reaps it with os.wait4.  Linux carries the peak RSS
# of a forked process over its exec, so the command is started by this small
# interpreter, not by the large test process.
_REAPER = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"  # KiB on Linux
)


SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(*args: str, cwd=None, **env: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh process that imports this checkout's liecomm:
    src goes ahead of any PYTHONPATH, env entries are added, text is captured
    and a nonzero exit raises."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


@pytest.fixture
def run_python():
    """Runs `python *args` in a fresh process; see _run_python."""
    return _run_python


def _reaped(*args: str) -> tuple[int, float]:
    """Exit code and peak RSS in MB of `python -m liecomm.cli *args`."""
    run = _run_python("-c", _REAPER, sys.executable, "-m", "liecomm.cli", *args)
    code, maxrss_kib = map(int, run.stdout.split())
    return code, maxrss_kib / 1024


@pytest.fixture
def reaped():
    """Runs a CLI command in a fresh process; returns its exit code and peak RSS in MB."""
    return _reaped


@pytest.fixture
def a2_rotation_buckets():
    """A charpoly histogram for the A2 Weyl group with its three reflections
    swapped for one identity and two rotations (the rotation subgroup counted
    twice).  Every Molien sum stays divisible by 6, [t^0] = 1 and [t^1] = 0,
    but [t^2], the squared-trace sum and the k = 2 Lefschetz average move."""
    return (((1, -2, 1), 2), ((1, 1, 1), 4))


@pytest.fixture
def a2_non_cyclotomic_buckets():
    """The A2 histogram with one rotation (x^2 + x + 1) swapped for
    x^2 - 3x + 1, which has no root of unity as a root: its det(1 - x*w) does
    not divide prod(1 - x^d_i)."""
    return (((1, -2, 1), 1), ((-1, 0, 1), 3), ((1, 1, 1), 1), ((1, -3, 1), 1))


def _traced(call, *args, **kwargs):
    """call(*args, **kwargs), and the tracemalloc peak in bytes of the
    allocations made during the call."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced():
    """Makes a call under tracemalloc; returns its result and the peak in bytes."""
    return _traced


def _traced_enumeration(name: str):
    """A cold weyl.generate of the named type, with the Weyl memo emptied for
    the call and restored after it, and the tracemalloc peak in bytes of the
    allocations made during the call."""
    from liecomm import weyl
    from liecomm.rootdata import build_root_datum

    with mock.patch.dict(weyl._MEMO, clear=True):
        return _traced(weyl.generate, build_root_datum(name))


@pytest.fixture
def traced_enumeration():
    """Enumerates a type under tracemalloc; returns the group and the peak in bytes."""
    return _traced_enumeration


@pytest.fixture(scope="session")
def e7_enumeration():
    """W(E7), enumerated once for the slow suite under tracemalloc, and the
    peak of that enumeration.  Slow tests that generate E7 put the group in
    the Weyl memo, so they read it from there."""
    return _traced_enumeration("E7")
