"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with -s or in captured
output) and fails on the first violated assertion inside the criterion.
Run the same checks from the command line with `liecomm verify`.
"""

import inspect
import re

import pytest

from liecomm import verify


@pytest.mark.parametrize("index", range(1, len(verify.CRITERIA) + 1))
def test_criterion(index):
    result = verify.run_criterion(index)
    status = "PASS" if result["passed"] else "FAIL"
    line = f"criterion {result['index']:2d} ({result['name']}): {result['detail']}"
    print(f"[{status}] {line}")
    assert result["passed"], line


def test_result_shape():
    # one record of the "criteria" list that `liecomm verify` emits
    types = {key: type(value) for key, value in verify.run_criterion(1).items()}
    assert types == {"index": int, "name": str, "passed": bool, "detail": str, "seconds": float}


def test_no_option_shrinks_the_verdict():
    # nothing can be set; rank, grid and sample counts are fixed
    for _, func in verify.CRITERIA:
        assert not inspect.signature(func).parameters
    with pytest.raises(TypeError):
        verify.run_criterion(3, rank_cap=1)
    with pytest.raises(TypeError):
        verify.run_criterion(3, cache_dir=None)


def test_gates_survive_optimize(run_python):
    # under python -O every assert is stripped; the criteria must still fail
    code = (
        "from liecomm import verify, wps\n"
        "real = wps.spin_stability_report\n"
        "wps.spin_stability_report = lambda *a: {**real(*a), 'degree': 99}\n"
        "result = verify.run_criterion(8)\n"
        "print('passed:', result['passed'], result['detail'])\n"
    )
    run = run_python("-O", "-c", code)
    assert run.stdout.startswith("passed: False InvariantBreachError: ('even', 4, 0)")


def test_budget_overrun_fails_the_criterion(monkeypatch):
    # budgets are checked once, in run_criterion, after the criterion's own checks
    monkeypatch.setitem(verify.BUDGETS, 9, 0)
    result = verify.run_criterion(9)
    assert not result["passed"]
    assert re.fullmatch(r"InvariantBreachError: took \d+\.\d\ds, budget 0s", result["detail"])
