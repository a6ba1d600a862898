"""The benchmark's library call sequences still run and still pass their checks.

The benchmark (perfbench/) lies outside testpaths, so without this guard a
change to a public return type could break its jobs unnoticed.  The jobs and
checks are imported as they are and nothing under perfbench/ is changed.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import jobs  # noqa: E402


def _as_json(out: dict) -> dict:
    # the harness reads each job's output back from JSON
    return json.loads(json.dumps(out))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_job(n, tmp_path):
    assert checks.check_torus(n)(_as_json(jobs.torus(n)), tmp_path) == []


def test_subdivided_torus_job(tmp_path):
    assert checks.check_subdivided_torus(_as_json(jobs.subdivided_torus()), tmp_path) == []


def test_snf_transforms_job(tmp_path):
    out = _as_json(jobs.snf_transforms(str(tmp_path)))
    assert checks.check_snf(out, tmp_path) == []
