"""The benchmark's library call sequences still run and still pass their checks.

The benchmark (perfbench/) lies outside testpaths, so without this guard a
change to a public return type could break its jobs unnoticed.  The jobs and
checks are imported as they are and nothing under perfbench/ is changed.
"""

import json
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

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


def test_double_cosets_job(tmp_path):
    out = _as_json(jobs.double_cosets("F4", str(tmp_path)))
    assert checks.check_double_cosets("F4", str(tmp_path))(out, tmp_path) == []


def test_lattice_quotients_job(tmp_path):
    out = _as_json(jobs.lattice_quotients(["A3", "C4", "D5", "G2", "F4"]))
    assert checks.check_lattice_quotients(out, tmp_path) == []


def test_query_job(tmp_path):
    points = {
        "D4": [["7/3", "-1/2", "5/4", "-9/5"], ["0", "0", "0", "0"]],
        "G2": [["-3/2", "11/7"]],
        "E6": [["-20/3", "1/12", "19/5", "-7/2", "3", "-1/11"]],
    }
    out = _as_json(jobs.query("D4", str(tmp_path), points))
    assert checks.check_query("D4", points)(out, tmp_path) == []


def test_query_job_e6(tmp_path):
    # the warm path the query workload times, on the largest group it loads
    points = {
        "E6": [["1/2", "-7/3", "5/6", "0", "13/4", "-1"], ["0", "0", "0", "0", "0", "0"]],
        "E7": [["3/2", "-1/5", "2", "-11/6", "1/7", "4", "-5/2"]],
        "E8": [["-2", "1/3", "0", "9/4", "-1/2", "5/3", "-7", "1/8"]],
    }
    jobs.prepare(str(tmp_path), ["E6"])
    out = _as_json(jobs.query("E6", str(tmp_path), points))
    assert checks.check_query("E6", points)(out, tmp_path) == []


def test_span_names_resolve():
    # the traced benchmark wraps these functions by name; a deleted or renamed
    # one would otherwise drop out of its spans unnoticed
    import liecomm
    import liecomm.cli  # noqa: F401
    import spans

    for name in spans.FUNCTIONS:
        owner = liecomm
        for attr in name.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_traced_child_records_spans(run_python, tmp_path):
    # a traced job wraps functions that jobs.py reaches through liecomm's lazy
    # namespace, after the tracer has installed its wrappers
    spec, trace = tmp_path / "job.json", tmp_path / "spans.json"
    spec.write_text(json.dumps({"lib": "torus", "params": {"n": 1}, "trace": str(trace)}))
    run_python(str(PERFBENCH / "child.py"), str(spec), cwd=tmp_path)
    spans = json.loads(trace.read_text())["spans"]
    # one call from the job, one inside torus_inversion_quotient
    assert [span[0] for span in spans].count("simplicial.torus_triangulation") == 2


def test_generate_counters_see_writes_hits_and_rejects(tmp_path, monkeypatch):
    # the traced benchmark counts cache traffic from generate's arguments and
    # the cache file's state, through weyl._MEMO and weyl._cache_path
    import spans

    from liecomm import build_root_datum, weyl

    datum = build_root_datum("A5")

    def traffic():
        monkeypatch.setattr(weyl, "_MEMO", {})
        args, kwargs = (datum,), {"cache_dir": tmp_path}
        state = spans._generate_before(args, kwargs)
        group = weyl.generate(*args, **kwargs)
        counters = Counter()
        spans._generate_count(counters, args, kwargs, group, 0.0, state)
        assert counters["weyl.generate.elements"] == 720
        return [counters[f"weyl.generate.cache_{kind}"] for kind in ("writes", "hits", "rejects")]

    assert traffic() == [1, 0, 0]
    assert traffic() == [0, 1, 0]
    path = weyl._cache_path(datum, tmp_path)
    with np.load(path) as data:
        stored = {name: data[name].copy() for name in data.files}
    stored["matrices"].reshape(-1)[100] ^= 1  # the stored CRC stays
    np.savez(path, **stored)
    os.utime(path, ns=(0, 0))  # so the rewrite shows even under a coarse clock
    assert traffic() == [0, 0, 1]
