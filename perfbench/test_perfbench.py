"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402


def _one_job(seed, cache, out):
    return run.enumerate_jobs(seed, cache, out)[:1]  # poincare A6


def _run_one_job(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "enumerate", run.Workload(_one_job, pass_s=1.0))
    code = run.main(["--workload", "enumerate", "--seed", "1", "--seconds", "0", "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_right_answer_passes(monkeypatch, capsys):
    code, result = _run_one_job(monkeypatch, capsys)
    assert code == 0
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)  # the set-up and the A6 job


def test_wrong_expected_answer_fails_the_job_and_the_command(monkeypatch, capsys):
    # A6 has degrees 2..7; expecting 8 in place of 7 must fail the poincare check
    monkeypatch.setattr(checks, "degrees", lambda name: (2, 3, 4, 5, 6, 8))
    code, result = _run_one_job(monkeypatch, capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_changes_only_query_points(name, tmp_path):
    build = run.WORKLOADS[name].build

    def specs(seed):
        return [job.spec for job in build(seed, tmp_path / "cache", tmp_path)]

    assert specs(1) == specs(1)
    if name != "query":
        assert specs(1) == specs(2)
        return

    def without_points(spec):
        return dict(spec, params={k: v for k, v in spec["params"].items() if k != "points"})

    assert [without_points(s) for s in specs(1)] == [without_points(s) for s in specs(2)]
    assert all(a["params"]["points"] != b["params"]["points"] for a, b in zip(specs(1), specs(2)))


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
