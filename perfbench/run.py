#!/usr/bin/env python3
"""The liecomm benchmark: four workloads, every answer checked, one JSON line out.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A single parent process runs one job at a time, each in its own fresh child
interpreter (perfbench/child.py), so no Weyl memo, lru_cache or group table
carries over from one job to the next, and every job pays interpreter start,
import and root-datum build as a user's command does.  Per-job CPU time and
peak RSS come from os.wait4 on that child.

A run makes one pass over the workload's jobs per pass_s seconds of
--seconds (pass_s is set per workload), at least one, each after its own
set-up.  The pass count is fixed, not timed, so that the number of samples
does not depend on how fast the program under test is.

The box this was tuned on is a virtual machine on a shared host, so the
end-to-end times correct for two things no change to liecomm can move (see
DESIGN.md).  Wall times leave out the steal time the hypervisor reports
in /proc/stat while the child ran.  And the host's speed drifts by up to
half over minutes, so times are given at reference speed: REF_SAMPLES times
in every pass the parent runs a fixed task (perfbench/reference.py), started
like a job, and scales the pass's wall times by REF_S / the mean of those
runs' wall times less steal, and its CPU times by REF_S / the mean of their
CPU times.  setup_s is the median of the scaled set-up times; each job's
wall and CPU time is the median of its scaled times over the passes, and
wall_s and cpu_s sum those over the jobs.  peak_rss_mb is the largest over
the jobs of each job's median peak RSS.
With --trace 1 the passes alternate untraced and traced ones (at least one
of each); traced passes install span wrappers in the children
(perfbench/spans.py), and the per-layer metrics, which are not scaled, are
medians over them.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
exit code is 0 only when every job's answers passed their checks.
Workload design and the exclusions are recorded in perfbench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# One BLAS thread, here and in every child (which inherit the environment):
# idle OpenBLAS workers spin, so with a pool the wall and CPU time of a job
# follow the load of the other tenants of a shared box more than the code.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import checks  # noqa: E402 - perfbench/ is on sys.path as the script's directory
from spans import COUNTERS, FUNCTIONS, HWM_FUNCTIONS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.py"
TMP = ROOT / ".perfbench_tmp"

REF_S = 0.4  # a typical time of the reference task on the 2-core box it was tuned on
REF_CHECKSUM = "78778 12701 802258 33"
REF_SAMPLES = 4  # reference runs per pass, spread over its jobs
JOB_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

PER_LAYER = (
    (("job.import_s", "s"),)
    + tuple((f"{f}.{stat}", unit) for f in FUNCTIONS for stat, unit in
            (("calls", "count"), ("total_s", "s"), ("self_s", "s")))
    + tuple((f"{f}.hwm_mb", "MB") for f in HWM_FUNCTIONS)
    + tuple((c, "count") for c in COUNTERS)
    + (("weyl.generate.elements_per_s", "1/s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
       ("reference.time_s", "s"))
)


@dataclass
class Job:
    name: str
    spec: dict  # {"cli": argv} or {"lib": name, "params": {...}}, see child.py
    check: Callable[[dict, Path], list[str]]
    cold_type: str | None = None  # no cache file of this type may exist before the job


@dataclass
class Workload:
    build: Callable[[int, Path, Path], list[Job]]  # (seed, cache dir, pass dir) -> jobs
    pass_s: float  # one pass with its set-up and reference runs, at this commit
    warm_types: tuple[str, ...] = ()  # enumerated into the cache at set-up; the jobs only read it


# --- workloads ------------------------------------------------------------------

ENUMERATE_TYPES = ("A6", "B6", "C6", "D6", "E6", "A7")


def enumerate_jobs(seed: int, cache: Path, out: Path) -> list[Job]:
    return [
        Job(
            f"poincare-{t}",
            {"cli": ["poincare", t, "--n", "1", "--deg", "24", "--cache-dir", str(cache)]},
            checks.check_poincare(t, 24),
            cold_type=t,
        )
        for t in ENUMERATE_TYPES
    ]


QUERY_TYPES = ("E6", "D6")
REDUCE_RANKS = {"E6": 6, "E7": 7, "E8": 8}
POINTS_PER_TYPE = 4


def query_points(seed: int) -> list[dict[str, list[list[str]]]]:
    """Per query job, seeded rational points for alcove_reduce on E6, E7 and E8."""
    rng = random.Random(seed)
    return [
        {
            t: [[f"{rng.randint(-20, 20)}/{rng.randint(1, 12)}" for _ in range(r)]
                for _ in range(POINTS_PER_TYPE)]
            for t, r in REDUCE_RANKS.items()
        }
        for _ in QUERY_TYPES
    ]


def query_jobs(seed: int, cache: Path, out: Path) -> list[Job]:
    return [
        Job(
            f"query-{t}",
            {"lib": "query", "params": {"lie_type": t, "cache_dir": str(cache), "points": points}},
            checks.check_query(t, points),
        )
        for t, points in zip(QUERY_TYPES, query_points(seed))
    ]


CENSUS_K2_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2")
CENSUS_EXTRA = (("A4", 3), ("A5", 2), ("D5", 2))


def census_jobs(seed: int, cache: Path, out: Path) -> list[Job]:
    cases = [(t, 2) for t in CENSUS_K2_TYPES] + list(CENSUS_EXTRA)
    jobs = [
        Job(
            f"cells-{t}-k{k}",
            {"cli": ["cells", t, "--k", str(k), "--rank-cap", "5", "--cache-dir", str(cache)]},
            checks.check_cells(t, k),
        )
        for t, k in cases
    ]
    jobs.append(
        Job(
            "double-cosets-F4",
            {"lib": "double_cosets", "params": {"lie_type": "F4", "cache_dir": str(cache)}},
            checks.check_double_cosets("F4", str(cache)),
        )
    )
    return jobs


LATTICE_TYPES = tuple(
    [f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(3, 9)] + [f"D{r}" for r in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def oracle_jobs(seed: int, cache: Path, out: Path) -> list[Job]:
    jobs = [
        Job(f"torus-{n}", {"lib": "torus", "params": {"n": n}}, checks.check_torus(n))
        for n in (1, 2, 3)
    ]
    jobs += [
        Job("subdivided-torus", {"lib": "subdivided_torus", "params": {}},
            checks.check_subdivided_torus),
        Job("lattice-quotients",
            {"lib": "lattice_quotients", "params": {"types": list(LATTICE_TYPES)}},
            checks.check_lattice_quotients),
        Job("snf-transforms",
            {"lib": "snf_transforms", "params": {"out_dir": str(out / "snf-transforms")}},
            checks.check_snf),
        Job("beta-check", {"cli": ["beta-check", "--grid", "100"]}, checks.check_beta),
        Job("cocycle-check", {"cli": ["cocycle-check", "--samples", "200000"]},
            checks.check_cocycle),
    ]
    return jobs


WORKLOADS = {
    "enumerate": Workload(enumerate_jobs, pass_s=8.0),
    "query": Workload(query_jobs, pass_s=9.0, warm_types=QUERY_TYPES),
    "census": Workload(census_jobs, pass_s=13.0),
    "oracles": Workload(oracle_jobs, pass_s=11.0),
}


# --- children -------------------------------------------------------------------


def steal_s() -> float:
    """Steal time of all CPUs since boot, from /proc/stat; 0 where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


@dataclass
class Outcome:
    wall_s: float
    steal_s: float  # steal time while the child ran; the parent sleeps meanwhile
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LIECOMM_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(spec: dict, job_dir: Path) -> Outcome:
    """Run child.py on spec in a fresh interpreter."""
    job_dir.mkdir(parents=True, exist_ok=True)
    spec_path = job_dir / "job.json"
    spec_path.write_text(json.dumps(spec))
    return spawn_script(CHILD, [str(spec_path)], job_dir)


def spawn_script(script: Path, args: list[str], job_dir: Path) -> Outcome:
    """Run script in a fresh interpreter; rusage from wait4 on that child."""
    out_path, err_path = job_dir / "stdout", job_dir / "stderr"
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), write, 0o644),
    ]
    argv = [sys.executable, str(script), *args]
    start, stolen = time.perf_counter(), steal_s()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    reaped = threading.Event()

    def kill_if_running() -> None:
        if not reaped.is_set():
            os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(JOB_TIMEOUT_S, kill_if_running)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        reaped.set()
        timer.cancel()
    wall = time.perf_counter() - start
    return Outcome(
        wall_s=wall,
        steal_s=steal_s() - stolen,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        code=os.waitstatus_to_exitcode(status),
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def _last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    return json.loads(lines[-1])


def _cache_state(cache: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in sorted(cache.iterdir())}


@dataclass
class JobResult:
    name: str
    outcome: Outcome
    errors: list[str]
    spans: dict | None


def run_job(job: Job, pass_dir: Path, cache: Path, traced: bool,
            warm_state: dict | None) -> JobResult:
    job_dir = pass_dir / job.name
    errors = []
    if job.cold_type is not None and any(cache.glob(f"*_{job.cold_type}_*")):
        errors.append(f"a {job.cold_type} cache file exists before the cold job")
    if warm_state is not None and _cache_state(cache) != warm_state:
        errors.append("the warm cache changed before the job")
    spans_path = job_dir / "spans.json"
    outcome = spawn(dict(job.spec, trace=str(spans_path) if traced else None), job_dir)
    if outcome.code != 0:
        errors.append(f"exit code {outcome.code}: {outcome.stderr.strip()[-500:]}")
    else:
        try:
            errors += job.check(_last_json(outcome.stdout), job_dir)
        except Exception as exc:  # noqa: BLE001 - a malformed answer is a failed job
            errors.append(f"unreadable output: {exc!r}")
    if warm_state is not None and _cache_state(cache) != warm_state:
        errors.append("the job rewrote the warm cache (cache reject)")
    spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
    if traced and spans is None:
        errors.append("traced job wrote no spans")
    for err in errors:
        print(f"perfbench: {job.name}: {err}", file=sys.stderr)
    return JobResult(job.name, outcome, errors, spans)


# --- a run ----------------------------------------------------------------------


def setup(workload: Workload, pass_dir: Path) -> tuple[float, Path, JobResult]:
    """Prepare one pass: a fresh cache dir, and the warm cache if the workload has one.

    Returns the set-up's wall time less steal, the cache dir and the prepare job."""
    start, stolen = time.perf_counter(), steal_s()
    cache = pass_dir / "cache"
    cache.mkdir(parents=True)
    prepare = Job(
        "prepare",
        {"lib": "prepare", "params": {"cache_dir": str(cache), "types": list(workload.warm_types)}},
        lambda out, _: [],  # child.py refuses a liecomm from outside this checkout
    )
    result = run_job(prepare, pass_dir, cache, False, None)
    for t in workload.warm_types:
        if not any(cache.glob(f"*_{t}_*")):
            result.errors.append(f"set-up wrote no {t} cache file")
    return time.perf_counter() - start - (steal_s() - stolen), cache, result


def reference_run(job_dir: Path) -> Outcome:
    """One run of the reference task, started as a job is."""
    job_dir.mkdir(parents=True, exist_ok=True)
    outcome = spawn_script(REFERENCE, [], job_dir)
    if outcome.code != 0 or outcome.stdout.strip() != REF_CHECKSUM:
        raise RuntimeError(f"reference task failed: {outcome.code} {outcome.stderr[-500:]}")
    return outcome


@dataclass
class Pass:
    setup_s: float  # less steal
    refs: list[Outcome]  # the pass's reference runs
    results: list[JobResult]

    def wall(self, seconds: float) -> float:
        """A wall time less steal, at reference speed."""
        return seconds * REF_S / statistics.mean(r.wall_s - r.steal_s for r in self.refs)

    def cpu(self, seconds: float) -> float:
        """A CPU time at reference speed."""
        return seconds * REF_S / statistics.mean(r.cpu_s for r in self.refs)


def _by_job(passes: list[Pass], time_of: Callable[[Pass, Outcome], float]) -> list[float]:
    """Per job, the median over the passes of time_of its outcome."""
    return [
        statistics.median(time_of(p, p.results[i].outcome) for p in passes)
        for i in range(len(passes[0].results))
    ]


def layer_metrics(results: list[JobResult]) -> dict[str, float]:
    """Per-layer numbers of one traced pass: sums over its jobs' spans."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    counts: Counter = Counter()
    for res in results:
        m["trace.wall_s"] += res.outcome.wall_s
        data = res.spans
        if data is None:  # the job already failed for it
            continue
        m["job.import_s"] += data["import_s"]
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        for (name, _, start, end, hwm), inner in zip(spans, covered):
            m[f"{name}.calls"] += 1
            m[f"{name}.total_s"] += end - start
            m[f"{name}.self_s"] += end - start - inner
            if hwm is not None:
                m[f"{name}.hwm_mb"] = max(m[f"{name}.hwm_mb"], hwm)
        counts.update(data["counters"])
    for c in COUNTERS:
        m[c] = counts[c]
    cold_s = counts["weyl.generate.cold_s"]
    m["weyl.generate.elements_per_s"] = counts["weyl.generate.cold_elements"] / cold_s if cold_s else 0.0
    return m


def run_pass(workload: Workload, seed: int, pass_dir: Path, traced: bool) -> tuple[Pass, JobResult]:
    """Set-up, then the jobs, with REF_SAMPLES reference runs spread among them."""
    seconds_taken, cache, prepared = setup(workload, pass_dir)
    warm_state = _cache_state(cache) if workload.warm_types else None
    jobs = workload.build(seed, cache, pass_dir)
    refs_before = Counter(i * len(jobs) // REF_SAMPLES for i in range(REF_SAMPLES))
    refs, results = [], []
    for index, job in enumerate(jobs):
        for _ in range(refs_before[index]):
            refs.append(reference_run(pass_dir / f"reference{len(refs)}"))
        results.append(run_job(job, pass_dir, cache, traced, warm_state))
    return Pass(seconds_taken, refs, results), prepared


def run(workload_name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    workload = WORKLOADS[workload_name]
    passes: list[Pass] = []
    outcomes: list[JobResult] = []
    untraced: list[Pass] = []
    traced: list[Pass] = []
    for index in range(max(1 + trace, round(seconds / workload.pass_s))):
        with_spans = trace and index % 2 == 1
        pass_dir = run_dir / f"pass{index}"
        done, prepared = run_pass(workload, seed, pass_dir, with_spans)
        passes.append(done)
        outcomes += [prepared] + done.results
        (traced if with_spans else untraced).append(done)
        shutil.rmtree(pass_dir)
    failed = sum(1 for r in outcomes if r.errors)
    if trace:
        layers = [layer_metrics(p.results) for p in traced]
        metrics = {name: statistics.median(m[name] for m in layers) for name, _ in PER_LAYER}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            sum(r.outcome.wall_s for r in p.results) for p in untraced
        )
        metrics["reference.time_s"] = statistics.median(r.wall_s for p in passes for r in p.refs)
        units = dict(PER_LAYER)
        rejects = metrics["weyl.generate.cache_rejects"]
    else:
        metrics = {
            "wall_s": sum(_by_job(untraced, lambda p, o: p.wall(o.wall_s - o.steal_s))),
            "cpu_s": sum(_by_job(untraced, lambda p, o: p.cpu(o.cpu_s))),
            "peak_rss_mb": max(
                statistics.median(p.results[i].outcome.rss_mb for p in untraced)
                for i in range(len(untraced[0].results))
            ),
            "setup_s": statistics.median(p.wall(p.setup_s) for p in passes),
        }
        units = dict(END_TO_END)
        rejects = 0
    return {
        "correct": failed == 0 and rejects == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liecomm" / "__init__.py").is_file():
        print(f"perfbench: no liecomm sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))  # the checks build root data with this checkout's liecomm
    compileall.compile_dir(SRC / "liecomm", quiet=1)
    run_dir = TMP / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
