"""Closed-loop benchmark of the ``excursions`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its ``src`` directory, so there is nothing to build.  One client runs one
CLI job at a time, each in a fresh process, the next starting when the
previous one has exited, until the next one could end after ``--seconds``.
Every job of a run gets the same input, derived from the workload and
``--seed``, so each output is checked against an oracle (``oracles.py``)
and against the first job's output byte for byte.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
reports the per-layer metrics, from jobs run under ``tracer.py`` alternated
with untraced and single-thread jobs.  Earlier lines describe the run and
each job.  See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import oracles
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "excursions" / "cli.py"
SCRATCH = ROOT / ".perfbench_tmp"
MIN_JOBS = 3            # per untraced run, whatever --seconds says
RUN_LIMIT = 150.0       # seconds: no job runs past this, so a run ends well within 180 s
LEVELS = (0.0, 0.5, 1.0, 1.25)


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple             # CLI arguments apart from --seed and --out
    units: int              # work units per job, for throughput
    unit: str
    check: Callable         # result path -> ref_err


_LEVEL_ARG = ",".join(f"{u:g}" for u in LEVELS)
_T1_SAMPLES, _T1_REPS = 200_000, 6
_T2_TRAJ, _T2_LEN = 1500, 10_000

WORKLOADS = {w.name: w for w in (
    Workload("table1",
             ("table1", "--samples", str(_T1_SAMPLES), "--reps", str(_T1_REPS),
              "--levels", _LEVEL_ARG),
             _T1_SAMPLES * _T1_REPS * 2 * len(LEVELS), "primary excursion draws",
             lambda path: oracles.check_table1(path, LEVELS)),
    Workload("table2",
             ("table2", "--n-traj", str(_T2_TRAJ), "--len", str(_T2_LEN), "--dt", "0.05",
              "--reps", "10", "--levels", _LEVEL_ARG),
             _T2_TRAJ * _T2_LEN * len(LEVELS), "trajectory samples",
             lambda path: oracles.check_table2(path, LEVELS)),
)}


@dataclass
class Job:
    kind: str               # "plain", "traced" or "one_thread"
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    out: Path
    spans: Path | None
    error: str | None = None


def _env(kind: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    if kind == "one_thread":
        env["EXCURSION_IIA_THREADS"] = "1"
    return env


def _run_job(workload: Workload, workdir: Path, index: int, kind: str,
             args: list[str], timeout: float) -> Job:
    """Launch one CLI job, wait for it, and take its own rusage."""
    tag = workdir / f"job{index}"
    out = tag.with_suffix(".json")
    mark = tag.with_suffix(".mark")
    spans = tag.with_suffix(".spans.json") if kind == "traced" else None
    cmd = [sys.executable, str(HERE / "child.py"), str(mark)]
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += args + ["--out", str(out)]
    with open(tag.with_suffix(".stdout"), "wb") as so, \
            open(tag.with_suffix(".stderr"), "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=_env(kind), cwd=workdir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)

    setup = None
    try:
        setup = float(mark.read_text()) - start
    except (OSError, ValueError):
        pass
    job = Job(kind, end - start, setup, usage.ru_utime + usage.ru_stime,
              usage.ru_maxrss / 1024.0, out, spans)
    stderr = tag.with_suffix(".stderr").read_text(errors="replace")
    if proc.returncode != 0:
        job.error = f"exit code {proc.returncode}: {stderr.strip()[-300:]}"
    elif "Traceback" in stderr:
        job.error = "traceback on stderr"
    elif not out.exists():
        job.error = "no result file"
    elif setup is None or not 0.0 < setup < job.wall_s:
        job.error = "no set-up mark"
    return job


def _check(workload: Workload, jobs: list[Job]) -> float | None:
    """Fail jobs whose output is wrong; return ref_err of the reference output."""
    done = [j for j in jobs if j.error is None]
    if not done:
        return None
    reference = done[0].out.read_bytes()
    try:
        ref_err = workload.check(done[0].out)
    except (oracles.OracleFailure, KeyError, ValueError, IndexError) as exc:
        for j in done:
            j.error = f"oracle: {exc}"
        return None
    for j in done[1:]:
        if j.out.read_bytes() != reference:
            j.error = "result differs from the first job's at the same seed"
    return ref_err


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_info(workload: Workload, seed: int, program_seed: int, seconds: int,
              trace: int) -> dict:
    return {
        "workload": workload.name, "seed": seed, "program_seed": program_seed,
        "seconds": seconds, "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "commit": _commit(),
        "inputs": {w.name: {"args": list(w.args), "units": w.units, "unit": w.unit}
                   for w in WORKLOADS.values()},
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _end_to_end(workload: Workload, jobs: list[Job]) -> dict:
    return {
        "wall_s": _median(j.wall_s for j in jobs),
        "setup_s": _median(j.setup_s for j in jobs),
        "throughput": _median(workload.units / (j.wall_s - j.setup_s)
                              for j in jobs if j.setup_s is not None),
        "peak_rss_mb": _median(j.peak_rss_mb for j in jobs),
    }


def _per_layer(jobs: list[Job], ref_err: float | None) -> dict:
    def walls(kind):
        return _median(j.wall_s for j in jobs if j.kind == kind)

    def kernels(kind):
        return _median(j.wall_s - j.setup_s for j in jobs
                       if j.kind == kind and j.setup_s is not None)

    traced = [tracer.layer_metrics(j.spans) for j in jobs
              if j.kind == "traced" and j.error is None] or [tracer.layer_metrics(None)]
    metrics = {name: _median(m[name] for m in traced) for name in traced[0]}
    plain = walls("plain")
    metrics.update({
        "cli.cpu_s": _median(j.cpu_s for j in jobs if j.kind == "plain"),
        "cli.thread_speedup": (kernels("one_thread") / kernels("plain")
                               if kernels("plain") else 0.0),
        "trace.overhead_frac": walls("traced") / plain - 1.0 if plain else 0.0,
        "ref_err": ref_err if ref_err is not None else 0.0,
        "failed_frac": sum(j.error is not None for j in jobs) / len(jobs),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    workload = WORKLOADS[opts.workload]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if opts.trace else "end_to_end"]
    if not PACKAGE.exists():
        sys.stderr.write(f"perfbench: no package source at {PACKAGE}\n")
        return 2

    program_seed = zlib.crc32(f"{opts.workload}:{opts.seed}".encode()) & 0x7FFFFFFF
    args = list(workload.args) + ["--seed", str(program_seed)]
    kinds = ("plain", "traced", "one_thread") if opts.trace else ("plain",)
    min_jobs = len(kinds) if opts.trace else MIN_JOBS
    info = _run_info(workload, opts.seed, program_seed, opts.seconds, opts.trace)
    print(json.dumps({"run": info}))

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{opts.workload}-", dir=SCRATCH))
    try:
        jobs: list[Job] = []
        started = time.perf_counter()
        # stop once the next job could end after --seconds, judged by the
        # slowest job so far
        while len(jobs) < min_jobs or (
                time.perf_counter() + max(j.wall_s for j in jobs)
                < started + opts.seconds):
            left = started + RUN_LIMIT - time.perf_counter()
            if left <= 0.0:
                break
            kind = kinds[len(jobs) % len(kinds)]
            jobs.append(_run_job(workload, workdir, len(jobs) + 1, kind, args, left))
        ref_err = _check(workload, jobs)
        for i, j in enumerate(jobs, 1):
            print(json.dumps({"job": i, "kind": j.kind, "wall_s": j.wall_s,
                              "setup_s": j.setup_s, "cpu_s": j.cpu_s,
                              "peak_rss_mb": j.peak_rss_mb, "error": j.error}))
        metrics = _per_layer(jobs, ref_err) if opts.trace else _end_to_end(workload, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    names = [m["name"] for m in section]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} "
                           "do not match BENCHMARK.json")
    failed = sum(j.error is not None for j in jobs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
