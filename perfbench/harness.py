"""Closed-loop pass runner and the end-to-end statistics.

A workload is a fixed, seeded list of jobs.  One caller runs the list in
order, waiting for each job before starting the next, and repeats the
whole list ("a pass") until the run's time is used up.  Every pass runs
the same inputs, so the mix never changes between passes or runs.
Checks run after each job's timer stops.

The host is shared, and its speed drifts by tens of percent over seconds
to minutes as other tenants come and go.  So a fixed pure-Python loop,
which touches neither spinchain nor numpy, is timed between every two
jobs, and each job's time is scaled by REF_NOMINAL_S over the median of
the three loop times before it and the three after it.  The reported
timings are therefore what the job takes on a host where that loop
takes REF_NOMINAL_S; on a quiet dedicated host they are the raw times
times a constant.  The raw figures are reported beside them.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MIN_PASSES = 3
REF_ITERATIONS = 6_000
# A round figure near the loop's time on the 2-core x86-64 host (CPython
# 3.11) the benchmark was tuned on; only its staying fixed matters.
REF_NOMINAL_S = 0.0025
# Files the benchmark writes at run time, inside the checkout.
WORK_DIR = ".bench_work"
WORKLOAD_MODULES = {"algebra": "algebra", "rotation": "rotation", "cli-session": "cli_session"}
# All work is single-threaded: numpy's BLAS gets one thread, in this
# process (set before numpy is imported) and in every child.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the checkout's src, one BLAS thread."""
    return {**os.environ, **SINGLE_THREAD, "PYTHONPATH": str(root / "src")}


@dataclass(frozen=True)
class Job:
    """One seeded job.

    kind names the job family; spec holds the generated input as plain
    values, so two job lists are equal exactly when their specs are.
    run is the timed call; check inspects its output untimed and returns
    None or the reason the output is wrong.  keep marks the jobs whose
    output is kept for the workload's post-run oracle cross-check.
    """

    kind: str
    spec: tuple
    run: Callable[[], object] = field(compare=False, repr=False)
    check: Callable[[object], "str | None"] = field(compare=False, repr=False)
    keep: bool = False


def host_reference() -> float:
    """Seconds the fixed reference loop takes now: the host's current speed.

    Dict updates on tuple keys and string building, the interpreter work
    the library's inner loops do, in plain Python.
    """
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(REF_ITERATIONS):
        key = ((i * 2654435761) & 0xFFFF, i & 0xFF)
        table[key] = table.get(key, 0) + i
    "".join([str(i) for i in range(REF_ITERATIONS // 4)])
    return time.perf_counter() - t0


@dataclass
class PassLog:
    """Latencies and verdicts of the timed passes, indexed [slot][pass].

    latencies are raw seconds; scaled are the same at the nominal host
    speed (see the module docstring); refs are the reference loop times.
    """

    latencies: list[list[float]]
    scaled: list[list[float]]
    verified: list[list[bool]]
    refs: list[float] = field(default_factory=list)
    busy: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    kept: dict[int, object] = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return len(self.busy)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.verified)

    @property
    def verified_count(self) -> int:
        return sum(sum(v) for v in self.verified)

    def pass_rates(self) -> list[float]:
        """Verified jobs per second of job time, one figure per pass."""
        return [sum(v[p] for v in self.verified) / busy for p, busy in enumerate(self.busy)]

    def fail_slot(self, slot: int, reason: str) -> None:
        """Count every run of a slot as unverified (a failed cross-check)."""
        self.verified[slot] = [False] * len(self.verified[slot])
        self.problems.append(reason)


def run_job(fn: Callable[[], object]):
    """Time one call; returns (seconds, output, error text or None)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a raised error counts as an unverified job
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def check_output(job: Job, out) -> str | None:
    """The job's check; output it cannot even parse counts as wrong."""
    try:
        return job.check(out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def run_passes(jobs: list[Job], seconds: float, min_passes: int = MIN_PASSES) -> PassLog:
    """Repeat the job list until `seconds` are used, with at least min_passes.

    A new pass starts only if it is expected to end within `seconds`.
    """
    log = PassLog(latencies=[[] for _ in jobs], scaled=[[] for _ in jobs],
                  verified=[[] for _ in jobs])
    start = time.perf_counter()
    last = 0.0
    while log.passes < min_passes or time.perf_counter() - start + last <= seconds:
        t_pass = time.perf_counter()
        busy = 0.0
        refs = [host_reference()]
        for slot, job in enumerate(jobs):
            dt, out, err = run_job(job.run)
            refs.append(host_reference())
            busy += dt
            log.latencies[slot].append(dt)
            if err is None:
                err = check_output(job, out)
            log.verified[slot].append(err is None)
            if err is None and job.keep:
                log.kept[slot] = out
            elif err is not None:
                log.problems.append(f"{job.kind} job {slot}: {err}")
        for slot in range(len(jobs)):
            # Job `slot` ran between refs[slot] and refs[slot + 1]; three
            # loop timings on each side damp the loop's own jitter.
            ref = statistics.median(refs[max(0, slot - 2):slot + 4])
            log.scaled[slot].append(log.latencies[slot][-1] * REF_NOMINAL_S / ref)
        log.refs += refs
        log.busy.append(busy)
        last = time.perf_counter() - t_pass
    return log


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, math.floor(100 * (count - 10) / count))


def _summary(latencies: list[list[float]], verified: list[list[bool]]) -> tuple[float, float, float, int]:
    """(jobs per second, p50, tail, tail percentile) from per-slot latencies.

    A job's latency is its median over passes, so the sample count is
    the length of the job list whatever the number of passes.
    Throughput is the verified share of each job over the sum of those
    latencies: the job list's time with each job at its typical cost.
    """
    typical = [statistics.median(v) for v in latencies]
    slots = sorted(typical)
    p_tail = tail_percentile(len(slots))
    verified_jobs = sum(sum(v) / len(v) for v in verified)
    return (verified_jobs / sum(typical), statistics.median(slots), percentile(slots, p_tail), p_tail)


def end_to_end(log: PassLog, setup: list[tuple[float, float]], peak_rss_kb: int) -> tuple[dict, dict]:
    """The end-to-end metrics (host-scaled timings) and the figures behind
    them, raw timings included.  setup holds (raw, scaled) seconds."""
    rate, p50, tail, p_tail = _summary(log.scaled, log.verified)
    raw_rate, raw_p50, raw_tail, _ = _summary(log.latencies, log.verified)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "jobs_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "verified_ratio": (log.verified_count / log.attempted, "ratio"),
    }
    details = {
        "passes": log.passes,
        "latency_samples": len(log.latencies),
        "latency_tail_percentile": p_tail,
        "host_reference_ms": statistics.median(log.refs) * 1e3,
        "raw": {"setup_s": statistics.median(r for r, _ in setup), "jobs_per_s": raw_rate,
                "latency_p50_ms": raw_p50 * 1e3, "latency_tail_ms": raw_tail * 1e3,
                "pass_jobs_per_s": log.pass_rates()},
        "setup_samples_s": setup,
        "problems": log.problems[:20],
    }
    return metrics, details
