"""Run one spinchain benchmark workload and print its metrics.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

Workloads: algebra, rotation, cli-session (see README.md), or all to
run the three in turn.  With --trace 0 the last stdout line holds the
end-to-end metrics of the workload; with --trace 1 it holds every
per-layer metric, which the traced run gathers from all three workloads.  The line before it
records the environment and the figures behind the metrics.  Run it
from anywhere: it uses the checkout it lives in, and exits 2 without a
result when that checkout has no spinchain sources.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
REQUIRED = ("src/spinchain/__init__.py", "tests/data/golden_schedule_n2.json")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOAD_MODULES) + ["all"],
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import + input build + warm-up in this fresh process")
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Print the raw and host-scaled seconds from before `import spinchain`
    to a finished warm-up, bracketed by reference-loop timings."""
    before = [harness.host_reference() for _ in range(3)]
    t0 = time.perf_counter()
    import spinchain  # noqa: F401  (the import is what is being timed)

    mod = importlib.import_module(harness.WORKLOAD_MODULES[workload])
    mod.build(seed, ROOT)
    for job in mod.warmup():
        job.run()
    elapsed = time.perf_counter() - t0
    ref = statistics.median(before + [harness.host_reference() for _ in range(3)])
    print(elapsed, elapsed * harness.REF_NOMINAL_S / ref)


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds from fresh interpreters."""
    env = harness.child_env(ROOT)
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        raw, scaled = out.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def end_to_end_run(workload: str, seed: int, seconds: float):
    # The first command compiles the .pyc files untimed, for every workload.
    subprocess.run([sys.executable, "-m", "spinchain.cli", "gen", "chirality", "--n", "2"],
                   env=harness.child_env(ROOT), cwd=ROOT, check=True, capture_output=True)
    mod = importlib.import_module(harness.WORKLOAD_MODULES[workload])
    jobs = mod.build(seed, ROOT)
    for job in mod.warmup():
        job.run()
    log = harness.run_passes(jobs, seconds)
    # cli-session reports its largest child, so the set-up probes (also
    # children) start only after this is read.
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli-session"
                                else resource.RUSAGE_SELF).ru_maxrss
    setup = setup_times(workload, seed)
    for slot, reason in mod.oracle_problems(jobs, log.kept):
        log.fail_slot(slot, reason)
    metrics, details = harness.end_to_end(log, setup, rss_kb)
    return metrics, details, log.attempted, log.attempted - log.verified_count


def traced(seed: int):
    import tracing

    metrics, details, logs = tracing.traced_run(seed, ROOT)
    attempted = sum(log.attempted for log in logs) + details["sweep_points"]
    failed = sum(log.attempted - log.verified_count for log in logs) + len(details["sweep_problems"])
    details["problems"] = [p for log in logs for p in log.problems][:20] + details["sweep_problems"]
    return metrics, details, attempted, failed


def run_all(args) -> int:
    """Each workload in a fresh process, one after another.

    Echoes each workload's two lines, then one summary line whose metrics
    are named <workload>.<metric>.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.WORKLOAD_MODULES:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        environment, result = proc.stdout.splitlines()[-2:]
        print(environment)
        print(result, flush=True)
        result = json.loads(result)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: no spinchain checkout at {ROOT} (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    os.environ.update(harness.SINGLE_THREAD)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all" and not args.trace:
        return run_all(args)
    import spinchain

    if Path(spinchain.__file__).resolve().parent != ROOT / "src" / "spinchain":
        print(f"error: imported spinchain from {spinchain.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        metrics, details, attempted, failed = traced(args.seed)
    else:
        metrics, details, attempted, failed = end_to_end_run(args.workload, args.seed, args.seconds)
    for problem in details["problems"]:
        print(f"unverified: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "environment": environment(args.seed), "details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
