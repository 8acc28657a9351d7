"""Traced run: per-layer spans and counters around spinchain's public functions.

The library is not edited.  Each public function below is replaced, for
the traced pass only, by a wrapper bound at every name a caller looks it
up by (module globals across the package, or the class attribute for a
method).  The wrapper records a span (id, name, start, end, parent id,
workload and job kind) and the call's self time, which is its duration
minus the time its traced children took; calls are strictly nested on
one thread, so the children's durations add up to the part they cover.
Hot leaf functions keep only counts and self time, not one span per
call.  Counters are read from what the functions return, at the same
boundaries.  The end-to-end runs never install the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import harness
import oracle
from harness import Job, child_env, run_job, run_passes

# (module, attribute, aggregate only): spans for every call except the
# aggregate-only ones, which are called up to millions of times per pass.
TRACED = (
    ("pauli", "word_product", True),
    ("pauli", "word_to_bits", True),
    ("operators", "PauliSum.__matmul__", True),
    ("operators", "verify_car", False),
    ("generators", "build_bus", False),
    ("generators", "gamma_frame", False),
    ("generators", "parse_generator", False),
    ("closure", "closure_strings", False),
    ("closure", "closure_general", False),
    ("dense", "random_schedule", False),
    ("dense", "exp_pulse", False),
    ("dense", "run_schedule", False),
    ("dense", "unitarity_residual", False),
    ("dense", "so_membership", False),
    ("dense", "pauli_decompose", False),
    ("dense", "adjoint_rotation", False),
    ("cli", "main", False),
)
MODULES = ("pauli", "operators", "generators", "closure", "dense", "cli")
WORKLOADS = ("algebra", "rotation", "cli-session")


def _closure_counts(counters, tag, name, args, report):
    counters[tag, name + ".pairs"] += report.pairs_processed
    counters[tag, name + ".rounds"] += report.rounds


def _compose_counts(counters, tag, name, args, u):
    # Each pulse is one dense complex matmul of side 2^n: 8 (2^n)^3 flops.
    schedule = args[0]
    counters[tag, "dense.compose_flops_computed"] += 8 * len(schedule.pulses) * (2**schedule.n) ** 3


COUNTS = {
    "closure.closure_strings": _closure_counts,
    "closure.closure_general": _closure_counts,
    "dense.run_schedule": _compose_counts,
}


class Recorder:
    """Spans, self times and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: Counter = Counter()   # (tag, name) -> seconds
        self.calls: Counter = Counter()    # (tag, name) -> calls
        self.counters: Counter = Counter()  # (tag, counter) -> value
        self.errors: Counter = Counter()    # module -> exceptions leaving it
        self.tag = ("", "")
        self._stack: list[list] = []
        self._next_id = 0
        self._raised: list[tuple] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, aggregate: bool):
        module = name.split(".")[0]
        count = COUNTS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if not any(e is exc and m == module for e, m in self._raised):
                    self._raised.append((exc, module))
                    self.errors[module] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                key = (self.tag, name)
                self.calls[key] += 1
                self.self_s[key] += t1 - t0 - frame[1]
                if not aggregate:
                    self.spans.append((frame[0], name, t0, t1, parent, self.tag))
            if count is not None:
                count(self.counters, self.tag, name, args, out)
            return out

        return traced

    def install(self) -> None:
        importlib.import_module("spinchain.cli")
        package = [m for k, m in sys.modules.items() if k == "spinchain" or k.startswith("spinchain.")]
        for modname, attr, aggregate in TRACED:
            mod = sys.modules[f"spinchain.{modname}"]
            name = f"{modname}.{attr.replace('__matmul__', 'matmul')}"
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, method, self.wrap(name, owner.__dict__[method], aggregate))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original, aggregate)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def total(self, table: Counter, name: str, workload: str, kinds=None) -> float:
        return sum(v for (tag, n), v in table.items()
                   if n == name and tag[0] == workload and (kinds is None or tag[1] in kinds))


def _tagged(rec: Recorder, workload: str, job: Job, bytes_out: list) -> Job:
    """The job with tracing installed for its duration only."""
    def run():
        rec.tag = (workload, job.kind)
        rec.install()
        try:
            out = job.run()
        finally:
            rec.uninstall()
        if workload == "cli-session":
            bytes_out.append(len(out[1]))
        return out

    return Job(job.kind, job.spec, run, job.check)


def _workload_jobs(workload: str, seed: int, root: Path):
    mod = importlib.import_module(harness.WORKLOAD_MODULES[workload])
    jobs = mod.build(seed, root)
    if workload == "cli-session":
        # The in-process replay: same commands and checks, no interpreter start.
        from cli_session import replay
        jobs = [Job(j.kind, j.spec, lambda argv=j.spec[1]: replay(argv), j.check) for j in jobs]
    return mod, jobs


def scaling_sweep() -> tuple[dict, list[str]]:
    """n-scaling curve of each layer, untraced, up to the largest n that
    finishes in a few seconds.  Each point is the median of up to three
    calls (fewer once a second is spent), and its output is checked."""
    import spinchain as sc

    metrics: dict = {}
    problems: list[str] = []

    def point(name, unit, fn, expect, scale=1e3):
        times = []
        while len(times) < 3 and sum(times) < 1.0:
            dt, out, err = run_job(fn)
            times.append(dt)
            if err is None and not expect(out):
                err = "wrong output"
            if err is not None:
                problems.append(f"sweep {name}: {err}")
                break
        metrics[name] = (statistics.median(times) * scale, unit)

    bus = oracle.bus_words
    for n in (3, 4, 5, 6):
        words = bus(n, "I") + bus(n, "II") + bus(n, "III")
        point(f"closure.closure_strings.su.n{n}.ms", "ms", lambda: sc.closure_strings(n, words),
              lambda r: r.dimension == oracle.su_dim(n))
    for n in (10, 20, 40):
        words = bus(n, "I") + bus(n, "II")
        point(f"closure.closure_strings.so.n{n}.ms", "ms", lambda: sc.closure_strings(n, words),
              lambda r: r.dimension == oracle.so_dim(n))
    for n in (3, 4):
        gens = [sc.bilinear(n, j, k, kind) for j in range(n) for k in range(j, n)
                for kind in ("hopping", "pairing") if kind == "hopping" or j < k]
        point(f"closure.closure_general.so2n.n{n}.ms", "ms", lambda: sc.closure_general(n, gens),
              lambda r: r.dimension == oracle.so2n_dim(n))
    for n in (10, 20, 40):
        point(f"operators.verify_car.n{n}.ms", "ms", lambda: sc.verify_car(n),
              lambda r: r.max_deviation == 0.0)
    for n in (2, 3, 4, 5):
        u = sc.run_schedule(sc.random_schedule(n, ["I", "II"], 30, n))
        point(f"dense.so_membership.n{n}.ms", "ms", lambda: sc.so_membership(u, n),
              lambda r: r.member)
    for n in (4, 6, 8):
        schedule = sc.random_schedule(n, ["I", "II"], 100, n)
        point(f"dense.run_schedule.n{n}.ms_per_pulse", "ms/pulse", lambda: sc.run_schedule(schedule),
              lambda u: sc.unitarity_residual(u) < 1e-9, scale=1e3 / 100)
        u = sc.run_schedule(schedule)
        point(f"dense.adjoint_rotation.n{n}.ms", "ms", lambda: sc.adjoint_rotation(u, n),
              lambda r: oracle.rotation_error(r) is None)
    return metrics, problems


def startup_times(root: Path) -> dict:
    """Bare interpreter start and `import spinchain`, each in fresh children."""
    env = child_env(root)
    starts = []
    for _ in range(7):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True)
        starts.append(time.perf_counter() - t0)
    code = "import time; t = time.perf_counter(); import spinchain; print(time.perf_counter() - t)"
    imports = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(5)]
    return {
        "cli.interpreter_start_ms": (statistics.median(starts) * 1e3, "ms"),
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
    }


def traced_run(seed: int, root: Path) -> tuple[dict, dict, list[harness.PassLog]]:
    """Every per-layer metric: each workload's job list run once untraced
    and once traced, the startup probes and the scaling sweep."""
    rec = Recorder()
    metrics: dict = {}
    details: dict = {"overhead": {}}
    logs = []
    job_s = {}
    stdout_bytes: list[int] = []
    for workload in WORKLOADS:
        mod, jobs = _workload_jobs(workload, seed, root)
        # The replay's first commands would otherwise pay one-off imports
        # (argparse, json) inside the untraced timing.
        for job in jobs if workload == "cli-session" else mod.warmup():
            job.run()
        # Each job runs untraced and traced back to back, in alternating
        # order, so both see the same host; the traced copy's time
        # includes installing and removing the wrappers.
        paired, traced_slots, plain_slots = [], [], []
        for i, job in enumerate(jobs):
            traced = _tagged(rec, workload, job, stdout_bytes)
            first, second = (job, traced) if i % 2 == 0 else (traced, job)
            paired += [first, second]
            traced_slots.append(len(paired) - (1 if first is job else 2))
            plain_slots.append(len(paired) - (2 if first is job else 1))
        log = run_passes(paired, 0.0, min_passes=1)
        logs.append(log)

        def seconds(slots, table):
            return sum(table[i][0] for i in slots)

        job_s[workload] = seconds(traced_slots, log.latencies)
        # Host-scaled job time, untraced over traced, is the throughput ratio.
        ratio = seconds(plain_slots, log.scaled) / seconds(traced_slots, log.scaled)
        metrics[f"trace.overhead_ratio.{workload}"] = (ratio, "ratio")
        details["overhead"][workload] = {"untraced_s": seconds(plain_slots, log.latencies),
                                         "traced_s": job_s[workload]}

    def self_ms(name, workload, kinds=None):
        return (rec.total(rec.self_s, name, workload, kinds) * 1e3, "ms")

    def calls(name, workload, kinds=None):
        return (rec.total(rec.calls, name, workload, kinds), "count")

    def counter(name, workload, kinds=None):
        return (rec.total(rec.counters, name, workload, kinds), "count")

    verify = ("member", "leak")
    metrics.update({
        "pauli.word_product.calls": calls("pauli.word_product", "algebra"),
        "pauli.word_product.self_ms": self_ms("pauli.word_product", "algebra"),
        "pauli.word_to_bits.calls": calls("pauli.word_to_bits", "algebra"),
        "operators.PauliSum.matmul.calls": calls("operators.PauliSum.matmul", "algebra"),
        "operators.PauliSum.matmul.self_ms": self_ms("operators.PauliSum.matmul", "algebra"),
        "operators.verify_car.self_ms": self_ms("operators.verify_car", "algebra"),
        "generators.self_ms": (sum(self_ms(f"generators.{f}", "cli-session")[0]
                                   for f in ("build_bus", "gamma_frame", "parse_generator")), "ms"),
        "closure.closure_strings.self_ms": self_ms("closure.closure_strings", "algebra"),
        "closure.closure_strings.pairs": counter("closure.closure_strings.pairs", "algebra"),
        "closure.closure_strings.rounds": counter("closure.closure_strings.rounds", "algebra"),
        "closure.closure_general.self_ms": self_ms("closure.closure_general", "algebra"),
        "closure.closure_general.pairs": counter("closure.closure_general.pairs", "algebra"),
        "dense.exp_pulse.calls": calls("dense.exp_pulse", "rotation", ("compose",)),
        "dense.exp_pulse.self_ms": self_ms("dense.exp_pulse", "rotation", ("compose",)),
        "dense.run_schedule.self_ms": self_ms("dense.run_schedule", "rotation", ("compose",)),
        "dense.compose_flops_computed": (counter("dense.compose_flops_computed", "rotation",
                                                 ("compose",))[0], "flop"),
        "dense.so_membership.self_ms": self_ms("dense.so_membership", "rotation", verify),
        "dense.pauli_decompose.calls": calls("dense.pauli_decompose", "rotation", verify),
        "dense.pauli_decompose.self_ms": self_ms("dense.pauli_decompose", "rotation", verify),
        "dense.adjoint_rotation.self_ms": self_ms("dense.adjoint_rotation", "rotation", verify),
        "cli.main.self_ms": self_ms("cli.main", "cli-session"),
        "cli.stdout_bytes": (sum(stdout_bytes), "B"),
    })
    metrics.update(startup_times(root))
    for module in MODULES:
        metrics[f"{module}.errors"] = (rec.errors[module], "count")
    # A layer's self-time share of its workload's job time bounds what
    # speeding that layer alone can save end to end.
    names = [f"{m}.{a.replace('__matmul__', 'matmul')}" for m, a, _ in TRACED]
    for workload in WORKLOADS:
        for module in MODULES:
            spent = sum(rec.total(rec.self_s, n, workload) for n in names if n.startswith(module + "."))
            metrics[f"share.{workload}.{module}"] = (spent / job_s[workload], "ratio")
    sweep, sweep_problems = scaling_sweep()
    metrics.update(sweep)
    spans = root / harness.WORK_DIR / "spans.json"
    spans.parent.mkdir(exist_ok=True)
    spans.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent", "tag"],
                                 "spans": rec.spans}))
    details["spans"] = {"count": len(rec.spans), "file": str(spans.relative_to(root))}
    details["sweep_points"] = len(sweep)
    details["sweep_problems"] = sweep_problems
    return metrics, details, logs
