"""`cli-session` workload: a fresh `python -m spinchain.cli` per command.

One command runs at a time and the next starts when it has exited.  At
these sizes interpreter start, `import spinchain`, argparse and the JSON
emit dominate, so import and emit work shows here while large-n
algorithmic work barely moves it.  The commands reach the same closure
and dense code as the in-process workloads, at the small sizes where
fixed per-call overhead decides.

Sizes and command kinds are fixed; the seed picks generator indices,
schedule seeds and angles, and the order of the commands.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import oracle
from harness import WORK_DIR, Job, child_env

NAME = "cli-session"
GOLDEN = Path("tests/data/golden_schedule_n2.json")
GOLDEN_ARGV = ("schedule", "--random", "20", "--bus", "I,II", "--n", "2", "--seed", "7")
RANDOM_PULSES = 20


def check(kind: str, n: int, extra, out) -> str | None:
    """Exit code first, then the payload against independent expectations.

    out is (exit code, stdout bytes, stderr bytes).
    """
    code, stdout, stderr = out
    expected_code = {"car_fault": 1, "closure_empty": 2}.get(kind, 0)
    if code != expected_code:
        return f"exit code {code} != {expected_code}: {stderr.decode()[-200:]}"
    if kind == "closure_empty":
        return None if stdout == b"" and stderr.startswith(b"error:") else "no error message"
    if kind == "golden":
        return None if stdout == extra else "stdout differs from the golden bytes"
    p = json.loads(stdout)
    if kind == "gen_bus":
        return None if p["members"] == oracle.bus_words(n, extra) else f"bus {extra} members {p['members']}"
    if kind == "gen":
        return None if p["pauli"] == oracle.generator_word(extra, n) else f"{extra} -> {p['pauli']}"
    if kind in ("car", "car_fault"):
        clean = p["max_deviation"] == 0.0 and not p["failures"]
        return None if clean == (kind == "car") else f"max_deviation {p['max_deviation']!r}"
    if kind == "closure":
        dim = oracle.su_dim(n) if extra == "I,II,III" else oracle.so_dim(n)
        if p["dimension"] != dim or len(set(p["basis"])) != dim:
            return f"closure dimension {p['dimension']} != {dim}"
        return None
    if len(p["pulses"]) != extra:
        return f"{len(p['pulses'])} pulses echoed, expected {extra}"
    if kind == "schedule_member":
        if p["member"] is not True or p["membership_residual"] > 1e-9:
            return f"member={p['member']} residual={p['membership_residual']!r}"
        return oracle.rotation_error(p["rotation"]["entries"])
    if p["member"] is not False or not p["membership_residual"] > 1e-6 or p["rotation"] is not None:
        return f"bus-III schedule member={p['member']} residual={p['membership_residual']!r}"
    return None


def _third_schedule(n: int, rng: random.Random) -> dict:
    """Bus-I/II pulses around one `third` pulse whose angle keeps it far
    from a Clifford (a multiple of pi/2), so the schedule must leak."""
    labels = ["e0"] + [f"d{k}" for k in range(2 * n - 1)]
    pulses = [{"gen": rng.choice(labels), "theta": rng.uniform(0.0, 6.283)} for _ in range(7)]
    pulses.insert(rng.randrange(8), {"gen": "third", "theta": rng.uniform(0.3, 1.2)})
    return {"n": n, "pulses": pulses}


def build(seed: int, root: Path) -> list[Job]:
    """The seeded command list; writes the schedule files it reads."""
    rng = random.Random(f"{NAME}:{seed}")
    plan = []  # (kind, n, argv, expectation, file payload)
    for kind in ("e", "d", "third", "chirality"):
        n = rng.randint(2, 6)
        label = kind
        if kind in ("e", "d"):
            k = rng.randrange(2 * n if kind == "e" else 2 * n - 1)
            label = f"{kind}{k}"
            argv = ("gen", kind, "--n", str(n), "--k", str(k))
        else:
            argv = ("gen", kind, "--n", str(n))
        plan.append(("gen", n, argv, label, None))
    for bus in ("I", "II"):
        n = rng.randint(2, 6)
        plan.append(("gen_bus", n, ("gen", "bus", "--n", str(n), "--id", bus), bus, None))
    for n in (4, 12, 20):
        plan.append(("car", n, ("car", "--n", str(n)), None, None))
    for n in (2, 3, 4):
        for buses in ("I,II", "I,II,III"):
            plan.append(("closure", n, ("closure", "--n", str(n), "--bus", buses), buses, None))
    for n in (2, 3, 4):
        argv = ("schedule", "--random", str(RANDOM_PULSES), "--bus", "I,II", "--n", str(n),
                "--seed", str(rng.randrange(10**6)))
        plan.append(("schedule_member", n, argv, RANDOM_PULSES, None))
    for i, n in enumerate((2, 3)):
        payload = json.dumps(_third_schedule(n, rng), sort_keys=True)
        path = f"{WORK_DIR}/third_{i}.json"
        plan.append(("schedule_leak", n, ("schedule", path), 8, payload))
    plan.append(("golden", 2, GOLDEN_ARGV, None, None))
    plan.append(("car_fault", 4, ("car", "--n", "4", "--inject-fault"), None, None))
    plan.append(("closure_empty", 3, ("closure", "--n", "3"), None, None))
    rng.shuffle(plan)

    golden = (root / GOLDEN).read_bytes()
    env = child_env(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    jobs = []
    for kind, n, argv, extra, payload in plan:
        if payload is not None:
            (root / argv[-1]).write_text(payload)
        expect = golden if kind == "golden" else extra
        jobs.append(Job(kind, (kind, argv, payload),
                        run=lambda argv=argv: spawn(argv, root, env),
                        check=lambda out, kind=kind, n=n, e=expect: check(kind, n, e, out)))
    return jobs


def spawn(argv, root: Path, env: dict):
    proc = subprocess.run([sys.executable, "-m", "spinchain.cli", *argv], cwd=root, env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return proc.returncode, proc.stdout, proc.stderr


def replay(argv):
    """Run one command in this process, as the traced replay does."""
    from spinchain import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def warmup() -> list[Job]:
    """None: the untimed first command, which writes the .pyc files, is
    shared by every workload."""
    return []


def oracle_problems(jobs: list[Job], kept: dict) -> list[tuple[int, str]]:
    return []
