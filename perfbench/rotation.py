"""`rotation` workload: dense pulse schedules read out as rotations, in process.

The dense layer does all the work, split over two job kinds:

- verify jobs run the `schedule` command's pipeline (random_schedule ->
  run_schedule -> unitarity_residual -> so_membership -> adjoint_rotation
  for members) at n = 2..5.  Membership and Pauli decomposition dominate
  them.  Half draw from buses I,II and are members; the other half also
  draw from bus III and leak, so a members-only fast path that slows
  non-members shows here.
- compose jobs are long bus-I/II schedules at n = 6..8 read out with
  adjoint_rotation only.  Pulse exponentials and composition dominate.

A faster rotation extraction shows on verify jobs and a faster
composition on compose jobs; each kind bypasses the other's mechanism.
Sizes are fixed, so every seed costs the same; the seed draws the
schedules and the order of the jobs.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from dataclasses import dataclass

import oracle
from harness import Job

NAME = "rotation"
TOL = 1e-9
VERIFY_PULSES = 30
COMPOSE_PULSES = 200
LEAK_MIN = 1e-6

# (n, copies) of each verify kind, and of compose jobs.
VERIFY_SIZES = ((2, 6), (3, 6), (4, 2), (5, 1))
COMPOSE_SIZES = ((6, 4), (7, 2), (8, 1))
# Jobs cross-checked against scipy.linalg.expm: member and leaking
# verify jobs up to n = 4 and compose jobs at n = 6.
ORACLE_PICKS = (("member", 4, 2), ("leak", 4, 2), ("compose", 6, 1))


@dataclass(frozen=True)
class Output:
    pulses: tuple          # (label, theta) pairs the library drew
    unitarity: float
    member: bool | None    # None for compose jobs, which skip membership
    residual: float | None
    rotation: object       # numpy array, or None for non-members


def _pulses(schedule) -> tuple:
    return tuple((ref.label, float(theta)) for ref, theta in schedule.pulses)


def _verify(sc, n: int, buses: tuple, seed: int) -> Output:
    schedule = sc.random_schedule(n, list(buses), VERIFY_PULSES, seed)
    u = sc.run_schedule(schedule)
    unitarity = sc.unitarity_residual(u)
    membership = sc.so_membership(u, n, tol=TOL)
    r = sc.adjoint_rotation(u, n, tol=TOL) if membership.member else None
    return Output(_pulses(schedule), unitarity, membership.member, membership.residual, r)


def _compose(sc, n: int, seed: int) -> Output:
    schedule = sc.random_schedule(n, ["I", "II"], COMPOSE_PULSES, seed)
    r = sc.adjoint_rotation(sc.run_schedule(schedule), n, tol=TOL)
    return Output(_pulses(schedule), 0.0, None, None, r)


def check(kind: str, n: int, out: Output) -> str | None:
    """Checks that need no second computation of U."""
    if len(out.pulses) != (COMPOSE_PULSES if kind == "compose" else VERIFY_PULSES):
        return f"schedule has {len(out.pulses)} pulses"
    has_third = any(label == "third" for label, _ in out.pulses)
    if kind == "compose":
        return oracle.rotation_error(out.rotation)
    if out.unitarity > TOL:
        return f"unitarity residual {out.unitarity:.3e}"
    if kind == "member":
        if has_third or out.member is not True or out.residual > TOL:
            return f"bus-I/II schedule: member={out.member}, residual={out.residual!r}"
        if out.rotation is None or out.rotation.shape != (2 * n + 1, 2 * n + 1):
            return "member has no (2n+1)-square rotation"
        return oracle.rotation_error(out.rotation)
    if not has_third or out.member is not False or not out.residual > LEAK_MIN:
        return f"bus-III schedule: member={out.member}, residual={out.residual!r}"
    if out.rotation is not None:
        return "non-member reports a rotation"
    return None


def oracle_check(kind: str, n: int, out: Output) -> str | None:
    """Compare with U composed by scipy.linalg.expm and read out independently."""
    r_ref, leak = oracle.rotation_and_leak(oracle.schedule_unitary(n, out.pulses), n)
    if kind == "leak":
        # The largest out-of-span coefficient is at most the out-of-span
        # norm and at least that norm spread evenly over all 4^n words.
        if not leak > LEAK_MIN:
            return f"oracle finds no leak ({leak:.3e})"
        if not leak / 2**n - 1e-9 <= out.residual <= leak + 1e-9:
            return f"residual {out.residual!r} inconsistent with oracle leak {leak!r}"
        return None
    if leak > 1e-8:
        return f"oracle leak {leak:.3e} for a bus-I/II schedule"
    err = float(abs(out.rotation - r_ref).max())
    return None if err <= 1e-8 else f"rotation differs from oracle by {err:.3e}"


def _leak_seed(sc, n: int, rng: random.Random) -> int:
    """A schedule seed whose I,II,III draw holds a third pulse far from a
    multiple of pi/2, where exp(i theta Y) would be a Clifford."""
    while True:
        seed = rng.randrange(2**31)
        schedule = sc.random_schedule(n, ["I", "II", "III"], VERIFY_PULSES, seed)
        if any(ref.kind == "third" and abs(math.sin(2 * theta)) > 0.5
               for ref, theta in schedule.pulses):
            return seed


def _jobs(sc, rng: random.Random, verify_sizes, compose_sizes) -> list[Job]:
    jobs = []
    for n, copies in verify_sizes:
        for _ in range(copies):
            seed = rng.randrange(2**31)
            jobs.append(Job("member", ("member", n, seed),
                            run=lambda n=n, s=seed: _verify(sc, n, ("I", "II"), s),
                            check=lambda out, n=n: check("member", n, out)))
            seed = _leak_seed(sc, n, rng)
            jobs.append(Job("leak", ("leak", n, seed),
                            run=lambda n=n, s=seed: _verify(sc, n, ("I", "II", "III"), s),
                            check=lambda out, n=n: check("leak", n, out)))
    for n, copies in compose_sizes:
        for _ in range(copies):
            seed = rng.randrange(2**31)
            jobs.append(Job("compose", ("compose", n, seed),
                            run=lambda n=n, s=seed: _compose(sc, n, s),
                            check=lambda out, n=n: check("compose", n, out)))
    return jobs


def build(seed: int, root: Path) -> list[Job]:
    import spinchain as sc

    rng = random.Random(f"{NAME}:{seed}")
    jobs = _jobs(sc, rng, VERIFY_SIZES, COMPOSE_SIZES)
    rng.shuffle(jobs)
    picked = set()
    for kind, n_max, count in ORACLE_PICKS:
        slots = [i for i, j in enumerate(jobs) if j.kind == kind and j.spec[1] <= n_max]
        picked.update(rng.sample(slots, count))
    return [Job(j.kind, j.spec, j.run, j.check, keep=i in picked) for i, j in enumerate(jobs)]


def warmup() -> list[Job]:
    import spinchain as sc

    return _jobs(sc, random.Random(f"{NAME}:warmup"), ((2, 1),), ((6, 1),))


def oracle_problems(jobs: list[Job], kept: dict) -> list[tuple[int, str]]:
    """(slot, reason) for each kept output the scipy oracle disagrees with.

    A picked job with no kept output already failed its own check.
    """
    problems = []
    for slot, out in kept.items():
        err = oracle_check(jobs[slot].kind, jobs[slot].spec[1], out)
        if err:
            problems.append((slot, f"{jobs[slot].spec}: oracle: {err}"))
    return problems
