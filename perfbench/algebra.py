"""`algebra` workload: exact Pauli-algebra jobs, in process.

The exact path (pauli -> operators -> closure) does all the work and the
dense layer none, so generator-only closure shows here while a faster
dense layer should leave these figures unchanged.

Sizes are fixed, so every seed costs the same.  The seed orders the jobs
and gives each one a per-qubit cyclic relabelling X -> Y -> Z -> X of its
generator words.  That relabelling is conjugation by a local Clifford: it
keeps every product, so dimensions, rounds and pair counts are those of
the unrelabelled set while the words the library sees differ per seed.
"""

from __future__ import annotations

import random
from pathlib import Path

import oracle
from harness import Job

NAME = "algebra"

# (kind, n values).  Sizes stop where one job would take seconds at the
# seed (bus I+II at n = 40, the universal set at n = 6); the traced sweep
# times those.  Sizes near the median and the tail appear twice, each
# copy with its own relabelling, so those order statistics fall inside a
# cluster of like jobs instead of on one job.
SIZES = (
    ("strings_so", (2, 3, 4, 5, 6, 8, 10, 10, 12, 12, 16, 16, 20, 20, 24, 32)),
    ("strings_su", (2, 3, 4, 4, 5)),
    ("strings_so2n", (3, 6, 10, 10, 16, 16, 20)),
    ("general_so2n", (3, 3, 4, 4)),
    ("general_su", (3,)),
    ("car", (2, 4, 6, 8, 8, 12, 12, 16, 16, 20, 20, 28, 40)),
)

_CYCLE = ({"X": "Y", "Y": "Z", "Z": "X"}, {"X": "Z", "Y": "X", "Z": "Y"})


def relabel(word: str, shifts: tuple[int, ...]) -> str:
    return "".join(ch if ch == "I" or s == 0 else _CYCLE[s - 1][ch] for ch, s in zip(word, shifts))


def _words(kind: str, n: int) -> list[str]:
    if kind == "strings_so":
        return oracle.bus_words(n, "I") + oracle.bus_words(n, "II")
    if kind in ("strings_su", "general_su"):
        return oracle.bus_words(n, "I") + oracle.bus_words(n, "II") + oracle.bus_words(n, "III")
    if kind == "strings_so2n":
        return [oracle.bilinear_word(n, k) for k in range(2 * n - 1)]
    raise ValueError(kind)


_EXPECTED = {
    "strings_so": (oracle.so_dim, "so(2n+1)"),
    "strings_su": (oracle.su_dim, "su(2^n)"),
    "strings_so2n": (oracle.so2n_dim, "so(2n)"),
    "general_so2n": (oracle.so2n_dim, "so(2n)"),
    "general_su": (oracle.su_dim, "su(2^n)"),
}


def check_closure(kind: str, n: int, words, report) -> str | None:
    """Closed-form dimension and label; for string closures also the basis."""
    formula, label = _EXPECTED[kind]
    if report.dimension != formula(n):
        return f"dimension {report.dimension} != {formula(n)}"
    if report.label != label:
        return f"label {report.label!r} != {label!r}"
    if kind.startswith("strings"):
        basis = report.basis or ()
        if len(set(basis)) != formula(n):
            return f"basis holds {len(set(basis))} distinct words, expected {formula(n)}"
        if not set(words) <= set(basis):
            return "basis misses a generator"
        if any(len(w) != n or w == "I" * n for w in basis):
            return "basis holds a malformed or identity word"
    return None


def check_car(n: int, report) -> str | None:
    if report.n != n or report.max_deviation != 0.0 or report.failures:
        return f"CAR max_deviation {report.max_deviation!r}, {len(report.failures)} failures"
    return None


def _bilinear_terms(sc, n: int) -> list[dict[str, complex]]:
    """Hopping and pairing bilinears over all mode pairs, as word -> coefficient."""
    gens = []
    for j in range(n):
        for k in range(j, n):
            gens.append(sc.bilinear(n, j, k, "hopping"))
            if j < k:
                gens.append(sc.bilinear(n, j, k, "pairing"))
    return [dict(g.items()) for g in gens]


def _job(sc, kind: str, n: int, rng: random.Random) -> Job:
    shifts = tuple(rng.randrange(3) for _ in range(n))
    if kind == "car":
        return Job(kind, (kind, n), run=lambda: sc.verify_car(n), check=lambda r: check_car(n, r))
    if kind == "general_so2n":
        terms = _bilinear_terms(sc, n)
        rng.shuffle(terms)
        terms = [{relabel(w, shifts): c for w, c in t.items()} for t in terms]
        spec = (kind, n, tuple(tuple(sorted(t.items())) for t in terms))
        gens = [sc.PauliSum(n, t) for t in terms]
        return Job(kind, spec, run=lambda: sc.closure_general(n, gens),
                   check=lambda r: check_closure(kind, n, (), r))
    words = [relabel(w, shifts) for w in _words(kind, n)]
    rng.shuffle(words)
    if kind == "general_su":
        gens = [sc.PauliSum(n, {w: 1.0}) for w in words]
        return Job(kind, (kind, n, tuple(words)), run=lambda: sc.closure_general(n, gens),
                   check=lambda r: check_closure(kind, n, words, r))
    return Job(kind, (kind, n, tuple(words)), run=lambda: sc.closure_strings(n, words),
               check=lambda r: check_closure(kind, n, words, r))


def build(seed: int, root: Path) -> list[Job]:
    import spinchain as sc

    rng = random.Random(f"{NAME}:{seed}")
    jobs = [_job(sc, kind, n, rng) for kind, ns in SIZES for n in ns]
    rng.shuffle(jobs)
    return jobs


def warmup() -> list[Job]:
    """One small job of each kind, run untimed before the passes."""
    import spinchain as sc

    rng = random.Random(f"{NAME}:warmup")
    return [_job(sc, kind, n, rng) for kind, n in
            (("strings_so", 3), ("strings_su", 2), ("strings_so2n", 3),
             ("general_so2n", 2), ("general_su", 2), ("car", 3))]


def oracle_problems(jobs: list[Job], kept: dict) -> list[tuple[int, str]]:
    """Every algebra check is already independent of the library."""
    return []
