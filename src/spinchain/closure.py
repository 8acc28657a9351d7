"""Dynamical Lie-algebra closures and dimension-based classification.

The Lie algebra generated by a set S is spanned by the right-normed
brackets [s_k, ..., [s_1, s_0]] of its members (Wiersema et al.,
arXiv:2309.05690), so a span that holds S and is closed under ad_s for
every s in S is the whole algebra.  Both engines run that one frontier
loop: the elements found in a round form the next frontier, each is
bracketed only with the input generators, and the loop ends when a
round adds nothing, or raises ResourceLimitError once the span outgrows
MAX_CLOSURE_DIMENSION (4^9 - 1, the universal algebra at n = 9).

- closure_strings works on phase-free Pauli words.  The real span of
  {i*w : w in a word set} is closed under commutation iff the set is
  closed under products of anticommuting pairs, and such products never
  land on the identity word, so the fixpoint set is itself a basis.
- closure_general works on Hermitian PauliSums via rank-tracked
  Gram-Schmidt over the word-coefficient space, for generator sets that
  are not single words (e.g. the hopping/pairing bilinears).

Classification is by dimension only: the labels name the algebra whose
dimension formula matches, and are not a proof of isomorphism type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .operators import PauliSum
from .pauli import ResourceLimitError, bits_to_word, words_to_bits

MAX_CLOSURE_DIMENSION = 4**9 - 1


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a closure run.

    basis is the sorted word list in string mode and None in general
    (rank-tracked) mode, where only the dimension is meaningful.
    rounds counts frontier rounds (bracket depth plus the final empty
    round); pairs_processed counts the (element, generator) brackets
    examined.  Both are fully determined by the input set.
    """

    n: int
    dimension: int
    label: str
    rounds: int
    pairs_processed: int
    basis: Optional[tuple[str, ...]] = None

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "dimension": self.dimension,
            "label": self.label,
            "rounds": self.rounds,
            "pairs_processed": self.pairs_processed,
        }
        if self.basis is not None:
            out["basis"] = list(self.basis)
        return out


class UniversalityResult(NamedTuple):
    universal: bool
    report: ClosureReport


def classify_dimension(n: int, dim: int) -> str:
    """Label a closure dimension against the three reference formulas.

    2n^2-n -> "so(2n)", 2n^2+n -> "so(2n+1)", 4^n-1 -> "su(2^n)",
    anything else -> "other".  At n=1 the last two formulas tie at 3;
    "su(2^n)" wins there (the algebras coincide).
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    if dim == 4**n - 1:
        return "su(2^n)"
    if dim == 2 * n * n + n:
        return "so(2n+1)"
    if dim == 2 * n * n - n:
        return "so(2n)"
    return "other"


def _check_budget(n: int, size: int) -> None:
    if size > MAX_CLOSURE_DIMENSION:
        raise ResourceLimitError(f"closure at n={n} exceeds {MAX_CLOSURE_DIMENSION} elements")


def _report(n: int, dim: int, rounds: int, gen_count: int, basis=None) -> ClosureReport:
    # Every element is bracketed once with every generator.
    return ClosureReport(n, dim, classify_dimension(n, dim), rounds, dim * gen_count, basis)


def closure_strings(n: int, generators: Iterable[str]) -> ClosureReport:
    """Close a set of Pauli words under products of anticommuting pairs.

    Each frontier word is multiplied by every generator it anticommutes
    with; unseen products form the next frontier.  The identity word is
    rejected as input (it cannot arise from commutators and would break
    the dimension count).  Output basis is sorted and independent of
    generator order.
    """
    gens = words_to_bits(n, sorted(set(generators)))
    if not gens:
        raise ValueError("generator set must be nonempty")
    if (0, 0) in gens:
        raise ValueError("the identity word is not a valid closure generator")

    known = set(gens)
    frontier = gens
    rounds = 0
    while frontier:
        rounds += 1
        new = []
        for x1, z1 in frontier:
            for x2, z2 in gens:
                # Anticommuting pair: the parity of bits_product's exponent, inline
                # because a call per pair made this loop about 4x slower.
                if (((x1 & z2) ^ (z1 & x2)).bit_count()) & 1:
                    key = (x1 ^ x2, z1 ^ z2)
                    if key not in known:
                        known.add(key)
                        new.append(key)
            _check_budget(n, len(known))
        frontier = new

    basis = tuple(sorted(bits_to_word(x, z, n) for x, z in known))
    return _report(n, len(basis), rounds, len(gens), basis)


def _inner(a: PauliSum, b: PauliSum) -> float:
    # Real coefficients throughout (Hermitian inputs, i*[A,B] brackets).
    small, big = (a._terms, b._terms) if len(a) <= len(b) else (b._terms, a._terms)
    return sum(c.real * big.get(k, 0j).real for k, c in small.items())


def closure_general(
    n: int, generators: Sequence[PauliSum], tol: float = 1e-9
) -> ClosureReport:
    """Rank-tracked closure of Hermitian PauliSums under C = i*[G, V].

    Maintains an orthonormal real basis of the span in the word
    coefficient space, projecting each candidate against the basis
    (re-orthogonalized once) and keeping residuals with norm above tol.
    Each new basis vector V is bracketed with every generator G.  The
    identity component of every element is projected out first: the
    bracket never produces it and keeping it would count the global
    phase direction as a dimension.  A span larger than 4^n - 1 can
    only come from rounding error passing tol, and raises ValueError.
    """
    if not 0 < tol < float("inf"):
        raise ValueError("tol must be positive and finite")
    if not generators:
        raise ValueError("generator set must be nonempty")
    for g in generators:
        if g.n != n:
            raise ValueError(f"generator acts on {g.n} qubits, expected {n}")
        if not g:
            raise ValueError("generators must be nonzero")
        if not g.is_hermitian:
            raise ValueError("closure generators must be Hermitian (real coefficients)")

    basis: list[PauliSum] = []

    def try_add(candidate: PauliSum) -> None:
        v = candidate.traceless()
        for _ in range(2):
            for b in basis:
                c = _inner(v, b)
                if c:
                    v = v - c * b
        nrm = v.norm()
        if nrm > tol:
            basis.append((1.0 / nrm) * v)

    for g in generators:
        try_add(g)

    frontier = list(basis)
    rounds = 0
    while frontier:
        rounds += 1
        start = len(basis)
        for v in frontier:
            for g in generators:
                try_add(1j * g.commutator(v))
            _check_budget(n, len(basis))
            if len(basis) > 4**n - 1:
                raise ValueError(
                    f"closure at n={n} exceeds 4^n - 1 = {4**n - 1} elements: "
                    f"rounding error passed tol={tol:g}; retry with a larger tol"
                )
        frontier = basis[start:]

    return _report(n, len(basis), rounds, len(generators))


def check_universality(n: int, generators: Iterable[str]) -> UniversalityResult:
    """String closure plus the universality verdict: dimension == 4^n - 1."""
    report = closure_strings(n, generators)
    return UniversalityResult(universal=report.dimension == 4**n - 1, report=report)
