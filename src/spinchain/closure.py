"""Dynamical Lie-algebra closures and dimension-based classification.

The Lie algebra generated by a set S is spanned by the right-normed
brackets [s_k, ..., [s_1, s_0]] of its members (Wiersema et al.,
arXiv:2309.05690).  One word loop realises that: the words found in a
round form the next frontier and are multiplied only by the generator
words they anticommute with, until a round adds nothing.  Past
MAX_CLOSURE_DIMENSION words (4^9 - 1, su(2^9)) it raises ResourceLimitError.

- closure_strings returns that word set: the real span of {i*w} is closed
  under commutation iff the set is closed under anticommuting products,
  which never give the identity, so the set is itself a basis.
- closure_general closes Hermitian PauliSums (e.g. the hopping/pairing
  bilinears).  Their brackets stay in the span of the string closure of
  their words, so it runs the same frontier over that fixed index with
  numpy linear algebra: sparse generator actions and rank tracking.

Classification is by dimension only: the labels name the algebra whose
dimension formula matches, and are not a proof of isomorphism type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

from .operators import PauliSum
from .pauli import ResourceLimitError, bits_product, bits_to_word, words_to_bits

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


def _word_closure(n: int, gens: list[tuple[int, int]]) -> tuple[set[tuple[int, int]], int]:
    """The frontier loop over bit-encoded words: (closed word set, rounds)."""
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
    return known, rounds


def closure_strings(n: int, generators: Iterable[str]) -> ClosureReport:
    """Close a set of Pauli words under products of anticommuting pairs.

    The identity word is rejected as input (it cannot arise from
    commutators and would break the dimension count).  Output basis is
    sorted and independent of generator order.
    """
    gens = words_to_bits(n, sorted(set(generators)))
    if not gens:
        raise ValueError("generator set must be nonempty")
    if (0, 0) in gens:
        raise ValueError("the identity word is not a valid closure generator")
    known, rounds = _word_closure(n, gens)
    basis = tuple(sorted(bits_to_word(x, z, n) for x, z in known))
    return _report(n, len(basis), rounds, len(gens), basis)


def closure_general(n: int, generators: Sequence[PauliSum], tol: float = 1e-9) -> ClosureReport:
    """Rank-tracked closure of Hermitian PauliSums under C = i*[G, V].

    Coordinates are the string closure of the generators' non-identity
    words; a generator term c*W with W*U = i^e K, e odd, maps coordinate
    U to 2(e-2)*c on K.  The identity direction is dropped: brackets never
    produce it.  Each new basis vector is bracketed with every generator
    in one block, projected once onto the orthonormal basis as it stands;
    a bracket with residual norm at most tol is dropped, as a larger span
    could only shrink it.  The rest, in generator order, are projected
    out of the current basis twice and kept when their residual norm
    exceeds tol, an absolute threshold.
    The index counts against MAX_CLOSURE_DIMENSION, so a job whose word
    closure passes it raises ResourceLimitError however small its span.
    A span larger than the index can only come from rounding error
    passing tol, and raises ValueError.
    """
    # numpy is imported here, not at module level: the string closure and
    # the CLI commands built on it run without it.
    import numpy as np

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

    terms = [[(k, c.real) for k, c in sorted(g.traceless().bit_items())] for g in generators]
    known, _ = _word_closure(n, sorted({k for t in terms for k, _ in t}))
    index = {k: i for i, k in enumerate(sorted(known))}
    size = len(index)
    # All generator actions as one sparse map, generator g's rows offset by g * size.
    entries = [(g * size + index[k], col, 2 * (e - 2) * c) for g, t in enumerate(terms)
               for w, c in t for u, col in index.items() for e, k in [bits_product(w, u)] if e & 1]
    rows, cols, vals = np.array(entries).reshape(-1, 3).T
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)

    basis = np.empty((1, size))
    dim = 0

    def try_add(v: np.ndarray) -> None:
        nonlocal basis, dim
        q = basis[:dim]
        for _ in range(2):
            v = v - (q @ v) @ q
        nrm = np.sqrt(v @ v)
        if nrm > tol:
            if dim == size:
                raise ValueError(f"closure at n={n} exceeds its {size}-word index: rounding "
                                 f"error passed tol={tol:g}; retry with a larger tol")
            if dim == len(basis):
                basis = np.concatenate([basis, np.empty_like(basis)])
            basis[dim] = v / nrm
            dim += 1

    for t in terms:
        v = np.zeros(size)
        for w, c in t:
            v[index[w]] = c
        try_add(v)

    start = rounds = 0
    while start < dim:
        rounds += 1
        frontier, start = basis[start:dim], dim
        for v in frontier:
            block = np.bincount(rows, weights=vals * v[cols], minlength=len(terms) * size)
            block = block.reshape(len(terms), size)
            block = block[block.any(axis=1)]  # a generator commuting with v brackets to 0
            q = basis[:dim]
            rest = block - (block @ q.T) @ q
            for bracket in block[np.linalg.norm(rest, axis=1) > tol]:
                try_add(bracket)

    return _report(n, dim, rounds, len(generators))


def check_universality(n: int, generators: Iterable[str]) -> UniversalityResult:
    """String closure plus the universality verdict: dimension == 4^n - 1."""
    report = closure_strings(n, generators)
    return UniversalityResult(universal=report.dimension == 4**n - 1, report=report)
