"""Dynamical Lie-algebra closures and dimension-based classification.

The Lie algebra generated by a set S is spanned by the right-normed
brackets [s_k, ..., [s_1, s_0]] of its members (Wiersema et al.,
arXiv:2309.05690).  One word loop realises that: the words found in a
round form the next frontier and are multiplied only by the generator
words they anticommute with, until a round adds nothing.  Each word is
one int key (pauli.word_code; a product is an XOR) with a GF(2) mask of
the generators it anticommutes with (pauli.anticommutation_masks), which
its product with generator j inherits as mask ^ mask(g_j).  A word
first found as p * g_j skips g_j and every g_k, k < j, commuting with
g_j: its product with such a g_k is (p * g_k) * g_j, which p * g_k,
earlier in the frontier, reaches or hands on to an element earlier
still (_word_closure gives the proof).  So buses I and II make dim + 2n
brackets (2,144 at n = 32, against 8,064).  Past MAX_CLOSURE_DIMENSION
words (4^9 - 1, su(2^9)) it raises ResourceLimitError.

- closure_strings returns that word set: the real span of {i*w} is closed
  under commutation iff the set is closed under anticommuting products,
  which never give the identity, so the set is itself a basis.
- closure_general closes Hermitian PauliSums (e.g. the hopping/pairing
  bilinears).  Their brackets stay in the span of the string closure of
  their words, so it runs the same frontier over that index, acting on
  anticommuting pairs only, with an exact rank over F_p: no tol, no numpy.

Classification is by dimension only: the labels name the algebra whose
dimension formula matches, and are not a proof of isomorphism type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .pauli import (
    ResourceLimitError,
    _check_tolerance,
    _integer,
    _qubits,
    anticommutation_masks,
    bits_product,
    code_to_bits,
    code_to_word,
    word_code,
    words_to_bits,
)

if TYPE_CHECKING:  # an annotation only: closure_strings runs without operators
    from .operators import PauliSum

MAX_CLOSURE_DIMENSION = 4**9 - 1
# closure_general's prime: a float is m * 2^k with odd m < 2^53, never 0 mod p.
_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class ClosureReport:
    """Outcome of a closure run.

    basis is the sorted word list of a string closure, and None for a
    general one, which reports its exact dimension only.
    rounds counts frontier rounds (bracket depth plus the final empty
    round); pairs_processed counts the (element, generator) pairs the
    closure covers, dimension times the number of generators.  It is not
    the number of brackets made: the string loop brackets a word only
    with generators it anticommutes with (a commuting pair brackets to
    0), and skips those whose product an earlier pair reaches.  Both are
    fully determined by the input set.

    A frozen dataclass, unlike the library values (pauli._Value): callers
    derive variants of a report with dataclasses.replace.
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
    n, dim = _qubits(n), _integer(dim, "dimension")
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
    # The pairs covered, dimension times generators, not the brackets made (see ClosureReport).
    return ClosureReport(n, dim, classify_dimension(n, dim), rounds, dim * gen_count, basis)


def _word_closure(n: int, gens: list[tuple[int, int]]) -> tuple[dict[int, int], int]:
    """The frontier loop over word codes: ({code: mask} of the closed set, rounds).

    Bit j of a word's mask says whether it anticommutes with gens[j].  The
    symplectic form is bilinear over GF(2), so mask(w * g_j) = mask(w) ^
    mask(g_j): each word inherits its mask from its parent.  A frontier
    entry is (code, mask, todo); the loop brackets the word with the
    generators of todo, a subset of mask, lowest first, as a scan of every
    generator in order would meet them.  A generator's todo is its mask.

    A new word w, first found as p * g_j, leaves out of its todo g_j and
    every g_k with k < j that commutes with g_j (it anticommutes with w
    exactly when it does with p): todo = mask & keep[j].  No such product
    is new when w is bracketed, so the loop finds what the loop over every
    anticommuting generator finds, in the same order, with the same
    rounds.  w * g_j = p is known.  A skipped g_k, k < j, that
    anticommutes with w does so with p, and w * g_k is the same word as
    (p * g_k) * g_j.  p met g_k before g_j, so p * g_k was known before w
    and comes before it in the frontier, and it anticommutes with g_j.
    So either it brackets with g_j itself, the larger generator index,
    before w is reached, or it skipped g_j by this rule and hands the word
    on to an element earlier still.  Each step goes to an earlier element,
    so the chain ends at a pair the loop brackets.  Buses I and II make
    dim + 2n brackets this way, against about 4 dim.
    """
    # Slot j + 1 holds gens[j], so that a mask's lowest set bit low finds
    # its generator at low.bit_length().
    codes = [0] + [word_code(x, z) for x, z in gens]
    masks = [0] + anticommutation_masks(gens, gens)
    # keep[j]: every bit but those of slots 1..j that commute with slot j (itself among them).
    keep = [m | -(1 << j) for j, m in enumerate(masks)]
    known = dict(zip(codes[1:], masks[1:]))
    frontier = [(code, mask, mask) for code, mask in known.items()]
    rounds = 0
    while frontier:
        rounds += 1
        new = []
        add = new.append
        for code, mask, todo in frontier:
            while todo:
                low = todo & -todo
                todo ^= low
                j = low.bit_length()
                key = code ^ codes[j]
                if key not in known:
                    known[key] = key_mask = mask ^ masks[j]
                    add((key, key_mask, key_mask & keep[j]))
            _check_budget(n, len(known))
        frontier = new
    return known, rounds


def closure_strings(n: int, generators: Iterable[str]) -> ClosureReport:
    """Close a set of Pauli words under products of anticommuting pairs.

    generators is a collection of words; a bare str is refused, as its
    letters would be read as one-letter words.  The identity word is
    rejected as input (it cannot arise from commutators and would break
    the dimension count).  Output basis is sorted and independent of
    generator order.
    """
    n = _qubits(n)
    if isinstance(generators, str):
        raise ValueError(f"generators must be a collection of words, not the str {generators!r}")
    words = list(generators)
    bits = dict(zip(words, words_to_bits(n, words)))  # every word checked before any is sorted
    gens = [bits[w] for w in sorted(bits)]
    if not gens:
        raise ValueError("generator set must be nonempty")
    if (0, 0) in gens:
        raise ValueError("the identity word is not a valid closure generator")
    known, rounds = _word_closure(n, gens)
    basis = tuple(sorted(code_to_word(code, n) for code in known))
    return _report(n, len(basis), rounds, len(gens), basis)


def closure_general(n: int, generators: Iterable[PauliSum], tol: float = 1e-9) -> ClosureReport:
    """Exact closure of Hermitian PauliSums under C = i*[G, V], by rank over F_p.

    Coordinates are the string closure of the generators' non-identity
    words (it counts against MAX_CLOSURE_DIMENSION); a term c*W with
    W*U = i^e K, e odd, maps coordinate U to 2(e-2)*c on K.  A float is a
    dyadic rational, so c maps into F_p, p = 2^61 - 1, by its integer
    ratio.  Each frontier vector, as it was added, is bracketed with every
    generator, and a bracket is kept unless the fully reduced basis
    {pivot: row} reduces it to zero.  The dimension is the rank mod p of
    the rational brackets: never above their rational dimension, and equal
    to it unless p divides certain minors.  No scale and no tol enters;
    tol is only checked (positive and finite).
    """
    from .operators import PauliSum  # here: closure_strings runs without operators

    n = _qubits(n)
    _check_tolerance(tol, "tol")
    if isinstance(generators, str):
        raise ValueError(f"generators must be a collection of PauliSums, not the str {generators!r}")
    generators = list(generators)
    if not generators:
        raise ValueError("generator set must be nonempty")
    for g in generators:
        if not isinstance(g, PauliSum):
            raise ValueError(f"generator {g!r} is not a PauliSum")
        if g.n != n:
            raise ValueError(f"generator acts on {g.n} qubits, expected {n}")
        if not g:
            raise ValueError("generators must be nonzero")
        if not g.is_hermitian:
            raise ValueError("closure generators must be Hermitian (real coefficients)")

    p = _PRIME
    terms = [[(k, num * pow(den, -1, p) % p) for k, c in g.traceless().bit_items()
              for num, den in [c.real.as_integer_ratio()]] for g in generators]
    owners = {}  # (generator, residue) of each term word
    for g, t in enumerate(terms):
        for w, c in t:
            owners.setdefault(w, []).append((g, c))
    words = sorted(owners)
    known, _ = _word_closure(n, words)
    # Each index word's brackets with the terms its mask names: (generator, code, coefficient).
    action = {}
    for code, mask in known.items():
        u, action[code] = code_to_bits(code), []
        while mask:
            low = mask & -mask
            mask ^= low
            w = words[low.bit_length() - 1]
            e, k = bits_product(w, u)
            action[code] += [(g, word_code(*k), 2 * (e - 2) * c % p) for g, c in owners[w]]

    basis = {}  # pivot code -> row: 1 at its pivot, 0 at every other pivot
    held = set()  # every code a row holds off its pivot, perhaps more
    new = []

    def add(v: dict) -> None:
        r = dict(v)
        for col, x in v.items():  # a row holds no other pivot: one pass reduces v
            for k, y in basis.get(col, {}).items():
                r[k] = (r.get(k, 0) - x * y) % p
        r = {k: y for k, y in r.items() if y}
        if r:
            q = next(iter(r))
            inv = pow(r[q], -1, p)
            r = {k: y * inv % p for k, y in r.items()}
            for piv, row in basis.items() if q in held else ():
                x = row.get(q)
                if x:
                    for k, y in r.items():
                        row[k] = (row.get(k, 0) - x * y) % p
                    basis[piv] = {k: y for k, y in row.items() if y}
            held.update(r)
            held.discard(q)
            basis[q] = r
            new.append(dict(r))  # a copy: later pivots reduce the rows, never the frontier

    for t in terms:
        add({word_code(*k): c for k, c in t})
    rounds = 0
    while new:
        rounds += 1
        frontier, new = new, []
        for v in frontier:
            if len(basis) == len(known):  # the span fills the index: nothing more is added
                break
            brackets = {}
            for col, x in v.items():
                for g, k, a in action[col]:
                    b = brackets.setdefault(g, {})
                    b[k] = b.get(k, 0) + a * x
            for b in brackets.values():
                add({k: y % p for k, y in b.items()})

    return _report(n, len(basis), rounds, len(generators))


def check_universality(n: int, generators: Iterable[str]) -> UniversalityResult:
    """String closure plus the universality verdict: dimension == 4^n - 1."""
    report = closure_strings(n, generators)
    return UniversalityResult(universal=report.dimension == 4**report.n - 1, report=report)
