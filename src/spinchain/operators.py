"""Complex linear combinations of Pauli words and the fermionic ladder algebra.

A PauliSum maps phase-free words to complex coefficients; string phases
arising from products are folded into the coefficients.  Terms are keyed
by the words' symplectic bits (pauli.word_to_bits, qubit 0 the most
significant bit) and multiplied by pauli.bits_product; words as strings
remain the API, JSON and sort form.  All constructions here (ladder
operators, anticommutation checks, bilinears) use dyadic coefficients,
so the symbolic identities they satisfy hold exactly in floating point.

Word products a*b = i^e c of Hermitian words reverse as b*a = i^-e c, so
the phase exponent e alone decides each bracket.  ``@``, ``commutator``
and ``anticommutator`` share one pass over the term pairs, in which a
pair adds ca*cb*weight[e] to word c with the weights (1, i, -1, -i),
(0, 2i, 0, -2i) and (2, 0, -2, 0): a bracket is never the difference or
sum of two full products.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .generators import majorana
from .pauli import (
    DimensionMismatchError,
    PauliString,
    ResourceLimitError,
    bits_product,
    bits_to_word,
    word_to_bits,
    words_to_bits,
)

PRUNE_TOLERANCE = 1e-12

# verify_car does O(n^2) bit products: about 0.3 s at n = 100 on a 2-core host.
MAX_CAR_MODES = 100

# Weights of e = 0..3 in each product, where wa*wb = i^e w and so wb*wa = i^-e w.
_PRODUCT_WEIGHTS = (1, 1j, -1, -1j)  # A @ B: the phase i^e itself
_COMMUTATOR_WEIGHTS = (0, 2j, 0, -2j)  # i^e - i^-e: only anticommuting pairs count
_ANTICOMMUTATOR_WEIGHTS = (2, 0, -2, 0)  # i^e + i^-e: only commuting pairs count


class PauliSum:
    """Finite complex-linear combination of phase-free Pauli words.

    Coefficients with magnitude below PRUNE_TOLERANCE are dropped on
    construction, so the zero operator is the empty sum; non-finite
    coefficients and scalars raise ValueError.  The operator is Hermitian
    exactly when every stored coefficient is real (the words themselves
    are Hermitian).

    Use ``+``/``-`` for linear combination, ``*`` for scalars, ``@`` for
    the operator product.  Iteration and serialization order is
    lexicographic in the word string, whatever the order of the bits.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Union[Mapping[str, complex], Iterable] = ()):
        if n < 1:
            raise ValueError("n must be positive")
        items = terms.items() if isinstance(terms, Mapping) else terms
        folded: dict[str, complex] = {}
        for word, coeff in items:
            folded[word] = folded.get(word, 0j) + complex(coeff)
        keys = words_to_bits(n, folded)
        for word, coeff in folded.items():
            if not cmath.isfinite(coeff):
                raise ValueError(f"coefficient of {word!r} is not finite: {coeff!r}")
        self._store(n, dict(zip(keys, folded.values())))

    def _store(self, n: int, terms: dict[tuple[int, int], complex]) -> None:
        """Set n and the bit-keyed terms; the one place coefficients are pruned."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", {k: c for k, c in terms.items() if abs(c) >= PRUNE_TOLERANCE})

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    @classmethod
    def _from_dict(cls, n: int, terms: dict[tuple[int, int], complex]) -> "PauliSum":
        obj = object.__new__(cls)
        obj._store(n, terms)
        return obj

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls._from_dict(n, {})

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n, {"I" * n: coeff})

    @classmethod
    def from_pauli(cls, p: PauliString, coeff: complex = 1.0) -> "PauliSum":
        """Single-term sum; the string's phase is folded into the coefficient."""
        return cls(p.n, {p.letters: p.phase * coeff})

    def items(self) -> list[tuple[str, complex]]:
        """Terms as (word, coefficient), sorted lexicographically."""
        n = self.n
        return sorted((bits_to_word(x, z, n), c) for (x, z), c in self._terms.items())

    def words(self) -> list[str]:
        return [w for w, _ in self.items()]

    def coeff(self, word: str) -> complex:
        """Coefficient of word, 0j when it is not a term (or has another length)."""
        if len(word) != self.n:
            return 0j
        return self._terms.get(word_to_bits(word), 0j)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_hermitian(self) -> bool:
        """Exact test: every coefficient has zero imaginary part."""
        return all(c.imag == 0.0 for c in self._terms.values())

    def _require_same_n(self, other: "PauliSum") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"qubit counts differ: {self.n} vs {other.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        self._require_same_n(other)
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0j) + c
        return PauliSum._from_dict(self.n, out)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "PauliSum":
        return (-1.0) * self

    def __mul__(self, scalar) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            raise TypeError("use @ for operator products, * is for scalars")
        c = complex(scalar)
        if not cmath.isfinite(c):
            raise ValueError(f"scalar must be finite, got {scalar!r}")
        return PauliSum._from_dict(self.n, {w: v * c for w, v in self._terms.items()})

    __rmul__ = __mul__

    def _product(self, other: "PauliSum", weights: tuple[complex, ...]) -> "PauliSum":
        self._require_same_n(other)
        out: dict[tuple[int, int], complex] = {}
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                exp, k = bits_product(ka, kb)
                if weights[exp]:
                    out[k] = out.get(k, 0j) + ca * cb * weights[exp]
        return PauliSum._from_dict(self.n, out)

    def __matmul__(self, other) -> "PauliSum":
        """Operator product, distributing word products over all term pairs."""
        if isinstance(other, PauliString):
            other = PauliSum.from_pauli(other)
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._product(other, _PRODUCT_WEIGHTS)

    def dagger(self) -> "PauliSum":
        """Hermitian conjugate: coefficients conjugated, words unchanged."""
        return PauliSum._from_dict(self.n, {w: c.conjugate() for w, c in self._terms.items()})

    def commutator(self, other: "PauliSum") -> "PauliSum":
        return self._product(other, _COMMUTATOR_WEIGHTS)

    def anticommutator(self, other: "PauliSum") -> "PauliSum":
        return self._product(other, _ANTICOMMUTATOR_WEIGHTS)

    def traceless(self) -> "PauliSum":
        """Drop the identity component (the trace direction)."""
        if (0, 0) not in self._terms:
            return self
        out = dict(self._terms)
        del out[0, 0]
        return PauliSum._from_dict(self.n, out)

    def max_coeff(self) -> float:
        """Largest coefficient magnitude; 0.0 for the zero operator."""
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"({c.real:g}{c.imag:+g}i)*{w}" for w, c in self.items())

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={dict(self.items())!r})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"word": w, "re": c.real, "im": c.imag} for w, c in self.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "PauliSum":
        n = payload["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"PauliSum n must be an integer, got {n!r}")
        terms = [(t["word"], complex(t["re"], t.get("im", 0.0))) for t in payload["terms"]]
        return cls(n, terms)


def annihilation_operator(n: int, k: int) -> PauliSum:
    """Mode-k annihilation operator (majorana(2k) + i*majorana(2k+1)) / 2."""
    if not 0 <= k < n:
        raise ValueError(f"mode index {k} out of range for n={n}")
    even = majorana(n, 2 * k)
    odd = majorana(n, 2 * k + 1)
    return PauliSum(n, [(even.letters, 0.5), (odd.letters, 0.5j)])


def creation_operator(n: int, k: int) -> PauliSum:
    """Mode-k creation operator (majorana(2k) - i*majorana(2k+1)) / 2."""
    return annihilation_operator(n, k).dagger()


@dataclass(frozen=True)
class CarReport:
    """Result of checking the canonical anticommutation relations.

    failures holds (relation id, (k, j), deviation) for every mode pair
    whose anticommutator misses its target; deviation is the largest
    coefficient magnitude of the difference.  All relation coefficients
    are dyadic, so a correct chain yields max_deviation exactly 0.
    """

    n: int
    max_deviation: float
    failures: tuple[tuple[str, tuple[int, int], float], ...]

    @property
    def ok(self) -> bool:
        return self.max_deviation == 0.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "max_deviation": self.max_deviation,
            "failures": [
                {"relation": rel, "k": pair[0], "j": pair[1], "deviation": dev}
                for rel, pair, dev in self.failures
            ],
        }


def verify_car(n: int, *, inject_fault: bool = False) -> CarReport:
    """Check {a_k, a_j} = 0, {a_k+, a_j+} = 0, {a_k, a_j+} = delta_kj
    over all mode pairs by symbolic anticommutators.

    inject_fault replaces the second chain operator with the identity
    word in a_0, a deliberate negative control that must produce failures.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_CAR_MODES:
        raise ResourceLimitError(f"car at n={n} exceeds {MAX_CAR_MODES} modes")
    ann = [annihilation_operator(n, k) for k in range(n)]
    if inject_fault:
        ann[0] = PauliSum(n, [(majorana(n, 0).letters, 0.5), ("I" * n, 0.5j)])
    cre = [a.dagger() for a in ann]
    identity = PauliSum.identity(n)

    failures = []
    worst = 0.0
    for k in range(n):
        for j in range(n):
            checks = (
                ("ann-ann", ann[k].anticommutator(ann[j])),
                ("cre-cre", cre[k].anticommutator(cre[j])),
                ("ann-cre", ann[k].anticommutator(cre[j]) - (identity if k == j else PauliSum.zero(n))),
            )
            for rel, residue in checks:
                dev = residue.max_coeff()
                worst = max(worst, dev)
                if dev > 0.0:
                    failures.append((rel, (k, j), dev))
    return CarReport(n=n, max_deviation=worst, failures=tuple(failures))


def bilinear(n: int, j: int, k: int, kind: str) -> PauliSum:
    """Hermitian quadratic in ladder operators.

    kind "hopping": a_j a_k+ + a_k a_j+ ; kind "pairing": a_j a_k +
    a_k+ a_j+.  Both are Hermitian by construction (each is a term plus
    its own conjugate); pairing with j == k is the zero operator.
    """
    if kind not in ("hopping", "pairing"):
        raise ValueError(f"kind must be 'hopping' or 'pairing', got {kind!r}")
    aj = annihilation_operator(n, j)
    ak = annihilation_operator(n, k)
    if kind == "hopping":
        return aj @ ak.dagger() + ak @ aj.dagger()
    return aj @ ak + ak.dagger() @ aj.dagger()
