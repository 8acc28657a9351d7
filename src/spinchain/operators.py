"""Complex linear combinations of Pauli words and the fermionic ladder algebra.

A PauliSum maps phase-free words to complex coefficients; string phases
arising from products are folded into the coefficients.  Terms are keyed
by the words' symplectic bits (pauli.word_to_bits, qubit 0 the most
significant bit), multiplied by pauli.bits_product and exchanged as bits
by from_bits / bit_items; words as strings remain the API, JSON and sort
form.  All constructions here (ladder operators, anticommutation checks,
bilinears) use dyadic coefficients, so the symbolic identities they
satisfy hold exactly in floating point.

Word products a*b = i^e c of Hermitian words reverse as b*a = i^-e c, so
the phase exponent e alone decides each bracket.  ``@``, ``commutator``
and ``anticommutator`` share one pass over the term pairs of two
bit-keyed term lists, in which a pair adds ca*cb*weight[e] to word c
with the weights (1, i, -1, -i), (0, 2i, 0, -2i) and (2, 0, -2, 0): a
bracket is never the difference or sum of two full products.
verify_car runs the same pass on the ladder operators' bits, builds no
PauliSum per check, and computes each distinct anticommutator once,
skipping the mode pairs that pauli.anticommutation_masks shows add 0.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .generators import majorana
from .pauli import (
    PauliString,
    ResourceLimitError,
    _Value,
    _check_same_n,
    _integer,
    _qubits,
    anticommutation_masks,
    bits_product,
    bits_to_word,
    word_to_bits,
    words_to_bits,
)

PRUNE_TOLERANCE = 1e-12

# verify_car does about 8n bit products on a chain; its cost is the
# anticommutation masks, about 2n^2 XORs of 2n-bit ints.  The budget is
# about 3 s per check: in process on a 2-core host it took 0.17-0.24 /
# 0.60-0.63 / 1.13-1.23 / 1.53-2.47 / 2.32-2.62 / 3.15-4.06 s at
# n = 600 / 1000 / 1400 / 1600 / 1800 / 2000, so the cap is 1600.
MAX_CAR_MODES = 1600

# Weights of e = 0..3 in each product, where wa*wb = i^e w and so wb*wa = i^-e w.
_PRODUCT_WEIGHTS = (1, 1j, -1, -1j)  # A @ B: the phase i^e itself
_COMMUTATOR_WEIGHTS = (0, 2j, 0, -2j)  # i^e - i^-e: only anticommuting pairs count
_ANTICOMMUTATOR_WEIGHTS = (2, 0, -2, 0)  # i^e + i^-e: only commuting pairs count


def _term_product(a: Iterable, b: Iterable, weights: tuple[complex, ...]) -> dict[tuple[int, int], complex]:
    """The one pass over term pairs: ((x, z), c) terms of a and b -> unpruned {(x, z): c}."""
    out: dict[tuple[int, int], complex] = {}
    for ka, ca in a:
        for kb, cb in b:
            exp, k = bits_product(ka, kb)
            if weights[exp]:
                out[k] = out.get(k, 0j) + ca * cb * weights[exp]
    return out


class PauliSum(_Value):
    """Finite complex-linear combination of phase-free Pauli words.

    Coefficients with magnitude below PRUNE_TOLERANCE are dropped on
    construction, so the zero operator is the empty sum; non-finite
    coefficients and scalars raise ValueError.  The operator is Hermitian
    exactly when every stored coefficient is real (the words themselves
    are Hermitian).

    Use ``+``/``-`` for linear combination, ``*`` for scalars, ``@`` for
    the operator product.  Iteration and serialization order is
    lexicographic in the word string, whatever the order of the bits.
    A library value (pauli._Value): sums compare by (n, terms), copy and
    pickle, and are unhashable: their terms are a dict.
    """

    _fields = ("n", "_terms")
    __hash__ = None

    def __init__(self, n: int, terms: Union[Mapping[str, complex], Iterable] = ()):
        n = _qubits(n)
        items = terms.items() if isinstance(terms, Mapping) else terms
        folded: dict[str, complex] = {}
        for word, coeff in items:
            folded[word] = folded.get(word, 0j) + complex(coeff)
        checked = PauliSum.from_bits(n, dict(zip(words_to_bits(n, folded), folded.values())))
        self.__dict__.update(n=n, _terms=checked._terms)

    @classmethod
    def _from_dict(cls, n: int, terms: dict[tuple[int, int], complex]) -> "PauliSum":
        """Sum of bit-keyed terms, unchecked; the one place coefficients are pruned."""
        obj = object.__new__(cls)
        obj.__dict__.update(n=n, _terms={k: c for k, c in terms.items() if abs(c) >= PRUNE_TOLERANCE})
        return obj

    def __reduce__(self):
        return PauliSum._from_dict, (self.n, self._terms)

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls.from_bits(n, {})

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls.from_bits(n, {(0, 0): coeff})

    @classmethod
    def from_pauli(cls, p: PauliString, coeff: complex = 1.0) -> "PauliSum":
        """Single-term sum; the string's phase is folded into the coefficient."""
        return cls.from_bits(p.n, {(p.x, p.z): p.phase * coeff})

    @classmethod
    def from_bits(cls, n: int, terms: Mapping[tuple[int, int], complex]) -> "PauliSum":
        """Sum of {(x, z): coefficient} over word_to_bits pairs, checked and pruned like __init__."""
        n = _qubits(n)
        size = 2**n
        out = {(x, z): complex(c) for (x, z), c in terms.items()}
        for (x, z), c in out.items():
            if not (0 <= x < size and 0 <= z < size):
                raise ValueError(f"bits {(x, z)!r} are out of range for n={n}")
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient of {bits_to_word(x, z, n)!r} is not finite: {c!r}")
        return cls._from_dict(n, out)

    def bit_items(self) -> list[tuple[tuple[int, int], complex]]:
        """Terms as ((x, z), coefficient), in no particular order."""
        return list(self._terms.items())

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

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if not isinstance(other, PauliSum):
            return NotImplemented
        _check_same_n(self, other)
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
        _check_same_n(self, other)
        return PauliSum._from_dict(self.n, _term_product(self._terms.items(), other._terms.items(), weights))

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
        """The sum of a to_json_dict payload; ValueError for a malformed one.

        re and im must be JSON numbers (int or float, not bool), as a
        schedule's angles must, and a word that is not a JSON string makes
        the payload malformed.
        """
        try:
            n = _qubits(payload["n"], "PauliSum n")
            terms = [(t["word"], t["re"], t.get("im", 0.0)) for t in payload["terms"]]
            for word, _, _ in terms:
                if not isinstance(word, str):
                    raise ValueError(f"malformed PauliSum payload: word {word!r} is not a str")
            for value in [v for _, re, im in terms for v in (re, im)]:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"PauliSum coefficients must be JSON numbers, got {value!r}")
            return cls(n, [(word, complex(re, im)) for word, re, im in terms])
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed PauliSum payload: {exc}") from exc


def annihilation_operator(n: int, k: int) -> PauliSum:
    """Mode-k annihilation operator (majorana(2k) + i*majorana(2k+1)) / 2."""
    n, k = _qubits(n), _integer(k, "mode index")
    if not 0 <= k < n:
        raise ValueError(f"mode index {k} out of range for n={n}")
    even = majorana(n, 2 * k)
    odd = majorana(n, 2 * k + 1)
    return PauliSum.from_bits(n, {(even.x, even.z): 0.5, (odd.x, odd.z): 0.5j})


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

    A frozen dataclass, unlike the library values (pauli._Value): callers
    derive variants of a report with dataclasses.replace.
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


def _deviation(terms: dict[tuple[int, int], complex], less_identity: bool = False) -> float:
    """Largest |c| of a pruned product, less the identity if asked, pruned again: 0.0 if none."""
    if less_identity:
        c = terms.get((0, 0), 0j)
        terms[0, 0] = (c if abs(c) >= PRUNE_TOLERANCE else 0j) - 1
    return max((m for c in terms.values() if (m := abs(c)) >= PRUNE_TOLERANCE), default=0.0)


def verify_car(n: int, *, inject_fault: bool = False) -> CarReport:
    """Check {a_k, a_j} = 0, {a_k+, a_j+} = 0, {a_k, a_j+} = delta_kj
    over all mode pairs by symbolic anticommutators.

    Only the pairs k <= j are computed; the rest follow exactly for any
    operators, as {a_k+, a_j+} = {a_j, a_k}+, {a_j, a_k+} = {a_k, a_j+}+
    and a dagger keeps every magnitude.  Of those, only the pairs where a
    term of a_k commutes with a term of a_j are multiplied out, and k = j
    always: in any other pair every term product is odd, so both
    anticommutators are exactly 0.  An honest chain's Majorana words
    pairwise anticommute, so it costs about 8n bit products; the
    anticommutation masks, O(n^2) XORs of 2n-bit ints, dominate.

    inject_fault replaces the second chain operator with the identity
    word in a_0, a deliberate negative control that must produce failures.
    """
    n = _qubits(n)
    if n > MAX_CAR_MODES:
        raise ResourceLimitError(f"car at n={n} exceeds {MAX_CAR_MODES} modes")
    ops = [annihilation_operator(n, k) for k in range(n)]
    if inject_fault:
        ops[0] = PauliSum.from_pauli(majorana(n, 0), 0.5) + PauliSum.identity(n, 0.5j)
    ann = [a.bit_items() for a in ops]
    cre = [a.dagger().bit_items() for a in ops]
    # The term words of a_0, a_1, ... in one list; term t belongs to mode owner[t].
    words = [w for terms in ann for w, _ in terms]
    owner = [k for k, terms in enumerate(ann) for _ in terms]
    full = (1 << len(words)) - 1
    commuting = [full ^ mask for mask in anticommutation_masks(words, words)]

    found = {}  # (k, j, relation) -> deviation, for the nonzero ones
    start = 0
    for k in range(n):
        stop = start + len(ann[k])
        # Bit t of reach: term start + t, of a_k or a later mode, commutes with a term of a_k.
        reach = 0
        for t in range(start, stop):
            reach |= commuting[t]
        reach >>= start
        partners = {k}
        while reach:
            low = reach & -reach
            reach ^= low
            partners.add(owner[start + low.bit_length() - 1])
        start = stop
        for j in partners:
            same = _deviation(_term_product(ann[k], ann[j], _ANTICOMMUTATOR_WEIGHTS))
            mixed = _deviation(_term_product(ann[k], cre[j], _ANTICOMMUTATOR_WEIGHTS), k == j)
            for rel, dev in enumerate((same, same, mixed)):
                if dev > 0.0:
                    found[k, j, rel] = found[j, k, rel] = dev
    names = ("ann-ann", "cre-cre", "ann-cre")
    failures = tuple((names[rel], (k, j), dev) for (k, j, rel), dev in sorted(found.items()))
    return CarReport(n=n, max_deviation=max(found.values(), default=0.0), failures=failures)


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
