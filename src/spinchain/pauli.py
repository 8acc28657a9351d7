"""Exact, phase-tracked algebra of n-qubit Pauli strings.

A Pauli string is a word over the alphabet {I, X, Y, Z} together with a
global phase restricted to the fourth roots of unity {+1, +i, -1, -i}.
Keeping the phase in this four-element group (instead of a general complex
scalar) makes every product exact and every value hashable; arbitrary
complex coefficients belong to :class:`spinchain.operators.PauliSum`.

Conventions:

- Qubit 0 is the leftmost letter of the word.
- Phase-free words are plain Python strings in the API, so lexicographic
  word order is ordinary string order and word sets hash for free.
- Text form is ``[+|-][i]?<letters>``, e.g. ``"XY"``, ``"-iZX"``.
- A word is the bit pair (x, z): X -> x, Z -> z, Y -> both, qubit 0 the
  most significant bit (the Kronecker order).  A PauliString holds n, x, z
  and phase_exp; its letters are derived.  bits_product is the one product;
  anticommutation_masks reads the commutation of many word pairs at once.
- A word's code is spread(x) + 2 spread(z), one hex digit x_i + 2 z_i per
  qubit, so the code of a product is the XOR of the factors' codes.
  word_to_bits, bits_to_word, word_code, code_to_word and code_to_bits
  are the only converters.

Every layer reads its inputs through the rules defined here, the lowest
layer that reads them: _integer for an integer argument, _qubits for a
chain length n (an integer, at least 1) and _check_tolerance for a
tolerance (positive and finite).  Each public entry that takes one
applies its rule, so a bad n fails the same way everywhere.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence

PAULI_LETTERS = "IXYZ"

# Phase-free words are plain strings; the alias marks intent in signatures.
PauliWord = str

_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_EXPONENT = {1 + 0j: 0, 1j: 1, -1 + 0j: 2, -1j: 3}
_PHASE_PREFIX = ("", "i", "-", "-i")

# Byte tables taking a letter to its x or z bit as a binary digit and any other
# byte to "!" (find gives -1), which int() rejects, so translating validates.
_X_DIGITS = bytes(b"0110!"[PAULI_LETTERS.find(chr(c))] for c in range(256))
_Z_DIGITS = bytes(b"0011!"[PAULI_LETTERS.find(chr(c))] for c in range(256))
# word_code spreads bit i of x and z to hex digit i, so that x + 2z has
# the digit x_i + 2 z_i per qubit.  Bytes look their spread up.
_SPREAD = tuple(int(f"{v:b}", 16) for v in range(256))
_LETTERS_OF_DIGITS = str.maketrans("0123", "IXZY")
_X_OF_DIGITS = str.maketrans("0123", "0101")
_Z_OF_DIGITS = str.maketrans("0123", "0011")


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class ResourceLimitError(ValueError):
    """A job exceeds a stated size budget (dense matrix side, closure dimension)."""


class PauliParseError(ValueError):
    """Malformed Pauli string text; carries the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _integer(value, what: str) -> int:
    """value as an int: an int or another integer type (numpy's), not a bool or a float.

    Integer types are those with __index__; what names the value in the message.
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _qubits(n, what: str = "n") -> int:
    """n as an int, a chain of at least one qubit; ValueError otherwise.

    The one rule for a chain length; what names it in the message.
    """
    n = _integer(n, what)
    if n < 1:
        raise ValueError(f"{what} must be positive")
    return n


def _check_tolerance(tol, what: str = "tolerance") -> None:
    """Refuse a tolerance that is not positive and finite; what names it in the message."""
    if not 0 < tol < float("inf"):
        raise ValueError(f"{what} must be positive and finite")


def _check_same_n(a, b) -> None:
    """Raise DimensionMismatchError unless a and b (words or sums) have the same n."""
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} vs {b.n}")


class _Value:
    """Base of the library's immutable values, in place of a frozen dataclass.

    A subclass names its fields in _fields, in its constructor's order,
    and stores them in its __dict__.  Equality, the hash and the repr read
    the first _compared of them (all by default); the rest ride along.
    Two values are equal when they have the same class and equal tuples
    of compared fields, and the hash is the hash of that tuple.  A
    subclass may set its own __hash__.  Fields are read-only, and a value
    copies and pickles as a call of its constructor on its fields.
    dataclasses is not used: importing it imports inspect, about 10 ms of
    a one-shot command on a 2-core x86_64 host.
    """

    _fields: tuple[str, ...] = ()
    _compared: Optional[int] = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._fields[:self._compared]
        return tuple(getattr(self, name) for name in names) == tuple(getattr(other, name) for name in names)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields[:self._compared]))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields[:self._compared])
        return f"{self.__class__.__qualname__}({shown})"


class PauliString(_Value):
    """An n-qubit Pauli word with a tracked unit phase.

    Attributes:
        n: number of qubits.
        x, z: the word's symplectic bits (word_to_bits), qubit 0 the top bit.
        phase_exp: integer 0..3, the power of i giving the global phase.

    letters is derived from the bits.  A library value (_Value): equality
    and the hash are those of (n, x, z, phase_exp), and instances copy and
    pickle.  The represented operator is Hermitian exactly when the phase
    is +1 or -1.
    """

    _fields = ("n", "x", "z", "phase_exp")

    def __init__(self, letters: str, phase: complex = 1):
        x, z = word_to_bits(letters)  # raises ValueError unless letters is a word over IXYZ
        try:
            exp = _PHASE_EXPONENT[complex(phase)]
        except (KeyError, TypeError):
            raise ValueError(f"phase must be one of +1, +i, -1, -i, got {phase!r}")
        self.__dict__.update(n=len(letters), x=x, z=z, phase_exp=exp)

    @classmethod
    def _make(cls, n: int, x: int, z: int, phase_exp: int) -> "PauliString":
        obj = object.__new__(cls)
        obj.__dict__.update(n=n, x=x, z=z, phase_exp=phase_exp & 3)
        return obj

    def __reduce__(self):
        return PauliString._make, (self.n, self.x, self.z, self.phase_exp)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        """The identity word I...I with phase +1."""
        return cls._make(_qubits(n), 0, 0, 0)

    @property
    def letters(self) -> str:
        """The word over "IXYZ", qubit 0 first."""
        return bits_to_word(self.x, self.z, self.n)

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_exp]

    @property
    def is_hermitian(self) -> bool:
        """True iff the phase is real (the bare word is always Hermitian)."""
        return self.phase_exp in (0, 2)

    def dagger(self) -> "PauliString":
        """Hermitian conjugate: same word, conjugated phase."""
        return PauliString._make(self.n, self.x, self.z, -self.phase_exp)

    def __mul__(self, other):
        if isinstance(other, PauliString):
            _check_same_n(self, other)
            exp, (x, z) = bits_product((self.x, self.z), (other.x, other.z))
            return PauliString._make(self.n, x, z, self.phase_exp + other.phase_exp + exp)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, scalar) -> "PauliString":
        try:
            exp = _PHASE_EXPONENT[complex(scalar)]
        except (KeyError, TypeError):
            return NotImplemented
        return PauliString._make(self.n, self.x, self.z, self.phase_exp + exp)

    def __neg__(self) -> "PauliString":
        return PauliString._make(self.n, self.x, self.z, self.phase_exp + 2)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff self*other == other*self: |x1&z2| + |z1&x2| is even."""
        _check_same_n(self, other)
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase_exp] + self.letters

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


def bits_product(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """Product of two words as bits: W(a) W(b) = i^e W(x, z); returns (e, (x, z)).

    A word is W(x, z) = i^|x&z| X^x Z^z, and moving Z^z1 past X^x2 gives
    (-1)^|z1&x2|, so e = |x1&z1| + |x2&z2| - |x&z| + 2|z1&x2| mod 4
    (Aaronson & Gottesman, arXiv:quant-ph/0406196).  The reversed product
    is i^-e W(x, z), so the words commute exactly when e is even.
    """
    (x1, z1), (x2, z2) = a, b
    x, z = x1 ^ x2, z1 ^ z2
    e = (x1 & z1).bit_count() + (x2 & z2).bit_count() - (x & z).bit_count()
    return (e + 2 * (z1 & x2).bit_count()) & 3, (x, z)


def anticommutation_masks(
    a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]]
) -> list[int]:
    """For each word of a (as bits), an int whose bit j is set iff it anticommutes with b[j].

    Two words anticommute iff |x1&z2| + |z1&x2| is odd, a bit of the GF(2)
    symplectic form, which is linear in each word.  So with the bit planes
    X_q (bit j set iff b[j] has an x bit on qubit q) and Z_q (the same for
    z), a word's mask is the XOR of Z_q over its x bits and of X_q over its
    z bits: O(sum of popcounts) XORs of |b|-bit ints, no pair tested.
    """
    size = max((max(x, z).bit_length() for x, z in (*a, *b)), default=0)
    x_planes, z_planes = [0] * size, [0] * size
    for planes, bits in ((x_planes, 0), (z_planes, 1)):
        for j, word in enumerate(b):
            v, bit = word[bits], 1 << j
            while v:
                low = v & -v
                v ^= low
                planes[low.bit_length() - 1] |= bit
    masks = []
    for x, z in a:
        mask = 0
        for v, planes in ((x, z_planes), (z, x_planes)):
            while v:
                low = v & -v
                v ^= low
                mask ^= planes[low.bit_length() - 1]
        masks.append(mask)
    return masks


def word_product(a: str, b: str) -> tuple[int, str]:
    """Multiply two phase-free words; returns (power of i, product word)."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"word lengths differ: {len(a)} vs {len(b)}")
    exp, (x, z) = bits_product(word_to_bits(a), word_to_bits(b))
    return exp, bits_to_word(x, z, len(a))


def commutator(p: PauliString, q: PauliString) -> Optional[PauliString]:
    """Commutator of two Pauli strings, up to the fixed scalar 2.

    Returns None when p and q commute.  Otherwise returns the string
    s = p*q, with the understanding that [p, q] = 2*s; the factor 2 is
    a scalar outside the phase group and is left to the caller.
    """
    if p.commutes_with(q):
        return None
    return p * q


def parse_pauli(text: str, n: int) -> PauliString:
    """Parse ``[+|-][i]?<letters>`` into a PauliString of exactly n letters.

    Raises PauliParseError (with the failing character position) on bad
    input; round-trips with str(): parse_pauli(str(p), p.n) == p.
    """
    n = _qubits(n)
    pos = 0
    exp = 0
    if pos < len(text) and text[pos] in "+-":
        if text[pos] == "-":
            exp += 2
        pos += 1
    if pos < len(text) and text[pos] == "i":
        exp += 1
        pos += 1
    letters = text[pos:]
    for idx, ch in enumerate(letters):
        if ch not in PAULI_LETTERS:
            raise PauliParseError(f"invalid character {ch!r}", pos + idx)
    if len(letters) != n:
        raise PauliParseError(
            f"expected {n} letters, got {len(letters)}", pos + min(len(letters), n)
        )
    return PauliString._make(n, *word_to_bits(letters), exp)


def word_to_bits(word: str) -> tuple[int, int]:
    """Symplectic pair (x, z) of a nonempty word over IXYZ, qubit 0 the top bit."""
    try:
        w = word.encode()
        return int(w.translate(_X_DIGITS), 2), int(w.translate(_Z_DIGITS), 2)
    except ValueError:
        raise ValueError(f"{word!r} is not a nonempty word over IXYZ") from None


def bits_to_word(x: int, z: int, n: int) -> str:
    """Inverse of word_to_bits for an n-qubit word."""
    return code_to_word(word_code(x, z), n)


def word_code(x: int, z: int) -> int:
    """The word's one-int key spread(x) + 2 spread(z): hex digit i is x_i + 2 z_i.

    Codes multiply by XOR: the code of W(a) W(b) is word_code(*a) ^ word_code(*b).
    """
    sx = _SPREAD[x] if x < 256 else int(f"{x:b}", 16)
    sz = _SPREAD[z] if z < 256 else int(f"{z:b}", 16)
    return sx + 2 * sz


def code_to_word(code: int, n: int) -> str:
    """The n-qubit word of a word_code."""
    return f"{code:x}".translate(_LETTERS_OF_DIGITS).rjust(n, "I")


def code_to_bits(code: int) -> tuple[int, int]:
    """Inverse of word_code: the bits (x, z)."""
    digits = f"{code:x}"
    return int(digits.translate(_X_OF_DIGITS), 2), int(digits.translate(_Z_OF_DIGITS), 2)


def words_to_bits(n: int, words: Iterable[str]) -> list[tuple[int, int]]:
    """word_to_bits of every word, checking that each is a str of n letters.

    The one rule for a list of words, which closure_strings and PauliSum
    apply: a word that is not a str (bytes, a PauliString, None) raises
    ValueError naming it.
    """
    out = []
    for w in words:
        if not isinstance(w, str):
            raise ValueError(f"word {w!r} is not a str")
        if len(w) != n:
            raise DimensionMismatchError(f"word {w!r} has length {len(w)}, expected {n}")
        out.append(word_to_bits(w))
    return out
