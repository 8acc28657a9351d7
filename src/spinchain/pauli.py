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
- Internally a word is the bit pair (x, z): X -> x, Z -> z, Y -> both,
  qubit 0 the most significant bit (the Kronecker order).  word_to_bits
  and bits_to_word are the only converters, bits_product the one product.
"""

from __future__ import annotations

from typing import Iterable, Optional

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
# bits_to_word spreads bit i of x and z to hex digit i, so that x + 2z has
# the digit x_i + 2 z_i per qubit.  Bytes look their spread up.
_SPREAD = tuple(int(f"{v:b}", 16) for v in range(256))
_LETTERS_OF_DIGITS = str.maketrans("0123", "IXZY")


class DimensionMismatchError(ValueError):
    """Operands act on different numbers of qubits."""


class ResourceLimitError(ValueError):
    """A job exceeds a stated size budget (dense matrix side, closure dimension)."""


class PauliParseError(ValueError):
    """Malformed Pauli string text; carries the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _check_same_n(a: "PauliString", b: "PauliString") -> None:
    if a.n != b.n:
        raise DimensionMismatchError(
            f"qubit counts differ: {a.n} vs {b.n}"
        )


class PauliString:
    """An n-qubit Pauli word with a tracked unit phase.

    Attributes:
        letters: length-n string over "IXYZ"; qubit 0 is letters[0].
        phase_exp: integer 0..3, the power of i giving the global phase.

    Instances are immutable and hashable.  The represented operator is
    Hermitian exactly when the phase is +1 or -1.
    """

    __slots__ = ("letters", "phase_exp")

    def __init__(self, letters: str, phase: complex = 1):
        word_to_bits(letters)  # raises ValueError unless letters is a word over IXYZ
        try:
            exp = _PHASE_EXPONENT[complex(phase)]
        except (KeyError, TypeError):
            raise ValueError(f"phase must be one of +1, +i, -1, -i, got {phase!r}")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "phase_exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def _make(cls, letters: str, phase_exp: int) -> "PauliString":
        obj = object.__new__(cls)
        object.__setattr__(obj, "letters", letters)
        object.__setattr__(obj, "phase_exp", phase_exp & 3)
        return obj

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        """The identity word I...I with phase +1."""
        if n < 1:
            raise ValueError("n must be positive")
        return cls._make("I" * n, 0)

    @property
    def n(self) -> int:
        return len(self.letters)

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_exp]

    @property
    def is_hermitian(self) -> bool:
        """True iff the phase is real (the bare word is always Hermitian)."""
        return self.phase_exp in (0, 2)

    def dagger(self) -> "PauliString":
        """Hermitian conjugate: same word, conjugated phase."""
        return PauliString._make(self.letters, -self.phase_exp)

    def __mul__(self, other):
        if isinstance(other, PauliString):
            _check_same_n(self, other)
            exp, word = word_product(self.letters, other.letters)
            return PauliString._make(word, self.phase_exp + other.phase_exp + exp)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, scalar) -> "PauliString":
        try:
            exp = _PHASE_EXPONENT[complex(scalar)]
        except (KeyError, TypeError):
            return NotImplemented
        return PauliString._make(self.letters, self.phase_exp + exp)

    def __neg__(self) -> "PauliString":
        return PauliString._make(self.letters, self.phase_exp + 2)

    def commutes_with(self, other: "PauliString") -> bool:
        """True iff self*other == other*self: the product's phase exponent is even."""
        _check_same_n(self, other)
        return word_product(self.letters, other.letters)[0] % 2 == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self.letters == other.letters and self.phase_exp == other.phase_exp

    def __hash__(self) -> int:
        return hash((self.letters, self.phase_exp))

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
    if n < 1:
        raise ValueError("n must be positive")
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
    return PauliString._make(letters, exp)


def word_to_bits(word: str) -> tuple[int, int]:
    """Symplectic pair (x, z) of a nonempty word over IXYZ, qubit 0 the top bit."""
    try:
        w = word.encode()
        return int(w.translate(_X_DIGITS), 2), int(w.translate(_Z_DIGITS), 2)
    except ValueError:
        raise ValueError(f"{word!r} is not a nonempty word over IXYZ") from None


def bits_to_word(x: int, z: int, n: int) -> str:
    """Inverse of word_to_bits for an n-qubit word."""
    sx = _SPREAD[x] if x < 256 else int(f"{x:b}", 16)
    sz = _SPREAD[z] if z < 256 else int(f"{z:b}", 16)
    return f"{sx + 2 * sz:x}".translate(_LETTERS_OF_DIGITS).rjust(n, "I")


def words_to_bits(n: int, words: Iterable[str]) -> list[tuple[int, int]]:
    """word_to_bits of every word, checking that each has n letters."""
    out = []
    for w in words:
        if len(w) != n:
            raise DimensionMismatchError(f"word {w!r} has length {len(w)}, expected {n}")
        out.append(word_to_bits(w))
    return out
