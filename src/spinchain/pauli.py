"""Exact, phase-tracked algebra of n-qubit Pauli strings.

A Pauli string is a word over the alphabet {I, X, Y, Z} together with a
global phase restricted to the fourth roots of unity {+1, +i, -1, -i}.
Keeping the phase in this four-element group (instead of a general complex
scalar) makes every product exact and every value hashable; arbitrary
complex coefficients belong to :class:`spinchain.operators.PauliSum`.

Conventions:

- Qubit 0 is the leftmost letter of the word.
- Phase-free words are plain Python strings, so lexicographic word order
  is ordinary string order and word sets hash for free.
- Text form is ``[+|-][i]?<letters>``, e.g. ``"XY"``, ``"-iZX"``.
"""

from __future__ import annotations

from typing import Iterable, Optional

PAULI_LETTERS = "IXYZ"

# Phase-free words are plain strings; the alias marks intent in signatures.
PauliWord = str

_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_EXPONENT = {1 + 0j: 0, 1j: 1, -1 + 0j: 2, -1j: 3}
_PHASE_PREFIX = ("", "i", "-", "-i")

# Letterwise products a*b -> (power of i, letter).  XY = iZ and cyclic,
# reversed order picks up -i; identical letters square to I.
_LETTER_MUL = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("Y", "I"): (0, "Y"), ("Z", "I"): (0, "Z"),
    ("X", "X"): (0, "I"), ("Y", "Y"): (0, "I"), ("Z", "Z"): (0, "I"),
    ("X", "Y"): (1, "Z"), ("Y", "Z"): (1, "X"), ("Z", "X"): (1, "Y"),
    ("Y", "X"): (3, "Z"), ("Z", "Y"): (3, "X"), ("X", "Z"): (3, "Y"),
}


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
        if not letters:
            raise ValueError("letters must be a nonempty string over IXYZ")
        for idx, ch in enumerate(letters):
            if ch not in PAULI_LETTERS:
                raise ValueError(f"invalid Pauli letter {ch!r} at index {idx}")
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

    @property
    def is_identity_word(self) -> bool:
        return set(self.letters) <= {"I"}

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
        """True iff self*other == other*self.

        For words a*b = i^e c the reversed product is b*a = i^-e c, so two
        Pauli strings commute exactly when e is even.
        """
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


def word_product(a: str, b: str) -> tuple[int, str]:
    """Multiply two phase-free words; returns (power of i, product word)."""
    if len(a) != len(b):
        raise DimensionMismatchError(f"word lengths differ: {len(a)} vs {len(b)}")
    exp = 0
    out = []
    for la, lb in zip(a, b):
        d, lc = _LETTER_MUL[la, lb]
        exp += d
        out.append(lc)
    return exp & 3, "".join(out)


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
    """Symplectic encoding of a word: bit i of x set iff letter i in {X,Y},
    bit i of z set iff letter i in {Y,Z}.  Qubit 0 maps to bit 0."""
    x = z = 0
    for i, ch in enumerate(word):
        if ch == "X":
            x |= 1 << i
        elif ch == "Y":
            x |= 1 << i
            z |= 1 << i
        elif ch == "Z":
            z |= 1 << i
    return x, z


def bits_to_word(x: int, z: int, n: int) -> str:
    """Inverse of word_to_bits."""
    out = []
    for i in range(n):
        xi = (x >> i) & 1
        zi = (z >> i) & 1
        out.append("IXZY"[xi + 2 * zi])
    return "".join(out)


def validate_words(n: int, words: Iterable[str]) -> list[str]:
    """Check every word has length n over IXYZ; returns them as a list."""
    out = []
    for w in words:
        if len(w) != n:
            raise DimensionMismatchError(f"word {w!r} has length {len(w)}, expected {n}")
        for idx, ch in enumerate(w):
            if ch not in PAULI_LETTERS:
                raise ValueError(f"invalid Pauli letter {ch!r} at index {idx} of {w!r}")
        out.append(w)
    return out
