"""Named generator families for an n-qubit spin chain.

The central objects are the 2n Jordan-Wigner chain operators (Majorana
operators): a Z-prefix of length m followed by X or Y, acting on qubit m.
They pairwise anticommute and each squares to the identity, so they
realize a Clifford algebra on the chain.  From them this module builds:

- the adjacent bilinears (single-qubit Z and nearest-neighbour XX gates),
- the third-order gate Y on qubit 1 that upgrades the gate set to full
  universality,
- the chirality element (the phase-normalized product of the whole chain,
  which is Z on every qubit),
- the three control buses, and
- the rotation frame used to read unitaries as rotations of a
  (2n+1)-dimensional sphere.

All constructors return Hermitian strings with phase +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pauli import PauliParseError, PauliString, parse_pauli

BUS_IDS = ("I", "II", "III")


def majorana(n: int, k: int) -> PauliString:
    """The k-th chain operator, 0 <= k <= 2n-1.

    Even index 2m: Z^m (x) X (x) I^(n-m-1).
    Odd index 2m+1: Z^m (x) Y (x) I^(n-m-1).
    """
    if not 0 <= k <= 2 * n - 1:
        raise ValueError(f"majorana index {k} out of range for n={n}")
    m, r = divmod(k, 2)
    return PauliString("Z" * m + ("X" if r == 0 else "Y") + "I" * (n - m - 1))


def majorana_bilinear(n: int, k: int) -> PauliString:
    """The k-th adjacent bilinear, 0 <= k <= 2n-2.

    Even index 2m is the single-qubit gate I^m (x) Z (x) I^(n-m-1); odd
    index 2m+1 is the coupling I^m (x) XX (x) I^(n-m-2).  These equal
    i * majorana(k+1) * majorana(k) exactly (in that order; the reversed
    product flips the sign).
    """
    if not 0 <= k <= 2 * n - 2:
        raise ValueError(f"bilinear index {k} out of range for n={n}")
    m, r = divmod(k, 2)
    if r == 0:
        return PauliString("I" * m + "Z" + "I" * (n - m - 1))
    return PauliString("I" * m + "XX" + "I" * (n - m - 2))


def third_order_gate(n: int) -> PauliString:
    """The universality gate: Y on qubit 1, i.e. I (x) Y (x) I^(n-2), in closed form.

    It equals the triple product majorana(0)*majorana(1)*majorana(3) up
    to a unit phase (the product carries a factor i); that identity is a
    test, not re-derived here.
    """
    if n < 2:
        raise ValueError("third-order gate needs at least 2 qubits")
    return PauliString("IY" + "I" * (n - 2))


def chirality(n: int) -> PauliString:
    """Z on every qubit, in closed form.

    It is the phase-normalized product of all 2n chain operators (that
    identity is a test, not re-derived here).  Hermitian, squares to the
    identity, and anticommutes with each chain operator, so it serves as
    the extra (2n+1)-th anticommuting element.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return PauliString("Z" * n)


def gamma_frame(n: int) -> tuple[PauliString, ...]:
    """The 2n+1 Hermitian anticommuting words used for rotation extraction.

    Frame element a < 2n is the phase-normalized product i * majorana(a)
    * chirality; element 2n is the chirality itself.  Multiplying by the
    chirality is what makes the frame work: conjugation by a pulse on a
    single chain operator then rotates the plane spanned by that frame
    element and the chirality axis, and conjugation by a bilinear pulse
    rotates two frame elements into each other, so every pulse drawn
    from buses I and II acts on the frame's span as a plane rotation.
    (The bare chain operators themselves do not have this property for
    n > 1: conjugating one chain operator by a pulse on another leaks
    onto bilinear words outside any 2n+1 dimensional span.)
    """
    gam = chirality(n)
    prods = [majorana(n, a) * gam for a in range(2 * n)]
    return tuple(p.phase.conjugate() * p for p in prods) + (gam,)  # phases set to +1


def subset_product(n: int, indices) -> PauliString:
    """Product of majorana(k) over the given index subset, in increasing k.

    The empty subset gives +1 * I...I.  Over all 2^(2n) subsets the
    resulting words (mod phase) are exactly the 4^n Pauli words.
    """
    prod = PauliString.identity(n)
    for k in sorted(set(indices)):
        prod = prod * majorana(n, k)
    return prod


@dataclass(frozen=True)
class GeneratorRef:
    """Symbolic reference to a named generator on an n-qubit chain.

    kind is one of "e" (chain operator, needs index), "d" (adjacent
    bilinear, needs index), "third", "chirality", or "raw" (carries an
    explicit PauliString).  The text form matches the CLI grammar:
    "e0", "d3", "third", "chirality", or a Pauli literal like "XY".
    """

    kind: str
    n: int
    index: Optional[int] = None
    raw: Optional[PauliString] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.kind in ("e", "d"):
            if self.index is None:
                raise ValueError(f"kind {self.kind!r} needs an index")
            hi = 2 * self.n - 1 if self.kind == "e" else 2 * self.n - 2
            if not 0 <= self.index <= hi:
                raise ValueError(
                    f"index {self.index} out of range 0..{hi} for kind {self.kind!r}, n={self.n}"
                )
        elif self.kind == "third":
            if self.n < 2:
                raise ValueError("third-order gate needs at least 2 qubits")
        elif self.kind == "raw":
            if self.raw is None:
                raise ValueError("raw reference needs a PauliString")
            if self.raw.n != self.n:
                raise ValueError(f"raw string acts on {self.raw.n} qubits, expected {self.n}")
        elif self.kind != "chirality":
            raise ValueError(f"unknown generator kind {self.kind!r}")

    def resolve(self) -> PauliString:
        """The concrete PauliString this reference names."""
        if self.kind == "e":
            return majorana(self.n, self.index)
        if self.kind == "d":
            return majorana_bilinear(self.n, self.index)
        if self.kind == "third":
            return third_order_gate(self.n)
        if self.kind == "chirality":
            return chirality(self.n)
        return self.raw

    @property
    def label(self) -> str:
        """Text form, parseable by parse_generator."""
        if self.kind in ("e", "d"):
            return f"{self.kind}{self.index}"
        if self.kind == "raw":
            return str(self.raw)
        return self.kind


def parse_generator(text: str, n: int) -> GeneratorRef:
    """Parse "e<k>", "d<k>", "third", "chirality", or a Pauli literal."""
    text = text.strip()
    if text == "third":
        return GeneratorRef("third", n)
    if text == "chirality":
        return GeneratorRef("chirality", n)
    if len(text) >= 2 and text[0] in ("e", "d") and text[1:].isdigit():
        return GeneratorRef(text[0], n, index=int(text[1:]))
    try:
        raw = parse_pauli(text, n)
    except PauliParseError as exc:
        raise ValueError(f"cannot parse generator {text!r}: {exc}") from exc
    return GeneratorRef("raw", n, raw=raw)


@dataclass(frozen=True)
class GateBus:
    """One of the three control buses.

    Bus I: the n single-qubit Z gates (even bilinears).
    Bus II: the n-1 nearest-neighbour XX couplings (odd bilinears) plus
        the X gate on qubit 0, for 2n gates across buses I and II.
    Bus III: the single third-order Y gate on qubit 1.
    """

    bus_id: str
    n: int
    members: tuple[GeneratorRef, ...]

    def paulis(self) -> list[PauliString]:
        return [ref.resolve() for ref in self.members]

    def words(self) -> list[str]:
        return [p.letters for p in self.paulis()]


def build_bus(n: int, bus_id: str) -> GateBus:
    """Construct bus "I", "II", or "III" for an n-qubit chain.

    Bus III needs n >= 2.  Bus II degenerates to the single X gate at
    n = 1 (there are no couplings on a one-qubit chain).
    """
    bus_id = bus_id.strip().upper()
    if n < 1:
        raise ValueError("n must be positive")
    if bus_id == "I":
        members = tuple(GeneratorRef("d", n, index=2 * k) for k in range(n))
    elif bus_id == "II":
        members = (GeneratorRef("e", n, index=0),) + tuple(
            GeneratorRef("d", n, index=2 * k + 1) for k in range(n - 1)
        )
    elif bus_id == "III":
        members = (GeneratorRef("third", n),)
    else:
        raise ValueError(f"unknown bus id {bus_id!r}; expected one of {BUS_IDS}")
    return GateBus(bus_id, n, members)
