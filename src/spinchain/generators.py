"""Named generator families for an n-qubit spin chain, built from word bits.

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
  (2n+1)-dimensional sphere (Jozsa & Miyake, arXiv:0804.4050).

Every named word is made from its symplectic bits (x, z), qubit 0 the top
bit (Aaronson & Gottesman, arXiv:quant-ph/0406196), with no string built.
_frame_bits is the one layout rule: frame and dense read the frame's
bits from it, and chain operator k is frame word k with z flipped on
every qubit.  _checked is the one validity rule of the named kinds, for
the public builders and GeneratorRef alike; it reads n and the index
through pauli's integer and chain-length rules (_integer, _qubits), as
build_bus reads n.

All constructors return Hermitian strings with phase +1.
"""

from __future__ import annotations

from typing import Optional

from .pauli import PauliParseError, PauliString, _integer, _qubits, _Value, parse_pauli

BUS_IDS = ("I", "II", "III")


def _frame_bits(n: int, a: int) -> tuple[int, int]:
    """Bits (x, z) of gamma_frame(n)[a], whose phase is +1.

    Word 2m is I^m Y Z^(n-m-1), word 2m+1 is I^m X Z^(n-m-1) and word 2n
    is Z^n; qubit m is bit n-1-m.
    """
    if a == 2 * n:
        return 0, (1 << n) - 1
    m, odd = divmod(a, 2)
    qubit = 1 << (n - 1 - m)
    tail = (qubit << 1) - 1  # qubits m..n-1
    return qubit, tail ^ qubit if odd else tail


def _checked(kind: str, n, index=None) -> tuple[int, Optional[int]]:
    """n and index of a valid generator of this kind, as ints; ValueError otherwise.

    The one validity rule of the kinds: the public builders and
    GeneratorRef both apply it.  Kinds e and d need an index, and the
    others take none, so that a reference's label names it exactly.
    """
    n = _qubits(n)
    if kind not in ("e", "d", "third", "chirality", "raw"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if kind in ("e", "d"):
        if index is None:
            raise ValueError(f"kind {kind!r} needs an index")
        index = _integer(index, "index")
        hi = 2 * n - 1 if kind == "e" else 2 * n - 2
        if not 0 <= index <= hi:
            raise ValueError(f"index {index} out of range 0..{hi} for kind {kind!r}, n={n}")
    elif index is not None:
        raise ValueError(f"kind {kind!r} takes no index, got {index!r}")
    elif kind == "third" and n < 2:
        raise ValueError("third-order gate needs at least 2 qubits")
    return n, index


def _word(kind: str, n: int, index: Optional[int]) -> PauliString:
    """The named word of a valid (kind, n, index), from its bits, with phase +1."""
    if kind == "e":
        x, z = _frame_bits(n, index)
        z ^= (1 << n) - 1
    elif kind == "d":  # index 2m: Z on qubit m; index 2m+1: XX on qubits m, m+1
        qubit = 1 << (n - 1 - index // 2)
        x, z = (qubit | qubit >> 1, 0) if index & 1 else (0, qubit)
    elif kind == "third":  # Y on qubit 1
        x = z = 1 << (n - 2)
    else:  # the chirality, Z on every qubit
        x, z = 0, (1 << n) - 1
    return PauliString._make(n, x, z, 0)


def majorana(n: int, k: int) -> PauliString:
    """The k-th chain operator, 0 <= k <= 2n-1.

    Even index 2m: Z^m (x) X (x) I^(n-m-1).
    Odd index 2m+1: Z^m (x) Y (x) I^(n-m-1).
    """
    return _word("e", *_checked("e", n, k))


def majorana_bilinear(n: int, k: int) -> PauliString:
    """The k-th adjacent bilinear, 0 <= k <= 2n-2.

    Even index 2m is the single-qubit gate I^m (x) Z (x) I^(n-m-1); odd
    index 2m+1 is the coupling I^m (x) XX (x) I^(n-m-2).  These equal
    i * majorana(k+1) * majorana(k) exactly (in that order; the reversed
    product flips the sign).
    """
    return _word("d", *_checked("d", n, k))


def third_order_gate(n: int) -> PauliString:
    """The universality gate: Y on qubit 1, i.e. I (x) Y (x) I^(n-2), in closed form.

    It equals the triple product majorana(0)*majorana(1)*majorana(3) up
    to a unit phase (the product carries a factor i); that identity is a
    test, not re-derived here.
    """
    return _word("third", *_checked("third", n))


def chirality(n: int) -> PauliString:
    """Z on every qubit, in closed form.

    It is the phase-normalized product of all 2n chain operators (that
    identity is a test, not re-derived here).  Hermitian, squares to the
    identity, and anticommutes with each chain operator, so it serves as
    the extra (2n+1)-th anticommuting element.
    """
    return _word("chirality", *_checked("chirality", n))


def gamma_frame(n: int) -> tuple[PauliString, ...]:
    """The 2n+1 Hermitian anticommuting words used for rotation extraction, from _frame_bits.

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
    n, _ = _checked("chirality", n)  # word 2n is the chirality
    return tuple(PauliString._make(n, *_frame_bits(n, a), 0) for a in range(2 * n + 1))


def subset_product(n: int, indices) -> PauliString:
    """Product of majorana(k) over the given index subset, in increasing k.

    The empty subset gives +1 * I...I.  Over all 2^(2n) subsets the
    resulting words (mod phase) are exactly the 4^n Pauli words.
    """
    prod = PauliString.identity(n)
    for k in sorted(set(indices)):
        prod = prod * majorana(n, k)
    return prod


class GeneratorRef(_Value):
    """Symbolic reference to a named generator on an n-qubit chain.

    kind is one of "e" (chain operator, needs index), "d" (adjacent
    bilinear, needs index), "third", "chirality", or "raw" (carries an
    explicit PauliString, which no other kind takes).  The text form
    matches the CLI grammar: "e0", "d3", "third", "chirality", or a Pauli
    literal like "XY".

    The hash is computed once, here, in place of the base's hash of the
    field tuple: dense._gate_plan, frame._planes and frame._rotate hash
    a reference on every pulse, 2,300 times per pass of the rotation
    benchmark, and reading the stored hash takes 70 ns where the tuple
    takes 720 ns (2-core x86_64 host).  It stays out of copies and
    pickles, which hold only the four fields, because a str hash differs
    from process to process.
    """

    _fields = ("kind", "n", "index", "raw")

    def __init__(self, kind: str, n: int, index: Optional[int] = None,
                 raw: Optional[PauliString] = None):
        n, index = _checked(kind, n, index)
        if kind == "raw":
            if not isinstance(raw, PauliString):
                raise ValueError(f"raw reference needs a PauliString, got {raw!r}")
            if raw.n != n:
                raise ValueError(f"raw string acts on {raw.n} qubits, expected {n}")
        elif raw is not None:
            # The label would drop it, as it would a stray index.
            raise ValueError(f"kind {kind!r} takes no raw string, got {raw!r}")
        # a numpy integer is stored as int
        self.__dict__.update(kind=kind, n=n, index=index, raw=raw, _hash=hash((kind, n, index, raw)))

    def __hash__(self):
        return self._hash

    def resolve(self) -> PauliString:
        """The concrete PauliString this reference names."""
        return self.raw if self.kind == "raw" else _word(self.kind, self.n, self.index)

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
    if len(text) >= 2 and text[0] in ("e", "d") and text[1:].isascii() and text[1:].isdigit():
        return GeneratorRef(text[0], n, index=int(text[1:]))
    try:
        raw = parse_pauli(text, n)
    except PauliParseError as exc:
        raise ValueError(f"cannot parse generator {text!r}: {exc}") from exc
    return GeneratorRef("raw", n, raw=raw)


class GateBus(_Value):
    """One of the three control buses.

    Bus I: the n single-qubit Z gates (even bilinears).
    Bus II: the n-1 nearest-neighbour XX couplings (odd bilinears) plus
        the X gate on qubit 0, for 2n gates across buses I and II.
    Bus III: the single third-order Y gate on qubit 1.
    """

    _fields = ("bus_id", "n", "members")

    def __init__(self, bus_id: str, n: int, members: tuple[GeneratorRef, ...]):
        self.__dict__.update(bus_id=bus_id, n=n, members=members)

    def words(self) -> list[str]:
        return [ref.resolve().letters for ref in self.members]


def build_bus(n: int, bus_id: str) -> GateBus:
    """Construct bus "I", "II", or "III" for an n-qubit chain.

    Bus III needs n >= 2.  Bus II degenerates to the single X gate at
    n = 1 (there are no couplings on a one-qubit chain).
    """
    bus_id = bus_id.strip().upper()
    n = _qubits(n)
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
