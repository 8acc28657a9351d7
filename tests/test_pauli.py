"""Tests for the phase-tracked Pauli string algebra."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    DimensionMismatchError,
    PauliParseError,
    PauliString,
    commutator,
    parse_pauli,
)
from spinchain.pauli import (
    anticommutation_masks,
    bits_product,
    bits_to_word,
    code_to_bits,
    code_to_word,
    word_code,
    word_product,
    word_to_bits,
)

from oracles import kron_word, letter_product, random_word

PHASES = (1, 1j, -1, -1j)


def words(n):
    return st.text(alphabet="IXYZ", min_size=n, max_size=n)


def word_pairs(max_n):
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(words(n), words(n)))


class TestProducts:
    def test_defining_single_qubit_products(self):
        X, Y, Z = PauliString("X"), PauliString("Y"), PauliString("Z")
        assert X * Y == PauliString("Z", 1j)
        assert Y * Z == PauliString("X", 1j)
        assert Z * X == PauliString("Y", 1j)
        assert Y * X == PauliString("Z", -1j)
        for p in (X, Y, Z):
            assert p * p == PauliString("I")

    def test_letterwise_product_with_phase(self):
        # (Z x X)(Y x I): ZY = -iX on qubit 0, X on qubit 1
        assert PauliString("ZX") * PauliString("YI") == PauliString("XX", -1j)

    def test_input_phases_multiply(self):
        p = PauliString("X", 1j) * PauliString("Y", -1)
        assert p == PauliString("Z", 1j * -1 * 1j)

    def test_self_product_is_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            p = PauliString(random_word(rng, n))
            assert p * p == PauliString.identity(n)

    def test_scalar_phase_multiplication(self):
        p = PauliString("XY")
        assert 1j * p == PauliString("XY", 1j)
        assert p * -1 == PauliString("XY", -1)
        assert -p == PauliString("XY", -1)
        with pytest.raises(TypeError):
            p * 0.5

    def test_dagger_conjugates_phase(self):
        assert PauliString("X", 1j).dagger() == PauliString("X", -1j)
        assert PauliString("X", -1).dagger() == PauliString("X", -1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PauliString("X") * PauliString("XX")
        with pytest.raises(DimensionMismatchError):
            PauliString("X").commutes_with(PauliString("XX"))


class TestBitsProduct:
    @settings(max_examples=300, deadline=None)
    @given(word_pairs(64), st.sampled_from(PHASES), st.sampled_from(PHASES))
    def test_agrees_with_letter_table(self, pair, pa, pb):
        a, b = pair
        exp, word = letter_product(a, b)
        e, (x, z) = bits_product(word_to_bits(a), word_to_bits(b))
        assert (e, bits_to_word(x, z, len(a))) == (exp, word)
        assert word_product(a, b) == (exp, word)
        assert PauliString(a, pa) * PauliString(b, pb) == PauliString(word, pa * pb * PHASES[exp])

    @settings(max_examples=200, deadline=None)
    @given(word_pairs(4))
    def test_agrees_with_dense_products(self, pair):
        a, b = pair
        e, (x, z) = bits_product(word_to_bits(a), word_to_bits(b))
        want = kron_word(a) @ kron_word(b)
        assert np.array_equal(kron_word(bits_to_word(x, z, len(a)), PHASES[e]), want)


class TestWordBits:
    def test_qubit_zero_is_most_significant_bit(self):
        assert word_to_bits("XI") == (2, 0)
        assert word_to_bits("IZ") == (0, 1)
        assert word_to_bits("YZI") == (4, 6)
        assert bits_to_word(2, 0, 2) == "XI"
        assert bits_to_word(4, 6, 3) == "YZI"
        assert bits_to_word(0, 0, 3) == "III"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200).flatmap(words))
    def test_word_round_trip(self, word):
        x, z = word_to_bits(word)
        assert x < 2 ** len(word) and z < 2 ** len(word)
        assert bits_to_word(x, z, len(word)) == word

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    ))
    def test_bits_round_trip(self, nxz):
        n, x, z = nxz
        word = bits_to_word(x, z, n)
        assert len(word) == n
        assert word_to_bits(word) == (x, z)

    def test_word_code_has_one_hex_digit_per_qubit(self):
        # Digit x_i + 2 z_i, qubit 0 the most significant: X 1, Z 2, Y 3.
        assert word_code(*word_to_bits("XZYI")) == 0x1230
        assert code_to_word(0x1230, 4) == "XZYI"
        assert code_to_word(0, 2) == "II"
        assert code_to_bits(0x1230) == word_to_bits("XZYI")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 130).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1), st.integers(0, 2**n - 1))
    ))
    def test_code_round_trip(self, nxz):
        n, x, z = nxz
        code = word_code(x, z)
        word = code_to_word(code, n)
        assert word == bits_to_word(x, z, n)
        assert word == "".join("IXZY"[(x >> i & 1) + 2 * (z >> i & 1)] for i in reversed(range(n)))
        assert code_to_bits(code) == word_to_bits(word) == (x, z)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 130).flatmap(
        lambda n: st.tuples(*[st.integers(0, 2**n - 1)] * 4)
    ))
    def test_code_of_a_product_is_the_xor_of_codes(self, bits):
        x1, z1, x2, z2 = bits
        _, (x, z) = bits_product((x1, z1), (x2, z2))
        assert word_code(x1, z1) ^ word_code(x2, z2) == word_code(x, z)

    @pytest.mark.parametrize("bad", ["", "XQ", "I_X", " X", "+X", "-X", "0bX", "1X", "x", "X\ud800", "\u0660X"])
    def test_rejects_other_letters(self, bad):
        with pytest.raises(ValueError, match="not a nonempty word over IXYZ"):
            word_to_bits(bad)
        with pytest.raises(ValueError):
            PauliString(bad)


class TestWordValue:
    """A PauliString holds (n, x, z, phase_exp); its letters come from the bits."""

    @settings(max_examples=300, deadline=None)
    @given(word_pairs(64), st.sampled_from(PHASES), st.sampled_from(PHASES))
    def test_bits_letters_equality_and_commutation(self, pair, pa, pb):
        a, b = pair
        p, q = PauliString(a, pa), PauliString(b, pb)
        assert (p.n, p.x, p.z, p.phase) == (len(a), *word_to_bits(a), pa)
        assert (p.letters, q.letters) == (a, b)
        assert (p == q) == ((a, pa) == (b, pb))
        assert (p == PauliString(a, pb)) == (pa == pb)
        assert hash(p) == hash(PauliString(a, pa))
        assert p.commutes_with(q) == (letter_product(a, b)[0] % 2 == 0)

    def test_same_bits_on_different_lengths_differ(self):
        assert PauliString("X").x == PauliString("IX").x
        assert PauliString("X") != PauliString("IX")
        assert len({PauliString("I"), PauliString("II"), PauliString("III")}) == 3

    def test_bits_are_read_only(self):
        p = PauliString("XY")
        for name in ("n", "x", "z", "phase_exp", "letters"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0)


class TestCommutation:
    def test_examples(self):
        assert not PauliString("X").commutes_with(PauliString("Y"))
        assert PauliString("XX").commutes_with(PauliString("ZZ"))

    def test_identity_commutes_with_everything(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 5)
            p = PauliString(random_word(rng, n))
            assert p.commutes_with(PauliString.identity(n))

    def test_commutator_examples(self):
        # [X, Y] = 2 * (iZ)
        assert commutator(PauliString("X"), PauliString("Y")) == PauliString("Z", 1j)
        assert commutator(PauliString("X"), PauliString("X")) is None
        # [X x I, Z x X]: XZ = -iY on qubit 0
        assert commutator(PauliString("XI"), PauliString("ZX")) == PauliString("YX", -1j)

    def test_commutes_means_equal_products(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 4)
            p = PauliString(random_word(rng, n))
            q = PauliString(random_word(rng, n))
            assert p.commutes_with(q) == (p * q == q * p)

    def test_anticommutation_dichotomy(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 4)
            p = PauliString(random_word(rng, n))
            q = PauliString(random_word(rng, n))
            pq, qp = p * q, q * p
            assert pq == qp or pq == -qp


def word_lists(n):
    return st.lists(words(n).map(word_to_bits), max_size=12)


class TestAnticommutationMasks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(word_lists(n), word_lists(n))))
    def test_agrees_with_pairwise_product_parity(self, lists):
        a, b = lists
        expected = [sum((bits_product(u, v)[0] & 1) << j for j, v in enumerate(b)) for u in a]
        assert anticommutation_masks(a, b) == expected

    def test_examples(self):
        # X anticommutes with Z and Y, commutes with X and I.
        b = [word_to_bits(w) for w in ("I", "X", "Y", "Z")]
        assert anticommutation_masks([word_to_bits("X")], b) == [0b1100]
        assert anticommutation_masks([], b) == []
        assert anticommutation_masks(b, []) == [0, 0, 0, 0]


def test_associativity_exact():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 4)
        p, q, r = (
            PauliString(random_word(rng, n), rng.choice([1, 1j, -1, -1j]))
            for _ in range(3)
        )
        assert (p * q) * r == p * (q * r)


def test_commutation_matches_dense_matrices():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        p = PauliString(random_word(rng, n))
        q = PauliString(random_word(rng, n))
        mp, mq = kron_word(p.letters), kron_word(q.letters)
        dense_commute = np.allclose(mp @ mq, mq @ mp, atol=1e-12)
        assert p.commutes_with(q) == dense_commute


def test_hermiticity_matches_dense_conjugate_transpose():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        p = PauliString(random_word(rng, n), rng.choice([1, 1j, -1, -1j]))
        m = kron_word(p.letters, p.phase)
        assert p.is_hermitian == np.allclose(m, m.conj().T, atol=1e-12)


class TestTextForm:
    def test_format(self):
        assert str(PauliString("XY")) == "XY"
        assert str(PauliString("ZX", -1j)) == "-iZX"
        assert str(PauliString("Z", 1j)) == "iZ"
        assert str(PauliString("Z", -1)) == "-Z"

    def test_parse(self):
        p = parse_pauli("-iZX", 2)
        assert p.letters == "ZX" and p.phase == -1j
        assert parse_pauli("+iY", 1) == PauliString("Y", 1j)
        assert parse_pauli("XY", 2) == PauliString("XY")

    def test_parse_length_mismatch(self):
        with pytest.raises(PauliParseError):
            parse_pauli("XYZ", 2)
        with pytest.raises(PauliParseError):
            parse_pauli("X", 2)

    def test_parse_bad_character_reports_position(self):
        with pytest.raises(PauliParseError) as exc:
            parse_pauli("-iXQ", 2)
        assert exc.value.position == 3

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(100):
            n = rng.randint(1, 6)
            p = PauliString(random_word(rng, n), rng.choice([1, 1j, -1, -1j]))
            assert parse_pauli(str(p), n) == p


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliString("XA")
    with pytest.raises(ValueError):
        PauliString("")
    with pytest.raises(ValueError):
        PauliString("X", 0.5)


def test_hashable_and_usable_in_sets():
    s = {PauliString("XY"), PauliString("XY"), PauliString("XY", -1)}
    assert len(s) == 2
