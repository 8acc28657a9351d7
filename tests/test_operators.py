"""Tests for PauliSum arithmetic, ladder operators, CAR checks, bilinears."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    DimensionMismatchError,
    PauliString,
    PauliSum,
    ResourceLimitError,
    annihilation_operator,
    bilinear,
    closure_general,
    creation_operator,
    exp_pulse,
    majorana,
    verify_car,
)
from spinchain import operators
from spinchain.pauli import bits_product

import oracles
from oracles import dense_of_terms, random_word, verify_car_all_pairs


def random_sum(rng, n, nterms):
    terms = {}
    for _ in range(nterms):
        w = random_word(rng, n)
        terms[w] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return PauliSum(n, terms)


class TestStringOrder:
    # Bit order (qubit 0 most significant) sorts these ZI, IY, XZ, YX.
    WORDS = ("ZI", "IY", "XZ", "YX")

    def test_api_is_in_word_string_order(self):
        s = PauliSum(2, {w: float(i + 1) for i, w in enumerate(self.WORDS)})
        want = ["IY", "XZ", "YX", "ZI"]
        assert s.words() == want
        assert s.items() == [("IY", 2), ("XZ", 3), ("YX", 4), ("ZI", 1)]
        assert [t["word"] for t in s.to_json_dict()["terms"]] == want
        assert str(s) == "(2+0i)*IY + (3+0i)*XZ + (4+0i)*YX + (1+0i)*ZI"
        assert repr(s) == (
            "PauliSum(n=2, terms={'IY': (2+0j), 'XZ': (3+0j), 'YX': (4+0j), 'ZI': (1+0j)})"
        )

    def test_products_are_in_word_string_order(self):
        got = PauliSum(2, {"ZI": 1.0}) @ PauliSum(2, {w: 1.0 for w in self.WORDS})
        assert got.words() == ["II", "XX", "YZ", "ZY"]

    def test_coeff(self):
        s = PauliSum(2, {w: float(i + 1) for i, w in enumerate(self.WORDS)})
        assert s.coeff("ZI") == 1
        assert s.coeff("YX") == 4
        assert s.coeff("II") == 0j
        assert s.coeff("XX") == 0j
        assert s.coeff("Z") == 0j
        assert PauliSum.zero(2).coeff("ZI") == 0j

    def test_traceless(self):
        s = PauliSum(2, {"II": 3.0, "ZI": 1.0, "IY": -2.0})
        assert s.traceless() == PauliSum(2, {"ZI": 1.0, "IY": -2.0})
        assert s.traceless().coeff("II") == 0j
        assert PauliSum.identity(2).traceless() == PauliSum.zero(2)
        no_identity = PauliSum(2, {"XZ": 1.0})
        assert no_identity.traceless() is no_identity


class TestArithmetic:
    def test_add_cancels_to_zero(self):
        x = PauliSum(1, {"X": 1.0})
        assert x + (-1.0) * x == PauliSum.zero(1)
        assert len(x - x) == 0

    def test_raising_lowering_product(self):
        # sigma+ sigma- = |0><0| = (I + Z)/2
        plus = PauliSum(1, {"X": 0.5, "Y": 0.5j})
        minus = plus.dagger()
        assert plus @ minus == PauliSum(1, {"I": 0.5, "Z": 0.5})

    def test_dagger(self):
        plus = PauliSum(1, {"X": 0.5, "Y": 0.5j})
        assert plus.dagger() == PauliSum(1, {"X": 0.5, "Y": -0.5j})

    def test_dagger_is_involution(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_sum(rng, rng.randint(1, 4), 5)
            assert a.dagger().dagger() == a

    def test_self_commutator_is_zero(self):
        rng = random.Random(9)
        for _ in range(30):
            a = random_sum(rng, rng.randint(1, 4), 5)
            assert a.commutator(a) == PauliSum.zero(a.n)

    def test_product_matches_dense(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 4)
            a, b = random_sum(rng, n, 4), random_sum(rng, n, 4)
            got = dense_of_terms(n, (a @ b).items())
            want = dense_of_terms(n, a.items()) @ dense_of_terms(n, b.items())
            assert np.max(np.abs(got - want)) < 1e-12

    def test_scalar_and_matmul_typing(self):
        a = PauliSum(1, {"X": 1.0})
        assert 2 * a == PauliSum(1, {"X": 2.0})
        with pytest.raises(TypeError):
            a * a
        assert a @ PauliString("Y", 1j) == PauliSum(1, {"Z": -1.0})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            PauliSum(1, {"X": 1.0}) + PauliSum(2, {"XX": 1.0})

    def test_pruning(self):
        a = PauliSum(1, {"X": 1.0, "Y": 1e-15})
        assert a.words() == ["X"]

    def test_is_hermitian_exact(self):
        assert PauliSum(2, {"XY": 0.5, "ZZ": -3.0}).is_hermitian
        assert not PauliSum(2, {"XY": 0.5 + 1e-13j}).is_hermitian

    def test_json_round_trip(self):
        a = PauliSum(2, {"ZX": 0.5, "IY": -0.25j})
        payload = a.to_json_dict()
        assert payload["terms"][0]["word"] == "IY"  # lexicographic order
        assert PauliSum.from_json_dict(payload) == a


# Magnitudes of at least 1e-3 keep every pair product far above the
# pruning tolerance, so no product term sits at the pruning edge.
_COEFF_PART = st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3) | st.just(0.0)


@st.composite
def sum_pairs(draw):
    n = draw(st.integers(1, 4))
    word = st.text("IXYZ", min_size=n, max_size=n)
    coeff = st.builds(complex, _COEFF_PART, _COEFF_PART)

    def one_sum():
        return PauliSum(n, draw(st.dictionaries(word, coeff, min_size=1, max_size=5)))

    return n, one_sum(), one_sum()


@settings(max_examples=150, deadline=None)
@given(sum_pairs())
def test_products_and_brackets_match_dense_and_two_product_forms(case):
    n, a, b = case
    ma, mb = dense_of_terms(n, a.items()), dense_of_terms(n, b.items())
    ab, ba = ma @ mb, mb @ ma
    for got, want in (
        (a @ b, ab),
        (a.commutator(b), ab - ba),
        (a.anticommutator(b), ab + ba),
    ):
        assert np.max(np.abs(dense_of_terms(n, got.items()) - want)) < 1e-12
    assert (a.commutator(b) - (a @ b - b @ a)).max_coeff() < 1e-12
    assert (a.anticommutator(b) - (a @ b + b @ a)).max_coeff() < 1e-12


@st.composite
def sums(draw):
    n = draw(st.integers(1, 6))
    word = st.text("IXYZ", min_size=n, max_size=n)
    coeff = st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))
    return PauliSum(n, draw(st.dictionaries(word, coeff, max_size=8)))


@settings(max_examples=100, deadline=None)
@given(sums())
def test_bit_items_round_trip_through_from_bits(s):
    assert PauliSum.from_bits(s.n, dict(s.bit_items())) == s


class TestFromBits:
    @pytest.mark.parametrize("key", [(4, 0), (0, 4), (-1, 0), (0, -1)])
    def test_bits_out_of_range_rejected(self, key):
        with pytest.raises(ValueError, match="out of range"):
            PauliSum.from_bits(2, {(1, 1): 1.0, key: 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="'Z'.*not finite"):
            PauliSum.from_bits(1, {(1, 0): 1.0, (0, 1): bad})

    def test_prunes_like_the_constructor(self):
        got = PauliSum.from_bits(1, {(1, 0): 1.0, (1, 1): 1e-15, (0, 1): operators.PRUNE_TOLERANCE})
        assert got == PauliSum(1, {"X": 1.0, "Y": 1e-15, "Z": operators.PRUNE_TOLERANCE})
        assert got.words() == ["X", "Z"]


class TestInputValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
    def test_non_finite_coefficient_names_the_word(self, bad):
        with pytest.raises(ValueError, match="'Z'"):
            PauliSum(1, {"X": 1.0, "Z": bad})

    def test_non_finite_sum_never_reaches_pulse_or_closure(self):
        with pytest.raises(ValueError, match="not finite"):
            exp_pulse(PauliSum(1, {"X": float("nan"), "Z": 1.0}), 0.3)
        x, z = PauliSum(1, {"X": 1.0}), PauliSum(1, {"Z": 1.0})
        with pytest.raises(ValueError, match="finite"):
            closure_general(1, [x + float("nan") * z])

    @pytest.mark.parametrize("n", [2.7, 2.0, True, "2"])
    def test_json_n_must_be_an_integer(self, n):
        payload = {"n": n, "terms": [{"word": "XY", "re": 1.0, "im": 0.0}]}
        with pytest.raises(ValueError, match="integer"):
            PauliSum.from_json_dict(payload)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"n": 2, "terms": [{"word": "XY", "im": 0.0}]}, "malformed PauliSum payload: 're'"),
            ({"n": 2, "terms": None}, "malformed PauliSum payload"),
            ({"terms": []}, "malformed PauliSum payload: 'n'"),
            ({"n": 2, "terms": ["XY"]}, "malformed PauliSum payload"),
            ({"n": 2, "terms": [{"word": "XY", "re": "a"}]}, "coefficients must be JSON numbers, got 'a'"),
            ({"n": 2, "terms": [{"word": "XY", "re": True}]}, "coefficients must be JSON numbers, got True"),
            ({"n": 2, "terms": [{"word": "XY", "re": 1.0, "im": None}]}, "coefficients must be JSON numbers, got None"),
            ({"n": 2, "terms": [{"word": 5, "re": 1.0}]}, "malformed PauliSum payload"),
            ({"n": 2, "terms": [{"word": "XY", "re": 10**400}]}, "malformed PauliSum payload"),
        ],
        ids=["no-re", "null-terms", "no-n", "term-not-object", "text-re", "bool-re", "null-im",
             "number-word", "huge-re"],
    )
    def test_malformed_json_raises_value_error(self, payload, message):
        with pytest.raises(ValueError, match=message):
            PauliSum.from_json_dict(payload)

    def test_json_integer_coefficients_are_numbers(self):
        payload = {"n": 1, "terms": [{"word": "X", "re": 1, "im": -2}]}
        assert PauliSum.from_json_dict(payload) == PauliSum(1, {"X": 1 - 2j})


class TestLadderOperators:
    def test_single_mode_forms(self):
        assert annihilation_operator(1, 0) == PauliSum(1, {"X": 0.5, "Y": 0.5j})
        assert creation_operator(1, 0) == PauliSum(1, {"X": 0.5, "Y": -0.5j})

    def test_second_mode_carries_z_prefix(self):
        a = annihilation_operator(2, 1)
        assert a == PauliSum(2, {"ZX": 0.5, "ZY": 0.5j})
        # dense check: a is nilpotent and {a, a+} = 1
        m = dense_of_terms(2, a.items())
        assert np.max(np.abs(m @ m)) < 1e-12
        anti = m @ m.conj().T + m.conj().T @ m
        assert np.max(np.abs(anti - np.eye(4))) < 1e-12

    def test_mode_range(self):
        with pytest.raises(ValueError):
            annihilation_operator(2, 2)

    def test_chain_operator_consistency(self):
        # majorana(2k) = a + a+ and majorana(2k+1) = -i (a - a+), exactly
        for n in (1, 2, 3):
            for k in range(n):
                a = annihilation_operator(n, k)
                c = creation_operator(n, k)
                even = PauliSum.from_pauli(majorana(n, 2 * k))
                odd = PauliSum.from_pauli(majorana(n, 2 * k + 1))
                assert a + c == even
                assert -1j * (a - c) == odd


class TestCarVerification:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relations_hold_exactly(self, n):
        report = verify_car(n)
        assert report.ok
        assert report.max_deviation == 0.0
        assert report.failures == ()

    def test_injected_fault_is_detected(self):
        report = verify_car(2, inject_fault=True)
        assert not report.ok
        assert report.max_deviation > 0.0
        assert len(report.failures) > 0

    def test_report_json(self):
        payload = verify_car(2).to_json_dict()
        assert payload == {"n": 2, "max_deviation": 0.0, "failures": []}

    def test_injected_fault_touches_only_mode_zero(self):
        failures = verify_car(3, inject_fault=True).failures
        assert failures
        assert all(0 in pair for _, pair, _ in failures)

    def test_mode_budget(self, monkeypatch):
        assert operators.MAX_CAR_MODES == 1600
        monkeypatch.setattr(operators, "MAX_CAR_MODES", 3)
        assert verify_car(3).ok
        with pytest.raises(ResourceLimitError, match="exceeds 3 modes"):
            verify_car(4)


class TestBilinears:
    def test_diagonal_hopping(self):
        # a0 a0+ + a0 a0+ = I + Z
        assert bilinear(1, 0, 0, "hopping") == PauliSum(1, {"I": 1.0, "Z": 1.0})

    def test_hopping_is_hermitian_with_real_coefficients(self):
        h = bilinear(2, 0, 1, "hopping")
        assert h.is_hermitian
        assert all(c.imag == 0.0 for _, c in h.items())

    def test_pairing_supported_on_weight_two_words(self):
        p = bilinear(2, 0, 1, "pairing")
        assert p.is_hermitian
        assert len(p) > 0
        for w, _ in p.items():
            assert sum(1 for ch in w if ch != "I") == 2

    def test_pairing_same_mode_vanishes(self):
        assert bilinear(2, 0, 0, "pairing") == PauliSum.zero(2)

    def test_dense_hermiticity(self):
        for kind in ("hopping", "pairing"):
            b = bilinear(3, 0, 2, kind)
            m = dense_of_terms(3, b.items())
            assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            bilinear(2, 0, 1, "tunneling")


@pytest.mark.parametrize("n", [*range(1, 17), 20, 32, 40])
def test_car_report_matches_all_pairs_oracle(n):
    report = verify_car(n)
    reference = verify_car_all_pairs(n)
    assert report == reference
    assert report.to_json_dict() == reference.to_json_dict()


@pytest.mark.parametrize("n", range(1, 17))
def test_faulty_car_report_matches_all_pairs_oracle(n):
    report = verify_car(n, inject_fault=True)
    reference = verify_car_all_pairs(n, inject_fault=True)
    assert report == reference
    assert report.to_json_dict() == reference.to_json_dict()


def test_car_multiplies_only_commuting_term_pairs(monkeypatch):
    # An honest chain's terms commute only with themselves: a_k meets a_k
    # alone, 2 x 2 term pairs in each of its two anticommutators.
    n = 50
    calls = []

    def counted(a, b):
        calls.append(None)
        return bits_product(a, b)

    monkeypatch.setattr(operators, "bits_product", counted)
    assert verify_car(n).ok
    assert 0 < len(calls) <= 8 * n


@st.composite
def ladder_stand_ins(draw):
    n = draw(st.integers(1, 4))
    word = st.text("IXYZ", min_size=n, max_size=n)
    # Dyadic coefficients, so every sum is exact in any order.
    coeff = st.sampled_from([0.5, -1.0, 2.0, 0.5j, -1j, 2j])
    terms = st.dictionaries(word, coeff, min_size=1, max_size=3)
    return n, [PauliSum(n, t) for t in draw(st.lists(terms, min_size=n, max_size=n))]


@settings(max_examples=60, deadline=None)
@given(ladder_stand_ins())
def test_car_mirrored_entries_hold_for_any_operators(case):
    # verify_car computes only k <= j; the mirror identities must hold for any a_k.
    n, ops = case
    stand_in = lambda n_, k: ops[k]  # noqa: E731
    with mock.patch.object(operators, "annihilation_operator", stand_in), \
            mock.patch.object(oracles, "annihilation_operator", stand_in):
        assert verify_car(n) == verify_car_all_pairs(n)
