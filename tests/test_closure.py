"""Tests for the string and rank-tracked Lie-closure engines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchain
from spinchain import (
    PauliString,
    PauliSum,
    ResourceLimitError,
    bilinear,
    build_bus,
    check_universality,
    classify_dimension,
    closure_general,
    closure_strings,
    majorana,
    majorana_bilinear,
)
from spinchain import closure as closure_mod

from oracles import (
    closure_general_gram_schmidt,
    closure_strings_all_pairs,
    dense_lie_rank,
    dense_of_terms,
    kron_word,
    random_word,
)


def bus_words(n, ids):
    out = []
    for bus_id in ids:
        out.extend(build_bus(n, bus_id).words())
    return out


def all_bilinears(n):
    gens = []
    for j in range(n):
        for k in range(j, n):
            gens.append(bilinear(n, j, k, "hopping"))
            if j < k:
                gens.append(bilinear(n, j, k, "pairing"))
    return gens


class TestClassifyDimension:
    def test_reference_values(self):
        assert classify_dimension(4, 36) == "so(2n+1)"
        assert classify_dimension(5, 1023) == "su(2^n)"
        assert classify_dimension(3, 7) == "other"
        assert classify_dimension(2, 6) == "so(2n)"

    def test_n1_tie_prefers_su(self):
        # 2n^2+n and 4^n-1 both equal 3 at n=1
        assert classify_dimension(1, 3) == "su(2^n)"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_dimension(2, -1)


class TestClosureStrings:
    def test_single_qubit_xy(self):
        report = closure_strings(1, ["X", "Y"])
        assert report.dimension == 3
        assert report.basis == ("X", "Y", "Z")
        assert report.label == "su(2^n)"

    def test_buses_one_two_n2(self):
        report = closure_strings(2, ["ZI", "IZ", "XI", "XX"])
        assert report.dimension == 10
        assert report.label == "so(2n+1)"

    def test_adding_third_gate_reaches_full_algebra(self):
        report = closure_strings(2, ["ZI", "IZ", "XI", "XX", "IY"])
        assert report.dimension == 15
        assert report.label == "su(2^n)"

    def test_single_generator_is_its_own_closure(self):
        report = closure_strings(2, ["ZI"])
        assert report.dimension == 1
        assert report.basis == ("ZI",)
        assert report.label == "other"

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            closure_strings(2, ["II", "XI"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            closure_strings(2, [])

    def test_identity_never_in_output(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 3)
            words = {random_word(rng, n, exclude_identity=True) for _ in range(3)}
            report = closure_strings(n, words)
            assert "I" * n not in report.basis

    def test_monotone_under_added_generators(self):
        rng = random.Random(43)
        for _ in range(20):
            n = rng.randint(1, 3)
            words = [random_word(rng, n, exclude_identity=True) for _ in range(3)]
            base = closure_strings(n, words[:2]).dimension
            grown = closure_strings(n, words).dimension
            assert grown >= base

    def test_order_independence(self):
        rng = random.Random(47)
        words = ["ZI", "IZ", "XI", "XX"]
        reference = closure_strings(2, words)
        for _ in range(5):
            shuffled = words[:]
            rng.shuffle(shuffled)
            assert closure_strings(2, shuffled) == reference

    def test_duplicates_collapse(self):
        assert closure_strings(1, ["X", "X", "Y"]) == closure_strings(1, ["X", "Y"])

    @pytest.mark.parametrize("n,expected", [(1, 3), (2, 10), (3, 21)])
    def test_bus_closures_match_table(self, n, expected):
        assert closure_strings(n, bus_words(n, ["I", "II"])).dimension == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_even_generators_close_at_quadratic_dimension(self, n):
        words = [majorana_bilinear(n, k).letters for k in range(2 * n - 1)]
        report = closure_strings(n, words)
        assert report.dimension == 2 * n * n - n

    def test_report_json_shape(self):
        payload = closure_strings(1, ["X", "Y"]).to_json_dict()
        assert payload["basis"] == ["X", "Y", "Z"]
        assert payload["label"] == "su(2^n)"
        assert set(payload) == {"n", "dimension", "label", "rounds", "pairs_processed", "basis"}


class TestClosureGeneral:
    def test_bilinears_n2(self):
        report = closure_general(2, all_bilinears(2), tol=1e-9)
        assert report.dimension == 6
        assert report.label == "so(2n)"
        assert report.basis is None

    def test_bilinears_n3(self):
        report = closure_general(3, all_bilinears(3), tol=1e-9)
        assert report.dimension == 15
        assert report.label == "so(2n)"

    def test_single_commuting_generator(self):
        report = closure_general(2, [PauliSum(2, {"ZI": 1.0})], tol=1e-9)
        assert report.dimension == 1
        assert report.label == "other"

    def test_identity_direction_not_counted(self):
        gens = [PauliSum(2, {"II": 1.0, "ZI": 1.0})]
        assert closure_general(2, gens).dimension == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            closure_general(2, [PauliSum(2, {"ZI": 1j})])
        with pytest.raises(ValueError):
            closure_general(2, [PauliSum(2, {"ZI": 1.0})], tol=0.0)
        with pytest.raises(ValueError):
            closure_general(2, [PauliSum.zero(2)])
        with pytest.raises(ValueError):
            closure_general(2, [])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_general_closure_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        closure_general(2, [PauliSum(2, {"XI": 1.0})], tol=tol)


class TestUniversality:
    def test_buses_without_third_gate_are_not_universal(self):
        verdict = check_universality(3, bus_words(3, ["I", "II"]))
        assert not verdict.universal
        assert verdict.report.dimension == 21

    def test_buses_with_third_gate_are_universal(self):
        verdict = check_universality(3, bus_words(3, ["I", "II", "III"]))
        assert verdict.universal
        assert verdict.report.dimension == 63

    def test_commuting_bus_alone(self):
        verdict = check_universality(2, bus_words(2, ["I"]))
        assert not verdict.universal
        assert verdict.report.dimension == 2


def test_string_general_and_dense_closures_agree():
    rng = random.Random(53)
    for _ in range(25):
        n = rng.randint(1, 3)
        count = rng.randint(1, 4)
        words = sorted({random_word(rng, n, exclude_identity=True) for _ in range(count)})
        string_dim = closure_strings(n, words).dimension
        general_dim = closure_general(
            n, [PauliSum(n, {w: 1.0}) for w in words], tol=1e-9
        ).dimension
        dense_dim = dense_lie_rank([kron_word(w) for w in words], tol=1e-9)
        assert string_dim == general_dim == dense_dim


def test_majorana_chain_closure_counts():
    for n in (1, 2, 3):
        words = [majorana(n, k).letters for k in range(2 * n)]
        assert closure_strings(n, words).dimension == 2 * n * n + n


@st.composite
def word_sets(draw):
    n = draw(st.integers(1, 5))
    word = st.text("IXYZ", min_size=n, max_size=n).filter(lambda w: w != "I" * n)
    return n, draw(st.lists(word, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(word_sets())
def test_generator_only_closure_matches_all_pairs_oracle(case):
    n, words = case
    report = closure_strings(n, words)
    assert report.basis == closure_strings_all_pairs(n, words)
    general = closure_general(n, [PauliSum(n, {w: 1.0}) for w in words])
    assert general.dimension == report.dimension


@pytest.mark.parametrize(
    "n,ids",
    [(n, ["I", "II"]) for n in range(1, 6)] + [(n, ["I", "II", "III"]) for n in range(2, 6)],
)
def test_bus_closures_match_all_pairs_oracle(n, ids):
    words = bus_words(n, ids)
    assert closure_strings(n, words).basis == closure_strings_all_pairs(n, words)


@pytest.mark.parametrize(
    "n,ids,expected",
    [(60, ["I", "II"], 2 * 60 * 60 + 60), (7, ["I", "II", "III"], 4**7 - 1)],
)
def test_string_closure_closed_forms_at_large_n(n, ids, expected):
    report = closure_strings(n, bus_words(n, ids))
    assert report.dimension == expected
    assert report.pairs_processed == expected * len(bus_words(n, ids))


def test_general_closure_of_all_bilinears_n4():
    report = closure_general(4, all_bilinears(4))
    assert report.dimension == 2 * 4 * 4 - 4
    assert report.label == "so(2n)"


def test_ill_conditioned_general_closure_never_exceeds_su():
    # At the default tol, Gram-Schmidt rounding error grows this span past 63 = 4^3 - 1.
    gens = [
        PauliSum(3, {"ZII": -0.06063397359894651, "IZI": 0.1968163749699181,
                     "XYX": -0.5100009185920025}),
        PauliSum(3, {"IXI": -0.018844070747454422, "ZYI": -0.04119820227668969,
                     "IYY": 0.22683090028656605, "YYX": -0.24300478391841462,
                     "YZI": 0.26545749168767774}),
    ]
    mats = [dense_of_terms(3, g.items()) for g in gens]
    assert dense_lie_rank(mats) == 4**3 - 1
    try:
        report = closure_general(3, gens)
    except ValueError as exc:
        assert "tol=" in str(exc)
    else:
        assert report.dimension <= 4**3 - 1
    assert closure_general(3, gens, tol=1e-7).dimension == 4**3 - 1


# The ill-conditioned n = 3 set above (dense rank 63), for the tests below.
ILL_CONDITIONED = (
    {"ZII": -0.06063397359894651, "IZI": 0.1968163749699181, "XYX": -0.5100009185920025},
    {"IXI": -0.018844070747454422, "ZYI": -0.04119820227668969, "IYY": 0.22683090028656605,
     "YYX": -0.24300478391841462, "YZI": 0.26545749168767774},
)


@pytest.mark.parametrize("tol", [None, 1e-12, 1e-7])
def test_ill_conditioned_general_closure_is_su_at_every_tol(tol):
    gens = [PauliSum(3, terms) for terms in ILL_CONDITIONED]
    report = closure_general(3, gens) if tol is None else closure_general(3, gens, tol=tol)
    assert report.dimension == 4**3 - 1


def test_general_closure_tol_is_absolute():
    # Scaling the generators by 1e9 scales every residual, rounding error included.
    gens = [PauliSum(3, {w: 1e9 * c for w, c in terms.items()}) for terms in ILL_CONDITIONED]
    with pytest.raises(ValueError, match="63-word index.*tol="):
        closure_general(3, gens)
    assert closure_general(3, gens, tol=1.0).dimension == 4**3 - 1


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_general_closure_of_all_bilinears_closed_form(n):
    report = closure_general(n, all_bilinears(n))
    assert report.dimension == 2 * n * n - n
    assert report.label == "so(2n)"


@st.composite
def hermitian_sums(draw):
    n = draw(st.integers(1, 4))
    word = st.text("IXYZ", min_size=n, max_size=n)
    # Dyadic coefficients: the oracle prunes every Gram-Schmidt step at
    # PRUNE_TOLERANCE and loses orthogonality on some ill-conditioned sets.
    coeff = st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    terms = st.dictionaries(word, coeff, min_size=1, max_size=4)
    return n, [PauliSum(n, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


@settings(max_examples=30, deadline=None)
@given(hermitian_sums())
def test_general_closure_matches_gram_schmidt_oracle(case):
    n, gens = case
    report = closure_general(n, gens)
    reference = closure_general_gram_schmidt(n, gens)
    assert (report.dimension, report.label, report.rounds, report.pairs_processed) == (
        reference.dimension, reference.label, reference.rounds, reference.pairs_processed)
    if n <= 3:
        mats = [dense_of_terms(n, g.items()) for g in gens]
        assert report.dimension == dense_lie_rank(mats)


class TestClosureBudget:
    def test_default_budget_is_universal_n9(self):
        assert closure_mod.MAX_CLOSURE_DIMENSION == 4**9 - 1

    def test_string_closure_stops_past_budget(self, monkeypatch):
        words = bus_words(3, ["I", "II"])
        monkeypatch.setattr(closure_mod, "MAX_CLOSURE_DIMENSION", 21)
        assert closure_strings(3, words).dimension == 21
        monkeypatch.setattr(closure_mod, "MAX_CLOSURE_DIMENSION", 20)
        with pytest.raises(ResourceLimitError, match="exceeds"):
            closure_strings(3, words)

    def test_general_closure_stops_past_budget(self, monkeypatch):
        monkeypatch.setattr(closure_mod, "MAX_CLOSURE_DIMENSION", 14)
        with pytest.raises(ResourceLimitError):
            closure_general(3, all_bilinears(3))

    def test_general_closure_budget_counts_the_word_index(self, monkeypatch):
        # One generator spans 1 dimension; its words close to {X, Y, Z} on two qubits.
        gens = [PauliSum(3, {"XII": 1.0, "ZII": 1.0, "IXI": 1.0, "IZI": 1.0})]
        monkeypatch.setattr(closure_mod, "MAX_CLOSURE_DIMENSION", 5)
        with pytest.raises(ResourceLimitError, match="exceeds 5"):
            closure_general(3, gens)
        monkeypatch.setattr(closure_mod, "MAX_CLOSURE_DIMENSION", 6)
        assert closure_general(3, gens).dimension == 1

    def test_one_error_type_across_modules(self):
        assert spinchain.ResourceLimitError is spinchain.dense.ResourceLimitError
        assert spinchain.ResourceLimitError is spinchain.pauli.ResourceLimitError
        assert issubclass(ResourceLimitError, ValueError)
