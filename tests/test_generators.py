"""Tests for the named generator families, buses, and the rotation frame."""

import itertools
import re

import numpy as np
import pytest

from spinchain import (
    GeneratorRef,
    PauliString,
    PauliSum,
    PulseSchedule,
    ResourceLimitError,
    build_bus,
    chirality,
    gamma_frame,
    majorana,
    majorana_bilinear,
    parse_generator,
    subset_product,
    third_order_gate,
)
from spinchain import generators

from oracles import bilinear_word, chain_word, chirality_word, frame_word, kron_bits, third_word


class TestMajorana:
    def test_small_cases(self):
        assert majorana(1, 0) == PauliString("X")
        assert majorana(1, 1) == PauliString("Y")
        assert majorana(2, 2) == PauliString("ZX")
        assert majorana(3, 5) == PauliString("ZZY")

    def test_all_hermitian_phase_plus_one(self):
        for n in range(1, 5):
            for k in range(2 * n):
                p = majorana(n, k)
                assert p.phase == 1 and p.is_hermitian

    def test_index_range(self):
        with pytest.raises(ValueError):
            majorana(2, 4)
        with pytest.raises(ValueError):
            majorana(2, -1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_clifford_relations(self, n):
        chain = [majorana(n, k) for k in range(2 * n)]
        identity = PauliSum.identity(n)
        for j, k in itertools.combinations(range(2 * n), 2):
            assert not chain[j].commutes_with(chain[k])
            anti = PauliSum.from_pauli(chain[j]).anticommutator(PauliSum.from_pauli(chain[k]))
            assert anti == PauliSum.zero(n)
        for p in chain:
            assert p * p == PauliString.identity(n)
            assert PauliSum.from_pauli(p).anticommutator(PauliSum.from_pauli(p)) == 2 * identity


class TestBilinearGenerators:
    def test_small_cases(self):
        assert majorana_bilinear(2, 0) == PauliString("ZI")
        assert majorana_bilinear(2, 1) == PauliString("XX")
        assert majorana_bilinear(3, 2) == PauliString("IZI")

    def test_index_range(self):
        with pytest.raises(ValueError):
            majorana_bilinear(2, 3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_i_times_reversed_adjacent_product(self, n):
        for k in range(2 * n - 1):
            product = 1j * (majorana(n, k + 1) * majorana(n, k))
            assert majorana_bilinear(n, k) == product
            # forward order flips the sign
            assert 1j * (majorana(n, k) * majorana(n, k + 1)) == -product


class TestThirdOrderGate:
    def test_small_cases(self):
        assert third_order_gate(2) == PauliString("IY")
        assert third_order_gate(3) == PauliString("IYI")

    def test_needs_two_qubits(self):
        with pytest.raises(ValueError):
            third_order_gate(1)

    @pytest.mark.parametrize("n", [*range(2, 7), 17, 64, 100])
    def test_triple_product_carries_phase_i(self, n):
        triple = majorana(n, 0) * majorana(n, 1) * majorana(n, 3)
        assert triple == 1j * third_order_gate(n)


class TestChirality:
    def test_small_cases(self):
        assert chirality(1) == PauliString("Z")
        assert chirality(2) == PauliString("ZZ")
        assert chirality(4) == PauliString("ZZZZ")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_squares_hermitian_anticommutes_with_chain(self, n):
        gam = chirality(n)
        assert gam.phase == 1
        assert gam * gam == PauliString.identity(n)
        for k in range(2 * n):
            assert not gam.commutes_with(majorana(n, k))


    @pytest.mark.parametrize("n", [*range(1, 7), 17, 64, 100])
    def test_equals_phase_normalized_product_of_chain(self, n):
        prod = PauliString.identity(n)
        for k in range(2 * n):
            prod = prod * majorana(n, k)
        assert prod.phase.conjugate() * prod == chirality(n)

    def test_long_chain_is_closed_form(self):
        assert chirality(16000).letters == "Z" * 16000


class TestGammaFrame:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_frame_is_a_hermitian_anticommuting_unit_family(self, n):
        frame = gamma_frame(n)
        assert len(frame) == 2 * n + 1
        for g in frame:
            assert g.phase == 1
            assert g * g == PauliString.identity(n)
        for a, b in itertools.combinations(frame, 2):
            assert not a.commutes_with(b)
        # all distinct words
        assert len({g.letters for g in frame}) == 2 * n + 1

    def test_last_element_is_chirality(self):
        for n in (1, 2, 3):
            assert gamma_frame(n)[-1] == chirality(n)

    def test_one_qubit_frame(self):
        assert [g.letters for g in gamma_frame(1)] == ["Y", "X", "Z"]


class TestSubsetProduct:
    def test_empty_subset(self):
        assert subset_product(3, []) == PauliString.identity(3)

    def test_adjacent_pair(self):
        assert subset_product(1, {0, 1}) == PauliString("Z", 1j)

    def test_order_is_canonical(self):
        assert subset_product(2, [3, 0]) == subset_product(2, [0, 3])

    def test_n2_products_cover_all_words(self):
        words = {subset_product(2, s).letters
                 for r in range(5)
                 for s in itertools.combinations(range(4), r)}
        assert len(words) == 16

    def test_index_validation(self):
        with pytest.raises(ValueError):
            subset_product(2, [4])


class TestBuses:
    def test_bus_contents_n2(self):
        assert build_bus(2, "I").words() == ["ZI", "IZ"]
        assert build_bus(2, "II").words() == ["XI", "XX"]
        assert build_bus(2, "III").words() == ["IY"]

    def test_bus_refs_n3(self):
        assert [r.label for r in build_bus(3, "I").members] == ["d0", "d2", "d4"]
        assert [r.label for r in build_bus(3, "II").members] == ["e0", "d1", "d3"]

    def test_single_qubit_chain(self):
        assert build_bus(1, "I").words() == ["Z"]
        assert build_bus(1, "II").words() == ["X"]
        with pytest.raises(ValueError):
            build_bus(1, "III")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_buses_one_and_two_hold_2n_gates(self, n):
        total = build_bus(n, "I").words() + build_bus(n, "II").words()
        assert len(total) == 2 * n
        assert len(set(total)) == 2 * n

    def test_unknown_bus(self):
        with pytest.raises(ValueError):
            build_bus(2, "IV")

    def test_words_stop_past_the_letter_budget_before_any_is_built(self, monkeypatch):
        monkeypatch.setattr(generators, "MAX_BUS_LETTERS", 9)
        assert build_bus(3, "I").words() == ["ZII", "IZI", "IIZ"]
        assert build_bus(9, "III").words() == ["IY" + "I" * 7]

        def never(self):
            raise AssertionError("a word was built past the letter budget")

        monkeypatch.setattr(GeneratorRef, "resolve", never)
        for n, bus_id, letters in ((4, "I", 16), (4, "II", 16), (10, "III", 10)):
            with pytest.raises(ResourceLimitError, match=f"bus {bus_id} at n={n} holds {letters} "
                                                         "letters, past the budget of 9"):
                build_bus(n, bus_id).words()


class TestGeneratorRefs:
    def test_parse_named(self):
        assert parse_generator("e0", 2) == GeneratorRef("e", 2, index=0)
        assert parse_generator("d3", 3) == GeneratorRef("d", 3, index=3)
        assert parse_generator("third", 2).resolve() == PauliString("IY")
        assert parse_generator("chirality", 2).resolve() == PauliString("ZZ")

    def test_parse_raw_literal(self):
        ref = parse_generator("XY", 2)
        assert ref.kind == "raw"
        assert ref.resolve() == PauliString("XY")

    def test_label_round_trip(self):
        for text in ("e1", "d0", "third", "chirality", "XY"):
            ref = parse_generator(text, 2)
            assert parse_generator(ref.label, 2) == ref

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorRef("e", 2, index=4)
        with pytest.raises(ValueError):
            GeneratorRef("third", 1)
        with pytest.raises(ValueError):
            GeneratorRef("raw", 2)
        with pytest.raises(ValueError):
            parse_generator("q7", 2)

    @pytest.mark.parametrize(
        "kind, n, index, message",
        [
            ("e", 2, True, "index must be an integer, got True"),
            ("e", 2, 1.0, "index must be an integer, got 1.0"),
            ("d", 3, np.True_, f"index must be an integer, got {np.True_!r}"),
            ("e", 2.0, 0, "n must be an integer, got 2.0"),
            ("third", True, None, "n must be an integer, got True"),
            ("chirality", 2.0, None, "n must be an integer, got 2.0"),
            ("raw", 2.0, None, "n must be an integer, got 2.0"),
        ],
    )
    def test_non_integral_fields_are_refused(self, kind, n, index, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GeneratorRef(kind, n, index=index, raw=PauliString("XY") if kind == "raw" else None)

    @pytest.mark.parametrize("kind, n", [("third", 3), ("chirality", 2), ("raw", 2)])
    def test_kinds_without_an_index_refuse_one(self, kind, n):
        # The label drops an index, so such a schedule would not round-trip through JSON.
        with pytest.raises(ValueError, match=f"kind {kind!r} takes no index, got 5"):
            GeneratorRef(kind, n, index=5, raw=PauliString("XY") if kind == "raw" else None)

    def test_raw_kind_needs_a_pauli_string(self):
        with pytest.raises(ValueError, match="raw reference needs a PauliString, got 'XY'"):
            GeneratorRef("raw", 2, raw="XY")
        with pytest.raises(ValueError, match="raw reference needs a PauliString, got None"):
            GeneratorRef("raw", 2)

    @pytest.mark.parametrize("kind, n, index", [("e", 2, 0), ("d", 2, 1), ("third", 2, None),
                                                ("chirality", 2, None)])
    def test_named_kinds_refuse_a_raw_string(self, kind, n, index):
        # The label drops it: GeneratorRef("e", 2, index=0, raw=...) would print as e0,
        # resolve to e0's word, and still differ from GeneratorRef("e", 2, index=0).
        with pytest.raises(ValueError, match=f"kind {kind!r} takes no raw string, got"):
            GeneratorRef(kind, n, index=index, raw=PauliString("XY"))

    def test_builders_apply_the_same_rule(self):
        for build, args in ((majorana, (2, True)), (majorana, (2.0, 0)), (majorana_bilinear, (2, 1.0)),
                            (third_order_gate, (2.0,)), (chirality, (True,)), (gamma_frame, (2.0,))):
            with pytest.raises(ValueError, match="must be an integer"):
                build(*args)
        with pytest.raises(ValueError, match="out of range 0..3 for kind 'e', n=2"):
            majorana(2, 4)

    def test_numpy_integers_are_stored_as_int(self):
        ref = GeneratorRef("e", np.int64(3), index=np.int32(5))
        assert (type(ref.n), type(ref.index)) == (int, int)
        assert ref == GeneratorRef("e", 3, index=5) and hash(ref) == hash(GeneratorRef("e", 3, index=5))
        assert ref.label == "e5"
        built = majorana(np.int64(3), np.uint8(5))
        assert (type(built.n), built) == (int, majorana(3, 5))

    def test_schedule_of_numpy_refs_round_trips_through_json(self):
        refs = (GeneratorRef("e", np.int64(2), index=np.int64(1)), GeneratorRef("d", 2, index=np.int16(2)))
        schedule = PulseSchedule(n=2, pulses=tuple((ref, 0.3) for ref in refs))
        assert [p["gen"] for p in schedule.to_json_dict()["pulses"]] == ["e1", "d2"]
        assert PulseSchedule.from_json_dict(schedule.to_json_dict()) == schedule

    @pytest.mark.parametrize("text", ["e\u0663", "d\uff11", "e\u00b3", "e\u0661\u0660"])
    def test_index_digits_are_ascii_only(self, text):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse generator {text!r}")):
            parse_generator(text, 3)


def fields(word):
    return word.n, word.x, word.z, word.phase_exp


def oracle_fields(letters):
    """The fields of the Hermitian word with these letters and phase +1, from the letter oracle."""
    return len(letters), *kron_bits(letters), 0


def named_cases(n, chain, bilinears, frame):
    """(built word, oracle letters) for the given chain, bilinear and frame indices, third and chirality.

    Each named word is built twice: by its public builder and by resolving its parsed label.
    """
    cases = []
    for build, letters, label, indices in ((majorana, chain_word, "e", chain),
                                           (majorana_bilinear, bilinear_word, "d", bilinears)):
        for k in indices:
            want = letters(n, k)
            cases += [(build(n, k), want), (parse_generator(f"{label}{k}", n).resolve(), want)]
    named = [(chirality, chirality_word, "chirality")]
    if n >= 2:
        named.append((third_order_gate, third_word, "third"))
    for build, letters, label in named:
        cases += [(build(n), letters(n)), (parse_generator(label, n).resolve(), letters(n))]
    words = gamma_frame(n)
    assert len(words) == 2 * n + 1
    return cases + [(words[a], frame_word(n, a)) for a in frame]


class TestLetterOracle:
    """Every named word and the frame against letter-built words (tests/oracles.py)."""

    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_named_word(self, n):
        cases = named_cases(n, range(2 * n), range(2 * n - 1), range(2 * n + 1))
        for built, letters in cases:
            assert fields(built) == oracle_fields(letters), letters

    def test_spot_check_at_n_1000(self):
        n = 1000
        ends = [0, 1, 2, 3, n - 1, n, n + 1]
        cases = named_cases(n, ends + [2 * n - 2, 2 * n - 1], ends + [2 * n - 3, 2 * n - 2],
                            ends + [2 * n - 1, 2 * n])
        for built, letters in cases:
            assert fields(built) == oracle_fields(letters)
