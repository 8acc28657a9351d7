"""One rule per input kind: every public entry refuses a bad n, tolerance or pulse word alike."""

import math

import numpy as np
import pytest

from spinchain import (
    GeneratorRef,
    PauliString,
    PauliSum,
    PulseSchedule,
    adjoint_rotation,
    annihilation_operator,
    bilinear,
    build_bus,
    check_universality,
    chirality,
    classify_dimension,
    closure_general,
    closure_strings,
    creation_operator,
    exp_pulse,
    frame_membership,
    gamma_frame,
    majorana,
    majorana_bilinear,
    parse_generator,
    parse_pauli,
    random_schedule,
    run_schedule,
    so_membership,
    third_order_gate,
    to_matrix,
    verify_car,
)

# Each public entry that reads a chain length, called with n as its chain length.
ENTRIES = {
    "PauliString.identity": PauliString.identity,
    "parse_pauli": lambda n: parse_pauli("XY", n),
    "PauliSum": lambda n: PauliSum(n, {"XY": 1.0}),
    "PauliSum.zero": PauliSum.zero,
    "PauliSum.identity": PauliSum.identity,
    "PauliSum.from_bits": lambda n: PauliSum.from_bits(n, {(1, 0): 1.0}),
    "PauliSum.from_json_dict": lambda n: PauliSum.from_json_dict(
        {"n": n, "terms": [{"word": "XY", "re": 1.0, "im": 0.0}]}
    ),
    "verify_car": verify_car,
    "majorana": lambda n: majorana(n, 0),
    "majorana_bilinear": lambda n: majorana_bilinear(n, 1),
    "third_order_gate": third_order_gate,
    "chirality": chirality,
    "gamma_frame": lambda n: gamma_frame(n)[0],
    "GeneratorRef": lambda n: GeneratorRef("e", n, index=3),
    "parse_generator": lambda n: parse_generator("d2", n),
    "build_bus": lambda n: build_bus(n, "II"),
    "closure_strings": lambda n: closure_strings(n, ["XY", "ZI"]),
    "check_universality": lambda n: check_universality(n, ["XY"]).report,
    "closure_general": lambda n: closure_general(n, [PauliSum(2, {"XY": 1.0})]),
    "classify_dimension": lambda n: classify_dimension(n, 6),
    "PulseSchedule": lambda n: PulseSchedule(n, ()),
    "PulseSchedule.from_json_dict": lambda n: PulseSchedule.from_json_dict(
        {"n": n, "pulses": [{"gen": "e0", "theta": 0.5}]}
    ),
    "random_schedule": lambda n: random_schedule(n, ["I", "II"], 5, seed=1),
    "adjoint_rotation": lambda n: adjoint_rotation(np.eye(4), n),
    "so_membership": lambda n: so_membership(np.eye(4), n),
    "to_matrix": lambda n: to_matrix("XY", n),
    "exp_pulse": lambda n: exp_pulse(PauliString("XY"), 0.1, n),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("n", [2.0, True, "2", 0, -1], ids=["float", "bool", "text", "zero", "negative"])
def test_every_entry_refuses_a_bad_n(entry, n):
    with pytest.raises(ValueError, match="n must be (an integer|positive)"):
        ENTRIES[entry](n)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_takes_a_numpy_integer_n_as_int(entry):
    stored = getattr(ENTRIES[entry](np.int64(2)), "n", 2)  # a label or a matrix stores none
    assert type(stored) is int and stored == 2


@pytest.mark.parametrize("length", [True, 2.5, "3", -1])
def test_random_schedule_length_is_a_non_negative_integer(length):
    with pytest.raises(ValueError, match="schedule length must be"):
        random_schedule(2, ["I"], length, seed=1)


def test_random_schedule_takes_a_numpy_integer_length():
    assert len(random_schedule(2, ["I"], np.int64(3), seed=1).pulses) == 3


# A string would be read letter by letter ("III" as bus I three times), a set
# in an order that follows the string hash.
@pytest.mark.parametrize("bus_ids", ["III", {"I", "II"}, frozenset({"I"}), ["I", 2], None],
                         ids=["string", "set", "frozenset", "non-string id", "none"])
def test_random_schedule_takes_bus_ids_as_a_list(bus_ids):
    with pytest.raises(ValueError, match=r"list of strings such as \['I', 'II'\]"):
        random_schedule(3, bus_ids, 6, seed=1)


def test_random_schedule_draws_from_the_listed_buses_in_order():
    assert [ref.kind for ref, _ in random_schedule(3, ["III"], 6, seed=1).pulses] == ["third"] * 6
    assert random_schedule(3, ("I", "II"), 6, seed=1) == random_schedule(3, ["I", "II"], 6, seed=1)
    assert random_schedule(3, ["I", "II"], 6, seed=1) != random_schedule(3, ["II", "I"], 6, seed=1)


# Each public entry that reads a mode index or a dimension, called with it as that value.
INDEXED = {
    "annihilation_operator": lambda k: annihilation_operator(2, k),
    "creation_operator": lambda k: creation_operator(2, k),
    "bilinear": lambda j: bilinear(2, j, 0, "hopping"),
    "classify_dimension": lambda dim: classify_dimension(1, dim),  # so(2) has dimension 1
}


@pytest.mark.parametrize("entry", sorted(INDEXED))
def test_every_index_is_an_integer(entry):
    for value in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            INDEXED[entry](value)
    assert INDEXED[entry](np.int64(1)) == INDEXED[entry](1)


TOLERANT = {
    "frame_membership": lambda tol: frame_membership(PulseSchedule(2, ()), tol),
    "closure_general": lambda tol: closure_general(2, [PauliSum(2, {"XY": 1.0})], tol),
    "adjoint_rotation": lambda tol: adjoint_rotation(np.eye(4), 2, tol),
    "so_membership": lambda tol: so_membership(np.eye(4), 2, tol),
}


@pytest.mark.parametrize("entry", sorted(TOLERANT))
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_every_entry_refuses_a_bad_tolerance(entry, tol):
    with pytest.raises(ValueError, match="must be positive and finite"):
        TOLERANT[entry](tol)


@pytest.mark.parametrize("n, pulses", [
    (2, ["iXY"]),  # a frame bilinear: the rotation picture reads it
    (3, ["third", "iXYZ"]),  # frame_membership stops at third: dense composes it
], ids=["rotation", "dense"])
def test_non_hermitian_word_fails_alike_on_both_paths(n, pulses):
    schedule = PulseSchedule(n, tuple((parse_generator(gen, n), 0.1) for gen in pulses))
    with pytest.raises(ValueError, match="not Hermitian") as from_run:
        run_schedule(schedule)
    if n == 2:
        with pytest.raises(ValueError, match="not Hermitian") as from_frame:
            frame_membership(schedule)
        assert str(from_frame.value) == str(from_run.value)
    else:
        assert frame_membership(schedule) is None
