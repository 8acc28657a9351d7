"""Every library value is a frozen dataclass: it compares, hashes, copies and pickles alike."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import GeneratorRef, PauliString, PauliSum, PulseSchedule

PHASES = (1, 1j, -1, -1j)
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@st.composite
def pauli_strings(draw, n=None):
    n = n or draw(st.integers(1, 70))
    letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    return PauliString(letters, draw(st.sampled_from(PHASES)))


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 6))
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    return PauliSum(n, draw(st.dictionaries(words, coeffs, max_size=8)))


@st.composite
def pulse_schedules(draw):
    n = draw(st.integers(1, 5))
    refs = st.one_of(
        st.builds(lambda k: GeneratorRef("e", n, index=k), st.integers(0, 2 * n - 1)),
        st.builds(lambda p: GeneratorRef("raw", n, raw=p), pauli_strings(n).filter(lambda p: p.is_hermitian)),
    )
    angles = st.floats(-10, 10, allow_nan=False)
    return PulseSchedule(n=n, pulses=tuple(draw(st.lists(st.tuples(refs, angles), max_size=6))))


def raw_refs():
    return st.builds(lambda p: GeneratorRef("raw", p.n, raw=p), pauli_strings())


VALUES = st.one_of(pauli_strings(), pauli_sums(), raw_refs(), pulse_schedules())


@settings(max_examples=200, deadline=None)
@given(VALUES, st.sampled_from(sorted(ROUND_TRIPS)))
def test_values_survive_copy_and_pickle(value, how):
    got = ROUND_TRIPS[how](value)
    assert type(got) is type(value)
    assert got == value
    if not isinstance(value, PauliSum):
        assert hash(got) == hash(value)


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_fields_are_read_only(value):
    names = [f.name for f in dataclasses.fields(value)]
    if isinstance(value, PauliString):
        names.append("letters")
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


@settings(max_examples=100, deadline=None)
@given(pauli_strings())
def test_word_hash_is_the_hash_of_its_fields(p):
    assert dataclasses.is_dataclass(p)
    assert hash(p) == hash((p.n, p.x, p.z, p.phase_exp))


def test_sums_are_unhashable():
    with pytest.raises(TypeError):
        hash(PauliSum(2, {"XY": 1.0}))
    with pytest.raises(TypeError):
        hash(PauliSum.zero(3))


def test_deep_copy_does_not_share_terms():
    s = PauliSum(2, {"XY": 1.0, "ZZ": 0.5j})
    got = copy.deepcopy(s)
    assert got == s and got._terms is not s._terms
