"""Every library value compares, hashes, copies and pickles alike, and its fields are read-only.

The values are PauliString, PauliSum, GeneratorRef, GateBus,
PulseSchedule and MembershipResult.  They share one small base in
pauli, not dataclasses, so that the commands that read them skip
importing dataclasses and inspect.  The two reports (ClosureReport,
CarReport) stay dataclasses; they are not checked here.
"""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinchain
from spinchain import (
    GateBus,
    GeneratorRef,
    MembershipResult,
    PauliString,
    PauliSum,
    PulseSchedule,
    build_bus,
    parse_generator,
)

SRC = pathlib.Path(spinchain.__file__).resolve().parents[1]
PHASES = (1, 1j, -1, -1j)
ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}
# The fields of each value, spelled out here; a PauliString's letters are
# derived from its bits and read-only too.
FIELDS = {
    PauliString: ("n", "x", "z", "phase_exp", "letters"),
    PauliSum: ("n", "_terms"),
    GeneratorRef: ("kind", "n", "index", "raw"),
    GateBus: ("bus_id", "n", "members"),
    PulseSchedule: ("n", "pulses"),
    MembershipResult: ("member", "residual", "rotation", "orthogonality", "det_deviation",
                       "unitarity"),
}
FINITE = st.floats(-10, 10, allow_nan=False)


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
    return PulseSchedule(n=n, pulses=tuple(draw(st.lists(st.tuples(refs, FINITE), max_size=6))))


@st.composite
def gate_buses(draw):
    n = draw(st.integers(1, 6))
    return build_bus(n, draw(st.sampled_from(("I", "II", "III") if n > 1 else ("I", "II"))))


@st.composite
def membership_results(draw):
    size = draw(st.integers(1, 4))
    rows = st.lists(st.lists(FINITE, min_size=size, max_size=size), min_size=size, max_size=size)
    maybe = st.none() | FINITE
    return MembershipResult(draw(st.booleans()), draw(FINITE), draw(st.none() | rows),
                            draw(maybe), draw(maybe), draw(maybe))


def raw_refs():
    return st.builds(lambda p: GeneratorRef("raw", p.n, raw=p), pauli_strings())


VALUES = st.one_of(pauli_strings(), pauli_sums(), raw_refs(), gate_buses(), pulse_schedules(),
                   membership_results())


@settings(max_examples=200, deadline=None)
@given(VALUES, st.sampled_from(sorted(ROUND_TRIPS)))
def test_values_survive_copy_and_pickle(value, how):
    got = ROUND_TRIPS[how](value)
    assert type(got) is type(value)
    assert got == value
    if not isinstance(value, PauliSum):
        assert hash(got) == hash(value)
    if isinstance(value, MembershipResult):
        # equality ignores these, so they are compared here
        for name in FIELDS[MembershipResult][2:]:
            assert getattr(got, name) == getattr(value, name)


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_fields_are_read_only(value):
    for name in FIELDS[type(value)]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == before


@settings(max_examples=100, deadline=None)
@given(pauli_strings())
def test_word_hash_is_the_hash_of_its_fields(p):
    assert hash(p) == hash((p.n, p.x, p.z, p.phase_exp))


def test_values_of_another_type_are_not_equal():
    p = PauliString("XY")
    assert p != GeneratorRef("raw", 2, raw=p)
    assert p != (p.n, p.x, p.z, p.phase_exp)
    assert PauliSum(2, {"XY": 1.0}) != p


def test_sums_are_unhashable():
    with pytest.raises(TypeError):
        hash(PauliSum(2, {"XY": 1.0}))
    with pytest.raises(TypeError):
        hash(PauliSum.zero(3))


def test_deep_copy_does_not_share_terms():
    s = PauliSum(2, {"XY": 1.0, "ZZ": 0.5j})
    got = copy.deepcopy(s)
    assert got == s and got._terms is not s._terms


def test_reprs_name_the_fields():
    assert repr(GeneratorRef("e", 4, index=3)) == "GeneratorRef(kind='e', n=4, index=3, raw=None)"
    assert repr(parse_generator("-XY", 2)) == (
        "GeneratorRef(kind='raw', n=2, index=None, raw=PauliString('-XY'))")
    schedule = PulseSchedule(2, ((GeneratorRef("d", 2, index=0), 0.5),))
    assert repr(schedule) == (
        "PulseSchedule(n=2, pulses=((GeneratorRef(kind='d', n=2, index=0, raw=None), 0.5),))")
    result = MembershipResult(True, 0.0, rotation=[[1.0]], orthogonality=0.0,
                              det_deviation=0.0, unitarity=1e-16)
    assert repr(result) == "MembershipResult(member=True, residual=0.0)"
    assert repr(build_bus(2, "III")) == (
        "GateBus(bus_id='III', n=2, members=(GeneratorRef(kind='third', n=2, index=None, raw=None),))")


def test_membership_equality_reads_member_and_residual_only():
    base = MembershipResult(True, 1e-12, rotation=[[1.0]], orthogonality=0.0,
                            det_deviation=0.0, unitarity=0.0)
    other = MembershipResult(True, 1e-12, rotation=[[-1.0]], orthogonality=1.0,
                             det_deviation=2.0, unitarity=3.0)
    assert base == other and hash(base) == hash(other)
    assert base == MembershipResult(True, 1e-12)
    assert base != MembershipResult(False, 1e-12)
    assert base != MembershipResult(True, 2e-12)


def test_membership_defaults_are_none():
    result = MembershipResult(member=False, residual=0.5)
    assert (result.rotation, result.orthogonality, result.det_deviation, result.unitarity) == (
        None, None, None, None)


# Prints the pickles of an index reference and a raw one, as hex.
PICKLE_PROBE = """
import pickle
from spinchain import GeneratorRef, parse_generator
print(pickle.dumps(GeneratorRef("e", 4, index=3)).hex(), pickle.dumps(parse_generator("-iXZ", 2)).hex())
"""


def test_reference_pickles_hold_no_hash():
    # A str hash changes with PYTHONHASHSEED; a pickle that held one would too.
    dumps = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", PICKLE_PROBE], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        dumps.append(proc.stdout)
    assert dumps[0] == dumps[1]
    refs = [pickle.loads(bytes.fromhex(h)) for h in dumps[0].split()]
    assert refs == [GeneratorRef("e", 4, index=3), parse_generator("-iXZ", 2)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(raw_refs(), gate_buses().map(lambda bus: bus.members[-1])),
       st.sampled_from(sorted(ROUND_TRIPS)))
def test_reference_hash_is_rebuilt(ref, how):
    got = ROUND_TRIPS[how](ref)
    fresh = GeneratorRef(ref.kind, ref.n, index=ref.index, raw=ref.raw)
    assert hash(got) == hash(fresh) == hash((ref.kind, ref.n, ref.index, ref.raw))
