"""Tests for the rotation picture: schedules of frame bilinears read as R, with no 2^n matrix."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinchain import (
    GeneratorRef,
    MembershipResult,
    PauliString,
    PulseSchedule,
    ResourceLimitError,
    frame_membership,
    gamma_frame,
    random_schedule,
    rotation_json_dict,
    run_schedule,
    so_membership,
)
from spinchain import frame
from spinchain.generators import build_bus

from oracles import frame_word, kron_bits


def raw(word: PauliString) -> GeneratorRef:
    return GeneratorRef("raw", word.n, raw=word)


def dense_membership(schedule):
    return so_membership(run_schedule(schedule), schedule.n)


@pytest.mark.parametrize("n", range(1, 10))
def test_frame_bits_are_gamma_frame(n):
    # Against the letter-built frame of tests/oracles.py: the package builds
    # gamma_frame from the same _frame_bits that frame reads planes with.
    want = [kron_bits(frame_word(n, a)) for a in range(2 * n + 1)]
    assert [frame._frame_bits(n, a) for a in range(2 * n + 1)] == want
    assert [(g.x, g.z, g.phase_exp) for g in gamma_frame(n)] == [(*bits, 0) for bits in want]


@pytest.mark.parametrize("n", range(1, 6))
def test_every_frame_pair_is_its_own_plane(n):
    g = gamma_frame(n)
    for a, b in itertools.combinations(range(2 * n + 1), 2):
        word = 1j * g[a] * g[b]
        assert frame._frame_plane(word) == (a, b, 1)
        assert frame._frame_plane(-word) == (a, b, -1)
        # i g_b g_a = -i g_a g_b: the same plane, turned the other way
        assert frame._frame_plane(1j * g[b] * g[a]) == (a, b, -1)


@st.composite
def bilinear_schedules(draw):
    """Bus-I/II references and signed literals i g_a g_b over any pair a < b, n <= 6."""
    n = draw(st.integers(1, 6))
    g = gamma_frame(n)
    refs = [ref for bus_id in ("I", "II") for ref in build_bus(n, bus_id).members]
    pair = st.tuples(st.integers(0, 2 * n), st.integers(0, 2 * n)).filter(lambda p: p[0] != p[1])
    literal = st.builds(lambda p, sign: raw(sign * 1j * g[p[0]] * g[p[1]]), pair,
                        st.sampled_from([1, -1]))
    pulse = st.tuples(st.one_of(st.sampled_from(refs), literal),
                      st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
    return PulseSchedule(n, tuple(draw(st.lists(pulse, max_size=30))))


@settings(max_examples=80, deadline=None)
@given(bilinear_schedules())
def test_rotation_picture_matches_dense(schedule):
    got = frame_membership(schedule)
    want = dense_membership(schedule)
    assert got.member and want.member
    assert np.max(np.abs(np.array(got.rotation) - want.rotation)) < 1e-12
    assert got.residual == 0.0
    assert got.unitarity == got.orthogonality <= 1e-12
    assert got.det_deviation <= 1e-12


@pytest.mark.parametrize("n", [2, 5])
def test_chain_operators_are_frame_bilinears(n):
    # majorana(k) is g_k g_2n up to phase: its pulse turns the plane (k, 2n)
    for k in range(2 * n):
        ref = GeneratorRef("e", n, index=k)
        assert frame._frame_plane(ref.resolve())[:2] == (k, 2 * n)
        schedule = PulseSchedule(n, ((ref, 0.37), (GeneratorRef("d", n, index=0), 1.3)))
        got, want = frame_membership(schedule), dense_membership(schedule)
        assert np.max(np.abs(np.array(got.rotation) - want.rotation)) < 1e-12


def _non_bilinears(n):
    return {
        "third": GeneratorRef("third", n),
        "frame word": raw(gamma_frame(n)[3]),
        "chirality": GeneratorRef("chirality", n),
        "identity": raw(PauliString.identity(n)),
        "degree 4": raw(PauliString("XXXX")),
    }


@pytest.mark.parametrize("kind", sorted(_non_bilinears(4)))
@pytest.mark.parametrize("position", [0, 3, 7])
def test_schedule_with_a_non_bilinear_pulse_is_not_read(kind, position):
    pulses = list(random_schedule(4, ["I", "II"], 7, seed=position).pulses)
    pulses.insert(position, (_non_bilinears(4)[kind], 0.7))
    assert frame_membership(PulseSchedule(4, tuple(pulses))) is None


def test_non_hermitian_bilinear_is_rejected():
    word = -1 * gamma_frame(3)[0] * gamma_frame(3)[4]  # phase +-i: not Hermitian
    assert not word.is_hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        frame_membership(PulseSchedule(3, ((raw(word), 0.2),)))


def test_double_cover_at_n64():
    # exp(i (t + pi) W) = -exp(i t W): U changes sign, R does not
    schedule = random_schedule(64, ["I", "II"], 200, seed=3)
    shifted = PulseSchedule(64, tuple((ref, theta + math.pi) for ref, theta in schedule.pulses))
    r, r_shifted = frame_membership(schedule).rotation, frame_membership(shifted).rotation
    assert len(r) == 129
    assert max(abs(u - v) for row, other in zip(r, r_shifted) for u, v in zip(row, other)) < 1e-12
    assert frame_membership(schedule).member


def test_empty_schedule_is_the_identity():
    result = frame_membership(PulseSchedule(2, ()))
    assert result == MembershipResult(member=True, residual=0.0)
    assert result.rotation == [[float(i == j) for j in range(5)] for i in range(5)]
    assert (result.orthogonality, result.det_deviation, result.unitarity) == (0.0, 0.0, 0.0)


def test_verdict_compares_the_deviations_to_tol():
    schedule = random_schedule(6, ["I", "II"], 200, seed=1)
    loose, strict = frame_membership(schedule, 1e-9), frame_membership(schedule, 1e-300)
    assert loose.member and not strict.member
    assert strict.residual == 0.0
    assert max(strict.orthogonality, strict.det_deviation) > 1e-300


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be positive"):
        frame_membership(PulseSchedule(2, ()), tol)


class TestBudget:
    """MAX_FRAME_QUBITS caps the rotation picture; tests lower it instead of building huge R."""

    def test_limit_applies_before_r_is_built(self, monkeypatch):
        def never(*args):
            raise AssertionError("R was checked")

        monkeypatch.setattr(frame, "MAX_FRAME_QUBITS", 4)
        monkeypatch.setattr(frame, "_orthogonality", never)
        assert frame_membership(random_schedule(5, ["I", "III"], 20, seed=1)) is None
        with pytest.raises(ResourceLimitError, match="n=5 exceeds the rotation-picture limit of 4"):
            frame_membership(random_schedule(5, ["I", "II"], 20, seed=1))

    def test_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(frame, "MAX_FRAME_QUBITS", 4)
        assert frame_membership(random_schedule(4, ["I", "II"], 20, seed=1)).member

    def test_default_limit_reads_n128(self):
        assert frame.MAX_FRAME_QUBITS == 128
        assert frame_membership(random_schedule(128, ["I", "II"], 50, seed=1)).member


@pytest.mark.parametrize("n", [2, 8, 64, 128])
def test_rotate_one_column_is_a_column_of_r(n):
    """_rotate on e_2n alone takes each entry through R's float operations: an exact column of R."""
    schedule = random_schedule(n, ["I", "II"], 200, seed=n)
    column = [[float(i == 2 * n)] for i in range(2 * n + 1)]
    got = frame._rotate(schedule.pulses, frame._planes(schedule.pulses), column)
    assert [row[0] for row in got] == [row[2 * n] for row in frame_membership(schedule).rotation]


def _random_matrix(rng, m, sparsity):
    return [[rng.gauss(0, 1) if rng.random() >= sparsity else 0.0 for _ in range(m)]
            for _ in range(m)]


@pytest.mark.parametrize("seed", range(12))
def test_det_and_orthogonality_match_numpy(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 12)
    rows = _random_matrix(rng, m, rng.choice([0.0, 0.5, 0.8]))
    a = np.array(rows)
    assert frame._det(rows) == pytest.approx(np.linalg.det(a), rel=1e-9, abs=1e-12)
    assert frame._orthogonality(rows) == pytest.approx(
        np.max(np.abs(a.T @ a - np.eye(m))), rel=1e-12, abs=1e-12)


def test_det_of_permutations_and_a_singular_matrix():
    for perm in itertools.permutations(range(4)):
        rows = [[float(j == p) for j in range(4)] for p in perm]
        assert frame._det(rows) == round(np.linalg.det(np.array(rows)))
    assert frame._det([[1.0, 2.0], [2.0, 4.0]]) == 0.0


def test_rotation_json_dict_takes_rows_or_arrays():
    rows = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    want = {"size": 3, "entries": rows, "orthogonality_residual": 0.0}
    assert rotation_json_dict(rows) == rotation_json_dict(np.array(rows)) == want
    assert rotation_json_dict(rows, 1e-15)["orthogonality_residual"] == 1e-15
    assert rotation_json_dict([[2.0]])["orthogonality_residual"] == 3.0
    assert math.isnan(rotation_json_dict([[1.0, 0.0], [0.0, math.nan]])["orthogonality_residual"])
