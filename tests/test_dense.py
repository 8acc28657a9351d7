"""Tests for the dense backend: matrices, pulses, schedules, rotations."""

import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from spinchain import (
    GeneratorRef,
    MembershipResult,
    PauliString,
    PauliSum,
    PulseSchedule,
    ResourceLimitError,
    adjoint_rotation,
    exp_pulse,
    gamma_frame,
    majorana,
    pauli_decompose,
    random_schedule,
    rotation_json_dict,
    run_schedule,
    so_membership,
    to_matrix,
    unitarity_residual,
)

from spinchain import dense, frame
from spinchain.dense import N_MAX_PIPELINE
from spinchain.generators import build_bus, parse_generator

from oracles import (
    SIGMA,
    all_words,
    compose_pulses,
    dense_of_terms,
    frame_readout,
    kron_word,
    pauli_coefficients,
    random_word,
)


def random_hermitian_sum(rng, n, nterms):
    terms = {}
    for _ in range(nterms):
        terms[random_word(rng, n)] = rng.uniform(-1, 1)
    return PauliSum(n, terms)


class TestToMatrix:
    def test_single_qubit(self):
        assert np.array_equal(to_matrix("X"), SIGMA["X"])
        assert np.array_equal(to_matrix(PauliString("Y")), SIGMA["Y"])

    def test_kronecker_structure(self):
        zx = to_matrix("ZX")
        assert np.array_equal(zx[:2, :2], SIGMA["X"])
        assert np.array_equal(zx[2:, 2:], -SIGMA["X"])
        assert np.array_equal(to_matrix(majorana(2, 2)), np.kron(SIGMA["Z"], SIGMA["X"]))

    def test_phase_and_sums(self):
        assert np.allclose(to_matrix(PauliString("X", -1j)), -1j * SIGMA["X"])
        s = PauliSum(2, {"XI": 0.5, "ZZ": -2.0})
        assert np.allclose(to_matrix(s), dense_of_terms(2, s.items()))

    def test_n_argument_must_match(self):
        with pytest.raises(ValueError):
            to_matrix("XX", n=3)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            to_matrix("X" * 13)

    def test_one_dense_ceiling(self):
        assert to_matrix("X" * N_MAX_PIPELINE).shape == (2**N_MAX_PIPELINE,) * 2
        with pytest.raises(ResourceLimitError, match="dense limit"):
            to_matrix("X" * 9)


class TestPauliDecompose:
    def test_identity(self):
        assert pauli_decompose(np.eye(2)) == PauliSum(1, {"I": 1.0})

    def test_projector(self):
        got = pauli_decompose(np.array([[1, 0], [0, 0]], dtype=complex))
        assert got == PauliSum(1, {"I": 0.5, "Z": 0.5})

    def test_round_trip_random_sums(self):
        rng = random.Random(61)
        for _ in range(10):
            terms = {random_word(rng, 3): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(8)}
            original = PauliSum(3, terms)
            recovered = pauli_decompose(to_matrix(original))
            assert max((recovered - original).max_coeff(), 0.0) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            pauli_decompose(np.zeros((2, 4)))
        for flat in (np.array(1.0), np.zeros(4)):
            with pytest.raises(ValueError, match="matrix must be square"):
                pauli_decompose(flat)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_full_sums_round_trip_through_to_matrix(self, n):
        # every one of the 4^n words carries a coefficient
        rng = np.random.default_rng(300 + n)
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        s = pauli_decompose(m)
        assert len(s) == 4**n
        assert np.max(np.abs(to_matrix(s) - m)) <= 1e-12 * np.max(np.abs(m))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            pauli_decompose(np.full((2, 2), bad))
        mat = np.eye(4, dtype=complex)
        mat[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pauli_decompose(mat)


class TestExpPulse:
    def test_quarter_turn_gives_i_times_word(self):
        u = exp_pulse(GeneratorRef("e", 1, index=0), np.pi / 2)
        assert np.max(np.abs(u - 1j * SIGMA["X"])) < 1e-12

    def test_zero_angle_is_identity(self):
        u = exp_pulse("e0", 0.0, n=3)
        assert np.max(np.abs(u - np.eye(8))) < 1e-12

    def test_half_turn_is_minus_identity(self):
        u = exp_pulse(majorana(1, 0), np.pi)
        assert np.max(np.abs(u + np.eye(2))) < 1e-12

    def test_closed_form_matches_expm_for_words(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(1, 4)
            w = random_word(rng, n)
            theta = rng.uniform(-4, 4)
            got = exp_pulse(PauliString(w), theta)
            want = expm(1j * theta * kron_word(w))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_eigendecomposition_matches_expm_for_sums(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randint(1, 3)
            h = random_hermitian_sum(rng, n, 4)
            theta = rng.uniform(-2, 2)
            got = exp_pulse(h, theta)
            want = expm(1j * theta * dense_of_terms(n, h.items()))
            assert np.max(np.abs(got - want)) < 1e-12
            assert unitarity_residual(got) < 1e-12

    def test_closed_form_matches_eigendecomposition_path(self):
        # same word through both code paths: PauliString is the one-pulse
        # schedule, the one-term PauliSum goes through eigh
        rng = random.Random(83)
        for _ in range(20):
            n = rng.randint(1, 4)
            w = random_word(rng, n)
            theta = rng.uniform(-4, 4)
            closed = exp_pulse(PauliString(w), theta)
            eigen = exp_pulse(PauliSum(n, {w: 1.0}), theta)
            assert np.max(np.abs(closed - eigen)) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            exp_pulse(PauliString("X", 1j), 0.3)
        with pytest.raises(ValueError):
            exp_pulse(PauliSum(1, {"X": 1j}), 0.3)

    def test_word_past_the_dense_limit(self):
        word = "XY" + "Z" * (N_MAX_PIPELINE - 1)
        n = len(word)
        for gen, n_arg in ((PauliString(word), None), (word, n), (parse_generator(word, n), None)):
            with pytest.raises(ResourceLimitError, match="dense limit"):
                exp_pulse(gen, 0.3, n=n_arg)
        u = exp_pulse(PauliString(word[1:]), 0.3)
        assert u.shape == (2**N_MAX_PIPELINE, 2**N_MAX_PIPELINE)
        assert unitarity_residual(u) < 1e-12

    @pytest.mark.parametrize(
        "gen", [GeneratorRef("e", 2, index=0), PauliString("XZ"), PauliSum(2, {"XZ": 1.0})]
    )
    def test_n_must_match_the_generator(self, gen):
        with pytest.raises(ValueError, match="n=3"):
            exp_pulse(gen, 0.3, n=3)

    def test_text_needs_n(self):
        with pytest.raises(ValueError, match="n is required"):
            exp_pulse("XZ", 0.3)

    def test_non_generator_rejected(self):
        with pytest.raises(TypeError, match="int"):
            exp_pulse(3, 0.3, n=2)


class TestRunSchedule:
    def test_empty_schedule(self):
        u = run_schedule(PulseSchedule(n=2, pulses=()))
        assert np.array_equal(u, np.eye(4))

    def test_two_quarter_turns(self):
        ref = GeneratorRef("e", 1, index=0)
        u = run_schedule(PulseSchedule(n=1, pulses=((ref, np.pi / 2), (ref, np.pi / 2))))
        assert np.max(np.abs(u + np.eye(2))) < 1e-12

    def test_single_bilinear_pulse(self):
        theta = 0.83
        u = run_schedule(PulseSchedule(n=2, pulses=((GeneratorRef("d", 2, index=0), theta),)))
        want = np.kron(expm(1j * theta * SIGMA["Z"]), np.eye(2))
        assert np.max(np.abs(u - want)) < 1e-12

    def test_application_order_first_pulse_rightmost(self):
        a = GeneratorRef("raw", 1, raw=PauliString("X"))
        b = GeneratorRef("raw", 1, raw=PauliString("Z"))
        u = run_schedule(PulseSchedule(n=1, pulses=((a, 0.3), (b, 0.7))))
        want = exp_pulse(PauliString("Z"), 0.7) @ exp_pulse(PauliString("X"), 0.3)
        assert np.max(np.abs(u - want)) < 1e-14

    def test_mismatched_pulse_rejected(self):
        with pytest.raises(ValueError):
            PulseSchedule(n=2, pulses=((GeneratorRef("e", 3, index=0), 0.1),))

    def test_generator_must_be_a_reference(self):
        ref = GeneratorRef("e", 2, index=0)
        with pytest.raises(TypeError, match="pulse 1 generator must be a GeneratorRef, got Pauli"):
            PulseSchedule(n=2, pulses=((ref, 0.1), (PauliString("XZ"), 0.3)))

    def test_pulses_are_stored_as_a_tuple_of_pairs(self):
        ref = GeneratorRef("e", 2, index=0)
        from_list = PulseSchedule(n=2, pulses=[[ref, 0.1], (ref, 0.3)])
        from_tuple = PulseSchedule(n=2, pulses=((ref, 0.1), (ref, 0.3)))
        assert from_list.pulses == ((ref, 0.1), (ref, 0.3))
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)


class TestScheduleJson:
    def test_round_trip(self):
        s = random_schedule(2, ["I", "II"], 5, seed=3)
        assert PulseSchedule.from_json_dict(s.to_json_dict()) == s

    def test_example_payload(self):
        payload = {"n": 2, "pulses": [{"gen": "d0", "theta": 1.5707963},
                                      {"gen": "e0", "theta": 0.3}]}
        s = PulseSchedule.from_json_dict(payload)
        assert s.pulses[0][0].label == "d0"
        assert s.pulses[1][1] == 0.3

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            PulseSchedule.from_json_dict({"n": 2})
        with pytest.raises(ValueError):
            PulseSchedule.from_json_dict({"n": 2, "pulses": [{"gen": "q9", "theta": 1}]})

    @pytest.mark.parametrize("theta", [True, "1.5", None, [1.5]])
    def test_angle_must_be_a_json_number(self, theta):
        payload = {"n": 2, "pulses": [{"gen": "e0", "theta": 0.3}, {"gen": "e1", "theta": theta}]}
        with pytest.raises(ValueError, match="pulse 1"):
            PulseSchedule.from_json_dict(payload)

    def test_integer_angle_is_accepted(self):
        s = PulseSchedule.from_json_dict({"n": 2, "pulses": [{"gen": "e0", "theta": 1}]})
        assert s.pulses[0][1] == 1.0 and type(s.pulses[0][1]) is float

    def test_angle_too_large_for_a_float_is_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            PulseSchedule.from_json_dict({"n": 2, "pulses": [{"gen": "e0", "theta": 10**400}]})

    def test_random_schedule_is_seed_deterministic(self):
        assert random_schedule(2, ["I", "II"], 10, seed=5) == random_schedule(2, ["I", "II"], 10, seed=5)
        assert random_schedule(2, ["I", "II"], 10, seed=5) != random_schedule(2, ["I", "II"], 10, seed=6)


class TestAdjointRotation:
    def test_identity_maps_to_identity(self):
        r = adjoint_rotation(np.eye(4), 2)
        assert np.max(np.abs(r - np.eye(5))) < 1e-12

    def test_double_cover_kills_the_sign(self):
        r = adjoint_rotation(-np.eye(4), 2)
        assert np.max(np.abs(r - np.eye(5))) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            adjoint_rotation(np.diag([1.0, 2.0]), 1)

    def test_conjugation_reconstruction(self):
        # U g_a U+ must equal sum_b R[b][a] g_b, checked densely
        rng = random.Random(73)
        for n in (1, 2):
            frame = [kron_word(g.letters) for g in gamma_frame(n)]
            for seed in range(3):
                u = run_schedule(random_schedule(n, ["I", "II"], 12, seed=100 * n + seed))
                r = adjoint_rotation(u, n)
                for a in range(2 * n + 1):
                    direct = u @ frame[a] @ u.conj().T
                    rebuilt = sum(r[b, a] * frame[b] for b in range(2 * n + 1))
                    assert np.max(np.abs(direct - rebuilt)) < 1e-10

    def test_single_qubit_chirality_pulse_rotates_frame_plane(self):
        # frame at n=1 is (Y, X, Z); exp(i theta/2 Z) rotates the (Y, X)
        # plane by theta and fixes Z
        theta = np.pi / 4
        u = exp_pulse(GeneratorRef("chirality", 1), theta / 2)
        r = adjoint_rotation(u, 1)
        want = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0.0],
                [np.sin(theta), np.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        assert np.max(np.abs(r - want)) < 1e-12
        # direct conjugation confirms the column convention
        y_img = u @ kron_word("Y") @ u.conj().T
        rebuilt = r[0, 0] * kron_word("Y") + r[1, 0] * kron_word("X") + r[2, 0] * kron_word("Z")
        assert np.max(np.abs(y_img - rebuilt)) < 1e-12

    def test_homomorphism_on_generated_group(self):
        for n in (2, 3):
            u = run_schedule(random_schedule(n, ["I", "II"], 15, seed=n))
            v = run_schedule(random_schedule(n, ["I", "II"], 15, seed=n + 50))
            ru, rv = adjoint_rotation(u, n), adjoint_rotation(v, n)
            ruv = adjoint_rotation(u @ v, n)
            assert np.max(np.abs(ruv - ru @ rv)) < 1e-9

    def test_bloch_sphere_length_preservation(self):
        # single-qubit case: conjugation preserves the coefficient length
        # of traceless Hermitian operators
        rng = random.Random(79)
        for trial in range(100):
            u = run_schedule(random_schedule(1, ["I", "II"], 8, seed=trial))
            coeffs = np.array([rng.uniform(-1, 1) for _ in range(3)])
            h = dense_of_terms(1, zip("XYZ", coeffs))
            h_conj = u @ h @ u.conj().T
            got = pauli_decompose(h_conj)
            out = np.array([got.coeff(w).real for w in "XYZ"])
            assert abs(np.linalg.norm(out) - np.linalg.norm(coeffs)) < 1e-9


class TestMembership:
    def test_identity_is_member(self):
        result = so_membership(np.eye(4), 2)
        assert result == MembershipResult(member=True, residual=0.0)

    def test_bus_schedules_are_members(self):
        for n in (2, 3):
            for seed in range(3):
                u = run_schedule(random_schedule(n, ["I", "II"], 20, seed=seed))
                result = so_membership(u, n)
                assert result.member
                assert result.residual < 1e-9

    def test_single_chain_pulse_is_member(self):
        u = exp_pulse("e1", 0.42, n=2)
        assert so_membership(u, 2).member

    def test_third_gate_pulse_is_not_member(self):
        u = exp_pulse(GeneratorRef("third", 2), 0.7)
        result = so_membership(u, 2)
        assert not result.member
        # leaked weight is sin(2 * 0.7); frozen as a regression pin
        assert abs(result.residual - 0.9854497299884601) < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            so_membership(np.ones((4, 4)), 2)


class TestDoubleCover:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_turn_on_any_chain_operator(self, n):
        for k in range(2 * n):
            u = exp_pulse(majorana(n, k), np.pi)
            assert np.max(np.abs(u + np.eye(2**n))) < 1e-12
            r = adjoint_rotation(u, n)
            assert np.max(np.abs(r - np.eye(2 * n + 1))) < 1e-10


def test_rotation_json_shape():
    payload = rotation_json_dict(np.eye(3))
    assert payload["size"] == 3
    assert payload["entries"][0] == [1.0, 0.0, 0.0]
    assert payload["orthogonality_residual"] == 0.0


@st.composite
def square_matrices(draw):
    side = 2 ** draw(st.integers(1, 4))
    entries = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(complex, (side, side), elements=entries))


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_pauli_decompose_matches_kronecker_oracle(mat):
    got = pauli_decompose(mat)
    for word, coeff in pauli_coefficients(mat).items():
        assert abs(got.coeff(word) - coeff) < 1e-12


# Bus III holds the third-order gate, which needs n >= 2.
SEEDED_READOUT_CASES = [
    (n, buses) for n in range(1, 6) for buses in ("I,II", "I,II,III") if n > 1 or buses == "I,II"
]


@pytest.mark.parametrize("n,buses", SEEDED_READOUT_CASES)
def test_readout_matches_oracle_on_seeded_schedules(n, buses):
    schedule = random_schedule(n, buses.split(","), 20, seed=300 + n)
    u = run_schedule(schedule)
    want_r, want_leak = frame_readout(u, [g.letters for g in gamma_frame(n)])
    r = adjoint_rotation(u, n)
    result = so_membership(u, n)
    assert np.max(np.abs(r - want_r)) < 1e-12
    assert abs(result.residual - want_leak) < 1e-12
    assert np.array_equal(result.rotation, r)
    has_third = any(ref.kind == "third" for ref, _ in schedule.pulses)
    assert result.member is not has_third


class TestMembershipAtPipelineLimit:
    n = N_MAX_PIPELINE

    def test_bus_one_two_schedule_is_member(self):
        u = run_schedule(random_schedule(self.n, ["I", "II"], 30, seed=8))
        result = so_membership(u, self.n)
        assert result.member
        assert result.residual < 1e-9
        # U g_a U+ = sum_b R[b][a] g_b, checked densely column by column
        frame = [kron_word(g.letters) for g in gamma_frame(self.n)]
        for a, g in enumerate(frame):
            rebuilt = sum(result.rotation[b, a] * frame[b] for b in range(len(frame)))
            assert np.max(np.abs(u @ g @ u.conj().T - rebuilt)) < 1e-10

    def test_bus_three_schedule_leaks(self):
        schedule = random_schedule(self.n, ["I", "II", "III"], 30, seed=8)
        assert any(ref.kind == "third" for ref, _ in schedule.pulses)
        result = so_membership(run_schedule(schedule), self.n)
        assert not result.member
        assert result.residual > 1e-6
        # Parseval: each conjugated frame word has unit coefficient norm,
        # so one leaked coefficient cannot exceed what R misses
        missing = np.max(1.0 - np.sum(result.rotation**2, axis=0))
        assert result.residual**2 <= missing + 1e-12


class TestReadoutValidation:
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        for readout in (so_membership, adjoint_rotation):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                readout(np.eye(4), 2, tol=tol)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2), (), (0, 0)])
    def test_unitarity_residual_needs_a_square_matrix(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            unitarity_residual(np.ones(shape))

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_checked_unitary_rejects_a_non_square_matrix(self, shape):
        with pytest.raises(ValueError, match="shape"):
            dense._checked_unitary(np.ones(shape), 1, 1e-8)

    def test_non_finite_matrix_is_not_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            so_membership(np.full((2, 2), np.nan), 1)

    @pytest.mark.parametrize("readout", [so_membership, adjoint_rotation])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("everywhere", [True, False], ids=["full", "one-entry"])
    def test_non_finite_matrix_is_refused_before_any_product(self, readout, value, everywhere):
        u = np.full((4, 4), value, dtype=complex) if everywhere else np.eye(4, dtype=complex)
        u[1, 2] = value
        with pytest.raises(ValueError, match="not unitary: it has non-finite entries"):
            readout(u, 2)

    @pytest.mark.parametrize("readout", [so_membership, adjoint_rotation])
    @pytest.mark.parametrize(
        "u, n, message",
        [
            (np.eye(1), -1, "n must be positive"),
            (np.eye(1), 0, "n must be positive"),
            (np.eye(4), 2.0, "schedule n must be an integer, got 2.0"),
            (np.eye(2), True, "schedule n must be an integer, got True"),
            (np.eye(4), "2", "schedule n must be an integer, got '2'"),
        ],
        ids=["negative", "zero", "float", "bool", "text"],
    )
    def test_n_follows_the_schedule_rule(self, readout, u, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            readout(u, n)

    def test_numpy_integer_n_is_accepted(self):
        assert adjoint_rotation(np.eye(4), np.int64(2)).shape == (5, 5)

    @pytest.mark.parametrize("readout", [so_membership, adjoint_rotation])
    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (4, 2), (4,)])
    def test_matrix_side_must_match_n(self, readout, shape):
        u = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*expected \(4, 4\)"):
            readout(u, 2)


class TestScheduleValidation:
    @pytest.mark.parametrize(
        "theta", [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="10**400")]
    )
    def test_non_finite_angle_names_the_pulse(self, theta):
        ref = GeneratorRef("e", 2, index=0)
        with pytest.raises(ValueError, match="pulse 1 "):
            PulseSchedule(n=2, pulses=((ref, 0.1), (ref, theta)))

    @pytest.mark.parametrize("theta", [True, "1.5", 1j, None])
    def test_angle_that_is_not_a_real_number_names_the_pulse(self, theta):
        ref = GeneratorRef("e", 2, index=0)
        with pytest.raises(ValueError, match="pulse 1 angle must be a real number"):
            PulseSchedule(n=2, pulses=((ref, 0.1), (ref, theta)))

    @pytest.mark.parametrize("theta", [np.float64(0.3), 1])
    def test_numpy_float_and_int_angles_accepted(self, theta):
        ref = GeneratorRef("e", 2, index=0)
        schedule = PulseSchedule(n=2, pulses=((ref, theta),))
        assert np.allclose(run_schedule(schedule), exp_pulse(ref, float(theta)))
        assert np.array_equal(exp_pulse(ref, theta), exp_pulse(ref, float(theta)))

    @pytest.mark.parametrize(
        "theta",
        [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="10**400"),
         True, "1.5", 1j, None],
    )
    def test_exp_pulse_applies_the_schedule_angle_rule(self, theta):
        for gen in (GeneratorRef("e", 2, index=0), PauliSum(2, {"XI": 1.0, "ZZ": 0.5})):
            with pytest.raises(ValueError) as from_pulse:
                exp_pulse(gen, theta, n=2)
            with pytest.raises(ValueError) as from_schedule:
                PulseSchedule(n=2, pulses=((GeneratorRef("e", 2, index=0), theta),))
            assert str(from_schedule.value) == str(from_pulse.value).replace("pulse", "pulse 0", 1)

    def test_negative_random_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            random_schedule(2, ["I"], -5, seed=0)

    @pytest.mark.parametrize("n", [2.7, 2.0, "2", True])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            PulseSchedule.from_json_dict({"n": n, "pulses": []})

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_constructor_rejects_a_non_integer_n(self, n):
        with pytest.raises(ValueError, match="schedule n must be an integer"):
            PulseSchedule(n=n, pulses=())

    def test_constructor_accepts_a_numpy_integer_n(self):
        ref = GeneratorRef("e", 3, index=1)
        schedule = PulseSchedule(n=np.int64(3), pulses=((ref, 0.4),))
        assert type(schedule.n) is int
        assert schedule == PulseSchedule(n=3, pulses=((ref, 0.4),))
        assert np.array_equal(run_schedule(schedule), exp_pulse(ref, 0.4))


class TestWordAction:
    """Every word matrix comes from one signed permutation; kron_word is the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_word_matches_kronecker_exactly(self, n):
        for w in all_words(n):
            assert np.array_equal(to_matrix(w), kron_word(w)), w

    def test_seeded_words_at_pipeline_limit(self):
        rng = random.Random(97)
        for _ in range(12):
            w = random_word(rng, N_MAX_PIPELINE)
            assert np.array_equal(to_matrix(w), kron_word(w)), w

    def test_word_pulses_match_kronecker(self):
        for w in all_words(2):
            want = np.cos(0.4) * np.eye(4) + 1j * np.sin(0.4) * kron_word(w)
            assert np.allclose(exp_pulse(PauliString(w), 0.4), want, rtol=0, atol=1e-15), w

    def test_word_pulses_match_kronecker_exactly(self):
        rng = random.Random(41)
        words = all_words(3) + [random_word(rng, N_MAX_PIPELINE) for _ in range(12)]
        for w in words:
            for sign in (1, -1):
                want = np.cos(0.7) * np.eye(2 ** len(w)) + 1j * np.sin(0.7) * kron_word(w, sign)
                assert np.array_equal(exp_pulse(PauliString(w, sign), 0.7), want), (sign, w)

    def test_cold_overlap_table_needs_no_numpy_2_bit_count(self, monkeypatch):
        # The overlap table is cached: clear it so it is rebuilt without bitwise_count.
        dense._overlaps.cache_clear()
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for n in (1, 2, 3):
            for w in all_words(n):
                word = kron_word(w)
                assert np.array_equal(to_matrix(w), word), w
                assert pauli_decompose(word) == PauliSum(n, {w: 1.0}), w
                want = np.cos(0.3) * np.eye(2**n) + 1j * np.sin(0.3) * word
                assert np.array_equal(exp_pulse(PauliString(w), 0.3), want), w

    def test_needs_no_numpy_2_bit_count(self, monkeypatch):
        # numpy < 2.0 has no bitwise_count; the word phases must not rely on it
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for w in all_words(3):
            assert np.array_equal(to_matrix(w), kron_word(w)), w

    @pytest.mark.parametrize("phase", [1, -1, 1j, -1j])
    def test_phased_words(self, phase):
        for w in all_words(2):
            assert np.array_equal(to_matrix(PauliString(w, phase)), kron_word(w, phase))


def _pulse_ref(n, choice):
    kind, value = choice
    if kind == "raw":
        return parse_generator(value, n)
    bus_ids = ("I", "II", "III") if n > 1 else ("I", "II")
    members = [ref for bus_id in bus_ids for ref in build_bus(n, bus_id).members]
    return members[value % len(members)]


@st.composite
def mixed_schedules(draw):
    """Bus references mixed with raw signed words such as -ZX, n <= 5."""
    n = draw(st.integers(1, 5))
    raw = st.tuples(st.sampled_from(["", "-"]), st.text("IXYZ", min_size=n, max_size=n)).map("".join)
    choices = st.one_of(st.tuples(st.just("bus"), st.integers(0, 20)), st.tuples(st.just("raw"), raw))
    angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    pulses = draw(st.lists(st.tuples(choices, angles), max_size=25))
    return PulseSchedule(n=n, pulses=tuple((_pulse_ref(n, c), t) for c, t in pulses))


@settings(max_examples=80, deadline=None)
@given(mixed_schedules())
def test_run_schedule_matches_matmul_composition(schedule):
    words = [(ref.resolve(), theta) for ref, theta in schedule.pulses]
    want = compose_pulses(schedule.n, [(p.letters, p.phase.real, t) for p, t in words])
    assert np.max(np.abs(run_schedule(schedule) - want)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(mixed_schedules(), st.sampled_from([1, 3]))
def test_apply_to_columns_matches_run_schedule(schedule, m):
    m = min(m, 2**schedule.n)
    plan = dense._gate_plan(schedule.pulses, schedule.n)
    got = dense._apply(plan, np.eye(2**schedule.n, m, dtype=complex))
    assert got.shape == (2**schedule.n, m)
    assert np.max(np.abs(got - run_schedule(schedule)[:, :m])) < 1e-14


class TestApplyBlocks:
    """_apply takes any block as a C-contiguous complex array: another layout is copied, not misread."""

    N = 4

    @pytest.fixture(scope="class")
    def schedule(self):
        drawn = random_schedule(self.N, ["I", "II", "III"], 60, seed=3)
        wide = [("chirality", 0.3), ("e7", 0.5), ("-ZZZZ", 0.2)]
        return _words(self.N, [(ref.label, t) for ref, t in drawn.pulses] + wide)

    def _apply(self, schedule, block):
        plan = dense._gate_plan(schedule.pulses, self.N)
        assert any(type(entry) is tuple for entry in plan) and any(type(entry) is list for entry in plan)
        return dense._apply(plan, block)

    @pytest.mark.parametrize("layout", ["fortran", "strided", "float"])
    def test_block_layouts(self, schedule, layout):
        u = run_schedule(schedule)
        side = 2**self.N
        block, want = {
            "fortran": (np.asfortranarray(np.eye(side, 3, dtype=complex)), u[:, :3]),
            "strided": (np.eye(side, 6, dtype=complex)[:, ::2], u[:, [0, 2, 4]]),
            "float": (np.eye(side, 3), u[:, :3]),
        }[layout]
        before = block.copy()
        assert np.max(np.abs(self._apply(schedule, block) - want)) < 1e-14
        assert np.array_equal(block, before)  # a copied block is left as it was

    def test_random_block(self, schedule):
        rng = np.random.default_rng(4)
        block = rng.normal(size=(2**self.N, 5)) + 1j * rng.normal(size=(2**self.N, 5))
        want = run_schedule(schedule) @ block
        assert np.max(np.abs(self._apply(schedule, block.copy()) - want)) < 1e-13


def test_non_hermitian_raw_pulse_raises_like_exp_pulse():
    ref = GeneratorRef("raw", 2, raw=PauliString("ZX", 1j))
    with pytest.raises(ValueError, match="not Hermitian") as from_pulse:
        exp_pulse(ref, 0.3)
    schedule = PulseSchedule(n=2, pulses=((GeneratorRef("e", 2, index=0), 0.1), (ref, 0.3)))
    # No call keeps state: a failed call fails the same way again.
    for _ in range(2):
        with pytest.raises(ValueError, match="not Hermitian") as from_schedule:
            run_schedule(schedule)
        assert str(from_schedule.value) == str(from_pulse.value)


class TestMembershipNumbers:
    """The verdict carries the orthogonality and determinant deviations it compared."""

    @staticmethod
    def _expected(r):
        return np.max(np.abs(r.T @ r - np.eye(r.shape[0]))), abs(np.linalg.det(r) - 1.0)

    def test_member_deviations_within_tolerance(self):
        u = run_schedule(random_schedule(4, ["I", "II"], 30, seed=11))
        result = so_membership(u, 4, tol=1e-9)
        assert result.member
        ortho, det_dev = self._expected(result.rotation)
        assert result.orthogonality == pytest.approx(ortho, abs=1e-15)
        assert result.det_deviation == pytest.approx(det_dev, abs=1e-15)
        assert result.orthogonality < 1e-12 and result.det_deviation < 1e-12

    def test_bus_three_leaker_loses_orthogonality(self):
        schedule = random_schedule(4, ["I", "II", "III"], 30, seed=11)
        assert any(ref.kind == "third" for ref, _ in schedule.pulses)
        result = so_membership(run_schedule(schedule), 4, tol=1e-9)
        assert not result.member
        ortho, det_dev = self._expected(result.rotation)
        assert result.orthogonality == pytest.approx(ortho, abs=1e-15)
        assert result.det_deviation == pytest.approx(det_dev, abs=1e-15)
        # a leaked coefficient c takes c^2 from its column's squared norm
        assert result.orthogonality >= result.residual**2 - 1e-12
        assert result.orthogonality > 1e-6

    def test_new_fields_stay_out_of_equality_and_repr(self):
        result = so_membership(np.eye(4), 2)
        assert result == MembershipResult(member=True, residual=0.0)
        assert "orthogonality" not in repr(result) and "det_deviation" not in repr(result)


# Bus III holds the third-order gate, which needs n >= 2.
UNITARITY_CASES = [
    (n, buses) for n in range(1, 9) for buses in ("I,II", "I,II,III") if n > 1 or buses == "I,II"
]


@pytest.mark.parametrize("n,buses", UNITARITY_CASES)
def test_membership_carries_the_unitarity_it_checked(n, buses):
    u = run_schedule(random_schedule(n, buses.split(","), 30, seed=400 + n))
    result = so_membership(u, n)
    assert result.unitarity == unitarity_residual(u)
    assert result == MembershipResult(member=result.member, residual=result.residual)
    assert "unitarity" not in repr(result)


class TestScheduleBudget:
    """MAX_SCHEDULE_PULSES caps schedules; tests lower it instead of building huge ones."""

    def test_random_schedule_over_budget(self, monkeypatch):
        monkeypatch.setattr(frame, "MAX_SCHEDULE_PULSES", 5)
        assert len(random_schedule(2, ["I"], 5, seed=0).pulses) == 5
        with pytest.raises(ResourceLimitError, match="6 pulses exceeds the limit of 5"):
            random_schedule(2, ["I"], 6, seed=0)

    def test_schedule_constructor_over_budget(self, monkeypatch):
        monkeypatch.setattr(frame, "MAX_SCHEDULE_PULSES", 5)
        ref = GeneratorRef("e", 2, index=0)
        PulseSchedule(n=2, pulses=((ref, 0.1),) * 5)
        with pytest.raises(ResourceLimitError, match="limit of 5"):
            PulseSchedule(n=2, pulses=((ref, 0.1),) * 6)
        with pytest.raises(ResourceLimitError):
            PulseSchedule.from_json_dict({"n": 2, "pulses": [{"gen": "e0", "theta": 0.1}] * 6})


def _trace_rotation(u, n):
    """R[b][a] = Re trace(g_b U g_a U+) / 2^n with kron_word frame matrices and full matmuls."""
    frame = [kron_word(g.letters) for g in gamma_frame(n)]
    conjugated = [u @ g_a @ u.conj().T for g_a in frame]
    return np.array([
        [np.real(np.einsum("ij,ji->", g_b, m)) / 2**n for m in conjugated] for g_b in frame
    ])


class TestTraceReadout:
    """R from traces of row and column gathers of U; the leak from half-rank tables."""

    @settings(max_examples=40, deadline=None)
    @given(mixed_schedules())
    def test_mixed_schedules_match_oracle(self, schedule):
        n = schedule.n
        u = run_schedule(schedule)
        want_r, want_leak = frame_readout(u, [g.letters for g in gamma_frame(n)])
        r = adjoint_rotation(u, n)
        result = so_membership(u, n)
        assert np.max(np.abs(r - want_r)) < 1e-12
        assert abs(result.residual - want_leak) < 1e-12
        assert np.array_equal(result.rotation, r)

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("buses", [["I", "II"], ["I", "II", "III"]])
    def test_large_chains_match_dense_traces(self, n, buses):
        schedule = random_schedule(n, buses, 40, seed=500 + n)
        u = run_schedule(schedule)
        result = so_membership(u, n)
        assert np.max(np.abs(adjoint_rotation(u, n) - _trace_rotation(u, n))) < 1e-10
        assert np.array_equal(result.rotation, adjoint_rotation(u, n))
        if "III" not in buses:
            assert result.member and result.residual < 1e-9
        elif n == 8:
            assert any(ref.kind == "third" for ref, _ in schedule.pulses)
            assert not result.member and result.residual > 1e-6
            # Parseval: a conjugated frame word has unit coefficient norm
            missing = np.max(1.0 - np.sum(result.rotation**2, axis=0))
            assert result.residual**2 <= missing + 1e-12

    def test_cached_frame_tables_are_read_only(self):
        tables = (*dense._frame_words(3), *dense._frame_halves(3), dense._diagonal_index(3))
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[1]

    def test_cold_caches(self):
        for cache in (dense._frame_words, dense._frame_halves, dense._diagonal_index):
            cache.cache_clear()
        for buses in (["I", "II"], ["I", "II", "III"]):
            u = run_schedule(random_schedule(3, buses, 20, seed=44))
            want_r, want_leak = frame_readout(u, [g.letters for g in gamma_frame(3)])
            result = so_membership(u, 3)
            assert np.max(np.abs(result.rotation - want_r)) < 1e-12
            assert abs(result.residual - want_leak) < 1e-12
        dense._frame_words.cache_clear()
        assert np.max(np.abs(adjoint_rotation(u, 3) - want_r)) < 1e-12

    @pytest.mark.parametrize("readout", [adjoint_rotation, so_membership])
    def test_traced_peak_at_pipeline_limit(self, readout):
        # The per-call temporaries stay a few 2^n x 2^n matrices (1 MB each
        # at n = 8); the first call fills the per-n caches, which persist.
        u = run_schedule(random_schedule(N_MAX_PIPELINE, ["I", "II"], 30, seed=8))
        readout(u, N_MAX_PIPELINE)
        tracemalloc.start()
        try:
            readout(u, N_MAX_PIPELINE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


def _diagonal_words(rng, n, count):
    """Seeded signed words of I and Z only, e.g. -ZIZ."""
    return [rng.choice(["", "-"]) + "".join(rng.choice("IZ") for _ in range(n)) for _ in range(count)]


class TestDiagonalPulses:
    """Pulses on words without X or Y, in windows and as wide words, against the oracle."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bus_one_schedules(self, n):
        schedule = random_schedule(n, ["I"], 30, seed=70 + n)
        want = compose_pulses(n, [(ref.resolve().letters, 1, t) for ref, t in schedule.pulses])
        assert np.max(np.abs(run_schedule(schedule) - want)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_signed_diagonal_words_mixed_with_bus_two(self, n):
        rng = random.Random(90 + n)
        raw = ["-ZIZ", "IZZ", "-IIZ"] if n == 3 else _diagonal_words(rng, n, 3)
        refs = [parse_generator(w, n) for w in raw] + list(build_bus(n, "II").members)
        pulses = tuple((rng.choice(refs), rng.uniform(-np.pi, np.pi)) for _ in range(40))
        schedule = PulseSchedule(n=n, pulses=pulses)
        words = [(ref.resolve(), t) for ref, t in pulses]
        want = compose_pulses(n, [(p.letters, p.phase.real, t) for p, t in words])
        assert np.max(np.abs(run_schedule(schedule) - want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_minus_z_pulse_inverts_z_pulse(self, n):
        word = "I" * (n - 1) + "Z"
        plus = run_schedule(PulseSchedule(n=n, pulses=((parse_generator(word, n), 0.9),)))
        minus = run_schedule(PulseSchedule(n=n, pulses=((parse_generator("-" + word, n), 0.9),)))
        assert np.array_equal(minus, plus.conj().T)
        assert np.max(np.abs(minus @ plus - np.eye(2**n))) < 1e-15


def _signed(letters):
    return st.tuples(st.sampled_from(["", "-"]), letters).map("".join)


@st.composite
def diagonal_run_schedules(draw):
    """Mostly diagonal pulses (bus I, signed I/Z words, the identity word), rarely another, n <= 6."""
    n = draw(st.integers(1, 6))
    diagonal = st.one_of(
        st.sampled_from([ref.label for ref in build_bus(n, "I").members]),
        _signed(st.text("IZ", min_size=n, max_size=n)),
        _signed(st.just("I" * n)),
    )
    bus_ids = ("II", "III") if n > 1 else ("II",)
    other = st.one_of(
        st.sampled_from([ref.label for bus_id in bus_ids for ref in build_bus(n, bus_id).members]),
        _signed(st.text("IXYZ", min_size=n, max_size=n)),
    )
    labels = st.integers(0, 7).flatmap(lambda k: other if k == 0 else diagonal)
    angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    pulses = draw(st.lists(st.tuples(labels, angles), max_size=40))
    return PulseSchedule(n=n, pulses=tuple((parse_generator(w, n), t) for w, t in pulses))


def _oracle_unitary(schedule):
    words = [(ref.resolve(), t) for ref, t in schedule.pulses]
    return compose_pulses(schedule.n, [(p.letters, p.phase.real, t) for p, t in words])


class TestPendingDiagonal:
    """Runs of diagonal pulses (bus I, signed I/Z words, the identity word) between other pulses."""

    @settings(max_examples=120, deadline=None)
    @given(diagonal_run_schedules())
    def test_diagonal_runs_match_matmul_composition(self, schedule):
        assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-12

    def test_long_mostly_diagonal_schedule(self):
        n = 3
        rng = random.Random(16)
        diagonal = [parse_generator(w, n) for w in ("III", "-III", "ZIZ", "-IZZ", "IIZ")]
        diagonal += list(build_bus(n, "I").members)
        other = list(build_bus(n, "II").members) + [GeneratorRef("third", n)]
        pulses = tuple(
            (rng.choice(other if rng.random() < 0.05 else diagonal), rng.uniform(-np.pi, np.pi))
            for _ in range(5000)
        )
        schedule = PulseSchedule(n=n, pulses=pulses)
        u = run_schedule(schedule)
        assert unitarity_residual(u) < 1e-12
        assert np.max(np.abs(u - _oracle_unitary(schedule))) < 1e-12

    def test_wide_diagonal_words_between_windows(self):
        n = 6
        rng = random.Random(24)
        local = [ref.label for bus in ("I", "II", "III") for ref in build_bus(n, bus).members]
        words = []
        for wide in ("chirality", "ZIIIIZ", "-IIIIII") * 2:
            words += [(rng.choice(local), rng.uniform(-3, 3)) for _ in range(10)]
            words.append((wide, rng.uniform(-3, 3)))
        schedule = _words(n, words)
        assert sum(type(entry) is int for entry in _plan_of(schedule)) == 6
        assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-13

    def test_equal_schedules_give_bit_identical_unitaries(self):
        for buses in (["I", "II"], ["I", "II", "III"]):
            dense._window_blocks.cache_clear()
            cold = run_schedule(random_schedule(5, buses, 200, seed=16))
            payload = random_schedule(5, buses, 200, seed=16).to_json_dict()
            warm = run_schedule(PulseSchedule.from_json_dict(payload))
            assert np.array_equal(cold, warm)

    def test_each_wide_word_action_is_built_once_per_call(self, monkeypatch):
        # The per-n tables are warm, so every build counted here is a wide pulse's.
        n = 6
        dense._window_blocks()
        dense._frame_words(n)
        built = []
        action = dense._word_action
        monkeypatch.setattr(dense, "_word_action", lambda *key: built.append(key) or action(*key))
        rng = random.Random(29)
        local = [ref.label for ref in build_bus(n, "II").members]
        words = []
        # Three distinct wide words: the chirality is +-ZZZZZZ, so -ZZZZZZ shares its action.
        for wide in ("e11", "chirality", "-ZZZZZZ", "XIIIIY") * 3:
            words += [(rng.choice(local), rng.uniform(-3, 3)), (wide, rng.uniform(-3, 3))]
        schedule = _words(n, words)
        for _ in range(2):
            built.clear()
            assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-13
            assert len(built) == 3


@st.composite
def fusion_schedules(draw):
    """Local and wide pulses mixed, n <= 5: bus words, e0-e5, chirality, signed literals.

    The literals include the non-adjacent XIX and the diagonal ZZ at every
    offset, so pulses close open gates in every way: an overlapping pair,
    a wide word, a wide diagonal word and the end of the schedule.
    """
    n = draw(st.integers(1, 5))
    bus_ids = ("I", "II", "III") if n > 1 else ("I", "II")
    labels = [ref.label for bus_id in bus_ids for ref in build_bus(n, bus_id).members]
    labels += [f"e{k}" for k in range(min(6, 2 * n))] + ["chirality"]
    placed = [
        "I" * k + word + "I" * (n - k - len(word))
        for word in ("XIX", "ZZ") for k in range(n - len(word) + 1)
    ]
    literals = _signed(st.text("IXYZ", min_size=n, max_size=n) | st.sampled_from(placed or ["I"]))
    angles = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
    pulses = draw(st.lists(st.tuples(st.sampled_from(labels) | literals, angles), max_size=40))
    return PulseSchedule(n=n, pulses=tuple((parse_generator(w, n), t) for w, t in pulses))


class TestGateFusion:
    """run_schedule composes local pulses into gates on windows of up to three qubits at every n."""

    @settings(max_examples=150, deadline=None)
    @given(fusion_schedules())
    def test_fused_matches_in_place_on_small_chains(self, schedule):
        assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-12

    @pytest.mark.parametrize("n", [7, 8])
    def test_fused_matches_in_place_at_large_n(self, n):
        schedules = [random_schedule(n, ["I", "II", "III"], 200, seed=seed) for seed in (1, 2)]
        rng = random.Random(n)
        pulses = list(schedules[0].pulses)
        for label in ("e5", "chirality", "e5", "chirality"):
            pulses.insert(rng.randrange(len(pulses)), (parse_generator(label, n), rng.uniform(-3, 3)))
        schedules.append(PulseSchedule(n=n, pulses=tuple(pulses)))
        for schedule in schedules:
            assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-13

    @pytest.mark.parametrize(
        "word", ["Z", "XY", "IYI", "IIXX", "ZIIII", "IIIXXIII", "IYIIIIII", "ZIIIIIII"]
    )
    def test_local_word_pulses_match_kronecker_exactly(self, word):
        for sign in (1, -1):
            want = np.cos(0.7) * np.eye(2 ** len(word)) + 1j * np.sin(0.7) * kron_word(word, sign)
            assert np.array_equal(exp_pulse(PauliString(word, sign), 0.7), want), (sign, word)

    @pytest.mark.parametrize("n", range(1, N_MAX_PIPELINE + 1))
    def test_local_schedule_never_updates_in_place(self, monkeypatch, n):
        schedule = random_schedule(n, ["I", "II", "III"] if n > 1 else ["I", "II"], 200, seed=5)
        want = _oracle_unitary(schedule)

        def never(*args):
            raise AssertionError("a local pulse reached the in-place update")

        monkeypatch.setattr(dense, "_pulse_in_place", never)
        assert np.max(np.abs(run_schedule(schedule) - want)) < 1e-13

    def test_non_hermitian_local_word_raises_like_exp_pulse(self):
        n = N_MAX_PIPELINE
        ref = GeneratorRef("raw", n, raw=PauliString("ZX" + "I" * (n - 2), 1j))
        with pytest.raises(ValueError, match="not Hermitian") as from_pulse:
            exp_pulse(ref, 0.3)
        schedule = PulseSchedule(n=n, pulses=((GeneratorRef("e", n, index=0), 0.1), (ref, 0.3)))
        for _ in range(2):
            with pytest.raises(ValueError, match="not Hermitian") as from_schedule:
                run_schedule(schedule)
            assert str(from_schedule.value) == str(from_pulse.value)

    def test_local_actions_are_read_only_and_bounded(self):
        # One real-form frame matrix per word of the window's frame, 128 KB in all.
        blocks = dense._window_blocks()
        assert blocks.shape == (4**dense._GATE_QUBITS, 2 * dense._FRAME, 2 * dense._FRAME)
        assert blocks.nbytes <= 2**17
        with pytest.raises(ValueError, match="read-only"):
            blocks[0, 0, 0] = 0
        assert dense._support(PauliString("IXYZ")) == (1, 3)
        assert dense._support(PauliString("XIIX")) == (0, 4)
        assert dense._support(PauliString("IIII")) == (0, 0)
        frame, q = dense._FRAME, dense._GATE_QUBITS
        for word, top, width in (("IXXI", 1, 2), ("IXXI", 0, 3), ("IIYZ", 1, 3), ("IIIZ", 3, 1)):
            bits = PauliString(word)
            drop = bits.n - top
            block = blocks[(bits.x << q >> drop) << q | bits.z << q >> drop]
            want = np.kron(1j * kron_word(word[top:top + width]), np.eye(frame // 2**width))
            assert np.array_equal(block[:frame, :frame] + 1j * block[frame:, :frame], want), word

    def test_window_table_holds_every_frame_word(self):
        blocks = dense._window_blocks()
        for word in all_words(dense._GATE_QUBITS):
            action = 1j * kron_word(word)
            want = np.block([[action.real, -action.imag], [action.imag, action.real]])
            bits = PauliString(word)
            assert np.array_equal(blocks[bits.x << dense._GATE_QUBITS | bits.z], want), word


def _plan_of(schedule):
    return dense._plan([dense._support(ref.resolve()) for ref, _ in schedule.pulses], schedule.n)


def _words(n, words):
    """A schedule of (word, angle) pairs; words are literals or generator labels."""
    return PulseSchedule(n=n, pulses=tuple((parse_generator(w, n), t) for w, t in words))


class TestGatePlan:
    """The window plan: cases a planner can get wrong, each against dense matmul composition."""

    def _check(self, schedule):
        assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-12

    @pytest.mark.parametrize("q", [1, 3])
    def test_pulse_on_a_pair_between_open_windows(self, q):
        n = 6

        def on(word, k):
            return "I" * k + word + "I" * (n - k - len(word))

        # Open pairs (q - 1, q) and (q + 1, q + 2), then a pulse on (q, q + 1):
        # all three span four qubits, so it keeps the window with more pulses
        # and closes the other.
        schedule = _words(n, [(on("XX", q - 1), 0.3), (on("Z", q - 1), 0.2), (on("XX", q + 1), 0.5),
                              (on("XX", q), 0.7), (on("Z", q + 1), 0.4), (on("Z", q - 1), 0.9)])
        self._check(schedule)
        assert _plan_of(schedule) == [[q + 1, 2, [2]], [q - 1, 3, [0, 1, 3, 4, 5]]]
        # Open single-qubit windows on q - 1 and q + 2 only touch the pair:
        # three windows, none merged.
        schedule = _words(n, [(on("Z", q - 1), 0.3), (on("Z", q + 2), 0.5), (on("XX", q), 0.7)])
        self._check(schedule)
        assert _plan_of(schedule) == [[q - 1, 1, [0]], [q, 2, [2]], [q + 2, 1, [1]]]
        # Open single-qubit windows on q and q + 1: the pair joins both.
        schedule = _words(n, [(on("Z", q), 0.3), (on("Y", q + 1), 0.5), (on("XX", q), 0.7),
                              (on("Z", q + 1), 0.1)])
        self._check(schedule)
        assert _plan_of(schedule) == [[q, 2, [0, 1, 2, 3]]]

    @pytest.mark.parametrize("n", [6, 8])
    def test_pulses_on_the_first_and_last_qubit(self, n):
        words = ["Y" + "I" * (n - 1), "I" * (n - 1) + "X", "I" * (n - 2) + "ZY",
                 "XZ" + "I" * (n - 2), "-" + "I" * (n - 3) + "XIX"]
        rng = random.Random(n)
        schedule = _words(n, [(rng.choice(words), rng.uniform(-3, 3)) for _ in range(20)])
        self._check(schedule)
        assert all(type(entry) is list for entry in _plan_of(schedule))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_window_holds_all_of_u_when_n_is_within_the_cap(self, n):
        schedule = random_schedule(n, ["I", "II", "III"] if n > 1 else ["I", "II"], 40, seed=n)
        labels = [("chirality", 0.3), (f"e{2 * n - 1}", 0.6)]
        schedule = _words(n, [(ref.label, t) for ref, t in schedule.pulses] + labels)
        self._check(schedule)
        assert _plan_of(schedule) == [[0, n, list(range(42))]]

    def test_wide_word_between_two_local_runs(self):
        n = 6
        rng = random.Random(6)
        local = [ref.label for bus in ("I", "II", "III") for ref in build_bus(n, bus).members]
        for wide in ("e7", "chirality", "ZIIIIZ", "-IIIIII"):
            words = [(rng.choice(local), rng.uniform(-3, 3)) for _ in range(12)]
            words += [(wide, 0.8)] + [(rng.choice(local), rng.uniform(-3, 3)) for _ in range(12)]
            schedule = _words(n, words)
            self._check(schedule)
            assert 12 in _plan_of(schedule)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_negative_wide_words_between_local_runs(self, n):
        # -Z^n and -e_{2n-1} take the in-place update with their sign on the row phases.
        rng = random.Random(40 + n)
        local = list(random_schedule(n, ["I", "II", "III"], 60, seed=n).pulses)
        wide = [GeneratorRef("raw", n, raw=-majorana(n, 2 * n - 1)), parse_generator("-" + "Z" * n, n)]
        for ref in wide * 2:
            local.insert(rng.randrange(len(local)), (ref, rng.uniform(-3, 3)))
        schedule = PulseSchedule(n=n, pulses=tuple(local))
        assert sum(type(entry) is int for entry in _plan_of(schedule)) == 4
        assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-13

    def test_long_windows_and_many_windows_go_in_batches(self, monkeypatch):
        n = 6
        rng = random.Random(7)
        local = ["XXIIII", "ZIIIII", "IYIIII", "IIZIII", "-XIXIII"]
        long_run = _words(n, [(rng.choice(local), rng.uniform(-3, 3)) for _ in range(40)])
        mixed = random_schedule(n, ["I", "II", "III"], 200, seed=7)
        monkeypatch.setattr(dense, "_GATE_BATCH", 4)
        for schedule in (long_run, mixed):
            plan = dense._gate_plan(schedule.pulses, n)
            assert max(len(entry[2]) for entry in plan if type(entry) is list) <= 4
            assert np.max(np.abs(run_schedule(schedule) - _oracle_unitary(schedule))) < 1e-13

    @pytest.mark.parametrize("one_window", [False, True], ids=["many-windows", "one-window"])
    def test_factor_stack_stays_bounded_for_long_schedules(self, one_window):
        n = 6
        if one_window:  # every pulse on qubits 0..2: a single window before splitting
            rng = random.Random(8)
            schedule = _words(n, [(rng.choice(["XXIIII", "ZIIIII", "IIYIII"]), rng.uniform(-3, 3))
                                  for _ in range(5000)])
        else:
            schedule = random_schedule(n, ["I", "II", "III"], 5000, seed=8)
        run_schedule(schedule)
        tracemalloc.start()
        try:
            run_schedule(schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_bus_schedules_close_few_windows_at_the_dense_limit(self, monkeypatch):
        n = N_MAX_PIPELINE
        plans = []
        gate_plan = dense._gate_plan

        def kept(*args):
            plans.append(gate_plan(*args))
            return plans[-1]

        monkeypatch.setattr(dense, "_gate_plan", kept)
        for seed in (1, 2, 3):
            plans.clear()
            schedule = random_schedule(n, ["I", "II"], 200, seed=seed)
            run_schedule(schedule)
            gates = [entry for entry in plans[0] if type(entry) is list]
            windows = [entry for entry in _plan_of(schedule) if type(entry) is list]
            assert len(plans) == 1 and len(gates) == len(windows) <= 30, seed
