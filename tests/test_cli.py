"""CLI tests: command payloads, exit codes, golden output bytes."""

import json
import pathlib
import re

import numpy as np
import pytest

from spinchain import dense, frame, generators, operators
from spinchain.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def never_resolved(self):
    raise AssertionError("a bus word was built past the letter budget")


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestGen:
    def test_chain_operator(self, capsys):
        payload = run_json(capsys, "gen", "e", "--n", "2", "--k", "3")
        assert payload == {"kind": "e", "n": 2, "k": 3, "pauli": "ZY"}

    def test_bilinear(self, capsys):
        payload = run_json(capsys, "gen", "d", "--n", "3", "--k", "2")
        assert payload["pauli"] == "IZI"

    def test_bus(self, capsys):
        payload = run_json(capsys, "gen", "bus", "--n", "2", "--id", "II")
        assert payload["members"] == ["XI", "XX"]
        assert payload["refs"] == ["e0", "d1"]

    def test_third_gate_needs_two_qubits(self, capsys):
        code, _, err = run_cli(capsys, "gen", "third", "--n", "1")
        assert code == 2
        assert "error" in err

    def test_missing_index(self, capsys):
        code, _, err = run_cli(capsys, "gen", "e", "--n", "2")
        assert code == 2

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "e", "--n", "2", "--k", "3", "--output", "table")
        assert code == 0
        assert out.strip() == "ZY"

    @pytest.mark.parametrize("n", ["0", "-2"])
    @pytest.mark.parametrize("kind", [["e", "--k", "0"], ["d", "--k", "0"], ["third"], ["chirality"]])
    def test_non_positive_n_exits_two(self, capsys, kind, n):
        code, out, err = run_cli(capsys, "gen", *kind, "--n", n)
        assert code == 2
        assert out == ""
        assert "n must be positive" in err

    @pytest.mark.parametrize("argv, flag", [
        (["third", "--n", "3", "--k", "7"], "--k"),
        (["chirality", "--n", "3", "--k", "0"], "--k"),
        (["bus", "--n", "3", "--id", "I", "--k", "0"], "--k"),
        (["e", "--n", "2", "--k", "0", "--id", "III"], "--id"),
        (["d", "--n", "2", "--k", "0", "--id", "I"], "--id"),
        (["third", "--n", "3", "--id", "II"], "--id"),
    ])
    def test_flag_the_kind_ignores_exits_two(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 2
        assert out == ""
        assert f"{flag} applies only to" in err

    # Words at n = 1000, built from bits, against the words spelled out.
    @pytest.mark.parametrize("kind, word", [
        (["e", "--k", "1999"], "Z" * 999 + "Y"),
        (["d", "--k", "1997"], "I" * 998 + "XX"),
        (["third"], "IY" + "I" * 998),
    ], ids=["e1999", "d1997", "third"])
    def test_named_word_at_n_1000(self, capsys, kind, word):
        assert run_json(capsys, "gen", *kind, "--n", "1000")["pauli"] == word

    def test_bus_past_the_letter_budget_exits_two(self, capsys, monkeypatch):
        n = 2049  # bus I holds n^2 letters, just past 2^22 = 2048^2
        assert n * n > generators.MAX_BUS_LETTERS >= (n - 1) ** 2
        monkeypatch.setattr(generators.GeneratorRef, "resolve", never_resolved)
        code, out, err = run_cli(capsys, "gen", "bus", "--n", str(n), "--id", "I")
        assert code == 2
        assert out == ""
        assert err == (f"error: bus I at n={n} holds {n * n} letters, past the budget "
                       f"of {generators.MAX_BUS_LETTERS}\n")

    def test_bad_kind_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "w", "--n", "2"])
        assert exc.value.code == 2


class TestCar:
    def test_clean_chain_exits_zero(self, capsys):
        payload = run_json(capsys, "car", "--n", "4")
        assert payload["max_deviation"] == 0.0
        assert payload["failures"] == []

    def test_single_qubit(self, capsys):
        code, out, _ = run_cli(capsys, "car", "--n", "1")
        assert code == 0

    def test_injected_fault_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "car", "--n", "2", "--inject-fault")
        assert code == 1
        payload = json.loads(out)
        assert payload["max_deviation"] > 0
        assert payload["failures"]

    def test_largest_chain_is_clean(self, capsys):
        payload = run_json(capsys, "car", "--n", str(operators.MAX_CAR_MODES))
        assert payload["max_deviation"] == 0.0
        assert payload["failures"] == []

    def test_past_mode_budget_exits_two(self, capsys):
        cap = operators.MAX_CAR_MODES
        code, out, err = run_cli(capsys, "car", "--n", str(cap + 1))
        assert code == 2
        assert out == ""
        assert f"exceeds {cap} modes" in err


class TestClosure:
    def test_buses(self, capsys):
        payload = run_json(capsys, "closure", "--n", "3", "--bus", "I,II")
        assert payload["dimension"] == 21
        assert payload["label"] == "so(2n+1)"

    def test_universal_buses(self, capsys):
        payload = run_json(capsys, "closure", "--n", "3", "--bus", "I,II,III")
        assert payload["dimension"] == 63
        assert payload["label"] == "su(2^n)"

    def test_explicit_generators(self, capsys):
        payload = run_json(capsys, "closure", "--n", "2", "--gen", "ZI")
        assert payload["dimension"] == 1
        assert payload["basis"] == ["ZI"]

    def test_named_refs_mix_with_literals(self, capsys):
        payload = run_json(capsys, "closure", "--n", "2", "--gen", "e0,d0,XX,IZ")
        assert payload["dimension"] == 10

    def test_no_generators_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "closure", "--n", "2")
        assert code == 2

    def test_unparsable_generator(self, capsys):
        code, _, err = run_cli(capsys, "closure", "--n", "2", "--gen", "q9")
        assert code == 2

    # Arabic-Indic three, fullwidth one, superscript three: digits to str.isdigit, not to the grammar
    @pytest.mark.parametrize("gen", ["e\u0663", "d\uff11", "e\u00b3"])
    def test_non_ascii_index_digit_exits_two(self, capsys, gen):
        code, out, err = run_cli(capsys, "closure", "--n", "3", "--gen", gen)
        assert code == 2
        assert out == ""
        assert f"cannot parse generator {gen!r}" in err

    def test_closure_past_budget_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "closure", "--n", "10", "--bus", "I,II,III")
        assert code == 2
        assert out == ""
        assert "exceeds" in err

    def test_bus_past_the_letter_budget_exits_two(self, capsys, monkeypatch):
        n = 2049
        monkeypatch.setattr(generators.GeneratorRef, "resolve", never_resolved)
        code, out, err = run_cli(capsys, "closure", "--n", str(n), "--bus", "I,II")
        assert code == 2
        assert out == ""
        assert err == (f"error: bus I at n={n} holds {n * n} letters, past the budget "
                       f"of {generators.MAX_BUS_LETTERS}\n")

    def test_non_hermitian_generator_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "closure", "--n", "2", "--gen", "iXX")
        assert code == 2
        assert out == ""
        assert "iXX" in err and "Hermitian" in err

    def test_negated_generator_is_accepted(self, capsys):
        payload = run_json(capsys, "closure", "--n", "2", "--gen=-XX")
        assert payload["basis"] == ["XX"]


class TestSchedule:
    def test_empty_schedule_is_identity(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 2, "pulses": []}))
        payload = run_json(capsys, "schedule", str(path))
        assert payload["member"] is True
        assert payload["unitarity_residual"] == 0.0
        entries = payload["rotation"]["entries"]
        assert entries == [[1.0 if i == j else 0.0 for j in range(5)] for i in range(5)]

    def test_half_turn_single_pulse(self, capsys, tmp_path):
        # exp(i pi e0) = -I: still the identity rotation
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"n": 1, "pulses": [{"gen": "e0", "theta": 3.141592653589793}]}))
        payload = run_json(capsys, "schedule", str(path))
        assert payload["member"] is True
        assert payload["rotation"]["entries"] == [
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]
        ]

    def test_third_gate_pulse_reports_non_membership(self, capsys, tmp_path):
        path = tmp_path / "third.json"
        path.write_text(json.dumps({"n": 2, "pulses": [{"gen": "third", "theta": 0.7}]}))
        payload = run_json(capsys, "schedule", str(path))
        assert payload["member"] is False
        assert payload["rotation"] is None
        assert payload["membership_residual"] > 0.05

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        path.write_text(json.dumps({"n": 2}))
        code, _, err = run_cli(capsys, "schedule", str(path))
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "schedule", "/nonexistent/schedule.json")
        assert code == 2

    def test_deeply_nested_file_exits_two(self, capsys, tmp_path):
        # json.load raises RecursionError, which is no ValueError.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "nested too deeply" in err

    def test_random_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "schedule", "--random", "5", "--bus", "I", "--n", "2")
        assert code == 2

    def test_random_schedule_golden_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--random", "20", "--bus", "I,II", "--n", "2", "--seed", "7"
        )
        assert code == 0
        golden = (DATA / "golden_schedule_n2.json").read_text()
        assert out == golden

    def test_deterministic_across_runs(self, capsys):
        args = ("schedule", "--random", "8", "--bus", "I,II", "--n", "3", "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--random", "4", "--bus", "I", "--n", "2",
            "--seed", "2", "--output", "table",
        )
        assert code == 0
        assert "member=True" in out

    def test_table_residuals_match_json(self, capsys):
        argv = ("schedule", "--random", "60", "--n", "4", "--bus", "I,II", "--seed", "1")
        payload = run_json(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--output", "table")
        assert code == 0
        assert dict(re.findall(r"(\w+_residual)=([^\s)]+)", out)) == {
            "unitarity_residual": f"{payload['unitarity_residual']:.3e}",
            "membership_residual": f"{payload['membership_residual']:.3e}",
            "orthogonality_residual": f"{payload['rotation']['orthogonality_residual']:.3e}",
        }

    @pytest.mark.parametrize("output,negative_zero", [
        ("json", r"-0\.0(?![0-9])"), ("table", r"-0\.000000(?![0-9])"),
    ])
    def test_round_off_zeros_print_unsigned(self, capsys, output, negative_zero):
        # R holds many entries that are zero up to round-off; their sign
        # follows the order of float operations and must not reach stdout.
        code, out, _ = run_cli(
            capsys, "schedule", "--random", "20", "--n", "4", "--bus", "I,II", "--seed", "1",
            "--output", output,
        )
        assert code == 0
        assert "0.0" in out
        assert not re.search(negative_zero, out)

    def test_bilinear_schedule_past_dense_limit(self, capsys):
        payload = run_json(capsys, "schedule", "--random", "200", "--n", "64", "--bus", "I,II",
                           "--seed", "1")
        assert payload["member"] is True
        assert payload["membership_residual"] == 0.0
        assert payload["rotation"]["size"] == 129
        # no U on the rotation picture: unitarity_residual is R's orthogonality
        assert payload["unitarity_residual"] == payload["rotation"]["orthogonality_residual"]

    # Bus I/II at the dense limit and at the rotation picture's limit
    # (MAX_FRAME_QUBITS = 128); bus III at the dense limit, at n = 6 and on
    # the smallest chain it exists on, where every schedule goes through the
    # window plan.
    @pytest.mark.parametrize("count, n, buses, member", [
        (200, 8, "I,II", True),
        (200, 128, "I,II", True),
        (200, 8, "I,II,III", False),
        (200, 6, "I,II,III", False),
        (30, 2, "I,II,III", False),
    ])
    def test_random_schedule_membership(self, capsys, count, n, buses, member):
        payload = run_json(capsys, "schedule", "--random", str(count), "--n", str(n),
                           "--bus", buses, "--seed", "1")
        assert len(payload["pulses"]) == count
        assert payload["member"] is member
        if member:
            assert payload["membership_residual"] == 0.0
            assert payload["rotation"]["size"] == 2 * n + 1
        else:
            assert payload["rotation"] is None

    # A bilinear, then third, on the dense path; and wide words: the chirality,
    # e9 and -ZZZZZ span all five qubits, and e15, the chirality and -ZZZZZZZZ
    # all eight, so dense updates U in place for them.
    @pytest.mark.parametrize("n, pulses, residual", [
        (3, [("e0", 0.4), ("third", 0.7), ("d2", 1.1)], 0.985449729988),
        (5, [("chirality", 0.3), ("e9", 0.5), ("third", 0.7), ("-ZZZZZ", 0.2)], 0.813326758863),
        (8, [("d0", 0.3), ("e15", 0.5), ("chirality", 0.7), ("d3", 0.2), ("-ZZZZZZZZ", 0.4),
             ("e13", 0.6), ("XIIIIIIY", 0.8), ("third", 0.9), ("e15", 1.1), ("d8", 0.25),
             ("chirality", 1.3), ("-ZZZZZZZZ", 0.35)], 0.772170886149),
    ], ids=["third_n3", "wide_n5", "wide_n8"])
    def test_schedule_file_membership_residual(self, capsys, tmp_path, n, pulses, residual):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"n": n, "pulses": [{"gen": g, "theta": t} for g, t in pulses]}))
        payload = run_json(capsys, "schedule", str(path))
        assert payload["member"] is False
        assert payload["rotation"] is None
        assert payload["membership_residual"] == residual

    @pytest.mark.parametrize("argv", [
        ("--random", "30", "--n", "1", "--bus", "I,II", "--seed", "3"),
        ("--random", "60", "--n", "3", "--bus", "I,II", "--seed", "4"),
        ("--random", "200", "--n", "5", "--bus", "II", "--seed", "5"),
        (str(DATA / "schedule_frame_n3.json"),),
    ])
    def test_rotation_picture_agrees_with_dense(self, capsys, monkeypatch, argv):
        got = run_json(capsys, "schedule", *argv)
        monkeypatch.setattr(frame, "frame_membership", lambda schedule, tol: None)
        want = run_json(capsys, "schedule", *argv)
        assert got["member"] is want["member"] is True
        assert (got["n"], got["pulses"]) == (want["n"], want["pulses"])
        assert np.max(np.abs(np.array(got["rotation"]["entries"])
                             - np.array(want["rotation"]["entries"]))) <= 2e-12
        for key in ("membership_residual", "unitarity_residual"):
            assert abs(got[key] - want[key]) <= 1e-12


class TestScheduleInputErrors:
    @pytest.mark.parametrize("theta", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_angle_exits_two(self, capsys, tmp_path, theta):
        path = tmp_path / "nonfinite.json"
        path.write_text('{"n": 2, "pulses": [{"gen": "e0", "theta": %s}]}' % theta)
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert "pulse 0" in err

    def test_non_integer_n_exits_two(self, capsys, tmp_path):
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps({"n": 2.7, "pulses": [{"gen": "e0", "theta": 0.3}]}))
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert "integer" in err

    def test_non_ascii_index_digit_in_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "digit.json"
        path.write_text(json.dumps({"n": 3, "pulses": [{"gen": "e\u0663", "theta": 0.3}]}))
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert "cannot parse generator" in err

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_n_in_file_exits_two(self, capsys, tmp_path, n):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": n, "pulses": []}))
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert "n must be positive" in err

    def test_negative_random_count_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "schedule", "--random", "-5", "--bus", "I,II", "--n", "2", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    def test_negative_seed_exits_two(self, capsys):
        # random.Random seeds from |seed|: --seed -1 would print --seed 1's schedule.
        code, out, err = run_cli(
            capsys, "schedule", "--random", "5", "--n", "2", "--bus", "I", "--seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    # One pulse-word rule on both paths: iXY is a frame bilinear, refused by
    # the rotation picture; third comes first in the n = 3 file, so the
    # rotation picture hands it to dense, which refuses iXYZ.
    @pytest.mark.parametrize("n, pulses", [
        (2, [("iXY", 0.1)]),
        (3, [("third", 0.2), ("iXYZ", 0.1)]),
    ], ids=["rotation picture", "dense"])
    def test_non_hermitian_pulse_exits_two(self, capsys, tmp_path, n, pulses):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"n": n, "pulses": [{"gen": g, "theta": t} for g, t in pulses]}))
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert "not Hermitian" in err

    def test_random_count_past_budget_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(frame, "MAX_SCHEDULE_PULSES", 5)
        code, out, err = run_cli(
            capsys, "schedule", "--random", "6", "--bus", "I", "--n", "2", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert "exceeds the limit of 5" in err

    def test_schedule_file_past_budget_exits_two(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(frame, "MAX_SCHEDULE_PULSES", 5)
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"n": 2, "pulses": [{"gen": "e0", "theta": 0.3}] * 6}))
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert "exceeds the limit of 5" in err

    def test_bilinear_schedule_past_rotation_picture_limit_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "schedule", "--random", "5", "--n", "100000", "--bus", "I,II", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert f"exceeds the rotation-picture limit of {frame.MAX_FRAME_QUBITS}" in err

    def test_random_schedule_past_rotation_picture_limit_is_not_drawn(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a bus was built for a chain no path can read")

        monkeypatch.setattr(generators, "build_bus", never)
        monkeypatch.setattr(frame, "build_bus", never)
        n = frame.MAX_FRAME_QUBITS + 1
        limits = f"exceeds the rotation-picture limit of {frame.MAX_FRAME_QUBITS} qubits"
        for buses, message in (
            ("I,II", f"n={n} {limits}\n"),
            ("III", f"n={n} {limits} and the dense limit of {dense.N_MAX_PIPELINE}\n"),
            ("ii,III", f"n={n} {limits} and the dense limit of {dense.N_MAX_PIPELINE}\n"),
        ):
            code, out, err = run_cli(
                capsys, "schedule", "--random", "5", "--n", str(n), "--bus", buses, "--seed", "1",
            )
            assert code == 2
            assert out == ""
            assert err == f"error: {message}"

    def test_schedule_file_past_rotation_picture_limit_resolves_no_word(self, capsys, monkeypatch, tmp_path):
        def never(self):
            raise AssertionError("a pulse word was built for a chain no path can read")

        monkeypatch.setattr(generators.GeneratorRef, "resolve", never)
        n = frame.MAX_FRAME_QUBITS + 1
        limits = f"exceeds the rotation-picture limit of {frame.MAX_FRAME_QUBITS} qubits"
        for gens, message in (
            (["e0", "d3"], f"n={n} {limits}\n"),
            (["e0", "third"], f"n={n} {limits} and the dense limit of {dense.N_MAX_PIPELINE}\n"),
            (["chirality"], f"n={n} {limits} and the dense limit of {dense.N_MAX_PIPELINE}\n"),
        ):
            path = tmp_path / "wide.json"
            path.write_text(json.dumps({"n": n, "pulses": [{"gen": g, "theta": 0.3} for g in gens]}))
            code, out, err = run_cli(capsys, "schedule", str(path))
            assert code == 2
            assert out == ""
            assert err == f"error: {message}"

    def test_bus_three_schedule_past_dense_limit_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "schedule", "--random", "5", "--n", "9", "--bus", "III", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert f"exceeds the dense limit of {dense.N_MAX_PIPELINE}" in err

    @pytest.mark.parametrize("tolerance", ["-1", "0", "nan"])
    def test_non_positive_tolerance_exits_two(self, capsys, tolerance):
        code, out, err = run_cli(
            capsys, "schedule", "--random", "3", "--n", "2", "--bus", "I", "--seed", "1",
            "--tolerance", tolerance,
        )
        assert code == 2
        assert out == ""
        assert "tolerance must be positive" in err

    @pytest.mark.parametrize("tolerance", ["-1", "0", "nan"])
    def test_bad_tolerance_fails_before_the_schedule_is_built(self, capsys, monkeypatch, tolerance):
        def never(*args, **kwargs):
            raise AssertionError("the schedule was built, read or composed")

        monkeypatch.setattr(frame, "random_schedule", never)
        monkeypatch.setattr(frame, "frame_membership", never)
        monkeypatch.setattr(dense, "run_schedule", never)
        code, out, err = run_cli(
            capsys, "schedule", "--random", "20000", "--n", "8", "--bus", "I,II", "--seed", "1",
            "--tolerance", tolerance,
        )
        assert code == 2
        assert out == ""
        assert "tolerance must be positive" in err

    @pytest.mark.parametrize("theta", ["true", '"1.5"', "null"])
    def test_angle_that_is_not_a_number_exits_two(self, capsys, tmp_path, theta):
        path = tmp_path / "angle.json"
        path.write_text('{"n": 2, "pulses": [{"gen": "e0", "theta": %s}]}' % theta)
        code, out, err = run_cli(capsys, "schedule", str(path))
        assert code == 2
        assert out == ""
        assert "pulse 0 angle must be a JSON number" in err

    def test_integer_angle_runs(self, capsys, tmp_path):
        path = tmp_path / "angle.json"
        path.write_text('{"n": 2, "pulses": [{"gen": "e0", "theta": 1}]}')
        code, out, _ = run_cli(capsys, "schedule", str(path))
        assert code == 0
        assert json.loads(out)["pulses"] == [{"gen": "e0", "theta": 1.0}]

    # A schedule comes from a file or from --random, never both; the options
    # that shape a random draw mean nothing to a file.
    @pytest.mark.parametrize("argv, message", [
        (["--random", "3", "--n", "2", "--bus", "III", "--seed", "1"], "either a schedule file or"),
        (["--n", "50", "--bus", "III", "--seed", "1"], "apply only with --random"),
        (["--n", "2"], "apply only with --random"),
        (["--bus", "I"], "apply only with --random"),
        (["--seed", "1"], "apply only with --random"),
    ], ids=["file and random", "all three", "n", "bus", "seed"])
    def test_options_a_file_ignores_exit_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "schedule", str(DATA / "schedule_frame_n3.json"), *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (["gen", "bus", "--n", "3"], "gen bus requires --id I|II|III"),
    (["schedule"], "give either a schedule file or --random with --n/--bus/--seed"),
], ids=["bus without id", "no schedule"])
def test_missing_input_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_json_keys_are_sorted(capsys):
    _, out, _ = run_cli(capsys, "gen", "e", "--n", "2", "--k", "0")
    keys = [line.split('"')[1] for line in out.splitlines() if '":' in line]
    assert keys == sorted(keys)


def _gen_commands(*output):
    kinds = [["e", "--k", "0"], ["e", "--k", "9"], ["d", "--k", "7"], ["d", "--k", "8"], ["third"], ["chirality"]]
    kinds += [["bus", "--id", bus_id] for bus_id in ("I", "II", "III")]
    return [["gen", *kind, "--n", "5", *output] for kind in kinds]


# Golden stdout of exact commands, one file each: (file, commands, exit code).
# A file holds its commands' stdout concatenated.  Only outputs without float
# round-off qualify; the CAR deviations are dyadic.
GOLDEN_CLI = [
    ("gen_n5.json", _gen_commands(), 0),
    ("gen_n5.txt", _gen_commands("--output", "table"), 0),
    ("car_n4.json", [["car", "--n", "4"]], 0),
    ("car_n4.txt", [["car", "--n", "4", "--output", "table"]], 0),
    ("car_n4_fault.json", [["car", "--n", "4", "--inject-fault"]], 1),
    ("car_n4_fault.txt", [["car", "--n", "4", "--inject-fault", "--output", "table"]], 1),
    ("closure_n4_I_II.json", [["closure", "--n", "4", "--bus", "I,II"]], 0),
    ("closure_n4_I_II.txt", [["closure", "--n", "4", "--bus", "I,II", "--output", "table"]], 0),
    ("closure_n3_I_II_III.json", [["closure", "--n", "3", "--bus", "I,II,III"]], 0),
    ("closure_n3_I_II_III.txt", [["closure", "--n", "3", "--bus", "I,II,III", "--output", "table"]], 0),
    ("closure_n2_gen.json", [["closure", "--n", "2", "--gen", "e0,d0,XX,IZ"]], 0),
]


@pytest.mark.parametrize("name, commands, code", GOLDEN_CLI, ids=[g[0] for g in GOLDEN_CLI])
def test_golden_cli_bytes(capsys, name, commands, code):
    outs = []
    for argv in commands:
        got, out, err = run_cli(capsys, *argv)
        assert (got, err) == (code, ""), argv
        outs.append(out)
    assert "".join(outs) == (DATA / "golden_cli" / name).read_text()
