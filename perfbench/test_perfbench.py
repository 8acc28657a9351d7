"""Tests of the benchmark itself: seeded inputs, checks, and a clean run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ.update({"OPENBLAS_NUM_THREADS": "1"})

import algebra  # noqa: E402
import cli_session  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import rotation  # noqa: E402
import spinchain as sc  # noqa: E402

WORKLOADS = (algebra, rotation, cli_session)


def _specs(mod, seed):
    return [(job.kind, job.spec) for job in mod.build(seed, ROOT)]


@pytest.mark.parametrize("mod", WORKLOADS, ids=lambda m: m.NAME)
def test_same_seed_same_job_list(mod):
    assert _specs(mod, 3) == _specs(mod, 3)
    assert _specs(mod, 3) != _specs(mod, 4)


@pytest.mark.parametrize("mod", WORKLOADS, ids=lambda m: m.NAME)
def test_seed_keeps_the_job_sizes(mod):
    def sizes(seed):
        return sorted((job.kind, str(job.spec[1])) for job in mod.build(seed, ROOT))

    if mod is cli_session:
        # Generator indices and schedule seeds vary; kinds and counts do not.
        assert sorted(k for k, _ in sizes(3)) == sorted(k for k, _ in sizes(4))
    else:
        assert sizes(3) == sizes(4)


def test_oracle_tables_match_the_library():
    for n in range(2, 7):
        assert [g.letters for g in sc.gamma_frame(n)] == oracle.frame_words(n)
        for bus in ("I", "II", "III"):
            assert sc.build_bus(n, bus).words() == oracle.bus_words(n, bus)
        for k in range(2 * n):
            assert sc.majorana(n, k).letters == oracle.generator_word(f"e{k}", n)


def _first(jobs, kind):
    return next(job for job in jobs if job.kind == kind)


def test_off_by_one_dimension_is_unverified():
    job = _first(algebra.build(5, ROOT), "strings_so")
    report = job.run()
    assert job.check(report) is None
    assert job.check(dataclasses.replace(report, dimension=report.dimension + 1)) is not None


def test_nonzero_car_deviation_is_unverified():
    job = _first(algebra.build(5, ROOT), "car")
    report = job.run()
    assert job.check(report) is None
    assert job.check(dataclasses.replace(report, max_deviation=2.0**-52)) is not None


@pytest.mark.parametrize("kind", ["member", "leak"])
def test_flipped_member_flag_is_unverified(kind):
    job = min((j for j in rotation.build(5, ROOT) if j.kind == kind), key=lambda j: j.spec[1])
    out = job.run()
    assert job.check(out) is None
    assert job.check(dataclasses.replace(out, member=not out.member)) is not None


def test_oracle_catches_a_wrong_rotation():
    job = min((j for j in rotation.build(5, ROOT) if j.kind == "member"), key=lambda j: j.spec[1])
    out = job.run()
    assert rotation.oracle_check("member", job.spec[1], out) is None
    swapped = out.rotation[:, [1, 0] + list(range(2, out.rotation.shape[1]))]
    swapped[:, 0] *= -1  # still special orthogonal, so only the oracle sees it
    wrong = dataclasses.replace(out, rotation=swapped)
    assert job.check(wrong) is None
    assert rotation.oracle_check("member", job.spec[1], wrong) is not None


def test_changed_stdout_byte_is_unverified():
    job = _first(cli_session.build(5, ROOT), "golden")
    code, stdout, stderr = job.run()
    assert job.check((code, stdout, stderr)) is None
    flipped = stdout[:40] + bytes([stdout[40] ^ 1]) + stdout[41:]
    assert job.check((code, flipped, stderr)) is not None


def test_unparsable_stdout_is_unverified():
    job = _first(cli_session.build(5, ROOT), "closure")
    assert harness.check_output(job, (0, b"{not json", b"")) is not None


def test_wrong_exit_code_is_unverified():
    job = _first(cli_session.build(5, ROOT), "car_fault")
    code, stdout, stderr = job.run()
    assert code == 1 and job.check((code, stdout, stderr)) is None
    assert job.check((0, stdout, stderr)) is not None


@pytest.mark.parametrize("mod", WORKLOADS, ids=lambda m: m.NAME)
def test_another_seed_is_fully_verified(mod):
    jobs = mod.build(20261017, ROOT)
    log = harness.run_passes(jobs, 0.0, min_passes=1)
    for slot, reason in mod.oracle_problems(jobs, log.kept):
        log.fail_slot(slot, reason)
    assert log.problems == []
    assert log.verified_count == log.attempted == len(jobs)
