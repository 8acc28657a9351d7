"""Import guards: `import spinchain` executes no layer, each CLI command
executes only the layers it reads, the exact-algebra commands start
without numpy, and `gen` and the rotation-picture schedules start without
dataclasses or inspect.

Each public name is imported from its layer on its first read.  A layer
read from the package is registered to execute on its first attribute
read; `cli` imports every layer that way.  numpy is imported by `dense`
only: `closure_general` computes an exact rank over F_p.  A `schedule`
of frame bilinears is read in the rotation picture (`frame`) and starts
without numpy too; any other schedule is composed by `dense`.  The
library values are no dataclasses; only the closure and CAR reports
are, so only `closure` and `operators` import dataclasses (and with it
inspect).  pytest has imported the package and numpy already, so each
guard runs in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import spinchain

SRC = pathlib.Path(spinchain.__file__).resolve().parents[1]
FRAME_SCHEDULE = pathlib.Path(__file__).parent / "data" / "schedule_frame_n3.json"

DENSE_NAMES = (
    "MembershipResult", "PulseSchedule", "adjoint_rotation", "exp_pulse", "pauli_decompose",
    "random_schedule", "rotation_json_dict", "run_schedule", "so_membership", "to_matrix",
    "unitarity_residual",
)

# Runs cli.main on argv with stdout discarded, then prints the exit code
# and whether numpy, dataclasses and inspect were imported.
CLI_PROBE = """
import contextlib, io, sys
from spinchain.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *(name in sys.modules for name in ("numpy", "dataclasses", "inspect")))
"""


# Runs cli.main on argv with stdout discarded, then prints the exit code
# and the layers executed, comma-separated.  A layer registered by cli but
# never read is still a lazy module, not a plain module.
LAYER_PROBE = """
import contextlib, io, sys, types
from spinchain.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, ",".join(sorted(name.split(".")[1] for name, module in sys.modules.items()
                            if name.startswith("spinchain.") and name != "spinchain.cli"
                            and type(module) is types.ModuleType)))
"""


def fresh(code, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("argv, code", [
    (["gen", "e", "--n", "4", "--k", "3"], 0),
    (["gen", "d", "--n", "4", "--k", "2"], 0),
    (["gen", "third", "--n", "3"], 0),
    (["gen", "chirality", "--n", "3"], 0),
    (["gen", "bus", "--n", "3", "--id", "III"], 0),
    (["car", "--n", "20"], 0),
    (["car", "--n", "4", "--inject-fault"], 1),
    (["closure", "--n", "4", "--bus", "I,II,III"], 0),
    (["closure", "--n", "3"], 2),
    (["schedule", "--random", "20", "--n", "4", "--bus", "I,II", "--seed", "1"], 0),
    (["schedule", str(FRAME_SCHEDULE)], 0),
    (["schedule", "--random", "200", "--n", "64", "--bus", "I,II", "--seed", "1"], 0),
])
def test_algebra_commands_do_not_import_numpy(argv, code):
    assert fresh(CLI_PROBE, *argv)[:2] == [str(code), "False"]


def test_general_closure_does_not_import_numpy():
    probe = """
import sys
import spinchain
gens = [spinchain.bilinear(4, j, k, kind) for j in range(4) for k in range(j, 4)
        for kind in ("hopping", "pairing") if j < k or kind == "hopping"]
report = spinchain.closure_general(4, gens)
print(report.dimension, report.label, "numpy" in sys.modules)
"""
    assert fresh(probe) == ["28", "so(2n)", "False"]


def test_schedule_imports_numpy():
    argv = ["schedule", "--random", "5", "--n", "2", "--bus", "III", "--seed", "1"]
    assert fresh(CLI_PROBE, *argv)[:2] == ["0", "True"]


@pytest.mark.parametrize("argv", [
    ["gen", "e", "--n", "4", "--k", "3"],
    ["gen", "d", "--n", "4", "--k", "2"],
    ["gen", "third", "--n", "3"],
    ["gen", "chirality", "--n", "3"],
    ["gen", "bus", "--n", "3", "--id", "I"],
    ["gen", "bus", "--n", "3", "--id", "II"],
    ["gen", "bus", "--n", "3", "--id", "III"],
    ["schedule", "--random", "20", "--n", "4", "--bus", "I,II", "--seed", "1"],
    ["schedule", str(FRAME_SCHEDULE)],
])
def test_gen_and_frame_schedules_do_not_import_dataclasses(argv):
    assert fresh(CLI_PROBE, *argv) == ["0", "False", "False", "False"]


# python -m spinchain.cli runs cli as __main__; -X importtime lists on stderr
# every module the interpreter imported.
@pytest.mark.parametrize("argv, absent", [
    (["schedule", "--random", "20", "--bus", "I,II", "--n", "4", "--seed", "1"], {"numpy"}),
    (["gen", "e", "--n", "4", "--k", "3"], {"dataclasses", "inspect"}),
])
def test_module_entry_point_imports_only_what_the_command_reads(argv, absent):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "spinchain.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n"] == 4
    imported = {line.rsplit("|", 1)[1].strip().split(".")[0]
                for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "spinchain" in imported
    assert not imported & absent


def test_reports_import_dataclasses():
    # ClosureReport and CarReport stay dataclasses; the guard above is not vacuous.
    assert fresh(CLI_PROBE, "car", "--n", "4")[2:] == ["True", "True"]


def test_bare_import_executes_no_layer():
    probe = """
import sys
import spinchain
print([name for name in sys.modules if name.startswith("spinchain.")])
"""
    assert fresh(probe) == ["[]"]


def test_reading_a_name_imports_its_layer_only():
    probe = """
import sys
import spinchain
spinchain.PauliString
print(",".join(name for name in sys.modules if name.startswith("spinchain.")))
print(vars(spinchain)["PauliString"] is sys.modules["spinchain.pauli"].PauliString)
"""
    assert fresh(probe) == ["spinchain.pauli", "True"]


@pytest.mark.parametrize("argv, code, layers", [
    (["gen", "e", "--n", "4", "--k", "3"], 0, "generators,pauli"),
    (["gen", "bus", "--n", "3", "--id", "III"], 0, "generators,pauli"),
    (["car", "--n", "4"], 0, "generators,operators,pauli"),
    (["car", "--n", "4", "--inject-fault"], 1, "generators,operators,pauli"),
    (["closure", "--n", "4", "--bus", "I,II,III"], 0, "closure,generators,pauli"),
    (["closure", "--n", "3", "--gen", "e0,XYZ"], 0, "closure,generators,pauli"),
    (["schedule", "--random", "20", "--n", "4", "--bus", "I,II", "--seed", "1"], 0,
     "frame,generators,pauli"),
    (["schedule", str(FRAME_SCHEDULE)], 0, "frame,generators,pauli"),
    (["schedule", "--random", "5", "--n", "2", "--bus", "III", "--seed", "1"], 0,
     "dense,frame,generators,operators,pauli"),
])
def test_command_executes_only_the_layers_it_reads(argv, code, layers):
    assert fresh(LAYER_PROBE, *argv) == [str(code), layers]


def test_cli_reuses_an_imported_layer():
    probe = """
import sys, types
import spinchain
word = spinchain.PauliString
import spinchain.cli
print(spinchain.cli.pauli is sys.modules["spinchain.pauli"], spinchain.cli.pauli.PauliString is word)
print(type(spinchain.cli.dense) is types.ModuleType, spinchain.dense is spinchain.cli.dense)
"""
    assert fresh(probe) == ["True", "True", "False", "True"]


def test_reading_a_layer_registers_it_unexecuted():
    probe = """
import sys, types
import spinchain
m = spinchain.dense
print("numpy" in sys.modules, m is sys.modules["spinchain.dense"])
import spinchain.cli
layers = [sys.modules.get("spinchain." + name)
          for name in ("pauli", "operators", "generators", "closure", "frame", "dense")]
print(spinchain.cli.dense is m, all(layer is not None and type(layer) is not types.ModuleType
                                    for layer in layers))
m.run_schedule
print("numpy" in sys.modules, type(m) is types.ModuleType)
"""
    assert fresh(probe) == ["False", "True", "True", "True", "True", "True"]


def test_bare_import_defers_dense():
    probe = """
import sys
import spinchain
print("numpy" in sys.modules)
print(spinchain.dense.PulseSchedule.__name__, "numpy" in sys.modules)
print(spinchain.run_schedule is spinchain.dense.run_schedule)
"""
    assert fresh(probe) == ["False", "PulseSchedule", "True", "True"]


def test_frame_names_resolve_without_numpy():
    probe = """
import sys
import spinchain
print(spinchain.PulseSchedule is spinchain.frame.PulseSchedule, "numpy" in sys.modules)
print(spinchain.frame_membership is spinchain.frame.frame_membership, "numpy" in sys.modules)
print(spinchain.PulseSchedule is spinchain.dense.PulseSchedule, "numpy" in sys.modules)
"""
    assert fresh(probe) == ["True", "False", "True", "False", "True", "True"]


def test_every_public_name_resolves():
    for name in spinchain.__all__:
        assert getattr(spinchain, name) is not None, name


def test_dense_names_are_the_dense_objects_bound_once():
    for name in DENSE_NAMES:
        assert getattr(spinchain, name) is getattr(spinchain.dense, name)
        # bound in the package globals: later reads do not go through __getattr__
        assert vars(spinchain)[name] is getattr(spinchain.dense, name)


def test_star_import_binds_all():
    namespace = {}
    exec("from spinchain import *", namespace)
    assert set(spinchain.__all__) <= set(namespace)


def test_dir_lists_all():
    assert set(spinchain.__all__) <= set(dir(spinchain))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        spinchain.nope
