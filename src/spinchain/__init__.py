"""Spin-chain control algebra: Jordan-Wigner generator chains, Lie-algebra
closures, and higher-dimensional Bloch-sphere rotations.

The package builds the anticommuting chain operators and the gate buses
they induce, computes dynamical Lie-algebra closures to decide which
group a gate set generates, and maps concrete pulse schedules both to a
2^n x 2^n unitary and to the (2n+1)-dimensional rotation it induces on
the chain's rotation frame.
"""

import importlib.util
import sys

from .pauli import (
    DimensionMismatchError,
    PauliParseError,
    PauliString,
    PauliWord,
    ResourceLimitError,
    commutator,
    parse_pauli,
)
from .operators import (
    CarReport,
    PauliSum,
    annihilation_operator,
    bilinear,
    creation_operator,
    verify_car,
)
from .generators import (
    GateBus,
    GeneratorRef,
    build_bus,
    chirality,
    gamma_frame,
    majorana,
    majorana_bilinear,
    parse_generator,
    subset_product,
    third_order_gate,
)
from .closure import (
    ClosureReport,
    UniversalityResult,
    check_universality,
    classify_dimension,
    closure_general,
    closure_strings,
)
# The dense layer is the only one that needs numpy at import.  It is
# registered as a lazily executed module: `spinchain.dense` and
# sys.modules["spinchain.dense"] exist from the start, and its body (and
# numpy) runs on the first attribute read, so the exact-algebra layers and
# the CLI commands built on them start without numpy.
_spec = importlib.util.find_spec(f"{__name__}.dense")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
dense = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = dense
_spec.loader.exec_module(dense)
del _spec

__version__ = "0.1.0"

__all__ = [
    "CarReport",
    "ClosureReport",
    "DimensionMismatchError",
    "GateBus",
    "GeneratorRef",
    "MembershipResult",
    "PauliParseError",
    "PauliString",
    "PauliSum",
    "PauliWord",
    "PulseSchedule",
    "ResourceLimitError",
    "UniversalityResult",
    "adjoint_rotation",
    "annihilation_operator",
    "bilinear",
    "build_bus",
    "check_universality",
    "chirality",
    "classify_dimension",
    "closure_general",
    "closure_strings",
    "commutator",
    "creation_operator",
    "exp_pulse",
    "gamma_frame",
    "majorana",
    "majorana_bilinear",
    "parse_generator",
    "parse_pauli",
    "pauli_decompose",
    "random_schedule",
    "rotation_json_dict",
    "run_schedule",
    "so_membership",
    "subset_product",
    "third_order_gate",
    "to_matrix",
    "unitarity_residual",
    "verify_car",
]


def __getattr__(name):
    # PEP 562: called only for names not in the module globals, so a name
    # of __all__ that gets here is a dense name.  The first such read binds
    # all of them, so later reads are plain attribute reads with no hook in
    # the way.
    if name in __all__:
        globals().update({n: getattr(dense, n) for n in __all__ if n not in globals()})
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
