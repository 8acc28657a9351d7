"""Spin-chain control algebra: Jordan-Wigner generator chains, Lie-algebra
closures, and higher-dimensional Bloch-sphere rotations.

The package builds the anticommuting chain operators and the gate buses
they induce, computes dynamical Lie-algebra closures to decide which
group a gate set generates, and maps concrete pulse schedules both to a
2^n x 2^n unitary and to the (2n+1)-dimensional rotation it induces on
the chain's rotation frame; a schedule of frame bilinears (buses I and
II) is read as that rotation directly, at any n.
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


def _lazy_submodule(name: str):
    """Register spinchain.<name> as a lazily executed module and return it.

    The module object and its sys.modules entry exist at once; its body
    runs on the first attribute read.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# The schedule layers load on first use.  dense is the only layer that
# needs numpy at import; frame (schedules and their rotation picture)
# needs none, but building its two dataclasses costs about 3 ms a fresh
# process, which gen, car and closure need not pay.  So the exact-algebra
# layers and the CLI commands built on them start without either, and a
# bus-I/II schedule starts without numpy.
frame = _lazy_submodule("frame")
dense = _lazy_submodule("dense")
# Package names that frame owns; dense re-exports them.
_FRAME_NAMES = (
    "MembershipResult", "PulseSchedule", "frame_membership", "random_schedule",
    "rotation_json_dict",
)

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
    "frame_membership",
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
    # of __all__ that gets here is a frame or a dense name.  The first read
    # of a frame name binds frame's names without loading dense (or
    # numpy); the first read of a dense name binds all of them.  Later
    # reads are plain attribute reads with no hook in the way.
    if name in _FRAME_NAMES:
        globals().update({n: getattr(frame, n) for n in _FRAME_NAMES})
        return globals()[name]
    if name in __all__:
        globals().update({n: getattr(dense, n) for n in __all__
                          if n not in globals() and n not in _FRAME_NAMES})
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
