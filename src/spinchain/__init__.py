"""Spin-chain control algebra: Jordan-Wigner generator chains, Lie-algebra
closures, and higher-dimensional Bloch-sphere rotations.

The package builds the anticommuting chain operators and the gate buses
they induce, computes dynamical Lie-algebra closures to decide which
group a gate set generates, and maps concrete pulse schedules both to a
2^n x 2^n unitary and to the (2n+1)-dimensional rotation it induces on
the chain's rotation frame; a schedule of frame bilinears (buses I and
II) is read as that rotation directly, at any n.

``import spinchain`` executes no layer.  Each public name is imported
from its layer on its first read (PEP 562).  A layer read as
``spinchain.<layer>``, or imported with ``from spinchain import <layer>``,
is registered in ``sys.modules`` to execute on its first attribute read;
one already imported is reused.  Names and layers are then bound here,
so later reads are plain attribute reads.  Only ``dense`` needs numpy at import,
and a name read from another layer does not load it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each layer and the public names it defines.  dense re-exports frame's
# names, but frame is their home: reading one does not load numpy.
_LAYERS = {
    "pauli": ("DimensionMismatchError", "PauliParseError", "PauliString", "PauliWord",
              "ResourceLimitError", "commutator", "parse_pauli"),
    "operators": ("CarReport", "PauliSum", "annihilation_operator", "bilinear",
                  "creation_operator", "verify_car"),
    "generators": ("GateBus", "GeneratorRef", "build_bus", "chirality", "gamma_frame",
                   "majorana", "majorana_bilinear", "parse_generator", "subset_product",
                   "third_order_gate"),
    "closure": ("ClosureReport", "UniversalityResult", "check_universality",
                "classify_dimension", "closure_general", "closure_strings"),
    "frame": ("MembershipResult", "PulseSchedule", "frame_membership", "random_schedule",
              "rotation_json_dict"),
    "dense": ("adjoint_rotation", "exp_pulse", "pauli_decompose", "run_schedule",
              "so_membership", "to_matrix", "unitarity_residual"),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # PEP 562: called only for names not yet in the module globals.
    if name in _LAYERS:
        # Registered to execute on its first attribute read.  A name read
        # below keeps import_module, which holds the import lock while the
        # layer runs; LazyLoader takes none on Python 3.10 and 3.11.
        fullname = f"{__name__}.{name}"
        value = sys.modules.get(fullname)
        if value is None:
            spec = importlib.util.find_spec(fullname)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            value = sys.modules[fullname] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(value)
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))
