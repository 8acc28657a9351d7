"""Spin-chain control algebra: Jordan-Wigner generator chains, Lie-algebra
closures, and higher-dimensional Bloch-sphere rotations.

The package builds the anticommuting chain operators and the gate buses
they induce, computes dynamical Lie-algebra closures to decide which
group a gate set generates, and maps concrete pulse schedules both to a
2^n x 2^n unitary and to the (2n+1)-dimensional rotation it induces on
the chain's rotation frame; a schedule of frame bilinears (buses I and
II) is read as that rotation directly, at any n.

``import spinchain`` executes no layer.  Each public name, and each
layer read as ``spinchain.<layer>``, is imported on its first read
(PEP 562) and then bound here, so later reads are plain attribute reads.
Only ``dense`` needs numpy at import, and a name read from another layer
does not load it.
"""

import importlib

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
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAYERS))
