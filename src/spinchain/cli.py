"""Command-line front end: scriptable commands with JSON output.

Exit codes: 0 success (and any checked claim holds), 1 a checked claim
fails, 2 usage or input error.  JSON is the machine interface; pass
``--output table`` for aligned human-readable text.  Randomized commands
take an explicit ``--seed``.  Floats are rounded to 12 decimals before
either form is printed, so command output is byte-stable.

Importing this module executes no layer of the package: it imports them
through the package, which registers each to execute on its first
attribute read, so a command pays to import only the layers it reads,
and a bus-I/II schedule runs without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each layer runs on the first command that reads it: gen runs pauli and
# generators; car adds operators to those two, closure adds closure, and
# schedule adds frame.  dense (and numpy, and operators with it) runs only
# for a schedule that frame cannot read, or to name dense's limit in an
# error.
from . import closure as closure_mod, dense, frame, generators, operators, pauli

FLOAT_DECIMALS = 12


def _round_floats(obj):
    if isinstance(obj, float):
        # + 0.0 turns a rounded -0.0 into 0.0: the sign of a round-off
        # zero depends on the order of float operations, not on the result.
        return round(obj, FLOAT_DECIMALS) + 0.0
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(payload: dict, output: str, table_lines) -> None:
    payload = _round_floats(payload)
    if output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    else:
        for line in table_lines(payload):
            print(line)


def _cmd_gen(args) -> int:
    n = args.n
    if args.k is not None and args.kind not in ("e", "d"):
        raise ValueError(f"--k applies only to kinds e and d, not {args.kind}")
    if args.id is not None and args.kind != "bus":
        raise ValueError(f"--id applies only to kind bus, not {args.kind}")
    if args.kind == "bus":
        if not args.id:
            raise ValueError("gen bus requires --id I|II|III")
        bus = generators.build_bus(n, args.id)
        payload = {
            "kind": "bus",
            "id": bus.bus_id,
            "n": n,
            "refs": [ref.label for ref in bus.members],
            "members": bus.words(),
        }
        _emit(payload, args.output, lambda p: [
            f"bus {p['id']} on n={p['n']}:",
            *(f"  {ref:<10} {word}" for ref, word in zip(p["refs"], p["members"])),
        ])
        return 0
    if args.kind in ("e", "d") and args.k is None:
        raise ValueError(f"gen {args.kind} requires --k")
    ref = generators.GeneratorRef(args.kind, n, index=args.k)
    pauli = ref.resolve()
    payload = {"kind": args.kind, "n": n, "pauli": str(pauli)}
    if ref.index is not None:
        payload["k"] = ref.index
    _emit(payload, args.output, lambda p: [p["pauli"]])
    return 0


def _cmd_car(args) -> int:
    report = operators.verify_car(args.n, inject_fault=args.inject_fault)
    payload = report.to_json_dict()
    _emit(payload, args.output, lambda p: [
        f"n={p['n']}  max_deviation={p['max_deviation']:g}  "
        f"failures={len(p['failures'])}",
        *(f"  {f['relation']} ({f['k']},{f['j']}): {f['deviation']:g}" for f in p["failures"]),
    ])
    return 0 if report.ok else 1


def _collect_words(n: int, bus_arg: str | None, gen_arg: str | None) -> list[str]:
    words: list[str] = []
    if bus_arg:
        for bus_id in bus_arg.split(","):
            words.extend(generators.build_bus(n, bus_id).words())
    if gen_arg:
        for text in gen_arg.split(","):
            word = generators.parse_generator(text, n).resolve()
            if not word.is_hermitian:
                raise ValueError(f"closure generator {text} is not Hermitian")
            words.append(word.letters)
    if not words:
        raise ValueError("no generators given; use --bus and/or --gen")
    return words


def _cmd_closure(args) -> int:
    words = _collect_words(args.n, args.bus, args.gen)
    report = closure_mod.closure_strings(args.n, words)
    payload = report.to_json_dict()
    _emit(payload, args.output, lambda p: [
        f"n={p['n']}  dimension={p['dimension']}  label={p['label']}",
        f"rounds={p['rounds']}  pairs_processed={p['pairs_processed']}",
        "basis: " + " ".join(p["basis"]),
    ])
    return 0


def _check_readable(n: int, bilinear: bool) -> None:
    """Refuse a chain longer than any path reads, before a bus is drawn or a pulse word built.

    bilinear says every pulse is a frame bilinear, which the rotation
    picture reads; otherwise the dense limit applies as well.
    """
    if n > frame.MAX_FRAME_QUBITS:
        if bilinear:
            frame._check_frame_qubits(n)
        raise pauli.ResourceLimitError(
            f"n={n} exceeds the rotation-picture limit of {frame.MAX_FRAME_QUBITS} "
            f"qubits and the dense limit of {dense.N_MAX_PIPELINE}"
        )


def _load_schedule(args) -> frame.PulseSchedule:
    if (args.file is None) == (args.random is None):
        raise ValueError("give either a schedule file or --random with --n/--bus/--seed")
    if args.random is not None:
        if args.n is None or args.bus is None or args.seed is None:
            raise ValueError("--random requires --n, --bus, and --seed")
        bus_ids = args.bus.split(",")
        # Drawing builds every bus member first.
        _check_readable(args.n, {b.strip().upper() for b in bus_ids} <= {"I", "II"})
        return frame.random_schedule(args.n, bus_ids, args.random, args.seed)
    if (args.n, args.bus, args.seed) != (None, None, None):
        raise ValueError("--n, --bus and --seed apply only with --random")
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except RecursionError:  # json recurses once per level of nesting
            raise ValueError(f"schedule file {args.file} is nested too deeply") from None
    schedule = frame.PulseSchedule.from_json_dict(payload)
    # frame_membership builds every pulse word, an n-bit (x, z) pair, before its own limit check.
    _check_readable(schedule.n, all(ref.kind in ("e", "d") for ref, _ in schedule.pulses))
    return schedule


def _cmd_schedule(args) -> int:
    """A schedule of frame bilinears is read as R in the rotation picture;
    any other (bus III, the chirality) is composed into a dense unitary."""
    pauli._check_tolerance(args.tolerance)
    schedule = _load_schedule(args)
    membership = frame.frame_membership(schedule, tol=args.tolerance)
    if membership is None:
        u = dense.run_schedule(schedule)
        membership = dense.so_membership(u, schedule.n, tol=args.tolerance)
    payload = {
        "n": schedule.n,
        "pulses": schedule.to_json_dict()["pulses"],
        "unitarity_residual": membership.unitarity,
        "member": membership.member,
        "membership_residual": membership.residual,
        "rotation": (frame.rotation_json_dict(membership.rotation, membership.orthogonality)
                     if membership.member else None),
    }

    def table(p):
        lines = [
            f"n={p['n']}  pulses={len(p['pulses'])}",
            f"unitarity_residual={p['unitarity_residual']:.3e}",
            f"member={p['member']}  membership_residual={p['membership_residual']:.3e}",
        ]
        if p["rotation"] is not None:
            lines.append(
                f"rotation ({p['rotation']['size']}x{p['rotation']['size']}, "
                f"orthogonality_residual={p['rotation']['orthogonality_residual']:.3e}):"
            )
            lines.extend(
                "  " + " ".join(f"{v:+.6f}" for v in row)
                for row in p["rotation"]["entries"]
            )
        return lines

    _emit(payload, args.output, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinchain",
        description="Generator chains, Lie-algebra closures, and pulse-schedule rotations for an n-qubit spin chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="print a named generator or a whole bus")
    p_gen.add_argument("kind", choices=["e", "d", "third", "chirality", "bus"])
    p_gen.add_argument("--n", type=int, required=True, help="chain length")
    p_gen.add_argument("--k", type=int, help="index for kinds e and d")
    p_gen.add_argument("--id", help="bus id (I, II, or III) for kind bus")
    p_gen.add_argument("--output", choices=["json", "table"], default="json")
    p_gen.set_defaults(handler=_cmd_gen)

    p_car = sub.add_parser("car", help="verify the canonical anticommutation relations")
    p_car.add_argument("--n", type=int, required=True)
    p_car.add_argument(
        "--inject-fault", action="store_true",
        help="negative control: corrupt one chain operator; must exit 1",
    )
    p_car.add_argument("--output", choices=["json", "table"], default="json")
    p_car.set_defaults(handler=_cmd_car)

    p_clo = sub.add_parser("closure", help="dynamical Lie-algebra closure of a generator set")
    p_clo.add_argument("--n", type=int, required=True)
    p_clo.add_argument("--bus", help="comma-separated bus ids, e.g. I,II")
    p_clo.add_argument("--gen", help="comma-separated generators: e0, d3, third, chirality, or Pauli "
                                     "literals; write a signed literal as --gen=-XX")
    p_clo.add_argument("--output", choices=["json", "table"], default="json")
    p_clo.set_defaults(handler=_cmd_closure)

    p_sch = sub.add_parser(
        "schedule",
        help="compose a pulse schedule; report unitarity, membership, and the induced rotation",
    )
    p_sch.add_argument("file", nargs="?", help="schedule JSON file")
    p_sch.add_argument("--random", type=int, metavar="COUNT", help="draw a seeded random schedule instead of reading a file")
    p_sch.add_argument("--n", type=int, help="chain length (with --random)")
    p_sch.add_argument("--bus", help="buses to draw pulses from (with --random)")
    p_sch.add_argument("--seed", type=int, help="random seed, a non-negative integer (with --random)")
    p_sch.add_argument("--tolerance", type=float, default=1e-9,
                       help="membership and unitarity tolerance")
    p_sch.add_argument("--output", choices=["json", "table"], default="json")
    p_sch.set_defaults(handler=_cmd_schedule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
