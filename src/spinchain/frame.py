"""Pulse schedules, and their rotations in the frame picture, in pure Python.

The frame g_0..g_2n (generators.gamma_frame) is 2n+1 pairwise
anticommuting Hermitian words; this module reads their bits (x, z) from
generators._frame_bits, the one layout rule of the named words.
U g_a U+ = sum_b R[b][a] g_b reads a unitary U as a rotation R of S^2n,
the higher-dimensional Bloch sphere.  A frame bilinear is a word equal,
up to sign and phase, to g_a g_b (a < b): every member of buses I and
II, every chain operator (g_k g_2n) and any literal of that form.  A
pulse exp(i t W) with W = s i g_a g_b, s = +-1, fixes every g_c with c
outside {a, b} and takes

    g_a -> cos 2t g_a + s sin 2t g_b,    g_b -> cos 2t g_b - s sin 2t g_a,

so a schedule of such pulses is a product of plane rotations: R takes
them in time order as R <- G_ab(2t) R, two rows of R per pulse, O(n),
with no 2^n matrix and no leak out of the frame's span.  This is the
matchgate <-> rotation correspondence (Jozsa & Miyake, arXiv:0804.4050).
_planes resolves each distinct pulse to its plane, or returns None when
some pulse is no frame bilinear; dense composes those into a 2^n
unitary.  _rotate(pulses, planes, rows) is the one pulse loop: it applies
the plane rotations to any rows, and frame_membership's R is _rotate on
the identity.

The schedule value and its checks live here, not in dense, so that the
rotation picture runs without numpy; dense re-exports them.  A schedule's
n goes through pauli's chain-length rule (_qubits) and its length through
the integer rule; a tolerance through pauli._check_tolerance.  _pulse_word
is the one pulse-word rule: both pictures resolve each pulse's word
through it, so a non-Hermitian word fails the same way on either path.
"""

from __future__ import annotations

import math
import numbers
import random
from itertools import combinations
from operator import mul
from typing import Sequence

from .generators import GeneratorRef, _frame_bits, build_bus, parse_generator
from .pauli import (PauliString, ResourceLimitError, _check_tolerance, _integer, _qubits, _Value,
                    bits_product)

# Longest schedule accepted; each pulse costs O(4^n) in dense, O(n) here.
MAX_SCHEDULE_PULSES = 10**5
# Longest chain frame_membership reads.  R is (2n+1)^2 floats, and its
# orthogonality and determinant checks are O(n^3) in pure Python.  At
# n = 128 they took 31 ms for 200 pulses, whose R is mostly identity, and
# 0.97 s for 40,000 pulses, whose R is 84 % nonzero (2-core x86_64 host,
# Python 3.11); composing those 40,000 pulses took another 3 s.
MAX_FRAME_QUBITS = 128


def _check_frame_qubits(n: int) -> None:
    if n > MAX_FRAME_QUBITS:
        raise ResourceLimitError(
            f"n={n} exceeds the rotation-picture limit of {MAX_FRAME_QUBITS} qubits"
        )


def _check_angle(theta, pulse: str) -> None:
    """A pulse angle is a finite real number (int, float, numpy float) that is not a bool.

    It is the rule from_json_dict applies to JSON numbers; pulse names
    the pulse in the message.  A number too large for a float counts as
    non-finite, and the message leaves it out: repr of an int of over
    4300 digits raises.
    """
    # A plain float, the common case, skips the ABC check: 4.9 against 33 us
    # for 30 angles (2-core host, in process).
    if type(theta) is not float and (isinstance(theta, bool) or not isinstance(theta, numbers.Real)):
        raise ValueError(f"{pulse} angle must be a real number, got {theta!r}")
    try:
        finite = math.isfinite(theta)
    except OverflowError:
        raise ValueError(f"{pulse} has a non-finite angle too large for a float") from None
    if not finite:
        raise ValueError(f"{pulse} has a non-finite angle {theta!r}")


def _check_schedule_length(length: int) -> None:
    if length > MAX_SCHEDULE_PULSES:
        raise ResourceLimitError(
            f"schedule of {length} pulses exceeds the limit of {MAX_SCHEDULE_PULSES}"
        )


class PulseSchedule(_Value):
    """Ordered pulses (generator reference, angle) on an n-qubit chain.

    List order is time order: the first pulse acts first, so the
    composed unitary is exp(i t_m G_m) ... exp(i t_1 G_1).
    """

    _fields = ("n", "pulses")

    def __init__(self, n: int, pulses: Sequence[tuple[GeneratorRef, float]]):
        n = _qubits(n, "schedule n")
        pulses = tuple((ref, theta) for ref, theta in pulses)
        _check_schedule_length(len(pulses))
        for index, (ref, theta) in enumerate(pulses):
            if not isinstance(ref, GeneratorRef):
                raise TypeError(
                    f"pulse {index} generator must be a GeneratorRef, got {type(ref).__name__}"
                )
            if ref.n != n:
                raise ValueError(f"pulse generator is for n={ref.n}, schedule has n={n}")
            _check_angle(theta, f"pulse {index}")
        self.__dict__.update(n=n, pulses=pulses)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pulses": [{"gen": ref.label, "theta": float(theta)} for ref, theta in self.pulses],
        }

    @classmethod
    def from_json_dict(cls, payload) -> "PulseSchedule":
        try:
            n = _qubits(payload["n"], "schedule n")
            pulses = []
            for index, p in enumerate(payload["pulses"]):
                theta = p["theta"]
                if isinstance(theta, bool) or not isinstance(theta, (int, float)):
                    raise ValueError(f"pulse {index} angle must be a JSON number, got {theta!r}")
                pulses.append((parse_generator(str(p["gen"]), n), float(theta)))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed schedule payload: {exc}") from exc
        return cls(n=n, pulses=tuple(pulses))


def random_schedule(
    n: int, bus_ids: list[str] | tuple[str, ...], length: int, seed: int
) -> PulseSchedule:
    """Seeded uniform schedule over the members of the given buses.

    bus_ids is a list or tuple of bus ids, such as ["I", "II"]; the members
    are drawn from in its order, so a seed names one schedule.  The length
    and the seed are non-negative integers (an int or a numpy integer, not
    a bool): random.Random seeds from |seed|, so -S would draw S's schedule.
    """
    length = _integer(length, "schedule length")
    if length < 0:
        raise ValueError(f"schedule length must be non-negative, got {length}")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_schedule_length(length)
    if not isinstance(bus_ids, (list, tuple)) or not all(isinstance(b, str) for b in bus_ids):
        raise ValueError(f"bus ids must be a list of strings such as ['I', 'II'], got {bus_ids!r}")
    refs = [ref for bus_id in bus_ids for ref in build_bus(n, bus_id).members]
    if not refs:
        raise ValueError("no generators to draw from")
    rng = random.Random(seed)
    pulses = tuple(
        (refs[rng.randrange(len(refs))], rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(length)
    )
    return PulseSchedule(n=n, pulses=pulses)


class MembershipResult(_Value):
    """Verdict of the rotation-group membership test.

    residual is the largest Pauli coefficient of any conjugated frame
    word that falls outside the frame's span.  rotation is R, a rotation
    only for members: a numpy array from dense.so_membership, a list of
    rows from frame_membership.  orthogonality is max |R^T R - I| and
    det_deviation is |det R - 1|; with residual they are the three numbers
    the verdict compares to tol.  unitarity is max |U U+ - I| of the U
    that so_membership reads, its input check's unitarity_residual.
    frame_membership composes no U: its residual is 0 by construction,
    and its unitarity is the orthogonality of the composed R.  Equality,
    the hash and the repr read member and residual only.
    """

    _fields = ("member", "residual", "rotation", "orthogonality", "det_deviation", "unitarity")
    _compared = 2

    def __init__(self, member: bool, residual: float, rotation: object | None = None,
                 orthogonality: float | None = None, det_deviation: float | None = None,
                 unitarity: float | None = None):
        self.__dict__.update(member=member, residual=residual, rotation=rotation,
                             orthogonality=orthogonality, det_deviation=det_deviation,
                             unitarity=unitarity)


def _pulse_word(ref: GeneratorRef) -> PauliString:
    """ref's word, which must be Hermitian: other phases cannot drive a pulse.

    The one pulse-word rule: frame_membership and dense's schedules both
    resolve their pulses through it.
    """
    word = ref.resolve()
    if not word.is_hermitian:
        raise ValueError(f"pulse generator {word} is not Hermitian")
    return word


def _frame_plane(word: PauliString) -> tuple[int, int, int] | None:
    """(a, b, s) with word = s i g_a g_b, a < b and s = +-1, or None for no frame bilinear.

    g_a has its X or Y on qubit a // 2 (none for a = 2n), so the X/Y
    qubits of g_a g_b are where those of g_a and g_b differ: the word's x
    bits leave at most four pairs, and the pair whose product has the
    word's bits is the plane.  g_a g_b = i^e W(x, z) with e odd, and
    word = i^p W(x, z), so s = i^(p - 1 - e), a sign for a Hermitian word
    such as _pulse_word returns.
    """
    n, x, z = word.n, word.x, word.z
    count = x.bit_count()
    if count == 0:
        # g_2m g_2m+1 is Z on qubit m alone
        a = 2 * (n - z.bit_length())
        pairs = [(a, a + 1)] if z.bit_count() == 1 else []
    elif count == 1:
        a = 2 * (n - x.bit_length())
        pairs = [(a, 2 * n), (a + 1, 2 * n)]
    elif count == 2:
        a, b = 2 * (n - x.bit_length()), 2 * (n - (x & -x).bit_length())
        pairs = [(a, b), (a, b + 1), (a + 1, b), (a + 1, b + 1)]
    else:
        return None
    for a, b in pairs:
        e, bits = bits_product(_frame_bits(n, a), _frame_bits(n, b))
        if bits == (x, z):
            return a, b, 1 if (word.phase_exp - 1 - e) & 3 == 0 else -1
    return None


def _orthogonality(rows: Sequence[Sequence[float]]) -> float:
    """max |R^T R - I| of a matrix given by rows, one dot product per pair of columns; NaN if any is.

    Columns whose nonzero rows are disjoint have a dot product of exactly
    0 and are skipped: a schedule of few pulses leaves R mostly identity.
    """
    cols = list(zip(*rows))
    supports = [sum(1 << k for k, v in enumerate(col) if v) for col in cols]
    devs = [abs(sum(map(mul, col, col)) - 1.0) for col in cols]
    devs += [abs(sum(map(mul, cols[i], cols[j])))
             for i, j in combinations(range(len(cols)), 2) if supports[i] & supports[j]]
    return math.nan if any(map(math.isnan, devs)) else max(devs, default=0.0)


def _det(rows: Sequence[Sequence[float]]) -> float:
    """Determinant by Gaussian elimination with partial pivoting, O(m^3) for m rows.

    A row whose entry in the pivot column is already 0 is left as it is.
    """
    a = [list(row) for row in rows]
    m = len(a)
    det = 1.0
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(a[i][k]))
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot = a[k]
        det *= pivot[k]
        if pivot[k] == 0.0:
            return 0.0
        tail = pivot[k + 1:]
        for row in a[k + 1:]:
            if row[k]:
                f = row[k] / pivot[k]
                row[k + 1:] = [v - f * t for v, t in zip(row[k + 1:], tail)]
    return det


def _planes(pulses) -> dict | None:
    """{ref: (a, b, s)} for each distinct pulse generator, or None at the first that is no frame bilinear.

    The words after that one are not resolved: a non-Hermitian word
    later in the schedule is left to dense, which refuses it through the
    same _pulse_word.
    """
    planes = {}
    for ref, _ in pulses:
        if ref not in planes:
            planes[ref] = _frame_plane(_pulse_word(ref))
            if planes[ref] is None:
                return None
    return planes


def _rotate(pulses, planes: dict, rows: list) -> list:
    """Apply each pulse's G_ab(2t), in time order, to the rows of a (2n+1) x m matrix M.

    rows is M's list of 2n+1 rows and becomes G_m ... G_1 M; each pulse
    replaces rows a and b, O(m).  This picture's one pulse loop: R is
    _rotate on the identity's rows, and a column vector has rows of one
    entry.
    """
    for ref, theta in pulses:
        a, b, s = planes[ref]
        cos, sin = math.cos(2 * theta), s * math.sin(2 * theta)
        ra, rb = rows[a], rows[b]
        rows[a] = [cos * u - sin * v for u, v in zip(ra, rb)]
        rows[b] = [sin * u + cos * v for u, v in zip(ra, rb)]
    return rows


def frame_membership(schedule: PulseSchedule, tol: float = 1e-8) -> MembershipResult | None:
    """The membership verdict and R of a schedule of frame bilinears, or None.

    None when some pulse is no frame bilinear (bus III's third, the
    chirality, a single frame word): those schedules need dense's 2^n
    unitary.  Otherwise R is _rotate, this picture's one composer, on the
    identity's rows: one plane rotation per pulse, O(n) each, as the
    module docstring sets out.  Nothing leaks (residual 0), and member
    holds iff max |R^T R - I| and |det R - 1| are within tol.
    unitarity reports the same max |R^T R - I|, since no U is built.
    Raises ResourceLimitError past MAX_FRAME_QUBITS, before R is built,
    and ValueError for a tol that is not positive and finite or a pulse
    word that is not Hermitian.
    """
    _check_tolerance(tol)
    planes = _planes(schedule.pulses)
    if planes is None:
        return None
    _check_frame_qubits(schedule.n)
    size = 2 * schedule.n + 1
    r = _rotate(schedule.pulses, planes, [[float(i == j) for j in range(size)] for i in range(size)])
    ortho = _orthogonality(r)
    det_dev = abs(_det(r) - 1.0)
    return MembershipResult(member=ortho <= tol and det_dev <= tol, residual=0.0, rotation=r,
                            orthogonality=ortho, det_deviation=det_dev, unitarity=ortho)


def rotation_json_dict(r, orthogonality: float | None = None) -> dict:
    """Row-major JSON form of a rotation matrix plus its orthogonality residual.

    r is any matrix given by rows: a list of rows or a numpy array.  The
    residual is max |R^T R - I|; pass it as orthogonality when it is
    known already (MembershipResult.orthogonality) to skip the O(m^3) sum.
    """
    entries = [[float(v) for v in row] for row in r]
    if orthogonality is None:
        orthogonality = _orthogonality(entries)
    return {
        "size": len(entries),
        "entries": entries,
        "orthogonality_residual": float(orthogonality),
    }
