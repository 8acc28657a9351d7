"""Dense 2^n x 2^n realization: matrices, pulses, schedules, rotations.

Plain numpy on one rule over pauli's word bits, qubit 0 the top bit:
W(x, z)[c ^ x, c] = i^|x&z| (-1)^|c&z| (Aaronson & Gottesman,
arXiv:quant-ph/0406196).  With a cached table of |a&b| mod 4 it gives
words as signed permutations, Pauli coefficients as a table [x, z] (a
gather and one +-1 sign-matrix product, O(8^n) under the n <= 8 cap)
and to_matrix, whose sign product covers only the x a sum uses: O(4^n)
per word, O(8^n) for a full sum.  A pulse exp(i t W) takes U to
cos(t) U + i sin(t) W U in O(4^n).  The table of U g_a U+ gives column
a of R, U g_a U+ = sum_b R[b][a] g_b, and the leak out of the frame's
span; U is in the group of buses I and II iff the leak vanishes and R
is special orthogonal.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .generators import GeneratorRef, build_bus, gamma_frame, parse_generator
from .operators import PauliSum
from .pauli import PauliString, ResourceLimitError, word_to_bits

N_MAX_PIPELINE = 8
# Longest schedule accepted; each pulse costs O(4^n) when composed.
MAX_SCHEDULE_PULSES = 10**5

_I_POWERS = np.array([1, 1j, -1, -1j])


def _check_n(n: int) -> None:
    if n > N_MAX_PIPELINE:
        raise ResourceLimitError(f"n={n} exceeds the dense limit of {N_MAX_PIPELINE} qubits")


@functools.lru_cache(maxsize=None)
def _overlaps(n: int) -> np.ndarray:
    """Read-only int8 table of |a & b| mod 4 over all n-bit pairs, bit-folded for numpy < 2."""
    bits = np.arange(2**n)
    table = (sum(np.outer(bits >> k & 1, bits >> k & 1) for k in range(n)) & 3).astype(np.int8)
    table.flags.writeable = False
    return table


def _sign_product(n: int, a: np.ndarray) -> np.ndarray:
    """S @ a for the sign matrix S[b, c] = (-1)^|b&c| and a complex a, in one real product."""
    return ((1.0 - 2 * (_overlaps(n) & 1)) @ a.view(float)).view(complex)


def _word_action(x: int, z: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """W(x, z) as W[rows[c], c] = phase[c]: rows[c] = c ^ x, phase[c] = i^(|x&z| + 2|c&z|)."""
    overlaps = _overlaps(n)
    return np.arange(2**n) ^ x, _I_POWERS[(overlaps[x, z] + 2 * overlaps[:, z]) & 3]


def to_matrix(op: Union[str, PauliString, PauliSum], n: int | None = None) -> np.ndarray:
    """Kronecker-product realization of a word, string, or sum.

    sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]], sigma_z =
    [[1,0],[0,-1]]; qubit 0 is the leftmost factor.  The terms with bits
    (x, z) fill the diagonal c -> c ^ x with sum_z coeff i^|x&z| (-1)^|c&z|.
    """
    if isinstance(op, str):
        op = PauliString(op)
    if isinstance(op, PauliString):
        op = PauliSum.from_pauli(op)
    if not isinstance(op, PauliSum):
        raise TypeError(f"cannot build a matrix from {type(op).__name__}")
    if n is not None and n != op.n:
        raise ValueError(f"operator acts on {op.n} qubits, got n={n}")
    _check_n(op.n)
    terms = op.bit_items()
    xs, zs = np.array([k for k, _ in terms], dtype=np.intp).reshape(-1, 2).T
    used, slot = np.unique(xs, return_inverse=True)
    weights = np.zeros((2**op.n, used.size), dtype=complex)  # [z, slot of x]
    weights[zs, slot] = np.array([c for _, c in terms]) * _I_POWERS[_overlaps(op.n)[xs, zs]]
    cols = np.arange(2**op.n)[:, None]
    out = np.zeros((cols.size, cols.size), dtype=complex)
    out[cols ^ used, cols] = _sign_product(op.n, weights)  # [c, slot of x]
    return out


def _pauli_table(mat: np.ndarray, n: int) -> np.ndarray:
    """Table [x, z] of trace(W(x, z) @ mat) / 2^n = i^|x&z| sum_c (-1)^|c&z| mat[c, c ^ x] / 2^n."""
    cols = np.arange(2**n)[:, None]
    table = _sign_product(n, mat[cols, cols ^ cols.T])  # [z, x] from the diagonals [c, x]
    table *= (_I_POWERS / 2**n)[_overlaps(n)]
    return table.T


def pauli_decompose(mat: np.ndarray) -> PauliSum:
    """Expand a square matrix over the Pauli word basis.

    The coefficient of word w is trace(W @ mat) / 2^n; round-trips with
    to_matrix to machine precision.  The side must be a power of two.
    """
    mat = np.asarray(mat, dtype=complex)
    side = mat.shape[0]
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    n = side.bit_length() - 1
    if side != 2**n or n < 1:
        raise ValueError(f"side {side} is not a power of two (>= 2)")
    _check_n(n)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    table = _pauli_table(mat, n)
    xs, zs = np.nonzero(table)
    return PauliSum.from_bits(n, dict(zip(zip(xs.tolist(), zs.tolist()), table[xs, zs].tolist())))


PulseGenerator = Union[GeneratorRef, PauliString, PauliSum, str]


def _resolve_generator(gen: PulseGenerator, n: int | None):
    if isinstance(gen, GeneratorRef):
        if n is not None and gen.n != n:
            raise ValueError(f"generator is for n={gen.n}, got n={n}")
        return gen.resolve()
    if isinstance(gen, str):
        if n is None:
            raise ValueError("n is required when the generator is given as text")
        return parse_generator(gen, n).resolve()
    if isinstance(gen, (PauliString, PauliSum)):
        if n is not None and gen.n != n:
            raise ValueError(f"generator acts on {gen.n} qubits, got n={n}")
        return gen
    raise TypeError(f"cannot interpret {type(gen).__name__} as a pulse generator")


def _pulse_action(word: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """i W for a Hermitian word W, as _word_action gives W; other phases cannot drive a pulse."""
    if not word.is_hermitian:
        raise ValueError(f"pulse generator {word} is not Hermitian")
    _check_n(word.n)
    rows, phase = _word_action(*word_to_bits(word.letters), word.n)
    return rows, 1j * word.phase.real * phase


def exp_pulse(gen: PulseGenerator, theta: float, n: int | None = None) -> np.ndarray:
    """exp(i * theta * G) for a Hermitian generator G.

    Single Pauli words square to the identity, so the closed form
    cos(theta) I + i sin(theta) G applies; general Hermitian sums go
    through an eigendecomposition, which keeps the result unitary to
    machine precision.
    """
    op = _resolve_generator(gen, n)
    if isinstance(op, PauliString):
        rows, phase = _pulse_action(op)
        out = np.cos(theta) * np.eye(rows.size, dtype=complex)
        out[rows, np.arange(rows.size)] += np.sin(theta) * phase
        return out
    if not op.is_hermitian:
        raise ValueError("pulse generator must be Hermitian")
    evals, evecs = np.linalg.eigh(to_matrix(op))
    return (evecs * np.exp(1j * theta * evals)) @ evecs.conj().T


def _check_schedule_length(length: int) -> None:
    if length > MAX_SCHEDULE_PULSES:
        raise ResourceLimitError(
            f"schedule of {length} pulses exceeds the limit of {MAX_SCHEDULE_PULSES}"
        )


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulses (generator reference, angle) on an n-qubit chain.

    List order is time order: the first pulse acts first, so the
    composed unitary is exp(i t_m G_m) ... exp(i t_1 G_1).
    """

    n: int
    pulses: tuple[tuple[GeneratorRef, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        _check_schedule_length(len(self.pulses))
        for index, (ref, theta) in enumerate(self.pulses):
            if ref.n != self.n:
                raise ValueError(f"pulse generator is for n={ref.n}, schedule has n={self.n}")
            if not np.isfinite(theta):
                raise ValueError(f"pulse {index} has a non-finite angle {theta!r}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "pulses": [{"gen": ref.label, "theta": float(theta)} for ref, theta in self.pulses],
        }

    @classmethod
    def from_json_dict(cls, payload) -> "PulseSchedule":
        try:
            n = payload["n"]
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"schedule n must be an integer, got {n!r}")
            pulses = tuple(
                (parse_generator(str(p["gen"]), n), float(p["theta"]))
                for p in payload["pulses"]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed schedule payload: {exc}") from exc
        return cls(n=n, pulses=pulses)


def run_schedule(schedule: PulseSchedule) -> np.ndarray:
    """Compose a schedule into a unitary; the first pulse is the rightmost factor.

    A pulse on a word W takes U to cos(t) U + i sin(t) W U, and W U is U
    with its rows permuted and scaled by W's phases, so each pulse costs
    O(4^n) in place instead of an O(8^n) matmul.
    """
    _check_n(schedule.n)
    u = np.eye(2**schedule.n, dtype=complex)
    wu = np.empty_like(u)
    # One action per distinct generator; re-deriving it every pulse made
    # small chains 2.5x slower (27 against 11 us/pulse at n = 2).
    actions = {}
    for ref, theta in schedule.pulses:
        if ref not in actions:
            rows, phase = _pulse_action(ref.resolve())
            actions[ref] = rows, phase[rows, None]
        rows, row_phase = actions[ref]
        np.take(u, rows, axis=0, out=wu)
        wu *= np.sin(theta) * row_phase
        u *= np.cos(theta)
        u += wu
    return u


def random_schedule(
    n: int, bus_ids: Sequence[str], length: int, seed: int
) -> PulseSchedule:
    """Seeded uniform schedule over the members of the given buses."""
    if length < 0:
        raise ValueError(f"schedule length must be non-negative, got {length}")
    _check_schedule_length(length)
    refs = [ref for bus_id in bus_ids for ref in build_bus(n, bus_id).members]
    if not refs:
        raise ValueError("no generators to draw from")
    rng = random.Random(seed)
    pulses = tuple(
        (refs[rng.randrange(len(refs))], rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(length)
    )
    return PulseSchedule(n=n, pulses=pulses)


def unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of |U U+ - I|."""
    u = np.asarray(u)
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


def _frame_readout(u: np.ndarray, n: int, tol: float) -> tuple[np.ndarray, float]:
    """Rotation R and out-of-span leak of conjugation by U.

    Column a of R holds the frame coefficients of U g_a U+, and the leak
    is the largest coefficient on any other word.  g_a U+ is a row
    permutation of U+ with phases, so each frame word costs one matmul.
    Frame words are read one at a time to keep only a few 2^n x 2^n
    arrays alive.
    """
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError("tolerance must be positive")
    u = np.asarray(u, dtype=complex)
    _check_n(n)
    if u.shape != (2**n, 2**n):
        raise ValueError(f"U has shape {u.shape}, expected {(2**n, 2**n)} for n={n}")
    if not unitarity_residual(u) <= tol:
        raise ValueError("input matrix is not unitary within tolerance")
    fx, fz = np.array([word_to_bits(g.letters) for g in gamma_frame(n)]).T
    r = np.empty((fx.size, fx.size))
    leak = 0.0
    u_dagger = u.conj().T
    for a, (x, z) in enumerate(zip(fx.tolist(), fz.tolist())):
        rows, phase = _word_action(x, z, n)
        table = _pauli_table(u @ (phase[rows, None] * u_dagger[rows]), n)
        r[:, a] = table[fx, fz].real
        table[fx, fz] = 0
        leak = max(leak, float(np.max(np.abs(table))))
    return r, leak


def adjoint_rotation(u: np.ndarray, n: int, tol: float = 1e-8) -> np.ndarray:
    """Extract the (2n+1) x (2n+1) rotation induced by conjugation.

    R[b][a] = trace(g_b @ U @ g_a @ U+) / 2^n over the rotation frame
    g_0..g_2n, so U g_a U+ = sum_b R[b][a] g_b whenever the conjugated
    frame stays in the frame's span.  Out-of-span components are simply
    not seen here; use so_membership to check for them.
    """
    return _frame_readout(u, n, tol)[0]


@dataclass(frozen=True)
class MembershipResult:
    """Verdict of the rotation-group membership test.

    residual is the largest Pauli coefficient of any conjugated frame
    word that falls outside the frame's span.  rotation is the R that
    adjoint_rotation returns for the same U, a rotation only for members.
    orthogonality is max |R^T R - I| and det_deviation is |det R - 1|;
    with residual they are the three numbers the verdict compares to tol.
    """

    member: bool
    residual: float
    rotation: np.ndarray | None = field(default=None, compare=False, repr=False)
    orthogonality: float | None = field(default=None, compare=False, repr=False)
    det_deviation: float | None = field(default=None, compare=False, repr=False)


def so_membership(u: np.ndarray, n: int, tol: float = 1e-8) -> MembershipResult:
    """Decide whether conjugation by U acts as a rotation of the frame span.

    True iff every conjugated frame word decomposes (within tol) over
    the frame words alone and the collected coefficient matrix R is
    orthogonal with determinant +1 within tol.
    """
    r, leak = _frame_readout(u, n, tol)
    ortho = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    det_dev = abs(float(np.linalg.det(r)) - 1.0)
    member = leak <= tol and ortho <= tol and det_dev <= tol
    return MembershipResult(
        member=member, residual=leak, rotation=r, orthogonality=ortho, det_deviation=det_dev
    )


def rotation_json_dict(r: np.ndarray) -> dict:
    """Row-major JSON form of a rotation matrix plus its orthogonality residual."""
    r = np.asarray(r)
    residual = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    return {
        "size": int(r.shape[0]),
        "entries": [[float(v) for v in row] for row in r],
        "orthogonality_residual": residual,
    }
