"""Dense 2^n x 2^n realization: matrices, pulses, schedules, rotations.

Everything here is plain numpy.  A Pauli word is a signed permutation
matrix, W[c ^ flip, c] = phase[c], and every word matrix goes through
that one action: word matrices and to_matrix are scattered from it, a
pulse exp(i t W) updates a schedule's U as cos(t) U + i sin(t) W U in
O(4^n) instead of an O(8^n) matmul, and conjugating a frame word costs
one matmul, U (g_a U+).  Unitaries produced from pulse schedules can be
read back as rotations of a (2n+1)-dimensional sphere: one Pauli
transform per conjugated frame word gives a column of the real matrix R
with U g_a U+ = sum_b R[b][a] g_b and the word's leak out of the frame's
span.  Membership in the group generated by buses I and II is decided a
posteriori from that readout: the leak must vanish and R must be special
orthogonal.
"""

from __future__ import annotations

import itertools
import json
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

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Row p maps a qubit's (row bit, column bit) block to trace(sigma_p @ block) / 2.
_PAULI_TRANSFORM = np.array([s.T.reshape(4) for s in _SIGMA.values()]) / 2


def _check_n(n: int) -> None:
    if n > N_MAX_PIPELINE:
        raise ResourceLimitError(f"n={n} exceeds the dense limit of {N_MAX_PIPELINE} qubits")


_Y_PHASES = (1, 1j, -1, -1j)


def _word_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """A Pauli word as a signed permutation: W[rows[c], c] = phase[c].

    With (flip, zmask) = pauli.word_to_bits(letters), whose qubit 0 is
    the most significant bit as in the kron order, rows[c] = c ^ flip and
    the phase is i^#Y (-1)^popcount(c & zmask) with #Y = |flip & zmask|
    (Aaronson & Gottesman, arXiv:quant-ph/0406196).
    """
    cols = np.arange(2 ** len(letters))
    flip, zmask = word_to_bits(letters)
    parity = np.zeros_like(cols)
    for bit in range(zmask.bit_length()):
        if zmask >> bit & 1:
            parity ^= cols >> bit
    return cols ^ flip, _Y_PHASES[(flip & zmask).bit_count() % 4] * (1 - 2 * (parity & 1))


def to_matrix(op: Union[str, PauliString, PauliSum], n: int | None = None) -> np.ndarray:
    """Kronecker-product realization of a word, string, or sum.

    sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]], sigma_z =
    [[1,0],[0,-1]]; qubit 0 is the leftmost factor.  Each term writes its
    2^n nonzero entries straight from the word's signed permutation.
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
    cols = np.arange(2**op.n)
    out = np.zeros((cols.size, cols.size), dtype=complex)
    for w, c in op.items():
        rows, phase = _word_action(w)
        out[rows, cols] += c * phase
    return out


def _pauli_coefficients(mat: np.ndarray, n: int) -> np.ndarray:
    """trace(W @ mat) / 2^n for all 4^n words W in lexicographic order.

    One 4x4 transform per qubit on its (row bit, column bit) pair, O(n 4^n)
    in all (Hantzko, Binkowski & Gupta, arXiv:2310.13421).
    """
    interleaved = [axis for k in range(n) for axis in (k, n + k)]
    x = mat.reshape((2,) * (2 * n)).transpose(interleaved).reshape(-1)
    for k in range(n):
        x = np.matmul(_PAULI_TRANSFORM, x.reshape(4**k, 4, -1))
    return x.reshape(-1)


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
    words = ("".join(letters) for letters in itertools.product("IXYZ", repeat=n))
    return PauliSum(n, zip(words, _pauli_coefficients(mat, n).tolist()))


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


def _hermitian_sign(word: PauliString) -> float:
    """The +1 or -1 phase of a Hermitian word; other phases cannot drive a pulse."""
    if not word.is_hermitian:
        raise ValueError(f"pulse generator {word} is not Hermitian")
    return word.phase.real


def exp_pulse(gen: PulseGenerator, theta: float, n: int | None = None) -> np.ndarray:
    """exp(i * theta * G) for a Hermitian generator G.

    Single Pauli words square to the identity, so the closed form
    cos(theta) I + i sin(theta) G applies; general Hermitian sums go
    through an eigendecomposition, which keeps the result unitary to
    machine precision.
    """
    op = _resolve_generator(gen, n)
    if isinstance(op, PauliString):
        _hermitian_sign(op)
        word = to_matrix(op)
        return np.cos(theta) * np.eye(word.shape[0]) + 1j * np.sin(theta) * word
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

    @classmethod
    def from_json(cls, text: str) -> "PulseSchedule":
        return cls.from_json_dict(json.loads(text))


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
            word = ref.resolve()
            sign = _hermitian_sign(word)
            rows, phase = _word_action(word.letters)
            actions[ref] = rows, (1j * sign * phase[rows])[:, None]
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
    frame_words = [g.letters for g in gamma_frame(n)]
    index = [int(w.translate(str.maketrans("IXYZ", "0123")), 4) for w in frame_words]
    r = np.empty((len(frame_words), len(frame_words)))
    leak = 0.0
    u_dagger = u.conj().T
    for a, w in enumerate(frame_words):
        rows, phase = _word_action(w)
        coeffs = _pauli_coefficients(u @ (phase[rows, None] * u_dagger[rows]), n)
        r[:, a] = coeffs[index].real
        coeffs[index] = 0
        leak = max(leak, float(np.max(np.abs(coeffs))))
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
