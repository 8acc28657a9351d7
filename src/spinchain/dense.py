"""Dense 2^n x 2^n realization: matrices, pulses, schedules, rotations.

Everything here is plain numpy.  Unitaries produced from pulse schedules
can be read back as rotations of a (2n+1)-dimensional sphere: one Pauli
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
from .pauli import PauliString, ResourceLimitError

N_MAX_PIPELINE = 8

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


def _word_matrix(word: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in word:
        out = np.kron(out, _SIGMA[ch])
    return out


def to_matrix(op: Union[str, PauliString, PauliSum], n: int | None = None) -> np.ndarray:
    """Kronecker-product realization of a word, string, or sum.

    sigma_x = [[0,1],[1,0]], sigma_y = [[0,-i],[i,0]], sigma_z =
    [[1,0],[0,-1]]; qubit 0 is the leftmost factor.
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
    out = np.zeros((2**op.n, 2**op.n), dtype=complex)
    for w, c in op.items():
        out += c * _word_matrix(w)
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


def exp_pulse(gen: PulseGenerator, theta: float, n: int | None = None) -> np.ndarray:
    """exp(i * theta * G) for a Hermitian generator G.

    Single Pauli words square to the identity, so the closed form
    cos(theta) I + i sin(theta) G applies; general Hermitian sums go
    through an eigendecomposition, which keeps the result unitary to
    machine precision.
    """
    op = _resolve_generator(gen, n)
    if isinstance(op, PauliString):
        if not op.is_hermitian:
            raise ValueError(f"pulse generator {op} is not Hermitian")
        _check_n(op.n)
        dim = 2**op.n
        sign = op.phase.real
        return np.cos(theta) * np.eye(dim) + 1j * np.sin(theta) * sign * _word_matrix(op.letters)
    if not op.is_hermitian:
        raise ValueError("pulse generator must be Hermitian")
    evals, evecs = np.linalg.eigh(to_matrix(op))
    return (evecs * np.exp(1j * theta * evals)) @ evecs.conj().T


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pulses (generator reference, angle) on an n-qubit chain.

    List order is time order: the first pulse acts first, so the
    composed unitary is exp(i t_m G_m) ... exp(i t_1 G_1).
    """

    n: int
    pulses: tuple[tuple[GeneratorRef, float], ...]

    def __post_init__(self):
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
    """Compose a schedule into a unitary; the first pulse is the rightmost factor."""
    _check_n(schedule.n)
    u = np.eye(2**schedule.n, dtype=complex)
    for ref, theta in schedule.pulses:
        u = exp_pulse(ref, theta) @ u
    return u


def random_schedule(
    n: int, bus_ids: Sequence[str], length: int, seed: int
) -> PulseSchedule:
    """Seeded uniform schedule over the members of the given buses."""
    if length < 0:
        raise ValueError(f"schedule length must be non-negative, got {length}")
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
    is the largest coefficient on any other word.  Frame words are read
    one at a time to keep only a few 2^n x 2^n arrays alive.
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
    for a, w in enumerate(frame_words):
        coeffs = _pauli_coefficients(u @ _word_matrix(w) @ u.conj().T, n)
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
    """

    member: bool
    residual: float
    rotation: np.ndarray | None = field(default=None, compare=False, repr=False)


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
    return MembershipResult(member=member, residual=leak, rotation=r)


def rotation_json_dict(r: np.ndarray) -> dict:
    """Row-major JSON form of a rotation matrix plus its orthogonality residual."""
    r = np.asarray(r)
    residual = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    return {
        "size": int(r.shape[0]),
        "entries": [[float(v) for v in row] for row in r],
        "orthogonality_residual": residual,
    }
