"""Dense 2^n x 2^n realization: matrices, pulses, schedules, rotations.

Plain numpy on one rule over pauli's word bits, qubit 0 the top bit:
W(x, z)[c ^ x, c] = i^|x&z| (-1)^|c&z| (Aaronson & Gottesman,
arXiv:quant-ph/0406196).  With a cached table of |a&b| mod 4 it gives
words as signed permutations, Pauli coefficients as a table [x, z] (a
gather and one +-1 sign-matrix product, O(8^n) under the n <= 8 cap)
and to_matrix, whose sign product covers only the x a sum uses: O(4^n)
per word, O(8^n) for a full sum.  A pulse exp(i t W) on a word takes U
to cos(t) U + i sin(t) W U in O(4^n), with each generator's rows and
row phases cached across calls; exp_pulse on a word is the one-pulse
schedule, and on a sum goes through eigh.  A diagonal W (no X or Y)
only multiplies a pending 2^n vector of row phases, O(2^n), which the
next other pulse applies along with its own.  From n = 7 on, a pulse on
one qubit or two adjacent ones (every bus word) multiplies into an open
2 x 2 or 4 x 4 gate instead, and a gate reaches U in one batched matmul
only when a pulse on an overlapping pair, a wider word or the end of the
schedule closes it.  The rotation
R[b][a] = Re trace(g_b U g_a U+) / 2^n over the frame words g_a,
U g_a U+ = sum_b R[b][a] g_b, is a sum of products of row and column
gathers of U: O(n^2 4^n), no 2^n x 2^n matmul.  The leak out of the
frame's span is read from the tables of U g_a U+, one half-rank matmul
each; U is in the group of buses I and II iff the leak vanishes and R
is special orthogonal.
"""

from __future__ import annotations

import functools
import math
from typing import Union

import numpy as np

# The schedule value, its checks and the membership verdict are numpy-free
# and live in frame; they are re-exported here as dense names.
from .frame import (
    MembershipResult,
    PulseSchedule,
    _check_angle,
    _check_tolerance,
    random_schedule,
    rotation_json_dict,
)
from .generators import GeneratorRef, gamma_frame, parse_generator
from .operators import PauliSum
from .pauli import PauliString, ResourceLimitError

N_MAX_PIPELINE = 8

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
    """Row form of W(x, z): (W M)[r] = phase[r] M[r ^ x], phase[r] = i^(|x&z| + 2|(r^x)&z|)."""
    overlaps = _overlaps(n)
    rows = np.arange(2**n) ^ x
    return rows, _I_POWERS[(overlaps[x, z] + 2 * overlaps[rows, z]) & 3]


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


@functools.lru_cache(maxsize=None)
def _diagonal_index(n: int) -> np.ndarray:
    """Read-only flat index [c, x] -> c 2^n + (c ^ x) of the entries (c, c ^ x); 512 KB at n = 8.

    Cached because the leak gathers once per frame word, and building
    the index took 0.56 ms at n = 8.
    """
    cols = np.arange(2**n)[:, None]
    index = (cols << n | cols ^ cols.T).ravel()
    index.flags.writeable = False
    return index


def _unphased_tables(mats: np.ndarray, n: int) -> np.ndarray:
    """Tables [..., z, x] of sum_c (-1)^|c&z| mats[..., c, c ^ x] for a stack of 2^n x 2^n matrices.

    Each is 2^n i^-|x&z| times the Pauli coefficient of word (x, z):
    one gather of the diagonals [c, x] and one sign product.
    """
    flat = mats.reshape(*mats.shape[:-2], 4**n)
    return _sign_product(n, np.take(flat, _diagonal_index(n), axis=-1).reshape(mats.shape))


def _pauli_table(mat: np.ndarray, n: int) -> np.ndarray:
    """Table [x, z] of trace(W(x, z) @ mat) / 2^n = i^|x&z| sum_c (-1)^|c&z| mat[c, c ^ x] / 2^n."""
    table = _unphased_tables(mat, n)
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


def _resolve_generator(gen: PulseGenerator, n: int | None) -> Union[GeneratorRef, PauliSum]:
    """A GeneratorRef for a word given any way, or the PauliSum as it is."""
    if isinstance(gen, str):
        if n is None:
            raise ValueError("n is required when the generator is given as text")
        return parse_generator(gen, n)
    if isinstance(gen, PauliString):
        gen = GeneratorRef("raw", gen.n, raw=gen)
    if isinstance(gen, (GeneratorRef, PauliSum)):
        if n is not None and gen.n != n:
            raise ValueError(f"generator acts on {gen.n} qubits, got n={n}")
        return gen
    raise TypeError(f"cannot interpret {type(gen).__name__} as a pulse generator")


def exp_pulse(gen: PulseGenerator, theta: float, n: int | None = None) -> np.ndarray:
    """exp(i * theta * G) for a Hermitian generator G and a finite real angle.

    A Pauli word (a GeneratorRef, text with n, or a PauliString) is the
    one-pulse schedule, run by run_schedule.  A general Hermitian sum goes
    through an eigendecomposition, which keeps the result unitary to
    machine precision.
    """
    _check_angle(theta, "pulse")
    op = _resolve_generator(gen, n)
    if isinstance(op, GeneratorRef):
        return run_schedule(PulseSchedule(op.n, ((op, theta),)))
    if not op.is_hermitian:
        raise ValueError("pulse generator must be Hermitian")
    evals, evecs = np.linalg.eigh(to_matrix(op))
    return (evecs * np.exp(1j * theta * evals)) @ evecs.conj().T


# Distinct generators whose pulse actions run_schedule keeps between calls.
# An entry holds at most 6 KB at n = 8 (2 KB of rows, 4 KB of row phases),
# so the cache stays under 2 MB.
_PULSE_ACTIONS = 256

# Smallest chain whose schedules run_schedule composes by gate fusion.  A
# gate pass over U costs about what one in-place pulse costs, and fusion
# adds small-gate work to every pulse: on 200-pulse bus-I/II schedules it
# was 15-17 % faster at n = 7, 12-19 % slower at n = 6 and 40-70 % slower
# at n = 3..5 (medians, 2-core host, one BLAS thread).
_FUSE_MIN_QUBITS = 7

_EYES = {2: np.eye(2), 4: np.eye(4)}


def _hermitian_word(ref: GeneratorRef) -> PauliString:
    """ref's word, which must be Hermitian: other phases cannot drive a pulse."""
    word = ref.resolve()
    if not word.is_hermitian:
        raise ValueError(f"pulse generator {word} is not Hermitian")
    return word


@functools.lru_cache(maxsize=_PULSE_ACTIONS)
def _schedule_action(ref: GeneratorRef) -> tuple[np.ndarray | None, complex | np.ndarray]:
    """Read-only rows and row phase of i W for ref's word W: (i W U)[r] = row_phase[r] U[rows[r]].

    rows is None for a diagonal word (no X or Y), which permutes no rows.
    row_phase is one complex for a word with no Z or Y (z = 0), whose
    phase is the same on every row, and a 2^n x 1 column otherwise.
    Deriving the actions on every call cost about 15 us per distinct
    generator: 0.155 against 0.108 ms for 30 bus-I/II pulses at n = 2
    (2-core host, in process).
    """
    word = _hermitian_word(ref)
    rows, phase = _word_action(word.x, word.z, word.n)
    row_phase = 1j * word.phase.real * phase[:, None]
    for table in (rows, row_phase):
        table.flags.writeable = False
    return (None if word.x == 0 else rows), (complex(row_phase[0, 0]) if word.z == 0 else row_phase)


@functools.lru_cache(maxsize=_PULSE_ACTIONS)
def _local_action(ref: GeneratorRef) -> tuple[int, np.ndarray] | None:
    """(q, read-only i W_q) when ref's word W acts on qubit q alone or on qubits q and q + 1.

    W_q is W restricted to that window, a 2 x 2 or 4 x 4 matrix from the
    same row form as _word_action's.  None for a wider word or the
    identity word.
    """
    word = _hermitian_word(ref)
    support = word.x | word.z
    if support == 0:
        return None
    low = (support & -support).bit_length() - 1  # qubit 0 is the top bit
    width = support.bit_length() - low
    if width > 2:
        return None
    rows, phase = _word_action(word.x >> low, word.z >> low, width)
    action = np.zeros((2**width, 2**width), dtype=complex)
    action[np.arange(2**width), rows] = 1j * word.phase.real * phase
    action.flags.writeable = False
    return word.n - low - width, action


def _on_qubits(gate: np.ndarray, top: int, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(gate on the qubits from top on) @ m: one matmul over m's rows viewed as [2^top, side, rest]."""
    shape = (2**top, len(gate), -1)
    out = None if out is None else out.reshape(shape)
    return np.matmul(gate, m.reshape(shape), out=out).reshape(m.shape)


def _pulse_in_place(u: np.ndarray, wu: np.ndarray, pending, ref: GeneratorRef, theta: float):
    """Apply one pulse on ref's word to diag(pending) u, in place; return the new pending row phases.

    wu is scratch of u's shape.
    """
    rows, row_phase = _schedule_action(ref)
    cos, sin = math.cos(theta), math.sin(theta)
    if rows is None:
        return pending * (cos + sin * row_phase)
    # rows is a permutation; mode="clip" skips the bounds check and the
    # buffered copy the default mode makes for out= (3x faster at n = 8).
    np.take(u, rows, axis=0, out=wu, mode="clip")
    if isinstance(pending, np.ndarray):
        wu *= sin * row_phase * pending[rows]
    else:
        wu *= sin * row_phase * pending
    u *= cos * pending
    u += wu
    return 1.0


def _apply_gate(gate: np.ndarray, top: int, u: np.ndarray, scratch: np.ndarray) -> tuple:
    """One pass over U: (gate on the qubits from top on) @ U into scratch; return (scratch, u)."""
    _on_qubits(gate, top, u, out=scratch)
    return scratch, u


def _merge_singles(gates: dict, q: int) -> np.ndarray:
    """Pop the open one-qubit gates on q and q + 1 as one gate on the pair."""
    gate = _EYES[4]
    for j in (0, 1):
        if len(gates.get(q + j, ())) == 2:
            gate = _on_qubits(gates.pop(q + j), j, gate)
    return gate


def _flush(gates: dict, u: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply and close every open gate, one pass over U each, adjacent one-qubit gates together."""
    for q in sorted(gates):
        if len(gates.get(q, ())) == 2 and len(gates.get(q + 1, ())) == 2:
            gates[q] = _merge_singles(gates, q)
    for top, gate in gates.items():
        u, scratch = _apply_gate(gate, top, u, scratch)
    gates.clear()
    return u, scratch


def _run_fused(pulses, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """U from identity u by gate fusion; scratch is a buffer of u's shape.

    gates maps a qubit q to the open gate on q (2 x 2) or on q and q + 1
    (4 x 4); open gates act on disjoint qubits, so they commute.
    """
    gates = {}
    pending = 1.0
    for ref, theta in pulses:
        local = _local_action(ref)
        if local is None:
            u, scratch = _flush(gates, u, scratch)
            pending = _pulse_in_place(u, scratch, pending, ref, theta)
            continue
        if isinstance(pending, np.ndarray) or pending != 1.0:
            u *= pending
            pending = 1.0
        q, action = local
        pulse = math.cos(theta) * _EYES[len(action)] + math.sin(theta) * action
        if len(action) == 4:
            gate = gates.get(q)
            if gate is None or len(gate) == 2:
                for top in (q - 1, q + 1):
                    if len(gates.get(top, ())) == 4:
                        u, scratch = _apply_gate(gates.pop(top), top, u, scratch)
                gate = _merge_singles(gates, q)
            gates[q] = pulse @ gate
        else:
            top = q - 1 if len(gates.get(q - 1, ())) == 4 else q
            gates[top] = _on_qubits(pulse, q - top, gates[top]) if top in gates else pulse
    u, scratch = _flush(gates, u, scratch)
    if isinstance(pending, np.ndarray) or pending != 1.0:
        u *= pending
    return u


def run_schedule(schedule: PulseSchedule) -> np.ndarray:
    """Compose a schedule into a unitary; the first pulse is the rightmost factor.

    A pulse on a word W takes U to cos(t) U + i sin(t) W U, and W U is U
    with its rows permuted and scaled by W's phases, so each pulse costs
    O(4^n) in place instead of an O(8^n) matmul.  The product so far is
    held as diag(d) U: a diagonal word (no X or Y) permutes nothing, so
    its pulse multiplies only the pending row phases d by
    cos(t) + i sin(t) W[r, r], O(2^n).  The next pulse on a word with X
    or Y applies d and resets it to 1, U -> a U + b U[rows] with
    a = cos(t) d and b = sin(t) p d[rows], p the word's row phases.  d and
    p stay Python numbers while they are the same on every row (no
    diagonal pulse pending, a word with no Z or Y).

    From n = 7 on, pulses are fused into small gates first, as in
    state-vector gate clustering (Haner & Steiger, arXiv:1704.01127).  A
    word on one qubit or two adjacent ones (every bus word) multiplies
    into the open gate on its qubit or pair, and a gate is applied to U,
    one batched matmul, only when a pulse on an overlapping pair, a wider
    word or the end of the schedule closes it.  A wider word closes every
    open gate and then takes the in-place update; its pending d is
    applied before the next local pulse.  On 200-pulse bus-I/II and I-III
    schedules (seeds 1-3, medians, 2-core host, one BLAS thread) that is
    42-61 gate passes instead of 93-109 pulse passes: 34-37 -> 11-19 ms at
    n = 8 and 5.8-8.2 -> 4.1-6.0 ms at n = 7.
    """
    _check_n(schedule.n)
    u = np.eye(2**schedule.n, dtype=complex)
    wu = np.empty_like(u)
    if schedule.n >= _FUSE_MIN_QUBITS:
        return _run_fused(schedule.pulses, u, wu)
    pending = 1.0
    for ref, theta in schedule.pulses:
        pending = _pulse_in_place(u, wu, pending, ref, theta)
    u *= pending
    return u


def unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of |U U+ - I| for a square matrix U."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"U must be a square matrix, got shape {u.shape}")
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


# Bytes of frame-word rows the readouts build at once.  256 KB keeps a
# block in cache: with 1 MB, R took 13 against 11 ms at n = 8 and 2.1
# against 0.45 ms at n = 6 (2-core host, one BLAS thread).
_BLOCK_BYTES = 2**18


@functools.lru_cache(maxsize=None)
def _frame_words(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only bits x_a, z_a of gamma_frame(n), rows r ^ x_a and row phases, one row per word.

    (g_a M)[r] = row_phase[a, r] * M[rows[a, r]] for any matrix M.
    """
    bits = np.array([(g.x, g.z) for g in gamma_frame(n)])
    rows, row_phase = map(np.array, zip(*(_word_action(x, z, n) for x, z in bits.tolist())))
    for table in (bits, rows, row_phase):
        table.flags.writeable = False
    return bits[:, 0], bits[:, 1], rows, row_phase


def _checked_unitary(u: np.ndarray, n: int, tol: float) -> tuple[np.ndarray, float]:
    """U as a complex array and max |U U+ - I|, once tol, n, U's shape and its unitarity are checked."""
    _check_tolerance(tol)
    u = np.asarray(u, dtype=complex)
    _check_n(n)
    if u.shape != (2**n, 2**n):
        raise ValueError(f"U has shape {u.shape}, expected {(2**n, 2**n)} for n={n}")
    if not (unitarity := unitarity_residual(u)) <= tol:
        raise ValueError("input matrix is not unitary within tolerance")
    return u, unitarity


def _rotation(u: np.ndarray, n: int) -> np.ndarray:
    """R[b][a] = Re trace(g_b U g_a U+) / 2^n from traces, with no 2^n x 2^n matmul.

    The trace is sum_{r,s} A[b, r, s] B[a, r, s] over the row gather
    A[b, r] = (g_b U)[r] = p_b[r] U[r ^ x_b] and the column gather
    B[a, r, s] = (g_a U+)[s, r] = p_a[s] conj U[r, s ^ x_a], p the row
    phases.  The code builds conj B = conj(p_a[s]) U[r, s ^ x_a]; read as
    interleaved reals, A . conj B is Re(A B), so R = Re(A B^T) / 2^n is
    one real (2n+1) x 2*4^n by 2*4^n x (2n+1) product: O(n^2 4^n).  The
    rows r go in blocks of _BLOCK_BYTES per operand.
    """
    _, _, rows, row_phase = _frame_words(n)
    size, side = rows.shape
    height = max(1, _BLOCK_BYTES // (16 * size * side))
    height = min(side, 1 << (height.bit_length() - 1))
    a = np.empty((size, height, side), dtype=complex)
    b = np.empty_like(a)
    b_by_row = b.transpose(1, 0, 2)
    conj_phase = row_phase.conj()[:, None, :]
    r = np.zeros((size, size))
    for start in range(0, side, height):
        block = slice(start, start + height)
        np.take(u, rows[:, block], axis=0, out=a, mode="clip")
        a *= row_phase[:, block, None]
        np.take(u[block], rows, axis=1, out=b_by_row, mode="clip")
        b *= conj_phase
        r += a.view(float).reshape(size, -1) @ b.view(float).reshape(size, -1).T
    return r / side


@functools.lru_cache(maxsize=None)
def _frame_halves(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only keep, partner, coef and norm, one row per frame word g_a.

    W[:, j] = U[:, keep[j]] + coef[j] U[:, partner[j]], with coef = p_a[keep]
    and partner = keep ^ x_a, is U times the +1 eigenvectors of g_a, so
    W W+ = norm (U g_a U+ + I) with half the columns of U.  For x_a != 0
    keep holds each c with the top bit of x_a clear (norm 1); a diagonal
    g_a keeps its +1 columns, partner = keep and W = 2 U[:, keep] (norm 2).
    """
    fx, _, _, row_phase = _frame_words(n)
    cols = np.arange(2**n)
    keep = np.array([
        cols[(cols & 1 << x.bit_length() - 1) == 0] if x else cols[phase.real > 0]
        for x, phase in zip(fx.tolist(), row_phase)
    ])
    partner = keep ^ fx[:, None]
    coef = np.take_along_axis(row_phase, partner, axis=1)  # p_a[c] = row_phase[a, c ^ x_a]
    norm = np.where(fx == 0, 2.0, 1.0)
    for table in (keep, partner, coef, norm):
        table.flags.writeable = False
    return keep, partner, coef, norm


def _leak(u: np.ndarray, n: int) -> float:
    """Largest |Pauli coefficient| of any U g_a U+ on a word outside the frame.

    U g_a U+ + I comes from a half-rank product W W+ (_frame_halves), and
    the [x, z] tables are _pauli_table's without its unit phases, which
    leave every modulus as it is.  Frame words go through in groups of
    up to _BLOCK_BYTES.
    """
    fx, fz, _, _ = _frame_words(n)
    keep, partner, coef, norm = _frame_halves(n)
    side = 2**n
    group = max(1, _BLOCK_BYTES // (16 * side * side))
    leak = 0.0
    for start in range(0, fx.size, group):
        words = slice(start, start + group)
        w = np.take(u, keep[words], axis=1)  # [c, a, j]
        w += np.take(u, partner[words], axis=1) * coef[words]
        # [a, z, x]: norm * 2^n times the unphased coefficients of U g_a U+ + I
        table = _unphased_tables(np.matmul(w.transpose(1, 0, 2), w.conj().transpose(1, 2, 0)), n)
        table[:, 0, 0] -= norm[words] * side
        table[:, fz, fx] = 0
        leak = max(leak, float(np.max(np.max(np.abs(table), axis=(1, 2)) / norm[words])) / side)
    return leak


def adjoint_rotation(u: np.ndarray, n: int, tol: float = 1e-8) -> np.ndarray:
    """Extract the (2n+1) x (2n+1) rotation induced by conjugation.

    R[b][a] = trace(g_b @ U @ g_a @ U+) / 2^n over the rotation frame
    g_0..g_2n, so U g_a U+ = sum_b R[b][a] g_b whenever the conjugated
    frame stays in the frame's span.  The traces come from row and
    column gathers of U in O(n^2 4^n), with no conjugation matmul.
    Out-of-span components are simply not seen here; use so_membership
    to check for them.
    """
    return _rotation(_checked_unitary(u, n, tol)[0], n)


def so_membership(u: np.ndarray, n: int, tol: float = 1e-8) -> MembershipResult:
    """Decide whether conjugation by U acts as a rotation of the frame span.

    True iff every conjugated frame word decomposes (within tol) over
    the frame words alone and the collected coefficient matrix R is
    orthogonal with determinant +1 within tol.  R is adjoint_rotation's,
    from traces in O(n^2 4^n); the leak comes from the full Pauli tables
    of the conjugated frame words, each U g_a U+ = W W+ - I from a
    half-rank matmul, O(n 8^n) in all.
    """
    u, unitarity = _checked_unitary(u, n, tol)
    r = _rotation(u, n)
    leak = _leak(u, n)
    ortho = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    det_dev = abs(float(np.linalg.det(r)) - 1.0)
    member = leak <= tol and ortho <= tol and det_dev <= tol
    return MembershipResult(member=member, residual=leak, rotation=r, orthogonality=ortho,
                            det_deviation=det_dev, unitarity=unitarity)
