"""Dense 2^n x 2^n realization: matrices, pulses, schedules, rotations.

Plain numpy on one rule over pauli's word bits, qubit 0 the top bit:
W(x, z)[c ^ x, c] = i^|x&z| (-1)^|c&z| (Aaronson & Gottesman,
arXiv:quant-ph/0406196).  With a cached table of |a&b| mod 4 it gives
words as signed permutations, Pauli coefficients as a table [x, z] (a
gather and one +-1 sign-matrix product, O(8^n) under the n <= 8 cap)
and to_matrix, whose sign product covers only the x a sum uses: O(4^n)
per word, O(8^n) for a full sum.  A schedule is planned first: one pass
in integers groups its pulses into windows of at most three adjacent
qubits, each window's product is built in batched array steps from one
read-only table of the 64 words of a three-qubit frame, and each window
reaches U as one gate, one batched matmul.  A wider word W takes U to
cos(t) U + i sin(t) W U in place, O(4^n), from W's rows and row phases,
built once per call for each distinct word.  Every pulse, window or wide,
puts its word's sign on its angle t.  _apply(plan, block) is the one
pulse loop: it applies a plan to any (2^n, m) block of columns, and
run_schedule is _apply on the identity.  exp_pulse on a word is the
one-pulse schedule, and on a sum goes through eigh.  The rotation
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
    _pulse_word,
    random_schedule,
    rotation_json_dict,
)
from .generators import GeneratorRef, _frame_bits, parse_generator
from .operators import PauliSum
from .pauli import PauliString, ResourceLimitError, _check_tolerance, _qubits

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
    """Row form of W(x, z): (W M)[r] = phase[r] M[r ^ x], phase[r] = i^(|x&z| + 2|(r^x)&z|).

    No bus pulse reaches it: _gate_plan builds it once per call for each
    distinct wide word, and _window_blocks and _frame_words once per
    cached table.  It is not cached across calls.  A build took 5.0-5.4
    us at n = 4 and 6.6-7.0 us at n = 8, against 5 and 210 us for one
    in-place pulse (best of 7, one BLAS thread, 2-core host).  On warm
    schedules with half the pulses drawn from the chirality, e_{2n-1},
    e_{2n-3}, -Z^n and X...Y and the rest from buses I-III (seven
    alternating pairs against a cache across calls), the five builds
    cost 18-85 us at n = 4 with 30 pulses (slower in 6 of 7 pairs); at
    n = 4 with 200 and at n = 8 with 30 and 200 the two were within the
    host's 30-70 % drift.  A cache bounded by entries would hold 24 MB
    an entry at n = 20.
    """
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
    if n is not None and _qubits(n) != op.n:
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
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    side = mat.shape[0]
    if side < 2 or side & (side - 1):
        raise ValueError(f"side {side} is not a power of two (>= 2)")
    n = side.bit_length() - 1
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
        if n is not None and _qubits(n) != gen.n:
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


# The widest window a gate covers; run_schedule gives the measurements.
_GATE_QUBITS = 3
_FRAME = 2**_GATE_QUBITS  # rows of a window's frame
# Most pulses whose factors run_schedule stacks at once.  With runs padded
# to powers of two that is at most 2,048 blocks of 2 KB, plus half that
# again for the tree's second buffer: about 6 MB at any schedule length.
_GATE_BATCH = 1024


def _support(word: PauliString) -> tuple[int, int]:
    """(top, width) when word acts on qubits top .. top + width - 1 only; (0, 0) for the identity."""
    support = word.x | word.z
    low = (support & -support).bit_length() - 1  # qubit 0 is the top bit
    width = support.bit_length() - low
    return (word.n - low - width, width) if support else (0, 0)


@functools.lru_cache(maxsize=None)
def _window_blocks() -> np.ndarray:
    """Read-only real forms [[Re A, -Im A], [Im A, Re A]] of A = i W(x, z), one per frame word.

    The 4^_GATE_QUBITS words of a _FRAME-row frame, 2 KB each, sit at
    [x << _GATE_QUBITS | z].  A product P of such blocks holds the
    window's gate G as G (x) I = P[:_FRAME, :_FRAME] + i P[_FRAME:, :_FRAME].
    """
    actions = np.zeros((_FRAME * _FRAME, _FRAME, _FRAME), dtype=complex)
    for bits in range(_FRAME * _FRAME):
        rows, phase = _word_action(bits >> _GATE_QUBITS, bits & _FRAME - 1, _GATE_QUBITS)
        actions[bits, np.arange(_FRAME), rows] = 1j * phase
    blocks = np.block([[actions.real, -actions.imag], [actions.imag, actions.real]])
    blocks.flags.writeable = False
    return blocks


def _pulse_in_place(u: np.ndarray, wu: np.ndarray, rows: np.ndarray, phase: np.ndarray, theta: float) -> None:
    """Apply one pulse to u in place: a word's row form (rows, phase), its signed angle; wu is scratch."""
    # rows is a permutation; mode="clip" skips the bounds check and the
    # buffered copy the default mode makes for out= (3x faster at n = 8).
    np.take(u, rows, axis=0, out=wu, mode="clip")
    wu *= math.sin(theta) * (1j * phase[:, None])
    u *= math.cos(theta)
    u += wu


def _close(plan: list, owner: list, windows) -> None:
    """Append the open windows to the plan and free their qubits."""
    for window in windows:
        plan.append(window)
        owner[window[0]:window[0] + window[1]] = [None] * window[1]


def _plan(spans: list, n: int) -> list:
    """Group pulses into windows [top, width, pulse indices] of at most _GATE_QUBITS qubits, in integers.

    spans holds each pulse's (top, width).  A local pulse joins the open
    windows it overlaps if their union fits the cap; else it keeps the
    one with the most pulses that fits, closes the others, and joins it
    or opens its own.  A wider pulse closes the windows it overlaps and
    enters the plan as its index.  Open windows are disjoint intervals,
    so they commute with each other and with every pulse they miss, and
    the plan lists windows and wide pulses in an order valid for U.
    """
    owner = [None] * n  # the open window on each qubit
    plan = []
    for index, (top, width) in enumerate(spans):
        end = top + width
        if 0 < width <= _GATE_QUBITS and owner[top] is not None and owner[top] is owner[end - 1]:
            owner[top][2].append(index)  # the one window it overlaps covers it
            continue
        hit = []
        for window in owner[top:end]:
            if window is not None and (not hit or window is not hit[-1]):
                hit.append(window)
        if not 0 < width <= _GATE_QUBITS:
            _close(plan, owner, hit)
            plan.append(index)
            continue
        if hit and max(end, hit[-1][0] + hit[-1][1]) - min(top, hit[0][0]) > _GATE_QUBITS:
            fits = [w for w in hit if max(end, w[0] + w[1]) - min(top, w[0]) <= _GATE_QUBITS]
            keep = max(fits, key=lambda w: len(w[2]), default=None)
            _close(plan, owner, [w for w in hit if w is not keep])
            hit = [keep] if fits else []
        hit = hit or [[top, width, []]]
        window, low, high = hit[0], min(top, hit[0][0]), max(end, hit[-1][0] + hit[-1][1])
        for other in hit[1:]:
            window[2] += other[2]
        window[:2] = low, high - low
        window[2].append(index)
        owner[low:high] = [window] * (high - low)
    _close(plan, owner, [window for q, window in enumerate(owner) if window is not None and window[0] == q])
    return plan


def _gate_plan(pulses, n: int) -> list:
    """_plan of the pulses with each window's gate appended and each wide pulse as (rows, phase, angle).

    Every angle is signed by its word.  Each distinct generator is
    resolved, and each distinct wide word's row form built, once per
    call, and no numpy call is made per pulse.  Windows go to
    _append_gates in batches of at most _GATE_BATCH pulses, and a longer
    window is split into consecutive windows on the same qubits, so the
    factor stack stays small whatever the schedule's length.
    """
    refs = {}  # each distinct generator, hashed once per pulse
    word_of = [refs.setdefault(ref, len(refs)) for ref, _ in pulses]
    words = [_pulse_word(ref) for ref in refs]
    spans = [_support(word) for word in words]
    signs = [word.phase.real for word in words]
    # A word's sign goes on its angle (cos is even, sin odd); the last angle pads runs.
    angles = np.array([theta * signs[word] for (_, theta), word in zip(pulses, word_of)] + [0.0])
    word_bits = [(word.x, word.z) for word in words]
    bits = [word_bits[word] for word in word_of]
    actions = {}  # each distinct wide word's (rows, phase), built on its first pulse
    plan, batch, count = [], [], 0
    for entry in _plan([spans[word] for word in word_of], n):
        if type(entry) is int:
            if bits[entry] not in actions:
                actions[bits[entry]] = _word_action(*bits[entry], n)
            plan.append((*actions[bits[entry]], angles[entry]))
            continue
        for start in range(0, len(entry[2]), _GATE_BATCH):
            window = [entry[0], entry[1], entry[2][start:start + _GATE_BATCH]]
            if count + len(window[2]) > _GATE_BATCH:
                _append_gates(angles, bits, n, batch)
                batch, count = [], 0
            plan.append(window)
            batch.append(window)
            count += len(window[2])
    if batch:
        _append_gates(angles, bits, n, batch)
    return plan


def _append_gates(angles: np.ndarray, bits: list, n: int, windows: list) -> None:
    """Append each window's gate to it: the product of its pulses' factors, later ones on the left.

    A pulse's factor is cos(t) I + sin(t) A, t its signed angle and A the
    _window_blocks block at the word's bits (x, z) in the window's frame,
    x << _GATE_QUBITS >> (n - top): one gather from the 64-word table.
    Each window's run of factors is padded to a power of two with
    zero-angle factors, the identity whatever block they gather, and runs
    are sorted longest first, so each level of the pairwise product tree
    is one batched matmul over a prefix.
    """
    windows = sorted(windows, key=lambda w: -len(w[2]))
    # angles[-1] is 0: the padding factor.
    blocks, order, sizes = [], [], []
    for top, _, indices in windows:
        drop = n - top  # bits below the window's frame
        blocks += [(x << _GATE_QUBITS >> drop) << _GATE_QUBITS | z << _GATE_QUBITS >> drop
                   for x, z in map(bits.__getitem__, indices)]
        sizes.append(1 << (len(indices) - 1).bit_length())
        blocks += [0] * (sizes[-1] - len(indices))
        order += indices + [-1] * (sizes[-1] - len(indices))
    angles = angles[order]
    factors = _window_blocks()[blocks]
    factors *= np.sin(angles)[:, None, None]
    factors.reshape(len(blocks), -1)[:, ::2 * _FRAME + 1] += np.cos(angles)[:, None]
    # Levels alternate between two buffers: a fresh array per level cost
    # more in page faults than its products (2-core host).
    spare = np.empty_like(factors[: (len(factors) + len(sizes)) // 2])
    while sizes[0] > 1:
        paired = sum(size for size in sizes if size > 1)
        level = spare[: paired // 2 + len(factors) - paired]
        np.matmul(factors[1:paired:2], factors[:paired:2], out=level[: paired // 2])
        level[paired // 2:] = factors[paired:]
        factors, spare = level, factors
        sizes = [max(size // 2, 1) for size in sizes]
    for window, gate in zip(windows, factors[:, :_FRAME, :_FRAME] + 1j * factors[:, _FRAME:, :_FRAME]):
        window.append(gate)


def run_schedule(schedule: PulseSchedule) -> np.ndarray:
    """Compose a schedule into a unitary; the first pulse is the rightmost factor.

    A plan comes first, as in state-vector gate clustering (Haner &
    Steiger, arXiv:1704.01127): one pass in integers groups the pulses
    into windows of at most _GATE_QUBITS = 3 adjacent qubits (_plan), each
    window's product is built in batched array steps (_gate_plan) from
    one table of the 64 three-qubit words (_window_blocks), and each
    window reaches U as one gate, one batched matmul.  Each distinct
    generator is resolved once per call.  A wider word W (e_k with a Z
    string, the chirality, wide literals, the identity word) takes U to
    cos(t) U + i sin(t) W U after the windows it overlaps, in place: W U
    is U with its rows permuted and scaled by W's phases (_word_action,
    built once per call for each distinct word), and W's sign goes on t
    as in every window, so the pulse costs O(4^n) instead of an O(8^n)
    matmul.  On 200-pulse schedules on buses I,II and I,II,III, seeds 1-3
    (BENCH_23.json, 2-core host, one BLAS thread, medians), that is
    18-28 passes over U at n = 6..8 against 93-112 with every pulse in
    place, and 1.1-1.6 / 2.2-2.7 / 5.3-7.4 ms at n = 6 / 7 / 8 against
    2.2-3.5 / 5.1-7.0 / 27-31 ms in place.  The plan has no size floor:
    at n = 2..5 the same schedules took 0.31-1.24 ms against
    0.92-2.11 ms with every pulse in place (medians of 40 calls).
    Windows of four qubits were 10-70 % slower at n = 5..8: their
    32 x 32 tree products cost more than the passes they save.  The
    loop over the plan is _apply, this picture's one composer: U is the
    plan applied to the identity, and the same call takes any block of
    columns.
    """
    _check_n(schedule.n)
    return _apply(_gate_plan(schedule.pulses, schedule.n), np.eye(2**schedule.n, dtype=complex))


def _apply(plan: list, block: np.ndarray) -> np.ndarray:
    """The product of a _gate_plan applied to a (2^n, m) block: this picture's one pulse loop.

    Each window's gate is one batched matmul over the block, and each
    wide pulse goes through _pulse_in_place.  Any m works, a state being
    m = 1.  A C-contiguous complex block is used as it is and
    overwritten; any other (Fortran-ordered, strided or real) is copied
    first, since reshape must be a view for the matmul to write where
    the next step reads.
    """
    u = np.ascontiguousarray(block, dtype=complex)
    scratch = np.empty_like(u)
    for entry in plan:
        if type(entry) is tuple:
            _pulse_in_place(u, scratch, *entry)
            continue
        top, width, _, gate = entry
        step = 2 ** (_GATE_QUBITS - width)
        shape = (2**top, 2**width, -1)  # the gate on the qubits from top on, one pass over the block
        np.matmul(gate[::step, ::step], u.reshape(shape), out=scratch.reshape(shape))
        u, scratch = scratch, u
    return u


def unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of |U U+ - I| for a square matrix U."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
        raise ValueError(f"U must be a non-empty square matrix, got shape {u.shape}")
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


# Bytes of frame-word rows the readouts build at once.  256 KB keeps a
# block in cache: with 1 MB, R took 13 against 11 ms at n = 8 and 2.1
# against 0.45 ms at n = 6 (2-core host, one BLAS thread).
_BLOCK_BYTES = 2**18


@functools.lru_cache(maxsize=None)
def _frame_words(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only bits x_a, z_a of the frame words, rows r ^ x_a and row phases, one row per word.

    The bits are generators._frame_bits, the layout of gamma_frame(n), whose
    phases are +1.  (g_a M)[r] = row_phase[a, r] * M[rows[a, r]] for any matrix M.
    """
    bits = np.array([_frame_bits(n, a) for a in range(2 * n + 1)])
    rows, row_phase = map(np.array, zip(*(_word_action(x, z, n) for x, z in bits.tolist())))
    for table in (bits, rows, row_phase):
        table.flags.writeable = False
    return bits[:, 0], bits[:, 1], rows, row_phase


def _checked_unitary(u: np.ndarray, n: int, tol: float) -> tuple[np.ndarray, float]:
    """U as a complex array and max |U U+ - I|, after checking tol, n, U's shape, finiteness and unitarity."""
    _check_tolerance(tol)
    n = _qubits(n, "schedule n")
    _check_n(n)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2**n, 2**n):
        raise ValueError(f"U has shape {u.shape}, expected {(2**n, 2**n)} for n={n}")
    if not np.isfinite(u).all():
        raise ValueError("input matrix is not unitary: it has non-finite entries")
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
