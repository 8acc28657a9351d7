"""Independent references for checking benchmark outputs.

Nothing here imports spinchain.  Words, frames and matrices are rebuilt
from their textbook definitions (Jordan-Wigner chain, buses, rotation
frame), and unitaries are composed with scipy.linalg.expm, so a defect in
the library cannot hide inside its own check.
"""

from __future__ import annotations

import math

import numpy as np

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def so_dim(n: int) -> int:
    """dim so(2n+1): the closure of buses I+II."""
    return 2 * n * n + n


def su_dim(n: int) -> int:
    """dim su(2^n): the closure of buses I+II+III."""
    return 4**n - 1


def so2n_dim(n: int) -> int:
    """dim so(2n): adjacent bilinears, hopping/pairing bilinears."""
    return 2 * n * n - n


def majorana_word(n: int, k: int) -> str:
    m, r = divmod(k, 2)
    return "Z" * m + ("X" if r == 0 else "Y") + "I" * (n - m - 1)


def bilinear_word(n: int, k: int) -> str:
    m, r = divmod(k, 2)
    if r == 0:
        return "I" * m + "Z" + "I" * (n - m - 1)
    return "I" * m + "XX" + "I" * (n - m - 2)


def bus_words(n: int, bus: str) -> list[str]:
    if bus == "I":
        return [bilinear_word(n, 2 * k) for k in range(n)]
    if bus == "II":
        return [majorana_word(n, 0)] + [bilinear_word(n, 2 * k + 1) for k in range(n - 1)]
    if bus == "III":
        return ["IY" + "I" * (n - 2)]
    raise ValueError(f"unknown bus {bus!r}")


def generator_word(label: str, n: int) -> str:
    """Word named by a CLI generator label: e<k>, d<k>, third, chirality."""
    if label == "third":
        return bus_words(n, "III")[0]
    if label == "chirality":
        return "Z" * n
    if label[0] == "e":
        return majorana_word(n, int(label[1:]))
    if label[0] == "d":
        return bilinear_word(n, int(label[1:]))
    raise ValueError(f"unknown generator label {label!r}")


def frame_words(n: int) -> list[str]:
    """Rotation frame: majorana(a) * Z^n without phase, then Z^n itself.

    Z*X ~ Y and Z*Y ~ X on the active qubit, Z*Z = I on the prefix and
    I*Z = Z on the suffix.
    """
    words = []
    for a in range(2 * n):
        m, r = divmod(a, 2)
        words.append("I" * m + ("Y" if r == 0 else "X") + "Z" * (n - m - 1))
    words.append("Z" * n)
    return words


def word_matrix(word: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in word:
        out = np.kron(out, SIGMA[ch])
    return out


def schedule_unitary(n: int, pulses) -> np.ndarray:
    """exp(i t_m G_m) ... exp(i t_1 G_1) by scipy's matrix exponential.

    pulses is a sequence of (generator label, theta) in time order.
    """
    from scipy.linalg import expm

    u = np.eye(2**n, dtype=complex)
    for label, theta in pulses:
        u = expm(1j * theta * word_matrix(generator_word(label, n))) @ u
    return u


def rotation_and_leak(u: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """R[b, a] = tr(g_b U g_a U+) / 2^n and the largest out-of-span norm.

    The out-of-span part of U g_a U+ is what remains after subtracting
    sum_b R[b, a] g_b; its norm is taken in the normalised
    Hilbert-Schmidt inner product, in which every Pauli word has norm 1.
    """
    frame = [word_matrix(w) for w in frame_words(n)]
    dim = 2**n
    size = 2 * n + 1
    r = np.empty((size, size))
    udag = u.conj().T
    leak = 0.0
    for a in range(size):
        conj = u @ frame[a] @ udag
        for b in range(size):
            r[b, a] = np.real(np.trace(frame[b] @ conj)) / dim
        rest = conj - sum(r[b, a] * frame[b] for b in range(size))
        leak = max(leak, float(np.linalg.norm(rest)) / math.sqrt(dim))
    return r, leak


def rotation_error(r) -> str | None:
    """None when r is a (2n+1)-square special orthogonal matrix to 1e-8."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] % 2 != 1:
        return f"rotation has shape {r.shape}"
    ortho = float(np.max(np.abs(r.T @ r - np.eye(r.shape[0]))))
    if ortho > 1e-8:
        return f"rotation not orthogonal: {ortho:.3e}"
    det = float(np.linalg.det(r))
    if abs(det - 1.0) > 1e-8:
        return f"rotation determinant {det!r} != 1"
    return None
