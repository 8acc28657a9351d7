"""Independent numeric oracles used across the test suite.

Everything here builds matrices from literal 2x2 Paulis and numpy only,
and words from its own bit encoding or letter by letter, deliberately
bypassing the package's own dense backend, closure engines and word
builders, so agreement between the two is a real cross-check and not a
tautology.  The exceptions are earlier engines kept as references for
the ones in the package: closure_general_gram_schmidt brackets with
PauliSum arithmetic and does its Gram-Schmidt on coefficient dicts
instead of numpy rows over a word index, closure_general_float is the
numpy float engine closure_general had before its rank went over F_p,
on the package's word index, verify_car_all_pairs builds every
ordered-pair anticommutator as a PauliSum, and
word_closure_anticommuting_generators is the package's word loop before
it skipped the products another pair reaches, on the package's word
codes and masks.  closure_general_fraction is no exception: it brackets
word strings letter by letter, in exact rationals.
"""

import itertools
import math

import numpy as np

from spinchain import (
    CarReport,
    ClosureReport,
    PauliSum,
    annihilation_operator,
    classify_dimension,
    majorana,
)
from spinchain.closure import _report, _word_closure
from spinchain.pauli import (
    _check_tolerance,
    _qubits,
    anticommutation_masks,
    bits_product,
    code_to_bits,
    word_code,
)

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word, phase=1.0):
    """Dense matrix of a Pauli word (qubit 0 leftmost) times a scalar."""
    out = np.eye(1, dtype=complex)
    for ch in word:
        out = np.kron(out, SIGMA[ch])
    return phase * out


# Letterwise products a*b -> (power of i, letter).  XY = iZ and cyclic,
# reversed order picks up -i; identical letters square to I.
_LETTER_MUL = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("Y", "I"): (0, "Y"), ("Z", "I"): (0, "Z"),
    ("X", "X"): (0, "I"), ("Y", "Y"): (0, "I"), ("Z", "Z"): (0, "I"),
    ("X", "Y"): (1, "Z"), ("Y", "Z"): (1, "X"), ("Z", "X"): (1, "Y"),
    ("Y", "X"): (3, "Z"), ("Z", "Y"): (3, "X"), ("X", "Z"): (3, "Y"),
}


def letter_product(a, b):
    """Reference word product, one letter at a time: (power of i, product word)."""
    exp = 0
    out = []
    for la, lb in zip(a, b, strict=True):
        d, lc = _LETTER_MUL[la, lb]
        exp += d
        out.append(lc)
    return exp % 4, "".join(out)


def kron_bits(word):
    """(x, z) of a word in the package's order, qubit 0 the top bit, read letter by letter."""
    x = int("".join("1" if ch in "XY" else "0" for ch in word), 2)
    z = int("".join("1" if ch in "YZ" else "0" for ch in word), 2)
    return x, z


# The named words as letters, each from its definition: the string
# builders the package used before it built them from bits.


def chain_word(n, k):
    """Chain operator k: Z on qubits 0..m-1, then X (k = 2m) or Y (k = 2m+1) on qubit m."""
    m, r = divmod(k, 2)
    return "Z" * m + "XY"[r] + "I" * (n - m - 1)


def bilinear_word(n, k):
    """Adjacent bilinear k: Z on qubit m (k = 2m) or XX on qubits m, m+1 (k = 2m+1)."""
    m, r = divmod(k, 2)
    return "I" * m + ("XX" if r else "Z") + "I" * (n - m - 1 - r)


def third_word(n):
    """The third-order gate: Y on qubit 1."""
    return "IY" + "I" * (n - 2)


def chirality_word(n):
    """Z on every qubit."""
    return "Z" * n


def frame_word(n, a):
    """Frame word a: i * chain_word(a) * Z^n with its phase set to +1 for a < 2n, Z^n for a = 2n."""
    if a == 2 * n:
        return chirality_word(n)
    exp, word = letter_product(chain_word(n, a), chirality_word(n))
    assert (exp + 1) % 2 == 0, "i e_a Z^n must be Hermitian"
    return word


def compose_pulses(n, pulses):
    """Unitary of a pulse sequence by one dense matmul per pulse, first pulse rightmost.

    pulses holds (word, sign, theta) with sign +1 or -1; each pulse is
    exp(i theta sign W) = cos(theta) I + i sin(theta) sign W.
    """
    eye = np.eye(2**n, dtype=complex)
    u = eye
    for word, sign, theta in pulses:
        u = (np.cos(theta) * eye + 1j * np.sin(theta) * kron_word(word, sign)) @ u
    return u


def dense_of_terms(n, items):
    """Dense matrix of a {word: coeff} mapping or (word, coeff) iterable."""
    if hasattr(items, "items"):
        items = items.items()
    out = np.zeros((2**n, 2**n), dtype=complex)
    for word, coeff in items:
        out += coeff * kron_word(word)
    return out


def all_words(n):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


def random_word(rng, n, exclude_identity=False):
    while True:
        w = "".join(rng.choice("IXYZ") for _ in range(n))
        if exclude_identity and set(w) == {"I"}:
            continue
        return w


def dense_lie_rank(mats, tol=1e-9):
    """Rank of the real Lie algebra generated by Hermitian matrices.

    Gram-Schmidt over vectorized matrices with the trace inner product;
    brackets are C = i*(AB - BA), which is again Hermitian.  Identity
    components are projected out so the rank matches algebras that live
    in the traceless (global-phase-free) space.
    """
    dim = mats[0].shape[0]
    eye = np.eye(dim, dtype=complex)

    def inner(a, b):
        return float(np.real(np.einsum("ij,ij->", a.conj(), b)))

    basis = []

    def add(m):
        v = m - (np.trace(m) / dim) * eye
        for _ in range(2):
            for b in basis:
                v = v - inner(b, v) * b
        nrm = np.sqrt(inner(v, v))
        if nrm > tol:
            basis.append(v / nrm)
            return True
        return False

    for m in mats:
        add(np.asarray(m, dtype=complex))
    processed = 0
    while processed < len(basis):
        end = len(basis)
        for i in range(end):
            for j in range(max(i + 1, processed), end):
                add(1j * (basis[i] @ basis[j] - basis[j] @ basis[i]))
        processed = end
    return len(basis)


def word_basis(n):
    """{word: dense matrix} for all 4^n words, in lexicographic order."""
    return {w: kron_word(w) for w in all_words(n)}


def pauli_coefficients(mat, basis=None):
    """{word: trace(W @ mat) / 2^n} over all 4^n words, one Kronecker matrix each.

    Pass basis=word_basis(n) to reuse the word matrices across calls.
    """
    side = mat.shape[0]
    if basis is None:
        basis = word_basis(side.bit_length() - 1)
    return {w: complex(np.einsum("ij,ji->", m, mat)) / side for w, m in basis.items()}


def frame_readout(u, frame_words):
    """Rotation R and out-of-span leak of conjugation by u over a word frame.

    R[b][a] = Re trace(g_b u g_a u+) / 2^n by trace overlaps; the leak
    is the largest coefficient, from a full per-word decomposition, of
    any conjugated frame word on a word outside the frame.
    """
    dim = u.shape[0]
    basis = word_basis(dim.bit_length() - 1)
    frame = [basis[w] for w in frame_words]
    size = len(frame)
    r = np.empty((size, size))
    leak = 0.0
    for a, g in enumerate(frame):
        conj = u @ g @ u.conj().T
        for b in range(size):
            r[b, a] = np.real(np.einsum("ij,ji->", frame[b], conj)) / dim
        for w, c in pauli_coefficients(conj, basis).items():
            if w not in frame_words:
                leak = max(leak, abs(c))
    return r, leak


def _word_bits(word):
    """(x, z) bit masks of a word: X -> x, Z -> z, Y -> both; qubit 0 is bit 0."""
    x = sum(1 << i for i, ch in enumerate(word) if ch in "XY")
    z = sum(1 << i for i, ch in enumerate(word) if ch in "YZ")
    return x, z


def _bits_word(x, z, n):
    return "".join("IXZY"[((x >> i) & 1) + 2 * ((z >> i) & 1)] for i in range(n))


def closure_strings_all_pairs(n, words):
    """Sorted basis of the string closure by the all-pairs work queue.

    Each round pairs every frontier word with every current member and
    inserts the product of each anticommuting pair, until a round adds
    nothing.  Quadratic in the dimension; kept as the reference for the
    generator-only engine.
    """
    known = {_word_bits(w): w for w in sorted(set(words))}
    frontier = sorted(known.values())
    while frontier:
        members = sorted(known.values())
        member_bits = [_word_bits(w) for w in members]
        new = {}
        for w in frontier:
            x1, z1 = _word_bits(w)
            for (x2, z2), w2 in zip(member_bits, members):
                if w2 == w:
                    continue
                if bin((x1 & z2) ^ (z1 & x2)).count("1") & 1:
                    key = (x1 ^ x2, z1 ^ z2)
                    if key not in known and key not in new:
                        new[key] = _bits_word(*key, n)
        known.update(new)
        frontier = sorted(new.values())
    return tuple(sorted(known.values()))


def word_closure_all_generators(n, words):
    """String closure by the frontier loop that tests every generator.

    The words found in a round form the next frontier; each is multiplied
    by every generator, in sorted word order, and the product of each
    anticommuting pair not yet known is added, until a round adds nothing.
    Returns (sorted basis, rounds, sizes), where sizes[i] is the number of
    words known after the i-th frontier word.  Kept as the reference for
    the engine that visits only the generators a word anticommutes with.
    """
    gens = [_word_bits(w) for w in sorted(set(words))]
    known = set(gens)
    frontier = gens
    rounds = 0
    sizes = []
    while frontier:
        rounds += 1
        new = []
        for x1, z1 in frontier:
            for x2, z2 in gens:
                if bin((x1 & z2) ^ (z1 & x2)).count("1") & 1:
                    key = (x1 ^ x2, z1 ^ z2)
                    if key not in known:
                        known.add(key)
                        new.append(key)
            sizes.append(len(known))
        frontier = new
    return tuple(sorted(_bits_word(x, z, n) for x, z in known)), rounds, sizes


def word_closure_anticommuting_generators(gens):
    """The word loop that brackets each word with every generator it anticommutes with.

    gens are (x, z) bit pairs.  Returns ({code: mask}, rounds) in the
    shape of spinchain.closure._word_closure: keys are pauli.word_code
    values in insertion order, and bit j of a mask says whether the word
    anticommutes with gens[j].  A product inherits mask ^ mask(gens[j]),
    and its set bits are visited lowest first.  Kept as the reference for
    the loop that skips the products an earlier pair reaches.
    """
    codes = [word_code(x, z) for x, z in gens]
    masks = anticommutation_masks(gens, gens)
    known = dict(zip(codes, masks))
    frontier = list(known.items())
    rounds = 0
    while frontier:
        rounds += 1
        new = []
        for code, mask in frontier:
            for j in range(len(gens)):
                if mask >> j & 1:
                    key = code ^ codes[j]
                    if key not in known:
                        known[key] = mask ^ masks[j]
                        new.append((key, known[key]))
        frontier = new
    return known, rounds


def closure_general_gram_schmidt(n, generators, tol=1e-9):
    """Rank-tracked closure of Hermitian PauliSums under C = i*[G, V].

    The same frontier as spinchain.closure_general, but the basis is a
    list of {(x, z): coefficient} dicts: each candidate, a bracket taken
    with PauliSum arithmetic, is projected against every basis vector
    (re-orthogonalized once) in plain float dict arithmetic, unpruned, and
    kept when its residual norm exceeds tol.  PauliSum arithmetic prunes
    coefficients below PRUNE_TOLERANCE, so a Gram-Schmidt step taken with
    it loses orthogonality on ill-conditioned sets.  O(dim^2) dict
    operations; a span past 4^n - 1 raises ValueError.
    """
    basis = []

    def try_add(candidate):
        # Real coefficients throughout (Hermitian inputs, i*[A,B] brackets).
        v = {k: c.real for k, c in candidate.traceless()._terms.items()}
        for _ in range(2):
            for b in basis:
                c = sum(x * v.get(k, 0.0) for k, x in b.items())
                for k, x in b.items():
                    v[k] = v.get(k, 0.0) - c * x
        nrm = math.sqrt(sum(x * x for x in v.values()))
        if nrm > tol:
            basis.append({k: x / nrm for k, x in v.items()})

    for g in generators:
        try_add(g)

    frontier = list(basis)
    rounds = 0
    while frontier:
        rounds += 1
        start = len(basis)
        for v in frontier:
            v = PauliSum.from_bits(n, v)
            for g in generators:
                try_add(1j * g.commutator(v))
            if len(basis) > 4**n - 1:
                raise ValueError(f"closure at n={n} exceeds 4^n - 1 = {4**n - 1} elements")
        frontier = basis[start:]

    dim = len(basis)
    return ClosureReport(n, dim, classify_dimension(n, dim), rounds, dim * len(generators))


def closure_general_float(n, generators, tol=1e-9):
    """Rank-tracked closure of Hermitian PauliSums under C = i*[G, V], in floats.

    The engine spinchain.closure_general replaced, kept as its reference.

    Coordinates are the string closure of the generators' non-identity
    words; a generator term c*W with W*U = i^e K, e odd, maps coordinate
    U to 2(e-2)*c on K.  The identity direction is dropped: brackets never
    produce it.  Each new basis vector is bracketed with every generator
    in one block, projected once onto the orthonormal basis as it stands;
    a bracket with residual norm at most tol is dropped, as a larger span
    could only shrink it.  The rest, in generator order, are projected
    out of the current basis twice and kept when their residual norm
    exceeds tol, an absolute threshold.
    The index counts against MAX_CLOSURE_DIMENSION, so a job whose word
    closure passes it raises ResourceLimitError however small its span.
    A span larger than the index can only come from rounding error
    passing tol, and raises ValueError.
    """
    n = _qubits(n)
    _check_tolerance(tol, "tol")
    if not generators:
        raise ValueError("generator set must be nonempty")
    for g in generators:
        if g.n != n:
            raise ValueError(f"generator acts on {g.n} qubits, expected {n}")
        if not g:
            raise ValueError("generators must be nonzero")
        if not g.is_hermitian:
            raise ValueError("closure generators must be Hermitian (real coefficients)")

    terms = [[(k, c.real) for k, c in sorted(g.traceless().bit_items())] for g in generators]
    words = sorted({k for t in terms for k, _ in t})
    known, _ = _word_closure(n, words)
    columns = sorted((code_to_bits(code), mask) for code, mask in known.items())
    index = {u: col for col, (u, _) in enumerate(columns)}
    size = len(index)
    # The index columns each term word anticommutes with, in column order.
    partners = {w: [] for w in words}
    for col, (u, mask) in enumerate(columns):
        while mask:
            low = mask & -mask
            mask ^= low
            partners[words[low.bit_length() - 1]].append((col, u))
    # All generator actions as one sparse map, generator g's rows offset by g * size.
    entries = [(g * size + index[k], col, 2 * (e - 2) * c) for g, t in enumerate(terms)
               for w, c in t for col, u in partners[w] for e, k in [bits_product(w, u)]]
    rows, cols, vals = np.array(entries).reshape(-1, 3).T
    rows, cols = rows.astype(np.intp), cols.astype(np.intp)

    basis = np.empty((1, size))
    dim = 0

    def try_add(v: np.ndarray) -> None:
        nonlocal basis, dim
        q = basis[:dim]
        for _ in range(2):
            v = v - (q @ v) @ q
        nrm = np.sqrt(v @ v)
        if nrm > tol:
            if dim == size:
                raise ValueError(f"closure at n={n} exceeds its {size}-word index: rounding "
                                 f"error passed tol={tol:g}; retry with a larger tol")
            if dim == len(basis):
                basis = np.concatenate([basis, np.empty_like(basis)])
            basis[dim] = v / nrm
            dim += 1

    for t in terms:
        v = np.zeros(size)
        for w, c in t:
            v[index[w]] = c
        try_add(v)

    start = rounds = 0
    while start < dim:
        rounds += 1
        frontier, start = basis[start:dim], dim
        for v in frontier:
            block = np.bincount(rows, weights=vals * v[cols], minlength=len(terms) * size)
            block = block.reshape(len(terms), size)
            block = block[block.any(axis=1)]  # a generator commuting with v brackets to 0
            q = basis[:dim]
            rest = block - (block @ q.T) @ q
            for bracket in block[np.linalg.norm(rest, axis=1) > tol]:
                try_add(bracket)

    return _report(n, dim, rounds, len(generators))


def closure_general_fraction(n, generators):
    """Exact closure of Hermitian PauliSums under C = i*[G, V], over the rationals.

    The same frontier as spinchain.closure_general, in exact arithmetic:
    each float coefficient is read as a Fraction, a bracket i*[c W, d U]
    with W U = i^e K is -2cd K for e = 1, 2cd K for e = 3 and 0 for even
    e, taken term by term on word strings with letter_product, and the
    basis is a list of rows in insertion order, each reduced against the
    rows before it.  Rows are primitive integer vectors (a rational vector
    scaled by the lcm of its denominators and divided by the gcd of its
    entries), which keeps the entries from growing.  A candidate is
    reduced by every row in that order and kept, as it was found, unless
    it reduces to zero; once the rows span all 4^n - 1 traceless directions,
    none is.  No word index, prime or tolerance; slow past n = 3.
    """
    from fractions import Fraction

    def primitive(v):
        scale = math.lcm(*(c.denominator for c in v.values()))
        ints = {w: int(c * scale) for w, c in v.items()}
        common = 0
        for c in ints.values():
            common = math.gcd(common, c)
            if common == 1:
                return ints
        return {w: c // common for w, c in ints.items()}

    identity = "I" * n
    gens = [{w: Fraction(c.real) for w, c in g.items() if w != identity} for g in generators]
    rows = []  # (pivot word, primitive integer row)

    def try_add(v):
        if len(rows) == 4**n - 1:  # every traceless direction: nothing can be added
            return
        r = {w: c for w, c in v.items() if c}
        r = primitive(r) if r else r
        for pivot, row in rows:
            x = r.get(pivot)
            if x:
                head = row[pivot]
                r = {w: head * c for w, c in r.items()}
                for w, y in row.items():
                    r[w] = r.get(w, 0) - x * y
                r = {w: c for w, c in r.items() if c}
                if not r:
                    return
                r = primitive(r)
        if r:
            rows.append((min(r), r))
            new.append(v)

    new = []
    for g in gens:
        try_add(g)
    rounds = 0
    while new:
        rounds += 1
        frontier, new = new, []
        for v in frontier:
            for g in gens:
                bracket = {}
                for w, c in g.items():
                    for u, d in v.items():
                        e, k = letter_product(w, u)
                        if e & 1:
                            bracket[k] = bracket.get(k, 0) + (e - 2) * 2 * c * d
                try_add(bracket)
    dim = len(rows)
    return ClosureReport(n, dim, classify_dimension(n, dim), rounds, dim * len(generators))


def verify_car_all_pairs(n, inject_fault=False):
    """CarReport from all 3n^2 ordered-pair anticommutators, each a PauliSum.

    The earlier spinchain.verify_car, kept as its reference: same
    relations, order of failures and negative control, no mode budget.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ann = [annihilation_operator(n, k) for k in range(n)]
    if inject_fault:
        ann[0] = PauliSum.from_pauli(majorana(n, 0), 0.5) + PauliSum.identity(n, 0.5j)
    cre = [a.dagger() for a in ann]
    identity = PauliSum.identity(n)

    failures = []
    worst = 0.0
    for k in range(n):
        for j in range(n):
            ann_cre = ann[k].anticommutator(cre[j])
            checks = (
                ("ann-ann", ann[k].anticommutator(ann[j])),
                ("cre-cre", cre[k].anticommutator(cre[j])),
                ("ann-cre", ann_cre - identity if k == j else ann_cre),
            )
            for rel, residue in checks:
                dev = residue.max_coeff()
                worst = max(worst, dev)
                if dev > 0.0:
                    failures.append((rel, (k, j), dev))
    return CarReport(n=n, max_deviation=worst, failures=tuple(failures))
