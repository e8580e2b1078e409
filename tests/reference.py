"""Independent reference implementations used as test oracles.

Everything here is written from the definitions (triple loops, textbook
row reduction, full enumeration) and deliberately shares no code with
the package internals it checks.  The exceptions are the elimination
oracle for whole RM generators (systematize and the functions built on
it) and the Gauss-Jordan inverse (invert), which reduce with gf2.rref
because a 2510 x 4096 generator, or a few hundred rows of an inverse,
is out of reach of python loops; gf2.rref is itself checked against
naive_rref.  The table forms that only tests use (product_table,
column_table, column_product) live here too, so that the package keeps
one packed form of each matrix and one table constructor; a check
matrix's unpacked form is its own H (rmcode.CheckMatrix).
"""

import itertools

import numpy as np

from rmsig import gf2, modcode, rmcode


def naive_mat_mul(a, b):
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(a.shape[1]):
                acc ^= int(a[i, t]) & int(b[t, j])
            out[i, j] = acc
    return out


def vec_product(a, v):
    """a @ v over GF(2) for a binary matrix a and a vector v: the parity
    of the columns of a that v selects.  An entry of v counts by its
    least significant bit after a cast to uint8.  The tests' H e
    reference, which gf2.mat_mul (matrices only) does not share."""
    v = np.asarray(v, dtype=np.uint8)
    picked = np.asarray(a, dtype=np.uint8)[:, np.flatnonzero(v & 1)]
    return (picked.sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)


def identity(n):
    return np.eye(n, dtype=np.uint8)


def product_table(b):
    """The gf2.ProductTable of a binary matrix b, from b's rows packed
    where they lie (gf2.pack_rows), as mat_mul builds one for a call."""
    b = np.asarray(b, dtype=np.uint8)
    return gf2.ProductTable(gf2.pack_rows(b), b.shape[1])


def column_table(a):
    """The gf2.ProductTable of a.T for a binary matrix a, built as a
    public key builds its table of H'^T: from a's packed rows,
    row-major as np.packbits packs them, through gf2.pack_columns."""
    a = np.asarray(a, dtype=np.uint8)
    rows, cols = a.shape
    packed = np.packbits(a, axis=1)
    return gf2.ProductTable(gf2.pack_columns(packed, cols), rows)


def column_product(table, v):
    """a @ v for the matrix a of a column_table, which is v @ a.T,
    through gf2.mat_vec and unpacked; an entry of v counts by its least
    significant bit.

    Raises:
        ValueError: unless v is a vector of a's width.
    """
    v = np.asarray(v)
    if v.shape != (table.shape[0],):
        raise ValueError(f"column table of shape {table.shape} used for {v.shape}")
    return np.unpackbits(gf2.mat_vec(table, np.flatnonzero(v & 1)), count=table.shape[1])


def naive_rref(a):
    """Textbook reduced row echelon form over GF(2), python loops only."""
    m = [list(map(int, row)) for row in np.asarray(a)]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rr = 0
    for col in range(cols):
        pivot = next((r for r in range(rr, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[rr], m[pivot] = m[pivot], m[rr]
        for r in range(rows):
            if r != rr and m[r][col]:
                m[r] = [x ^ y for x, y in zip(m[r], m[rr])]
        rr += 1
        if rr == rows:
            break
    return np.array(m, dtype=np.uint8)


def naive_rank(a):
    return sum(1 for row in naive_rref(a) if row.any())


def systematic_form(g, excluded=()):
    """[I_k | P] of g, or None when no information set avoids excluded.

    The information set is grown greedily: the non-excluded columns in
    ascending order, then the excluded ones, each kept if it raises the
    rank.  The information set goes first in that order, the other
    columns follow in ascending order.  Returns (sys, perm) with new
    column j = old column perm[j].
    """
    g = np.asarray(g, dtype=np.uint8)
    k, n = g.shape
    banned = set(int(j) for j in excluded)
    info = []
    for col in [j for j in range(n) if j not in banned] + sorted(banned):
        if len(info) < k and naive_rank(g[:, info + [col]]) > len(info):
            info.append(col)
    if len(info) < k or banned & set(info):
        return None
    perm = info + [j for j in range(n) if j not in info]
    return naive_rref(g[:, perm]), np.array(perm)


def systematize(g, excluded=()):
    """[I_k | P] of a full-row-rank g by one row reduction, and its perm.

    The excluded columns are moved behind the others and the first k
    independent columns become the information set: they go to the
    front in ascending order, the other columns follow in ascending
    order (new column j is old column perm[j]).  This is the rule
    systematic_form states column by column.

    Raises:
        gf2.RankError: if the non-excluded columns have rank below k.
    """
    g = np.asarray(g, dtype=np.uint8)
    k, n = g.shape
    banned = np.zeros(n, dtype=bool)
    banned[np.asarray(excluded, dtype=np.int64)] = True
    order = np.argsort(banned, kind="stable")
    red, pivots = gf2.rref(np.take(g, order, axis=1))
    info = order[pivots]
    if info.size < k or banned[info].any():
        raise gf2.RankError(f"the non-excluded columns have rank below k={k}")
    perm = np.concatenate([info, np.setdiff1d(np.arange(n), info)])
    return np.take(red, np.argsort(order)[perm], axis=1), perm


def invert(a):
    """Inverse of any square GF(2) matrix, by Gauss-Jordan elimination of
    [a | I].

    Raises:
        ValueError: if a is not square or has no inverse.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    n = a.shape[0]
    red, pivots = gf2.rref(np.concatenate([a, identity(n)], axis=1))
    if pivots[:n] != list(range(n)):
        raise ValueError(f"{n}x{n} matrix is singular over GF(2)")
    return np.ascontiguousarray(red[:, n:])


def random_invertible(n, rng):
    """A random invertible n x n matrix: the product of keygen's factors."""
    lower, upper = (np.unpackbits(t, axis=1, count=n) for t in gf2.random_unit_triangular(n, rng))
    return gf2.mat_mul(lower, upper)


def keygen(m, r, rng):
    """scheme.keygen written the straightforward, unpacked way, from the
    same draws: (H_m's code, H', F, sigma), each matrix unpacked.

    The scrambler's factors are the bits of integers(0, 2) draws cut with
    np.tril and np.triu, F = L^-1 XOR U^-1 is formed by Gauss-Jordan
    (invert), and H' = L U H_m Q by three products of unpacked matrices
    (gf2.mat_mul), Q being sigma's permutation matrix.
    """
    code = rmcode.build(m, r)
    plan = modcode.puncture_plan(code, rng)
    while plan.p == code.d:
        plan = modcode.puncture_plan(code, rng)
    mod = modcode.build_modified(modcode.align_information_set(code, plan.deleted), rng)
    n_k = mod.n - mod.k
    lower = np.tril(rng.integers(0, 2, (n_k, n_k), dtype=np.uint8), -1) | identity(n_k)
    upper = np.triu(rng.integers(0, 2, (n_k, n_k), dtype=np.uint8), 1) | identity(n_k)
    sigma = rng.permutation(mod.n)
    f = invert(lower) ^ invert(upper)
    h_pub = gf2.mat_mul(gf2.mat_mul(gf2.mat_mul(lower, upper), mod.H), perm_matrix(sigma))
    return mod, h_pub, f, sigma


def generator_state(rng):
    """rng's bit generator state, without the 32-bit half uinteger when
    none is pending (has_uint32 = 0): no draw reads it then, and numpy's
    draws and gf2.random_bytes may leave different values there."""
    state = dict(rng.bit_generator.state)
    if not state.get("has_uint32", 1):
        del state["uinteger"]
    return state


def monomial_generator(m, r):
    """Raw k x 2**m generator of RM(r, m): one row per monomial of degree
    <= r, by degree and then lexicographically, evaluated at the points
    0..2**m-1 read little-endian (variable j of point t is bit j of t)."""
    points = np.arange(1 << m)
    rows = []
    for deg in range(r + 1):
        for combo in itertools.combinations(range(m), deg):
            mask = sum(1 << j for j in combo)
            rows.append((points & mask) == mask)
    return np.array(rows, dtype=np.uint8)


def eliminated_code(m, r):
    """(G, info_perm) of RM(r, m) by eliminating the monomial generator."""
    return systematize(monomial_generator(m, r))


def eliminated_with_perm(m, r, info_perm):
    """G of RM(r, m) in a stored column order whose first k columns must be
    an information set, by one elimination (gf2.RankError otherwise)."""
    raw = monomial_generator(m, r)
    k, n = raw.shape
    perm = np.asarray(info_perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("info_perm is not a permutation of the column indices")
    return systematize(np.take(raw, perm, axis=1), excluded=range(k, n))[0]


def generator(code):
    """The systematic generator [I_k | P] of an RmCode, read row by row."""
    return code.rows(np.arange(code.k))


def aligned_parent(mod):
    """The parent RmCode of a modified code, eliminated afresh in the
    code's stored column order: [P^T | I] of the eliminated generator
    [I | P], packed."""
    g = eliminated_with_perm(mod.m, mod.r, mod.info_perm)
    k, n = g.shape
    packed = np.packbits(np.concatenate([g[:, k:].T, identity(n - k)], axis=1), axis=1)
    return rmcode.RmCode(m=mod.m, r=mod.r, packed_H=packed, info_perm=mod.info_perm)


def eliminated_alignment(code, deleted):
    """(G, info_perm, deleted) of a code re-systematized with the deleted
    columns excluded from the information set, by one elimination."""
    deleted = np.asarray(sorted(deleted), dtype=np.int64)
    g_new, order = systematize(generator(code), excluded=deleted)
    inv = np.empty(code.n, dtype=np.int64)
    inv[order] = np.arange(code.n)
    return g_new, code.info_perm[order], np.sort(inv[deleted])


def modified_check(g, deleted, r_block):
    """H_m = [P'^T I 0; R I_p] of a systematic generator g = [I_k | P],
    its deletion set (parity columns) and its p x (n-p) block R, written
    block by block from the definition."""
    g = np.asarray(g, dtype=np.uint8)
    k, n = g.shape
    p = len(deleted)
    top = n - k - p
    kept = np.setdiff1d(np.arange(k, n), deleted)
    h = np.zeros((n - k, n), dtype=np.uint8)
    h[:top, :k] = g[:, kept].T
    h[:top, k : k + top] = np.eye(top, dtype=np.uint8)
    h[top:, : n - p] = r_block
    h[top:, n - p :] = np.eye(p, dtype=np.uint8)
    return h


def same_row_space(a, b):
    """Row spaces match iff the canonical RREFs (nonzero rows) agree."""
    ra, rb = naive_rref(a), naive_rref(b)
    nz = lambda m: [tuple(row) for row in m if any(row)]
    return nz(ra) == nz(rb)


def enumerate_codewords(gen):
    """All distinct words in the row space (dimension must stay small)."""
    gen = np.asarray(gen, dtype=np.uint8)
    k, n = gen.shape
    words = set()
    for msg in range(1 << k):
        word = np.zeros(n, dtype=np.uint8)
        for row in range(k):
            if (msg >> row) & 1:
                word ^= gen[row]
        words.add(tuple(word))
    return [np.array(w, dtype=np.uint8) for w in sorted(words)]


def coset_leader_weights(h):
    """Exact minimum error weight for every syndrome of the check matrix h.

    Sweeps all 2**n vectors; h must have few enough columns for that.
    Returns an array indexed by the syndrome read as a little-endian int.
    """
    h = np.asarray(h, dtype=np.uint8)
    n_k, n = h.shape
    vecs = np.arange(1 << n, dtype=np.uint32)
    bits = ((vecs[:, None] >> np.arange(n, dtype=np.uint32)[None, :]) & 1).astype(np.uint8)
    synd = (bits.astype(np.int64) @ h.T.astype(np.int64)) & 1
    synd_int = synd @ (1 << np.arange(n_k, dtype=np.int64))
    weights = bits.sum(axis=1)
    out = np.full(1 << n_k, n + 1, dtype=np.int64)
    np.minimum.at(out, synd_int, weights)
    return out


def to_eval_order(code, word_sys):
    """A word in systematic column order, moved to evaluation order."""
    out = np.empty_like(word_sys)
    out[code.info_perm] = word_sys
    return out


def modified_generator(mod):
    """G_m = [I_k | P' | R_1^T + P' R_2^T] of a modified code, R = [R_1 | R_2].

    P' is the parent's P minus the deleted columns, from the parent
    eliminated afresh in the stored column order, not read from H_m.  The
    inserted columns are the ones orthogonality with the R rows of H_m
    forces; integer arithmetic, then reduction mod 2.
    """
    k = mod.k
    parent = eliminated_with_perm(mod.m, mod.r, mod.info_perm)
    kept = np.setdiff1d(np.arange(k, mod.n), mod.deleted)
    p_kept = parent[:, kept].astype(np.int64)
    r1, r2 = mod.R[:, :k].astype(np.int64), mod.R[:, k:].astype(np.int64)
    inserted = (r1.T + p_kept @ r2.T) & 1
    eye = np.eye(k, dtype=np.int64)
    return np.concatenate([eye, p_kept, inserted], axis=1).astype(np.uint8)


def punctured_check(mod):
    """Parity check [P'^T | I] of the plain punctured code under mod."""
    top = mod.n - mod.k - mod.p
    return mod.H[:top, : mod.n - mod.p]


def to_hard(soft):
    """Hard decision on soft values; erasures become bit 0."""
    return (np.asarray(soft) < 0).astype(np.uint8)


def int_to_bits(value, n):
    return ((int(value) >> np.arange(n)) & 1).astype(np.uint8)


def min_distance(gen):
    return min(int(w.sum()) for w in enumerate_codewords(gen) if w.any())


def min_weight_of_span(g):
    """Lowest weight of a nonzero word in the row space of g, from every
    combination of a textbook-reduced basis of at most 16 rows."""
    basis = np.array([row for row in naive_rref(g) if row.any()], dtype=np.int64)
    dim = basis.shape[0]
    if not 1 <= dim <= 16:
        raise ValueError(f"a row space of dimension {dim} is not enumerated")
    msgs = (np.arange(1, 1 << dim)[:, None] >> np.arange(dim)) & 1
    return int(((msgs @ basis) & 1).sum(axis=1).min())


def perm_matrix(sigma):
    """Permutation matrix Q with Q[i, sigma[i]] = 1, so (Q v)[i] = v[sigma[i]]."""
    n = len(sigma)
    q = np.zeros((n, n), dtype=np.uint8)
    for i, j in enumerate(sigma):
        q[i, int(j)] = 1
    return q


# The recursive decoder, stated plainly: (u | u+v) recursion with
# concatenated halves, an int32 fast Hadamard transform at every RM(1, m)
# leaf and Wagner's rule at every RM(m-1, m) leaf.  The decoder must give
# the same codeword for every input, ties included.
REF_SOFT_BLOCK = 64


def hadamard_rows(soft):
    y = soft.astype(np.int32)
    rows, n = y.shape
    h = 1
    while h < n:
        y = y.reshape(rows, -1, 2 * h)
        left = y[:, :, :h].copy()
        right = y[:, :, h:]
        y[:, :, :h] = left + right
        y[:, :, h:] = left - right
        y = y.reshape(rows, n)
        h *= 2
    return y


def hadamard_decode(m, soft):
    """RM(1, m) words: the codeword of largest correlation, the smallest
    coefficient index of largest |correlation| on a tie, h_a before -h_a,
    and the zero word when every correlation is 0."""
    spectrum = hadamard_rows(soft)
    peak_at = np.argmax(np.abs(spectrum), axis=1)
    peak = spectrum[np.arange(soft.shape[0]), peak_at]
    points = np.arange(1 << m, dtype=np.uint32)
    words = np.bitwise_count(points[None, :] & peak_at[:, None].astype(np.uint32)) & 1
    return (words ^ (peak < 0)[:, None]).astype(np.uint8)


def wagner_decode(soft):
    """Even-weight words: the hard decision (erasures to bit 0), and in a
    word of odd weight the bit at the smallest |y| flipped, the first
    such position on a tie."""
    words = to_hard(soft)
    for row, word in zip(np.asarray(soft, dtype=np.int64), words):
        if word.sum() % 2:
            weakest = min(range(len(row)), key=lambda j: (abs(row[j]), j))
            word[weakest] ^= 1
    return words


def reference_decode(m, r, soft, signing=False):
    """Codewords (evaluation order) for the soft rows, RM(r, m).

    signing selects the signing path's rule, under which an RM(3, 4)
    leaf decodes its input as it is.  The arithmetic runs in int64, wider
    than the kernel's int8, so an int8 wrap in the kernel shows up as a
    mismatch instead of repeating here."""
    soft = np.asarray(soft, dtype=np.int64)
    # Two kinds of step decode the sign of their input: a (u | u+v) node
    # of length REF_SOFT_BLOCK or more, and a length-16 leaf, RM(1, 4)
    # or, on the plain path, RM(3, 4).  Every other step decodes its
    # input as it is.
    signed_leaves = (1,) if signing else (1, 3)
    if (m == 4 and r in signed_leaves) or (1 < r < m - 1 and (1 << m) >= REF_SOFT_BLOCK):
        soft = np.sign(soft)
    if r == 0:
        totals = soft.sum(axis=1, dtype=np.int64)
        bits = (totals < 0).astype(np.uint8)
        return np.repeat(bits[:, None], 1 << m, axis=1)
    if r == m:
        return to_hard(soft)
    if r == 1:
        return hadamard_decode(m, soft)
    if r == m - 1:
        return wagner_decode(soft)
    half = 1 << (m - 1)
    y1, y2 = soft[:, :half], soft[:, half:]
    v = reference_decode(m - 1, r - 1, y1 * y2, signing)
    flip = 1 - 2 * v.astype(np.int64)
    u = reference_decode(m - 1, r, y1 + y2 * flip, signing)
    return np.concatenate([u, u ^ v], axis=1)
