"""The table kernels against brute-force tuple scans, and their memory use."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from quandlekit import kernels, nilpotency
from quandlekit import finite_quandle as fq
from quandlekit import welded as wd
from quandlekit.errors import InvalidRange


# -- brute-force oracles: every tuple, all at once ----------------------------

def _decode(index, base, length):
    digits = []
    for _ in range(length):
        digits.append(index % base)
        index //= base
    return tuple(digits)


def distributive_oracle(table):
    n = table.shape[0]
    if n == 0:
        return None
    lhs = table[:, table]
    rhs = table[table[:, :, None], table[:, None, :]]
    bad = lhs != rhs
    if not bad.any():
        return None
    flat = int(np.argmax(bad))
    x, rem = divmod(flat, n * n)
    y, z = divmod(rem, n)
    return (x, y, z)


def reductive_oracle(table, c):
    n = table.shape[0]
    if n == 0:
        return None
    grids = np.indices((n,) * (c + 1)).reshape(c + 1, -1)
    a = grids[0]
    for i in range(1, c + 1):
        a = table[a, grids[i]]
    b = grids[1]
    for i in range(2, c + 1):
        b = table[b, grids[i]]
    bad = a != b
    if not bad.any():
        return None
    # np.indices flattens with the first axis slowest
    return tuple(reversed(_decode(int(np.argmax(bad)), n, c + 1)))


def weak_oracle(table, c):
    n = table.shape[0]
    if n == 0:
        return None
    grids = np.indices((n,) * (c + 1)).reshape(c + 1, -1)
    a = grids[0]
    for i in range(1, c + 1):
        a = table[a, grids[i]]
    ref = a.reshape((n,) + (n,) * c)
    bad = ref != ref[0:1]
    if not bad.any():
        return None
    rev = _decode(int(np.argmax(bad)), n, c + 1)
    return (rev[-1], 0) + tuple(reversed(rev[:-1]))


# -- helpers --------------------------------------------------------------------

def _eval_left(table, tup):
    acc = tup[0]
    for q in tup[1:]:
        acc = table[acc, q]
    return acc


def _check_reductive(table, c):
    w = kernels.reductive_witness(table, c)
    assert (w is None) == (reductive_oracle(table, c) is None), (table, c)
    if w is not None:
        assert len(w) == c + 1
        assert _eval_left(table, w) != _eval_left(table, w[1:])


def _check_weak(table, c):
    w = kernels.weak_witness(table, c)
    assert (w is None) == (weak_oracle(table, c) is None), (table, c)
    if w is not None:
        x1, x1p, *rest = w
        assert len(w) == c + 2
        assert _eval_left(table, (x1, *rest)) != _eval_left(table, (x1p, *rest))


def test_distributive_agreement(corpus):
    for Q in corpus:
        assert kernels.distributive_witness(Q.table) is None
    # the hand-made table of the former parity test is a quandle after all
    table = np.array([[0, 1, 2], [2, 1, 0], [0, 1, 2]], dtype=np.int64)
    assert kernels.distributive_witness(table) is None
    assert distributive_oracle(table) is None
    rng = np.random.default_rng(0)
    for _ in range(20):
        table = np.array([rng.permutation(5) for _ in range(5)])
        w = kernels.distributive_witness(table)
        assert w is not None and w == distributive_oracle(table)
        x, y, z = w
        assert table[x, table[y, z]] != table[table[x, y], table[x, z]]


def test_reductive_agreement_and_witness_validity(corpus):
    for Q in corpus:
        for c in (1, 2, 3):
            _check_reductive(Q.table, c)


def test_weak_agreement_and_witness_validity(corpus):
    for Q in corpus:
        for c in (1, 2, 3):
            _check_weak(Q.table, c)


def test_stationary_walk_witnesses():
    """Tables whose distinct maps repeat before depth c still give
    witnesses of full length; arbitrary tables exercise every branch, and
    depths up to 8 on at most 3 elements run past repeats of period 2+."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        table = np.array([rng.permutation(n) for _ in range(n)], dtype=np.int64)
        for c in range(1, 9 if n <= 3 else 6):
            _check_reductive(table, c)
            _check_weak(table, c)


def _dihedral_table(n):
    x, y = np.indices((n, n))
    return (2 * x - y) % n


def test_witnesses_past_a_periodic_repeat():
    """R3's layers repeat with period 2, so c = 10**5 builds three layers
    and reads a full-length witness off the cycle."""
    table = _dihedral_table(3)
    c = 10**5
    found = []
    assert _traced_peak(lambda: found.append(kernels.reductive_witness(table, c))) < 2**20
    assert _traced_peak(lambda: found.append(kernels.weak_witness(table, c))) < 2**20
    red, (x1, x1p, *rest) = found
    assert len(red) == c + 1
    assert _eval_left(table, red) != _eval_left(table, red[1:])
    assert len(rest) == c
    assert _eval_left(table, (x1, *rest)) != _eval_left(table, (x1p, *rest))


def test_class_below_one_is_rejected():
    table = fq.q_mn(2, 3).table
    for c in (0, -1):
        with pytest.raises(InvalidRange):
            kernels.reductive_witness(table, c)
        with pytest.raises(InvalidRange):
            kernels.weak_witness(table, c)
    with pytest.raises(InvalidRange):
        nilpotency.is_c_reductive(fq.q_mn(2, 3), 0)


def _braid_oracle(beta, Q, nstr):
    return [t for t in product(range(Q.n), repeat=nstr) if wd.act_tuple(beta, Q, t) != t]


def test_braid_scan_agreement():
    Q = fq.q_mn(2, 3)
    rows = np.asarray(Q.table)
    rows_inv = np.asarray(Q.inv_table)
    witnesses = []
    for beta, nstr in ((wd.K(1, 2, 2), 2), (wd.commutator(wd.K(1, 2, 3), wd.K(1, 3, 3)), 3)):
        sigma = np.array(beta.sigma, dtype=np.int64)
        letters, offsets = kernels.pack_words(beta.ws)
        w = kernels.braid_fixes_all(rows, rows_inv, sigma, letters, offsets, nstr)
        moved = _braid_oracle(beta, Q, nstr)
        assert (w is None) == (not moved)
        assert w is None or w in moved
        witnesses.append(w)
    assert witnesses[0] is not None  # K_12 moves cross-orbit pairs


def test_first_moving_commutator_on_s3():
    e, a, b = (0, 1, 2), (1, 0, 2), (0, 2, 1)
    perms = np.array([e, a, b])
    assert kernels.first_moving_commutator(perms, []) == 1
    assert kernels.first_moving_commutator(perms[:1], []) is None
    # weight 2: [e, a], [a, a], [a, b], [b, a]; only the last two move
    tree = [([0, 1, 1, 2], [1, 1, 2, 1])]
    assert kernels.first_moving_commutator(perms, tree) == 2
    # weight 3 on [a, a] (trivial, so skipped) and [a, b]: [[a, b], a] moves
    tree.append(([1, 2, 2], [2, 0, 1]))
    assert kernels.first_moving_commutator(perms, tree) == 2


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validate_memory_is_quadratic():
    table = fq.q_mn(150, 150).table
    assert _traced_peak(lambda: fq.validate(table)) < 16 * 2**20


def test_analyze_memory_on_dihedral_9():
    R9 = fq.validate(_dihedral_table(9), require_quandle=True)
    peak = _traced_peak(lambda: nilpotency.analyze(R9))
    assert peak < 16 * 2**20


def test_analyze_memory_on_q_mn_48():
    """Inn Q's 2304 elements are held once, as the uint8 array `elements()`
    returns, next to the set of their row bytes (about 3.3 MB traced)."""
    Q = fq.q_mn(48, 48)
    assert _traced_peak(lambda: nilpotency.analyze(Q)) < 4 * 2**20
