"""The array and closed-form code of lattice, two_nilpotent and group_model
against the loop versions in tests/oracles.py: the same tables, labels,
verdicts and first witnesses, and the same error texts."""

from itertools import product

import numpy as np

import oracles
from quandlekit import finite_quandle as fq
from quandlekit import group_model as gm
from quandlekit import two_nilpotent as tn
from quandlekit.errors import QuandlekitError
from quandlekit.lattice import IntLattice


def _outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except QuandlekitError as exc:
        return type(exc).__name__, str(exc)


def _same_build(new, old):
    """Equal (rack, labels) results, or equal errors; returns the kind."""
    if isinstance(old[0], str):
        assert new == old
        return old[0]
    assert np.array_equal(new[0].table, old[0].table)
    assert new[0].is_quandle_flag == old[0].is_quandle_flag
    assert new[1] == old[1]
    return "built"


def _triangular_data(rng, k, max_pivot):
    """H_i = <e_i, one row per j != i with pivot d_j at j and small entries
    before it>: the form of the classify workload's data, index prod d_j."""
    Hs = []
    for i in range(k):
        rows = [[int(j == i) for j in range(k)]]
        for j in range(k):
            if j != i:
                row = [int(rng.integers(-3, 4)) if l < j else 0 for l in range(k)]
                row[j] = int(rng.integers(1, max_pivot + 1))
                rows.append(row)
        Hs.append(IntLattice(k, rows))
    return tn.TwoNilpotentData(Hs)


def _random_data(rng, k):
    """H_i = <e_i, 0..k random small rows>: too few rows leave an orbit
    infinite, and large entries give indices past small caps."""
    Hs = []
    for i in range(k):
        rows = [[int(j == i) for j in range(k)]]
        rows += rng.integers(-3, 4, (int(rng.integers(0, k + 1)), k)).tolist()
        Hs.append(IntLattice(k, rows))
    return tn.TwoNilpotentData(Hs)


def _lattice_data():
    """The named families, and seeded triangular and random data on 2-4
    orbits."""
    data = [tn.qmn_data(m, n) for m, n in product(range(1, 7), repeat=2)]
    data += [tn.three_orbit_data(2), tn.three_orbit_data(3)]
    data += [tn.trivial_data(k) for k in range(0, 4)]
    rng = np.random.default_rng(11)
    for _ in range(40):
        data.append(_triangular_data(rng, int(rng.integers(2, 5)), 5))
        data.append(_random_data(rng, int(rng.integers(2, 5))))
    return data


def test_cosets_are_the_bfs_cosets():
    rng = np.random.default_rng(12)
    lattices = [H for D in _lattice_data() for H in D.Hs]
    for _ in range(100):
        n = int(rng.integers(0, 5))
        lattices.append(IntLattice(n, rng.integers(-4, 5, (int(rng.integers(0, n + 2)), n))))
    kinds = set()
    for L in lattices:
        new = _outcome(L.cosets, 150)
        assert new == _outcome(oracles.cosets_bfs, L, 150)
        kinds.add(new[0] if isinstance(new[0], str) else "cosets")
    assert kinds == {"cosets", "CapExceeded", "InfiniteIndex"}


def test_build_quandle_matches_loops():
    kinds = set()
    for D in _lattice_data():
        new = _outcome(tn.build_quandle, D, 120)
        kinds.add(_same_build(new, _outcome(oracles.build_quandle_loops, D, 120)))
    assert kinds == {"built", "CapExceeded", "InfiniteOrbit"}


def test_injectivity_matches_pairs():
    verdicts = set()
    for D in _lattice_data():
        new = _outcome(tn.is_injective_2nilp, D, 120)
        assert new == _outcome(oracles.is_injective_pairs, D, 120)
        verdicts.add(new if isinstance(new, bool) else new[0])
    assert verdicts == {True, False, "CapExceeded", "InfiniteOrbit"}
    for m, n in product(range(1, 8), repeat=2):
        D = tn.qmn_data(m, n)
        assert tn.is_injective_2nilp(D) == oracles.is_injective_pairs(D, 10**6) == (m == n)


def _relabel_group(cayley, rng):
    """An isomorphic Cayley table under a random renaming of the elements,
    so the identity need not be 0."""
    g = len(cayley)
    p = rng.permutation(g)
    out = np.empty((g, g), dtype=np.int64)
    out[np.ix_(p, p)] = p[np.array(cayley)]
    return out.tolist()


def _closure(cayley, gens, identity):
    out = {identity}
    frontier = [identity]
    while frontier:
        frontier = [cayley[x][h] for x in frontier for h in gens if cayley[x][h] not in out]
        out.update(frontier)
    return sorted(out)


def _group_data(groups, rng):
    """Coset data on every group of order <= 8 and on a product of order
    16, relabelled: subgroups generated by one or two random elements, each
    with a z drawn from the subgroup, from the centre or from the whole
    group."""
    from conftest import direct_product

    tables = list(groups.values()) + [direct_product(groups["Z2"], groups["D4"])]
    for cayley in tables:
        cayley = _relabel_group(cayley, rng)
        g = len(cayley)
        e, _ = fq.validate_cayley(cayley)
        centre = [z for z in range(g) if all(cayley[z][x] == cayley[x][z] for x in range(g))]
        for _ in range(8):
            Hs, zs = [], []
            for _ in range(int(rng.integers(1, 4))):
                H = _closure(cayley, rng.integers(0, g, int(rng.integers(1, 3))).tolist(), e)
                pool = (H, centre, range(g))[int(rng.integers(3))]
                Hs.append(H)
                zs.append(int(rng.choice(pool)))
            yield gm.GroupData(cayley, Hs, zs)


def test_coset_model_matches_loops(groups):
    rng = np.random.default_rng(13)
    kinds = set()
    for D in _group_data(groups, rng):
        for rack_mode in (False, True):
            ok, witness = gm.validate_data(D, rack_mode)
            assert (ok, witness) == oracles.validate_data_loops(D, rack_mode)
            if witness is not None:
                assert all(type(v) is int for v in witness[1:])
                kinds.add(witness[0])
            for cap in (10**6, 5):
                new = _outcome(gm.build, D, rack_mode, cap)
                old = _outcome(oracles.coset_build_loops, D, rack_mode, cap)
                kinds.add(_same_build(new, old))
    assert kinds == {"built", "CapExceeded", "InvalidData", "z_not_in_H", "noncommuting"}


def _cayley_mutations(cayley, rng):
    """cayley relabelled at random, and copies with two entries of a row
    swapped, an entry out of range, a row too short, the identity's row
    overwritten, and random tables that keep the identity law at a random
    element."""
    g = len(cayley)
    cayley = _relabel_group(cayley, rng)
    yield cayley
    out = [list(row) for row in cayley]
    a, b, c = (int(v) for v in rng.integers(0, g, 3))
    out[a][b], out[a][c] = out[a][c], out[a][b]
    yield out
    out = [list(row) for row in cayley]
    out[a][b] = g if rng.integers(2) else -1
    yield out
    out = [list(row) for row in cayley]
    out[a] = out[a][:-1]
    yield out
    e, _ = fq.validate_cayley(cayley)
    out = [list(row) for row in cayley]
    out[e] = list(out[(e + 1) % g])
    yield out
    for _ in range(3):
        out = rng.integers(0, g, (g, g))
        e = int(rng.integers(g))
        out[e] = out[:, e] = np.arange(g)
        yield out.tolist()


def test_validate_cayley_matches_loops(groups):
    rng = np.random.default_rng(14)
    kinds = set()
    for cayley in groups.values():
        for mutated in _cayley_mutations(cayley, rng):
            new = _outcome(fq.validate_cayley, mutated)
            assert new == _outcome(oracles.validate_cayley_loops, mutated)
            kinds.add("group" if isinstance(new[0], int) else new[1].split(" ")[0])
    assert _outcome(fq.validate_cayley, []) == ("InvalidGroup", "no identity element")
    assert kinds == {"group", "malformed", "no", "element", "associativity"}
