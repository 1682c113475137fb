"""The array code of permgroup, finite_quandle and kernels against the loop
versions in tests/oracles.py: the same sets, the same first witnesses and
the same error texts, on the corpus and on seeded random tables."""

import numpy as np

import oracles
from quandlekit import finite_quandle as fq
from quandlekit import kernels, nilpotency, permgroup
from quandlekit.errors import QuandlekitError
from quandlekit.permgroup import PermGroup


def _outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (QuandlekitError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _relabel(Q, rng):
    """Q with its elements renamed by a random permutation."""
    p = rng.permutation(Q.n)
    table = np.empty_like(Q.table)
    table[np.ix_(p, p)] = p[Q.table]
    return fq.validate(table)


def _racks(corpus):
    """The corpus, a relabelled copy of each, and some permutation racks."""
    rng = np.random.default_rng(1)
    racks = list(corpus) + [_relabel(Q, rng) for Q in corpus]
    for n in range(1, 7):
        racks.append(fq.validate(np.tile(rng.permutation(n), (n, 1))))
    return racks


def _random_tables(rng, count):
    """Square tables with entries in range: random entries, rows drawn from
    one to three random permutations, and corpus-like tables with one row
    replaced or with rows copied from each other."""
    base = [fq.q_mn(1, 2), fq.q_mn(2, 3), fq.q_mn(3, 3), fq.q_mn(1, 5)]
    tables = []
    for i in range(count):
        n = int(rng.integers(1, 7))
        kind = i % 4
        if kind == 0:
            t = rng.integers(0, n, (n, n))
        elif kind == 1:
            perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 4)))]
            t = np.array([perms[int(rng.integers(len(perms)))] for _ in range(n)])
        elif kind == 2:
            t = base[i % len(base)].table.copy()
            t[int(rng.integers(len(t)))] = rng.permutation(len(t))
        else:
            t = base[i % len(base)].table
            t = t[rng.integers(0, len(t), len(t))]
        tables.append(np.asarray(t, dtype=np.int64))
    return tables


def test_elements_match_tuple_bfs(corpus):
    for Q in corpus:
        for G in permgroup.lower_central_series(nilpotency.inn_group(Q)):
            fresh = PermGroup(G.degree, G.generators)
            assert fresh.elements() == oracles.elements_bfs(G, G.cap)
    rng = np.random.default_rng(2)
    for _ in range(60):
        degree = int(rng.integers(1, 8))
        gens = [tuple(rng.permutation(degree).tolist()) for _ in range(int(rng.integers(0, 4)))]
        order = len(oracles.elements_bfs(PermGroup(degree, gens), 10**6))
        for cap in {1, max(1, order - 1), order, order + 1}:
            new = _outcome(PermGroup(degree, gens, cap=cap).elements)
            old = _outcome(oracles.elements_bfs, PermGroup(degree, gens), cap)
            assert new == old


def test_validate_matches_loops():
    rng = np.random.default_rng(3)
    seen = set()
    for table in _random_tables(rng, 800):
        for require in (False, True):
            new = _outcome(fq.validate, table, require)
            if not isinstance(new, tuple):
                new = new.is_quandle_flag
            assert new == _outcome(oracles.check_rack_loops, table, require)
            seen.add(new if isinstance(new, bool) else new[1].split(" fails")[0])
    assert seen == {True, False, "rack axiom 'bijectivity'",
                    "rack axiom 'distributivity'", "idempotence"}


def test_distributivity_on_repeated_rows():
    rng = np.random.default_rng(4)
    failing = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 4)))]
        table = np.array([perms[int(rng.integers(len(perms)))] for _ in range(n)])
        witness = kernels.distributive_witness(table)
        assert witness == oracles.distributive_witness_all_rows(table)
        failing += witness is not None
    assert 100 < failing < 1000


def test_orbits_and_reduced_witness_match_loops(corpus):
    witnesses = set()
    for Q in _racks(corpus):
        assert fq.orbits(Q).class_of == oracles.orbit_classes_loops(Q)
        witness = fq.reduced_witness(Q)
        assert witness == oracles.reduced_witness_loops(Q)
        witnesses.add(witness)
    assert None in witnesses and len(witnesses) > 5


def _partitions(Q, rng):
    yield list(range(Q.n))
    yield [0] * Q.n
    yield list(fq.orbits(Q).class_of)
    for G in permgroup.lower_central_series(nilpotency.inn_group(Q)):
        yield list(fq.quotient_by_subgroup(Q, G)[1].class_of)
    for _ in range(4):
        yield rng.integers(0, int(rng.integers(1, Q.n + 1)), Q.n).tolist()


def test_quotients_match_loops(corpus):
    rng = np.random.default_rng(5)
    kinds = set()
    for Q in _racks(corpus):
        if Q.n == 0:
            continue
        for labels in _partitions(Q, rng):
            cong = fq.Congruence(Q, labels)
            new = _outcome(fq.quotient_by_congruence, Q, cong)
            old = _outcome(oracles.quotient_table_loops, Q, cong)
            if isinstance(old, tuple):
                assert new == old
                kinds.add("error")
            else:
                quot, proj = new
                assert np.array_equal(quot.table, old)
                assert proj.map == cong.class_of
                kinds.add("quotient")
    assert kinds == {"error", "quotient"}


def test_morphisms_match_loops(corpus):
    rng = np.random.default_rng(6)
    racks = _racks(corpus)
    kinds = set()
    for Q in racks:
        targets = [Q, racks[int(rng.integers(len(racks)))], fq.pi0(Q)]
        for T in targets:
            if T.n == 0:
                continue
            maps = [rng.integers(0, T.n, Q.n).tolist() for _ in range(3)]
            maps.append([int(rng.integers(T.n))] * Q.n)
            maps.append(rng.integers(0, T.n, Q.n + 1).tolist())
            if T is Q:
                maps.append(list(range(Q.n)))
            elif T.n == fq.orbits(Q).num_classes:
                maps.append(list(fq.orbits(Q).class_of))
            for f in maps:
                new = _outcome(fq.QuandleMorphism, Q, T, f)
                old = _outcome(oracles.check_morphism_loops, Q, T, f)
                if isinstance(old, tuple):
                    assert new == old
                    kinds.add(old[1].split(" at")[0])
                else:
                    assert new.map == tuple(f)
                    kinds.add("morphism")
    assert kinds == {"morphism", "not a morphism", "map length does not match source size"}
