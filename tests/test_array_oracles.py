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


def _element_set(G):
    """G's elements as a tuple set, after checking the array's form: read
    only, the smallest unsigned dtype, identity first, no row twice."""
    elems = G.elements()
    assert not elems.flags.writeable
    assert elems.dtype == np.min_scalar_type(max(G.degree - 1, 0))
    assert elems.shape[1:] == (G.degree,) and len(elems) == G.order()
    assert elems[0].tolist() == list(range(G.degree))
    out = oracles.element_set(elems)
    assert len(out) == len(elems)
    return out


def test_elements_match_tuple_bfs(corpus):
    for Q in corpus:
        for G in permgroup.lower_central_series(nilpotency.inn_group(Q)):
            fresh = PermGroup(G.degree, G.generators)
            assert _element_set(fresh) == oracles.elements_bfs(G, G.cap)
    rng = np.random.default_rng(2)
    for _ in range(60):
        degree = int(rng.integers(1, 8))
        gens = [tuple(rng.permutation(degree).tolist()) for _ in range(int(rng.integers(0, 4)))]
        order = len(oracles.elements_bfs(PermGroup(degree, gens), 10**6))
        for cap in {1, max(1, order - 1), order, order + 1}:
            new = _outcome(_element_set, PermGroup(degree, gens, cap=cap))
            old = _outcome(oracles.elements_bfs, PermGroup(degree, gens), cap)
            assert new == old


def _non_members(G, rng):
    """Random permutations, a member with one entry out of range (also past
    the dtype's range, where a wrapping cast would make it a member again)
    and a member with one entry negative."""
    out = [rng.permutation(G.degree).tolist() for _ in range(6)]
    member = G.elements()[-1].tolist()
    for bad in (G.degree, -1, 256 + member[0], 65536 + member[0]):
        out.append([bad] + member[1:])
    return out


def test_contains_matches_element_set(corpus):
    rng = np.random.default_rng(7)
    answers = set()
    for Q in corpus:
        for G in permgroup.lower_central_series(nilpotency.inn_group(Q)):
            members = oracles.elements_bfs(G, G.cap)
            perms = [list(p) for p in sorted(members)] + _non_members(G, rng)
            expected = [tuple(p) in members for p in perms]
            assert G.contains(np.array(perms)).tolist() == expected
            assert [G.contains(p) for p in perms] == expected
            assert [G.contains(tuple(p)) for p in perms] == expected
            answers.update(expected)
        assert G.contains(np.array(perms, dtype=np.int64)[:0]).tolist() == []
    assert answers == {True, False}


def test_normal_closure_matches_conjugate_closure(corpus):
    rng = np.random.default_rng(8)
    orders = set()
    for Q in corpus:
        G = nilpotency.inn_group(Q)
        elems = sorted(oracles.elements_bfs(G, G.cap))
        subsets = [[elems[int(i)] for i in rng.choice(len(elems), k, replace=False)]
                   for k in (1, 2, 3) if k <= len(elems)]
        subsets.append([])
        if 2 <= Q.n <= 6:
            # outside G, so the closure leaves it; conjugates of a
            # transposition by a cycle take more than one round
            subsets.append([tuple(rng.permutation(Q.n).tolist()) for _ in range(2)])
            subsets.append([(1, 0) + tuple(range(2, Q.n))])
        for S in subsets:
            N = permgroup.normal_closure(S, G)
            assert _element_set(N) == oracles.normal_closure_conjugates(S, G)
            orders.add(N.order())
    assert len(orders) > 5


def _subgroups(Q, rng):
    """Subgroups of Sym(Q): the terms of Inn Q's series, and subgroups
    generated by one or two rows, by a row and a random permutation (in
    both orders) or by a random permutation."""
    yield from permgroup.lower_central_series(nilpotency.inn_group(Q))
    for k in (1, 2):
        rows = rng.choice(Q.n, min(k, Q.n), replace=False)
        yield PermGroup(Q.n, [Q.row(int(x)) for x in rows])
    row, perm = Q.row(int(rng.integers(Q.n))), tuple(rng.permutation(Q.n).tolist())
    yield PermGroup(Q.n, [row, perm])
    yield PermGroup(Q.n, [perm, row])
    yield PermGroup(Q.n, [perm])


def test_normality_witness_matches_loops(corpus):
    rng = np.random.default_rng(9)
    witnesses = 0
    for Q in _racks(corpus):
        for G in _subgroups(Q, rng):
            witness = oracles.normality_witness_loops(Q, G)
            outcome = _outcome(fq.quotient_by_subgroup, Q, G)
            if witness is None:
                # the orbits of G; on a rack they need not be a congruence
                cong = fq.Congruence(Q, oracles.group_orbit_classes_loops(Q, G))
                expected = _outcome(fq.quotient_by_congruence, Q, cong)
                if isinstance(expected[0], str):
                    assert outcome == expected
                else:
                    assert outcome[0] == expected[0] and outcome[1].class_of == cong.class_of
            else:
                text = f"subgroup not normalized by inner group, witness {witness}"
                assert outcome == ("NotNormalized", text)
                witnesses += 1
    assert witnesses > 20


def _mutations(text, rng):
    """text, and copies with one token, line or comment changed: spellings
    int() reads but str() does not write, non-integers, entries out of
    range, rows too long or short, lines added or dropped."""
    lines = text.splitlines()
    yield text
    spellings = ["+1", "07", "-0", "x", "1.0", "1_0", "\u0663", "-1"]
    for _ in range(12):
        out = list(lines)
        i = int(rng.integers(len(out)))
        tokens = out[i].split()
        kind = int(rng.integers(6))
        if kind == 0 and tokens:
            j = int(rng.integers(len(tokens)))
            tokens[j] = spellings[int(rng.integers(len(spellings)))]
        elif kind == 1 and tokens:
            tokens[int(rng.integers(len(tokens)))] = str(len(lines) - 1 + int(rng.integers(2)))
        elif kind == 2:
            tokens = tokens[:-1] if rng.integers(2) else tokens + ["0"]
        elif kind == 3:
            out.insert(i, "# comment" if rng.integers(2) else "")
        elif kind == 4:
            del out[i]
        else:
            out.insert(i, out[i])
        if kind in (0, 1, 2):
            out[i] = " ".join(tokens) + (" # note" if rng.integers(2) else "")
        yield "\n".join(out) + "\n"


def test_parse_and_dump_match_int_path(corpus):
    rng = np.random.default_rng(10)
    racks = [fq.trivial(0)] + _racks(corpus)[::3] + [fq.q_mn(34, 35)]
    kinds = set()
    for Q in racks:
        text = fq.dump_rack(Q)
        assert text == oracles.dump_rack_str(Q)
        for mutated in _mutations(text, rng):
            for require in (False, True):
                new = _outcome(fq.parse_rack, mutated, require)
                old = _outcome(oracles.parse_rack_int, mutated, require)
                if isinstance(old, tuple):
                    assert new == old
                    kinds.add(old[1].split(": ")[-1].split(" ")[0])
                else:
                    assert np.array_equal(new.table, old.table)
                    assert new.is_quandle_flag == old.is_quandle_flag
                    kinds.add("table")
    assert kinds == {"table", "empty", "first", "expected", "entry", "non-integer",
                     "rack", "idempotence"}


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
