from itertools import product

import pytest

from conftest import dihedral, symmetric3
from oracles import check_generation_criterion, element_set
from quandlekit import finite_quandle as fq
from quandlekit import nilpotency as nil
from quandlekit import kernels, permgroup
from quandlekit.errors import InvalidRange, NotNilpotent, TargetNotNilpotent


def test_q23_invariants():
    Q = fq.q_mn(2, 3)
    assert nil.inn_group(Q).order() == 6
    assert nil.nilpotency_class(Q) == 2
    assert nil.reductive_class(Q) == 2
    assert nil.is_c_reductive(Q, 2) and not nil.is_c_reductive(Q, 1)


def test_trivial_quandles_are_1_nilpotent():
    for n in (1, 2, 5):
        Q = fq.trivial(n)
        assert nil.nilpotency_class(Q) == 1
        assert nil.reductive_class(Q) == 1
        assert nil.weak_class(Q) == 1


def test_conj_s3_not_nilpotent():
    Q = fq.conj_quandle(symmetric3())
    assert nil.nilpotency_class(Q) is None
    assert nil.reductive_class(Q) is None
    with pytest.raises(NotNilpotent):
        nil.covering_chain(Q)


def test_reductivity_matches_group_route(corpus):
    """c-reductive identity holds iff the quandle class is <= c."""
    for Q in corpus:
        cls = nil.nilpotency_class(Q)
        for c in range(1, 5):
            expected = cls is not None and cls <= c
            assert nil.is_c_reductive(Q, c) == expected, (Q.table, c)
        assert nil.reductive_class(Q) == nil.weak_class(Q) == cls, Q.table


def test_identity_route_is_exact_past_class_6():
    """R128 has class 7; the identity route used to stop at c = 6."""
    Q = _dihedral_quandle(128)
    assert nil.reductive_class(Q) == nil.weak_class(Q) == nil.nilpotency_class(Q) == 7


def test_weak_nilpotency_is_implied(corpus):
    """c-reductive implies weakly c-nilpotent everywhere in the corpus."""
    for Q in corpus:
        for c in range(1, 4):
            if nil.is_c_reductive(Q, c):
                assert nil.is_weakly_c_nilpotent(Q, c)


def test_witness_validity(corpus):
    def left(Q, tup):
        acc = tup[0]
        for q in tup[1:]:
            acc = Q.op(acc, q)
        return acc

    for Q in corpus[:20]:
        for c in (1, 2):
            w = nil.c_reductive_witness(Q, c)
            if w is not None:
                assert left(Q, w) != left(Q, w[1:])
            ww = nil.weak_witness(Q, c)
            if ww is not None:
                x1, x1p, *rest = ww
                assert left(Q, (x1, *rest)) != left(Q, (x1p, *rest))


def test_universal_quotient_is_universal():
    """Q/Gamma_c is the largest c-nilpotent quotient: any morphism from Q
    onto a c-nilpotent quandle factors through it."""
    Q = fq.q_mn(2, 2)
    quot, cong = nil.universal_nilpotent_quotient(Q, 1)
    assert quot == fq.trivial(2)
    for target in [fq.trivial(1), fq.trivial(2)]:
        for m in product(range(target.n), repeat=Q.n):
            try:
                f = fq.QuandleMorphism(Q, target, m)
            except ValueError:
                continue
            # 1-nilpotent target: map must be constant on cong classes
            for x in range(Q.n):
                for y in range(Q.n):
                    if cong.class_of[x] == cong.class_of[y]:
                        assert f.map[x] == f.map[y]


def test_universal_quotient_rejects_class_below_one():
    Q = fq.q_mn(2, 3)
    for c in (0, -1, -5):
        with pytest.raises(InvalidRange):
            nil.universal_nilpotent_quotient(Q, c)


def test_universal_quotient_past_the_series_end():
    """Gamma_c stops changing once the series stabilizes."""
    Q = fq.q_mn(2, 3)
    assert nil.universal_nilpotent_quotient(Q, 9)[0] == Q
    s3 = fq.conj_quandle(symmetric3())
    # Gamma_2 = Gamma_3 = ... = A3, whose orbits are {e}, the transpositions
    # and the two 3-cycles
    quot9, _ = nil.universal_nilpotent_quotient(s3, 9)
    assert quot9.n == 4
    assert quot9 == nil.universal_nilpotent_quotient(s3, 2)[0]


def test_universal_quotient_class_drops():
    Q = fq.conj_quandle(dihedral(4))
    cls = nil.nilpotency_class(Q)
    assert cls is not None and cls >= 2
    for c in range(1, cls + 1):
        quot, _ = nil.universal_nilpotent_quotient(Q, c)
        qcls = nil.nilpotency_class(quot)
        assert qcls is not None and qcls <= c


def test_covering_chain_structure(corpus):
    for Q in corpus:
        cls = nil.nilpotency_class(Q)
        if cls is None or Q.n > 8:
            continue
        chain = nil.covering_chain(Q)
        assert len(chain) == cls
        assert chain[0].source == Q
        assert chain[-1].target == fq.trivial(1)
        for arrow in chain:
            assert arrow.is_surjective()
            assert fq.is_covering(arrow), (Q.table, arrow.map)
        for a, b in zip(chain, chain[1:]):
            assert a.target == b.source


def test_conj_d8_has_class_3():
    Q = fq.conj_quandle(dihedral(8))
    assert nil.nilpotency_class(Q) == 3
    chain = nil.covering_chain(Q)
    assert len(chain) == 3
    sizes = [arrow.source.n for arrow in chain] + [1]
    assert sizes[0] == 16 and sizes[-2:] == [sizes[-2], 1]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_generation_criterion(corpus):
    """For nilpotent quandles: S generates iff it meets every orbit."""
    for Q in corpus:
        if Q.n > 5:
            continue
        if nil.nilpotency_class(Q) is not None:
            assert check_generation_criterion(Q), Q.table
    # and the criterion can fail for non-nilpotent quandles: in conj(S3)
    # one element per conjugacy class need not generate
    s3 = fq.conj_quandle(symmetric3())
    found_gap = False
    k = fq.orbits(s3).num_classes
    from itertools import combinations

    for S in combinations(range(s3.n), k):
        if nil.meets_every_orbit(s3, S) and not nil.generates(s3, S):
            found_gap = True
            break
    # S3 is generated by any transposition + any 3-cycle, so here the
    # criterion actually holds; just check both predicates run
    assert found_gap or check_generation_criterion(s3)


def test_residual_nilpotency(corpus):
    assert nil.residually_nilpotent(fq.q_mn(3, 4))
    assert not nil.residually_nilpotent(fq.conj_quandle(symmetric3()))
    for Q in corpus:
        if nil.nilpotency_class(Q) is not None:
            assert nil.residually_nilpotent(Q)


def test_surjectivity_criterion_matches_brute_force(corpus):
    for Q in corpus:
        if Q.n > 4:
            continue
        for target in (fq.trivial(2), fq.q_mn(2, 2)):
            for m in product(range(target.n), repeat=Q.n):
                try:
                    f = fq.QuandleMorphism(Q, target, m)
                except ValueError:
                    continue
                assert nil.surjectivity_criterion(f) == f.is_surjective()


def test_surjectivity_criterion_rejects_bad_target():
    s3 = fq.conj_quandle(symmetric3())
    f = fq.QuandleMorphism(s3, s3, range(s3.n))
    with pytest.raises(TargetNotNilpotent):
        nil.surjectivity_criterion(f)


def test_analyze_report():
    rep = nil.analyze(fq.q_mn(2, 3))
    assert rep.inn_order == 6
    assert rep.inn_class == 1
    assert rep.quandle_class == 2
    assert rep.reductive_class == 2
    assert rep.weak_class == 2
    assert rep.residually_nilpotent
    assert rep.covering_chain_lengths == [5, 2, 1]
    rep = nil.analyze(fq.conj_quandle(symmetric3()))
    assert rep.quandle_class is None
    assert rep.covering_chain_lengths == []
    assert not rep.residually_nilpotent


def test_analyze_matches_public_functions(corpus):
    for Q in corpus:
        cls = nil.nilpotency_class(Q)
        chain = [] if cls is None else [a.source.n for a in nil.covering_chain(Q)] + [1]
        expected = nil.NilpotencyReport(
            inn_order=nil.inn_group(Q).order(),
            inn_class=permgroup.nilpotency_class(nil.inn_group(Q)),
            quandle_class=cls,
            reductive_class=nil.reductive_class(Q),
            weak_class=nil.weak_class(Q),
            residually_nilpotent=nil.residually_nilpotent(Q),
            covering_chain_lengths=chain,
        )
        assert nil.analyze(Q) == expected, Q.table


def _dihedral_quandle(n):
    return fq.validate([[(2 * x - y) % n for y in range(n)] for x in range(n)])


@pytest.mark.parametrize("name", ["q23", "R8", "conjS3"])
def test_analyze_builds_one_series_and_one_inner_group(monkeypatch, name):
    """One series, one walk and one enumeration of Inn Q per analyze.  The
    series still goes through lower_central_series and normal_closure,
    which perfbench's classify workload requires to be called (CALLED_ON
    in perfbench/test_perfbench.py)."""
    Q = {
        "q23": fq.q_mn(2, 3),
        "R8": _dihedral_quandle(8),  # class 3
        "conjS3": fq.conj_quandle(symmetric3()),
    }[name]
    inn = element_set(nil.inn_group(Q).elements())
    series_calls = []
    closures = []
    enumerated = []
    walks = []
    lcs = permgroup.lower_central_series
    closure = permgroup.normal_closure
    elements = permgroup.PermGroup.elements

    class CountingWalk(kernels._Walk):
        def __init__(self, table):
            walks.append(table)
            super().__init__(table)

    def counting_lcs(G):
        series_calls.append(G)
        return lcs(G)

    def counting_closure(S, G):
        closures.append(G)
        return closure(S, G)

    def counting_elements(self, cap=None):
        fresh = self._elements is None
        result = elements(self, cap)
        if fresh:
            enumerated.append(element_set(result))
        return result

    monkeypatch.setattr(permgroup, "lower_central_series", counting_lcs)
    monkeypatch.setattr(permgroup, "normal_closure", counting_closure)
    monkeypatch.setattr(permgroup.PermGroup, "elements", counting_elements)
    monkeypatch.setattr(kernels, "_Walk", CountingWalk)
    report = nil.analyze(Q)
    assert report.inn_order == len(inn)
    assert len(series_calls) == 1
    assert closures
    assert len(walks) == 1
    assert sum(group == inn for group in enumerated) == 1
    if name == "q23":
        # Inn Q and the trivial Gamma_2 (the parent enumerated 10 groups)
        assert len(enumerated) == 2
