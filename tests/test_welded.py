import gc
import random

import pytest

from conftest import symmetric3
from oracles import first_moving_braid
from quandlekit import finite_quandle as fq
from quandlekit import nilpotency as nil
from quandlekit import welded as wd
from quandlekit.errors import (
    BudgetExceeded,
    InvalidRange,
    NotInvertibleRepresentation,
    ParseError,
)


def test_generator_images():
    k = wd.K(1, 2, 2)
    assert k.image(1) == (2, 1, -2)
    assert k.image(2) == (2,)
    t = wd.tau(1, 2)
    assert t.image(1) == (2,) and t.image(2) == (1,)
    s = wd.crossing(1, 2)
    assert s.image(1) == (1, 2, -1) and s.image(2) == (1,)


def test_identity_and_equality():
    e = wd.BasisConjAuto.identity(3)
    assert e.is_identity()
    k = wd.K(1, 2, 3)
    assert not k.is_identity()
    assert wd.compose(k, wd.K_inv(1, 2, 3)).is_identity()
    assert wd.compose(wd.tau(1, 3), wd.tau(1, 3)).is_identity()
    # sigma_i and tau_i * K... relation: s_i = t_i composed with K_{i+1,i}?
    # just check s1 s1^-1 = id
    assert wd.compose(wd.crossing(1, 3), wd.crossing_inv(1, 3)).is_identity()


def test_invert_matches_compose():
    rng = random.Random(5)
    gens = list(wd.generators(3).values())
    for _ in range(30):
        beta = wd.BasisConjAuto.identity(3)
        for _ in range(rng.randrange(1, 5)):
            beta = wd.compose(beta, rng.choice(gens))
        inv = wd.invert(beta)
        assert wd.compose(beta, inv).is_identity()
        assert wd.compose(inv, beta).is_identity()


def test_invert_needs_provenance():
    raw = wd.BasisConjAuto(2, (0, 1), [(2,), ()])
    with pytest.raises(NotInvertibleRepresentation):
        wd.invert(raw)


def test_parse_braid():
    beta = wd.parse_braid("K12 t1 s2^-1", 3)
    manual = wd.compose(
        wd.compose(wd.K(1, 2, 3), wd.tau(1, 3)), wd.crossing_inv(2, 3)
    )
    assert beta == manual
    assert wd.parse_braid("", 2).is_identity()
    with pytest.raises(ParseError):
        wd.parse_braid("K11", 2)
    with pytest.raises(ParseError):
        wd.parse_braid("K13", 2)
    with pytest.raises(ParseError):
        wd.parse_braid("q1", 2)
    with pytest.raises(ParseError):
        wd.parse_braid("t2", 2)


def test_action_worked_example():
    Q = fq.q_12()
    out = wd.act_tuple(wd.K(1, 2, 2), Q, (1, 0))
    # x1 -> x2 x1 x2^-1: first colour becomes q2 acting on q1, i.e. q2 |> q1
    assert out == (Q.op(0, 1), 0)
    assert out == (2, 0)


def test_action_is_antihomomorphism_free():
    """act(compose(a, b)) = act(a) after act(b) on colour tuples."""
    rng = random.Random(6)
    Q = fq.q_mn(2, 3)
    gens = list(wd.generators(3).values())
    for _ in range(40):
        a = rng.choice(gens)
        b = rng.choice(gens)
        ab = wd.compose(a, b)
        tup = tuple(rng.randrange(Q.n) for _ in range(3))
        lhs = wd.act_tuple(ab, Q, tup)
        rhs = wd.act_tuple(b, Q, wd.act_tuple(a, Q, tup))
        assert lhs == rhs, (a.ws, b.ws, tup)


def test_action_preserved_by_morphisms():
    """Colouring action commutes with quandle morphisms (naturality)."""
    Q = fq.q_mn(2, 3)
    cong = fq.orbits(Q)
    T = fq.trivial(2)
    f = fq.QuandleMorphism(Q, T, cong.class_of)
    rng = random.Random(7)
    gens = list(wd.generators(2).values())
    for _ in range(30):
        beta = wd.compose(rng.choice(gens), rng.choice(gens))
        tup = tuple(rng.randrange(Q.n) for _ in range(2))
        pushed = tuple(f.map[q] for q in wd.act_tuple(beta, Q, tup))
        acted = wd.act_tuple(beta, T, tuple(f.map[q] for q in tup))
        assert pushed == acted


def test_act_wrapper():
    Q = fq.q_12()
    col = wd.Colouring(Q, (1, 0))
    out = wd.act(wd.K(1, 2, 2), col)
    assert out.quandle is Q and out.tuple == (2, 0)


def test_weight_c_commutators_cached():
    a = wd.weight_c_commutators(2, 2)
    b = wd.weight_c_commutators(2, 2)
    assert a is b
    assert all(not beta.is_identity() for beta in a)
    assert wd.weight_c_commutators(2, 1)  # the K_ij themselves


def test_weight_c_commutators_reject_weight_below_one():
    for c in (0, -2):
        with pytest.raises(InvalidRange):
            wd.weight_c_commutators(3, c)


def test_detector_matches_braid_scan(corpus):
    """The permutation walk flags the same first braid as evaluating every
    braid word on Q^n, and its witness is re-verified."""
    cases = 0
    for Q in corpus:
        for c in (2, 3):
            n = c + 1
            if Q.n ** n > 5000:
                continue
            cases += 1
            braids = wd.weight_c_commutators(n, c)
            ok, witness = wd.gamma_c_acts_trivially(Q, n, c)
            expected = first_moving_braid(Q, n, c)
            assert ok == (expected is None), (Q.table, c)
            if not ok:
                beta, tup = witness
                assert [k for k, b in enumerate(braids) if b is beta] == [expected]
                assert wd.act_tuple(beta, Q, tup) != tup
    assert cases == 122


def test_detector_never_reports_an_unconfirmed_witness(monkeypatch):
    # every braid fixes every tuple of a trivial quandle
    monkeypatch.setattr(wd.kernels, "first_moving_commutator", lambda perms, tree: 0)
    with pytest.raises(RuntimeError):
        wd.gamma_c_acts_trivially(fq.trivial(3), 3, 2)


def test_detector_on_fewer_than_two_strands():
    """No K_ij exist, so nothing can move a tuple."""
    R3 = fq.validate([[(2 * x - y) % 3 for y in range(3)] for x in range(3)])
    for n in (0, 1):
        assert wd.weight_c_commutators(n, 2) == []
        assert wd.gamma_c_acts_trivially(R3, n, 2) == (True, None)
        assert wd.gamma_c_acts_trivially(R3, n, 2, mode="sample") == (True, None)


def test_detector_leaves_no_reference_cycles():
    """The permutations a check builds are freed when it returns, not at
    the next full collection."""
    Q = fq.q_mn(2, 3)
    gc.collect()
    gc.disable()
    try:
        wd.gamma_c_acts_trivially(Q, 3, 2)
        wd.gamma_c_acts_trivially(Q, 4, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_detector_matches_nilpotency_class(corpus):
    """Weight-c commutators act trivially on Q^n iff the class is <= c."""
    for Q in corpus:
        cls = nil.nilpotency_class(Q)
        for c in (1, 2, 3):
            n = c + 1
            if Q.n**n > 10**5:
                continue
            ok, witness = wd.gamma_c_acts_trivially(Q, n, c)
            expected = cls is not None and cls <= c
            assert ok == expected, (Q.table, c)
            if not ok:
                beta, tup = witness
                assert wd.act_tuple(beta, Q, tuple(tup)) != tuple(tup)


def test_detector_budget_and_sample_mode():
    Q = fq.conj_quandle([[(a + b) % 3 for b in range(3)] for a in range(3)])
    with pytest.raises(BudgetExceeded):
        wd.gamma_c_acts_trivially(fq.trivial(4), 10, 2, budget=100)
    ok, _ = wd.gamma_c_acts_trivially(Q, 3, 2, mode="sample", budget=500, seed=1)
    assert ok  # conj of abelian group is 2-nilpotent... class 1 here
    s3 = fq.conj_quandle(symmetric3())
    ok, witness = wd.gamma_c_acts_trivially(s3, 3, 2, mode="sample", budget=2000, seed=2)
    assert not ok
    beta, tup = witness
    assert wd.act_tuple(beta, s3, tup) != tup
    with pytest.raises(ValueError):
        wd.gamma_c_acts_trivially(Q, 2, 2, mode="bogus")
    for budget in (0, -1):  # a sample of no tuples proves nothing
        with pytest.raises(InvalidRange):
            wd.gamma_c_acts_trivially(s3, 2, 2, mode="sample", budget=budget)


def test_detector_rejects_weight_below_one():
    for c in (0, -1):
        for mode in ("exhaustive", "sample"):
            with pytest.raises(InvalidRange):
                wd.gamma_c_acts_trivially(fq.q_mn(2, 3), 2, c, mode=mode)
