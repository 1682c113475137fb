import random

import pytest

from oracles import check_free_2nilp_is_Q00
from quandlekit import magnus as mg
from quandlekit.errors import InvalidRange, NotUnit
from quandlekit.lie_trace import TensorElt, is_lie
from quandlekit.words import commutator, concat, free_reduce, invert


def _random_word(rng, n, length):
    return tuple(rng.choice([s * i for i in range(1, n + 1) for s in (1, -1)])
                 for _ in range(length))


def test_generators_and_one():
    one = mg.TruncPoly.one(2, 3)
    g = mg.TruncPoly.gen(1, 2, 3)
    assert mg.mul(one, g) == g
    assert mg.mul(g, mg.inv(g)) == one


def test_embed_is_homomorphism():
    rng = random.Random(0)
    n, c = 2, 4
    for _ in range(1000):
        u = _random_word(rng, n, rng.randrange(0, 5))
        v = _random_word(rng, n, rng.randrange(0, 5))
        assert mg.embed_word(concat(u, v), n, c) == mg.mul(
            mg.embed_word(u, n, c), mg.embed_word(v, n, c)
        )


def test_embed_respects_free_reduction():
    rng = random.Random(1)
    n, c = 3, 3
    for _ in range(200):
        u = _random_word(rng, n, rng.randrange(0, 6))
        assert mg.embed_word(u, n, c) == mg.embed_word(free_reduce(u), n, c)
        assert mg.mul(
            mg.embed_word(u, n, c), mg.embed_word(invert(u), n, c)
        ) == mg.TruncPoly.one(n, c)


def test_basic_commutator_expansion():
    w = commutator((1,), (2,))
    p = mg.embed_word(w, 2, 2)
    assert p.coefficient(()) == 1
    assert p.coefficient((1,)) == 0 and p.coefficient((2,)) == 0
    assert p.coefficient((1, 2)) == 1
    assert p.coefficient((2, 1)) == -1


def test_gamma_weight():
    n, c = 2, 4
    assert mg.gamma_weight(mg.embed_word((1,), n, c)) == 1
    assert mg.gamma_weight(mg.embed_word(commutator((1,), (2,)), n, c)) == 2
    w3 = commutator((1,), commutator((2,), (1,)))
    assert mg.gamma_weight(mg.embed_word(w3, n, c)) == 3
    assert mg.gamma_weight(mg.embed_word((), n, c)) == c + 1
    # weight-(c+1) words become invisible at truncation c
    deep = commutator((1,), commutator((2,), commutator((1,), (2,))))
    assert mg.gamma_weight(mg.embed_word(deep, 2, 3)) == 4


def test_lowest_degree_of_commutator_is_lie():
    """Oracle from the free Lie algebra: the lowest-degree part of the
    Magnus image of a group commutator is a Lie element."""
    rng = random.Random(2)
    n, c = 2, 4
    for _ in range(100):
        u = _random_word(rng, n, rng.randrange(1, 4))
        v = _random_word(rng, n, rng.randrange(1, 4))
        w = commutator(u, v)
        p = mg.embed_word(w, n, c)
        weight = mg.gamma_weight(p)
        if weight > c:
            continue
        low = TensorElt(n, {
            word: coef for word, coef in p.coeffs.items() if len(word) == weight
        })
        assert is_lie(low), (w, low)


def test_inv_requires_unit():
    with pytest.raises(NotUnit):
        mg.inv(mg.TruncPoly(2, 2, {(): 2}))
    with pytest.raises(NotUnit):
        mg.inv(mg.TruncPoly(2, 2, {(1,): 1}))


def test_range_guard():
    with pytest.raises(InvalidRange):
        mg.embed_word((1,), 5, 2)
    with pytest.raises(InvalidRange):
        mg.embed_word((1,), 2, 7)
    with pytest.raises(InvalidRange):
        mg.embed_word((1,), 0, 2)
    assert mg.embed_word((1,), 5, 2, allow_large=True).coefficient((1,)) == 1


def test_quandle_idempotent_and_distributive_sampled():
    rng = random.Random(3)
    n, c = 2, 3
    elts = []
    for _ in range(6):
        w = _random_word(rng, n, rng.randrange(0, 3))
        elts.append(mg.quandle_elt(w, rng.randrange(1, n + 1), n, c))
    for a in elts:
        assert mg.eq(mg.qd(a, a), a)
    for a in elts[:4]:
        for b in elts[:4]:
            for cc in elts[:4]:
                lhs = mg.qd(a, mg.qd(b, cc))
                rhs = mg.qd(mg.qd(a, b), mg.qd(a, cc))
                assert mg.eq(lhs, rhs)


def test_eq_depends_on_truncation():
    a1 = mg.quandle_elt((), 1, 2, 1)
    b1 = mg.quandle_elt((2,), 1, 2, 1)
    assert mg.eq(a1, b1)  # 1-nilpotent: conjugation invisible
    a2 = mg.quandle_elt((), 1, 2, 2)
    b2 = mg.quandle_elt((2,), 1, 2, 2)
    assert not mg.eq(a2, b2)


def test_left_translations_are_injective_sampled():
    rng = random.Random(4)
    n, c = 2, 2
    words = [_random_word(rng, n, k) for k in range(3) for _ in range(3)]
    elts = [mg.quandle_elt(w, 1 + (i % 2), n, c) for i, w in enumerate(words)]
    a = mg.quandle_elt((1,), 2, n, c)
    for x in elts:
        for y in elts:
            if mg.eq(mg.qd(a, x), mg.qd(a, y)):
                assert mg.eq(x, y)


def test_free_2nilp_orbit_classification():
    for depth in range(0, 4):
        assert check_free_2nilp_is_Q00(depth)
    with pytest.raises(InvalidRange):
        check_free_2nilp_is_Q00(-1)
