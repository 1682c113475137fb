import numpy as np
import pytest

from conftest import symmetric3
from quandlekit import finite_quandle as fq
from quandlekit.errors import (
    AxiomViolation, InvalidGroup, InvalidRange, NotAQuandle, NotNormalized, ParseError,
)
from quandlekit.nilpotency import inn_group
from quandlekit.permgroup import PermGroup


def test_validate_trivial_and_empty():
    Q = fq.validate([[0, 1, 2]] * 3)
    assert Q.is_quandle_flag
    empty = fq.validate(np.zeros((0, 0), dtype=np.int64), require_quandle=True)
    assert empty.n == 0


def test_validate_rejects_bad_tables():
    with pytest.raises(AxiomViolation):
        fq.validate([[0, 0], [1, 1]])  # rows not bijective
    with pytest.raises(AxiomViolation):
        fq.validate([[0, 2, 1], [2, 1, 0], [0, 1, 2]])  # not distributive
    with pytest.raises(AxiomViolation):
        fq.validate([[0, 2, 1], [9, 9, 9], [0, 1, 2]])


def test_require_quandle():
    shift = [[(j + 1) % 3 for j in range(3)] for _ in range(3)]
    R = fq.validate(shift)
    assert not R.is_quandle_flag
    with pytest.raises(NotAQuandle):
        fq.validate(shift, require_quandle=True)


def test_q12_table():
    Q = fq.q_12()
    # the fixed point's row swaps the other two, their rows do nothing
    assert Q.row(0) == (0, 2, 1)
    assert Q.row(1) == (0, 1, 2)
    assert Q.row(2) == (0, 1, 2)


def test_builders_validate(corpus):
    for Q in corpus:
        fq.validate(Q.table)  # re-validation passes


def test_q_mn_rejects_empty_orbits():
    for m, n in ((0, 0), (0, 3), (2, 0), (-1, 2)):
        with pytest.raises(InvalidRange):
            fq.q_mn(m, n)


def test_q10_truncated_is_wraparound():
    Q = fq.q_10_truncated(4)
    assert Q == fq.q_mn(1, 4)


def test_conj_quandle_s3():
    Q = fq.conj_quandle(symmetric3())
    assert Q.n == 6
    sizes = sorted(len(c) for c in fq.orbits(Q).classes())
    assert sizes == [1, 2, 3]  # conjugacy classes of S3


def test_conj_quandle_rejects_non_group():
    with pytest.raises(InvalidGroup):
        fq.conj_quandle([[0, 1], [0, 1]])


def test_orbits_and_pi0():
    Q = fq.q_mn(2, 3)
    cong = fq.orbits(Q)
    assert sorted(len(c) for c in cong.classes()) == [2, 3]
    assert fq.pi0(Q) == fq.trivial(2)
    assert fq.orbits(fq.trivial(4)).num_classes == 4
    assert sorted(len(c) for c in fq.orbits(fq.q_12()).classes()) == [1, 2]


def test_quotient_by_subgroup():
    Q = fq.q_mn(2, 2)
    quot, cong = fq.quotient_by_subgroup(Q, inn_group(Q))
    assert quot == fq.trivial(2)
    quot, cong = fq.quotient_by_subgroup(Q, PermGroup.trivial(Q.n))
    assert cong.is_identity() and quot.n == Q.n
    big = fq.q_mn(4, 6)
    quot, _ = fq.quotient_by_subgroup(big, inn_group(big))
    assert quot == fq.trivial(2)


def test_quotient_by_subgroup_rejects_unnormalized():
    Q = fq.conj_quandle(symmetric3())
    # a single transposition row generates a subgroup not normalized by Inn
    H = PermGroup(Q.n, [Q.row(1)])
    rows = {Q.row(x) for x in range(Q.n)}
    assert len(rows) > 1
    with pytest.raises(NotNormalized) as err:
        fq.quotient_by_subgroup(Q, H)
    # the first distinct row and the generator its conjugate misses
    assert str(err.value) == (
        "subgroup not normalized by inner group, witness "
        "((0, 5, 2, 4, 3, 1), (0, 1, 5, 4, 3, 2))"
    )


def test_is_covering():
    Q = fq.q_mn(2, 3)
    cong = fq.orbits(Q)
    proj = fq.QuandleMorphism(Q, fq.trivial(2), cong.class_of)
    assert fq.is_covering(proj)
    ident = fq.QuandleMorphism(Q, Q, range(Q.n))
    assert fq.is_covering(ident)
    fold = fq.QuandleMorphism(fq.trivial(2), fq.trivial(1), [0, 0])
    assert fq.is_covering(fold)
    embed = fq.QuandleMorphism(fq.trivial(1), fq.trivial(2), [0])
    assert not fq.is_covering(embed)


def test_covering_needs_equal_rows():
    Q = fq.q_12()
    # merging the swap point with a fixed point is a morphism to trivial(1)
    p = fq.QuandleMorphism(Q, fq.trivial(1), [0, 0, 0])
    assert not fq.is_covering(p)


def test_reduced_predicates(corpus):
    assert fq.is_reduced(fq.q_mn(2, 3))
    assert fq.is_reduced(fq.trivial(3))
    s3 = fq.conj_quandle(symmetric3())
    assert not fq.is_reduced(s3)
    w = fq.reduced_witness(s3)
    assert w is not None and s3.op(w[0], w[1]) != w[1]
    for Q in corpus:
        if fq.is_reduced(Q):
            # every orbit is a trivial subquandle
            cong = fq.orbits(Q)
            for x in range(Q.n):
                for y in range(Q.n):
                    if cong.class_of[x] == cong.class_of[y]:
                        assert Q.op(y, x) == x


def test_reduced_quotient():
    for Q in (fq.q_mn(2, 2), fq.trivial(4)):
        R, cong = fq.reduced_quotient(Q)
        assert cong.is_identity()
    s3 = fq.conj_quandle(symmetric3())
    R, cong = fq.reduced_quotient(s3)
    assert R.n < s3.n
    assert fq.is_reduced(R)
    R2, cong2 = fq.reduced_quotient(R)
    assert cong2.is_identity() and R2 == R


def test_subquandle_generated():
    Q = fq.q_mn(2, 3)
    assert fq.subquandle_generated(Q, {0, 2}) == set(range(5))
    assert fq.subquandle_generated(Q, {0, 1}) == {0, 1}


def test_is_trivial():
    assert fq.is_trivial(fq.trivial(3))
    assert not fq.is_trivial(fq.q_12())


def test_pi0_universal_property(corpus):
    """Every morphism to a trivial quandle factors through pi0."""
    from itertools import product

    for Q in corpus:
        if Q.n > 4:
            continue
        cong = fq.orbits(Q)
        T = fq.trivial(2)
        for m in product(range(2), repeat=Q.n):
            try:
                f = fq.QuandleMorphism(Q, T, m)
            except ValueError:
                continue
            # must be orbit-constant
            for x in range(Q.n):
                for y in range(Q.n):
                    if cong.class_of[x] == cong.class_of[y]:
                        assert f.map[x] == f.map[y]


def test_subrack():
    Q = fq.q_mn(2, 3)
    sub, elems = fq.subrack(Q, [0, 1])
    assert sub == fq.trivial(2)
    with pytest.raises(ValueError):
        fq.subrack(fq.q_12(), [0, 1])  # 0 |> 1 = 2 escapes


def test_find_isomorphism():
    A = fq.q_mn(2, 3)
    B_table = [[A.op((x + 1) % 5 if x < 2 else x, (y + 1) % 5 if y < 2 else y)
                for y in range(5)] for x in range(5)]
    # relabelled copy: swap the two elements of the first orbit
    perm = [1, 0, 2, 3, 4]
    B_table = [[perm[A.op(perm[x], perm[y])] for y in range(5)] for x in range(5)]
    B = fq.validate(B_table)
    iso = fq.find_isomorphism(A, B)
    assert iso is not None
    for x in range(5):
        for y in range(5):
            assert iso[A.op(x, y)] == B.op(iso[x], iso[y])
    assert fq.find_isomorphism(A, fq.trivial(5)) is None


def test_file_round_trip(tmp_path):
    Q = fq.q_mn(2, 3)
    text = fq.dump_rack(Q)
    assert fq.parse_rack(text) == Q
    path = tmp_path / "q.qdl"
    path.write_text("# a comment\n" + text)
    assert fq.load_rack(str(path)) == Q


def test_parse_errors():
    with pytest.raises(ParseError):
        fq.parse_rack("")
    with pytest.raises(ParseError):
        fq.parse_rack("2\n0 1\n")  # missing row
    with pytest.raises(ParseError):
        fq.parse_rack("2\n0 1\n0 5\n")  # out of range
    with pytest.raises(ParseError):
        fq.parse_rack("2\n0 x\n1 0\n")
