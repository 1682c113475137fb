import pytest

from conftest import dihedral, groups_up_to_8
from oracles import center, element_set, perm_comm, perm_inv
from quandlekit import finite_quandle as fq
from quandlekit.errors import OrderCapExceeded
from quandlekit.permgroup import (
    PermGroup,
    commutator_subgroup,
    is_subgroup,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    perm_mul,
)

S3_GENS = [(1, 0, 2), (0, 2, 1)]


def _brute_lcs_class(G):
    """Oracle: iterated commutators over full element sets, no shortcuts."""
    elems = element_set(G.elements())
    series = [elems]
    while True:
        comms = {perm_comm(a, b) for a in elems for b in series[-1]}
        nxt = element_set(PermGroup(G.degree, list(comms), cap=G.cap).elements())
        if nxt == series[-1]:
            break
        series.append(nxt)
        if len(nxt) == 1:
            break
    if len(series[-1]) == 1:
        return len(series) - 1
    return None


def test_enumerate_examples():
    G = PermGroup(2, [(1, 0)])
    assert G.order() == 2
    q22 = fq.q_mn(2, 2)
    inn = PermGroup(4, q22.inner_generators())
    assert inn.order() == 4 and inn.is_abelian()
    assert PermGroup(3, S3_GENS).order() == 6


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        PermGroup(3, S3_GENS, cap=4).elements()


def test_commutator_subgroup():
    S3 = PermGroup(3, S3_GENS)
    A3 = commutator_subgroup(S3, S3)
    assert A3.order() == 3
    assert commutator_subgroup(S3, PermGroup.trivial(3)).is_trivial()
    q22_inn = PermGroup(4, fq.q_mn(2, 2).inner_generators())
    assert commutator_subgroup(q22_inn, q22_inn).is_trivial()


def test_lower_central_series_and_class():
    S3 = PermGroup(3, S3_GENS)
    series = lower_central_series(S3)
    assert series[-1].order() == 3  # stabilizes at A3
    assert nilpotency_class(S3) is None
    klein = PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    assert nilpotency_class(klein) == 1
    assert nilpotency_class(PermGroup.trivial(5)) == 0


def test_series_nesting_and_normality():
    for cay in (groups_up_to_8()["D4"], groups_up_to_8()["Q8"], dihedral(8)):
        g = len(cay)
        # regular representation
        gens = [tuple(row) for row in cay]
        G = PermGroup(g, gens)
        series = lower_central_series(G)
        for i in range(len(series) - 1):
            assert is_subgroup(series[i + 1], series[i])
        elems = element_set(G.elements())
        for term in series:
            for x in elems:
                xi = perm_inv(x)
                for s in term.generators:
                    assert term.contains(perm_mul(perm_mul(x, s), xi))


def test_class_matches_brute_force_oracle():
    tables = list(groups_up_to_8().values()) + [dihedral(8), dihedral(12)]
    for cay in tables:
        gens = [tuple(row) for row in cay]
        G = PermGroup(len(cay), gens)
        assert nilpotency_class(G) == _brute_lcs_class(G)


def test_center_and_normal_closure():
    S3 = PermGroup(3, S3_GENS)
    assert center(S3).is_trivial()
    klein = PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    assert center(klein).equals(klein)
    N = normal_closure([(1, 0, 2)], S3)
    assert N.order() == 6
