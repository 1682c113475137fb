"""Shared corpus: small groups as Cayley tables and quandle collections."""

from itertools import permutations, product

import pytest

from quandlekit import finite_quandle as fq
from quandlekit import two_nilpotent as tn
from quandlekit.errors import AxiomViolation


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def direct_product(A, B):
    ga, gb = len(A), len(B)
    size = ga * gb
    out = [[0] * size for _ in range(size)]
    for a1 in range(ga):
        for b1 in range(gb):
            for a2 in range(ga):
                for b2 in range(gb):
                    out[a1 * gb + b1][a2 * gb + b2] = A[a1][a2] * gb + B[b1][b2]
    return out


def _cayley_from_perms(generators, degree):
    from oracles import element_set
    from quandlekit.permgroup import PermGroup

    G = PermGroup(degree, generators)
    elems = sorted(element_set(G.elements()))
    idx = {e: i for i, e in enumerate(elems)}
    return [
        [idx[tuple(a[b[x]] for x in range(degree))] for b in elems] for a in elems
    ]


def symmetric3():
    return _cayley_from_perms([(1, 0, 2), (0, 2, 1)], 3)


def dihedral(n):
    """Dihedral group of order 2n as symmetries of an n-gon."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return _cayley_from_perms([rot, ref], n)


def quaternion8():
    """Unit quaternions 1,-1,i,-i,j,-j,k,-k as 0..7."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("1", "1"): "1", ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(x):
        return (-1 if x.startswith("-") else 1, x.lstrip("-"))

    def mul(a, b):
        sa, ua = split(a)
        sb, ub = split(b)
        if ua == "1":
            prod = ub
        elif ub == "1":
            prod = ua
        else:
            prod = base[(ua, ub)]
        sp, up = split(prod)
        sign = sa * sb * sp
        return up if sign == 1 else "-" + up

    idx = {nm: i for i, nm in enumerate(names)}
    return [[idx[mul(a, b)] for b in names] for a in names]


def groups_up_to_8():
    """All groups of order <= 8, keyed by name."""
    z2 = cyclic(2)
    z4 = cyclic(4)
    return {
        "Z1": cyclic(1),
        "Z2": z2,
        "Z3": cyclic(3),
        "Z4": z4,
        "Z2xZ2": direct_product(z2, z2),
        "Z5": cyclic(5),
        "Z6": cyclic(6),
        "S3": symmetric3(),
        "Z7": cyclic(7),
        "Z8": cyclic(8),
        "Z4xZ2": direct_product(z4, z2),
        "Z2xZ2xZ2": direct_product(direct_product(z2, z2), z2),
        "D4": dihedral(4),
        "Q8": quaternion8(),
    }


def enumerate_quandles(n):
    """All quandle tables of size n: rows are permutations fixing the
    diagonal, filtered by self-distributivity."""
    if n == 0:
        return []
    fixing = {
        x: [p for p in permutations(range(n)) if p[x] == x] for x in range(n)
    }
    out = []
    for rows in product(*(fixing[x] for x in range(n))):
        try:
            out.append(fq.validate([list(r) for r in rows], require_quandle=True))
        except AxiomViolation:
            continue
    return out


def small_quandle_corpus():
    """All quandles with <= 4 elements plus the named families."""
    corpus = []
    for n in range(1, 5):
        corpus.extend(enumerate_quandles(n))
    for k in range(1, 6):
        corpus.append(fq.trivial(k))
    for m in range(1, 5):
        for n in range(1, 5):
            corpus.append(fq.q_mn(m, n))
    corpus.append(fq.q_12())
    for cay in groups_up_to_8().values():
        corpus.append(fq.conj_quandle(cay))
    Q3, _ = tn.build_quandle(tn.three_orbit_data(2))
    corpus.append(Q3)
    # dedupe identical tables
    seen = set()
    unique = []
    for Q in corpus:
        if Q not in seen:
            seen.add(Q)
            unique.append(Q)
    # a kernel that raised instead of answering would shrink the corpus silently
    assert len(unique) == 61, len(unique)
    return unique


@pytest.fixture(scope="session")
def corpus():
    return small_quandle_corpus()


@pytest.fixture(scope="session")
def groups():
    return groups_up_to_8()
