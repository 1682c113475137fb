"""Nilpotency invariants of finite racks and quandles.

Two independent routes to the same invariant: the group route (lower
central series of the inner group) and the identity route (reductivity
identities, decided in `kernels` on the distinct iterated-product maps).
Both are exact: the identity route walks the maps until a layer repeats,
so `reductive_class` and `weak_class` find the class however large, or
prove there is none, and `analyze` reads both from one walk.

Every group-route invariant is read off one lower central series
Gamma_1 = Inn Q > Gamma_2 > ...: the class, the universal quotients
Q/Gamma_c, the covering chain Q/Gamma_c ->> ... ->> Q/Gamma_1 ->> point
and residual nilpotency.  Each has one private helper taking
(Q, series); the public functions build the series and call it, and
`analyze` builds the inner group and its series once for all of them.
"""

from dataclasses import dataclass
from typing import Optional

from . import finite_quandle as fq
from . import kernels, permgroup
from .errors import InvalidRange, NotNilpotent, TargetNotNilpotent
from .permgroup import DEFAULT_CAP, PermGroup

# unused in quandlekit; perfbench's answer check reads it
MAX_SCAN_CLASS = 6


@dataclass
class NilpotencyReport:
    inn_order: int
    inn_class: Optional[int]
    quandle_class: Optional[int]
    reductive_class: Optional[int]
    weak_class: Optional[int]
    residually_nilpotent: bool
    covering_chain_lengths: list


def inn_group(Q, cap=DEFAULT_CAP):
    """Permutation group generated by the rows of Q."""
    return PermGroup(Q.n, Q.inner_generators(), cap=cap)


def _series(Q, cap):
    return permgroup.lower_central_series(inn_group(Q, cap))


def _class(series):
    """Quandle class read off the lower central series of Inn Q, or None:
    the class of Inn Q plus one."""
    inn_class = permgroup.series_class(series)
    return None if inn_class is None else inn_class + 1


def nilpotency_class(Q, cap=DEFAULT_CAP):
    """Least c with Gamma_c(Inn Q) trivial, or None if Inn Q not nilpotent."""
    return _class(_series(Q, cap))


def c_reductive_witness(Q, c):
    """A (c+1)-tuple violating the c-reductivity identity, or None."""
    return kernels.reductive_witness(Q.table, c)


def is_c_reductive(Q, c):
    """Left-iterated products of length c+1 forget their first argument."""
    return c_reductive_witness(Q, c) is None


def weak_witness(Q, c):
    """A tuple (x1, x1', x2..x_{c+1}) breaking weak c-nilpotency, or None."""
    return kernels.weak_witness(Q.table, c)


def is_weakly_c_nilpotent(Q, c):
    return weak_witness(Q, c) is None


def reductive_class(Q):
    """Least c with is_c_reductive, or None if Q is c-reductive for no c."""
    return kernels.identity_classes(Q.table)[0]


def weak_class(Q):
    """Least c with is_weakly_c_nilpotent, or None if there is none."""
    return kernels.identity_classes(Q.table)[1]


def _quotient(Q, series, c):
    """Q/Gamma_c; the series stops once it stabilizes, so past its end
    Gamma_c is its last term."""
    return fq.quotient_by_subgroup(Q, series[min(c, len(series)) - 1])


def universal_nilpotent_quotient(Q, c, cap=DEFAULT_CAP):
    """Quotient by the orbits of Gamma_c(Inn Q); universal c-nilpotent image."""
    if c < 1:
        raise InvalidRange(f"nilpotency class must be at least 1, got {c}")
    return _quotient(Q, _series(Q, cap), c)


def _covering_chain(Q, series):
    c = _class(series)
    if c is None:
        raise NotNilpotent("inner group is not nilpotent")
    quotients = []
    congs = []
    for i in range(c, 0, -1):
        quot, cong = _quotient(Q, series, i)
        quotients.append(quot)
        congs.append(cong)
    arrows = []
    for k in range(len(quotients) - 1):
        src, dst = quotients[k], quotients[k + 1]
        fine, coarse = congs[k], congs[k + 1]
        image = [None] * src.n
        for x in range(Q.n):
            image[fine.class_of[x]] = coarse.class_of[x]
        arrows.append(fq.QuandleMorphism(src, dst, image))
    point = fq.trivial(1)
    last = quotients[-1]
    arrows.append(fq.QuandleMorphism(last, point, [0] * last.n))
    return arrows


def covering_chain(Q, cap=DEFAULT_CAP):
    """Morphisms Q = Q/Gamma_c ->> ... ->> Q/Gamma_1 ->> point, all coverings."""
    return _covering_chain(Q, _series(Q, cap))


def generates(Q, S):
    """Does S generate Q under the law and its inverse?"""
    if Q.n == 0:
        return True
    return len(fq.subquandle_generated(Q, S)) == Q.n


def meets_every_orbit(Q, S):
    cong = fq.orbits(Q)
    return set(cong.class_of[s] for s in S) == set(range(cong.num_classes))


def _residually_nilpotent(Q, series):
    _, cong = fq.quotient_by_subgroup(Q, series[-1])
    return cong.is_identity()


def residually_nilpotent(Q, cap=DEFAULT_CAP):
    """Do the nilpotent quotients eventually separate all pairs?"""
    return _residually_nilpotent(Q, _series(Q, cap))


def surjectivity_criterion(f, cap=DEFAULT_CAP):
    """Surjectivity read off on orbit sets; valid for nilpotent targets."""
    if nilpotency_class(f.target, cap) is None:
        raise TargetNotNilpotent("criterion requires a nilpotent target")
    dst_orbits = fq.orbits(f.target)
    hit = set(dst_orbits.class_of[f.map[x]] for x in range(f.source.n))
    return hit == set(range(dst_orbits.num_classes))


def analyze(Q, cap=DEFAULT_CAP):
    """Both routes' invariants: the group route from one series of Inn Q,
    the identity route from one walk."""
    G = inn_group(Q, cap)
    series = permgroup.lower_central_series(G)
    q_cls = _class(series)
    red, weak = kernels.identity_classes(Q.table)
    if q_cls is None:
        chain_lengths = []
        residual = _residually_nilpotent(Q, series)
    else:
        chain_lengths = [arrow.source.n for arrow in _covering_chain(Q, series)]
        chain_lengths.append(1)
        # the chain starts at Q/Gamma_c, the quotient by the last term
        residual = chain_lengths[0] == Q.n
    return NilpotencyReport(
        inn_order=G.order(),
        inn_class=permgroup.series_class(series),
        quandle_class=q_cls,
        reductive_class=red,
        weak_class=weak,
        residually_nilpotent=residual,
        covering_chain_lengths=chain_lengths,
    )
