"""Finite permutation groups given by generators.

Closure is plain BFS over generator products with an order cap; no
Schreier-Sims, so this is a desk-scale engine.  Subgroups are generator
lists with lazy enumeration; equality means mutual membership of
generators.
"""

from .errors import OrderCapExceeded

DEFAULT_CAP = 10**6


def identity_perm(degree):
    return tuple(range(degree))


def perm_mul(a, b):
    """Composition (a*b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def perm_inv(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def perm_comm(a, b):
    """[a, b] = a b a^-1 b^-1."""
    return perm_mul(perm_mul(a, b), perm_mul(perm_inv(a), perm_inv(b)))


class PermGroup:
    """Group of permutations of 0..degree-1, defined by generators."""

    def __init__(self, degree, generators, cap=DEFAULT_CAP):
        self.degree = degree
        ident = identity_perm(degree)
        seen = set()
        gens = []
        for g in generators:
            g = tuple(g)
            if g != ident and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators = gens
        self.cap = cap
        self._elements = None

    @classmethod
    def trivial(cls, degree, cap=DEFAULT_CAP):
        return cls(degree, [], cap=cap)

    def elements(self, cap=None):
        if self._elements is not None:
            return self._elements
        cap = self.cap if cap is None else cap
        ident = identity_perm(self.degree)
        elems = {ident}
        frontier = [ident]
        gens = self.generators + [perm_inv(g) for g in self.generators]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = perm_mul(g, p)
                    if q not in elems:
                        elems.add(q)
                        if len(elems) > cap:
                            raise OrderCapExceeded(cap)
                        nxt.append(q)
            frontier = nxt
        self._elements = frozenset(elems)
        return self._elements

    def order(self):
        return len(self.elements())

    def contains(self, p):
        return tuple(p) in self.elements()

    def is_trivial(self):
        return not self.generators or self.order() == 1

    def is_subgroup_of(self, other):
        elems = other.elements()
        return all(g in elems for g in self.generators)

    def equals(self, other):
        return self.is_subgroup_of(other) and other.is_subgroup_of(self)

    def is_abelian(self):
        gens = self.generators
        return all(
            perm_mul(a, b) == perm_mul(b, a) for a in gens for b in gens
        )


def is_subgroup(H, G):
    return H.is_subgroup_of(G)


def normal_closure(S, G):
    """Smallest subgroup of <G union S> containing S and normalized by G."""
    ident = identity_perm(G.degree)
    gens = [tuple(s) for s in S if tuple(s) != ident]
    N = PermGroup(G.degree, gens, cap=G.cap)
    conj_by = G.generators + [perm_inv(g) for g in G.generators]
    changed = True
    while changed:
        changed = False
        elems = N.elements()
        for g in conj_by:
            g_inv = perm_inv(g)
            for s in list(N.generators):
                t = perm_mul(perm_mul(g, s), g_inv)
                if t not in elems:
                    N = PermGroup(G.degree, N.generators + [t], cap=G.cap)
                    elems = N.elements()
                    changed = True
    return N


def commutator_subgroup(G, H):
    """Normal closure of the generator commutators [g, h] inside <G, H>.

    Valid for the lower-central-series recursion [G, Gamma_i] because that
    subgroup is normal in G and generated by the commutators of generators
    up to normal closure.
    """
    comms = [perm_comm(g, h) for g in G.generators for h in H.generators]
    ambient = PermGroup(G.degree, G.generators + H.generators, cap=G.cap)
    return normal_closure(comms, ambient)


def lower_central_series(G):
    """[Gamma_1, Gamma_2, ...] until the series stabilizes."""
    series = [G]
    while True:
        nxt = commutator_subgroup(G, series[-1])
        if nxt.order() == series[-1].order():
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def series_class(series):
    """Class read off a lower central series: the number of steps down to
    a trivial last term, or None if the series stops above it."""
    if series[-1].is_trivial():
        return len(series) - 1
    return None


def nilpotency_class(G):
    """Least c with Gamma_{c+1}(G) trivial, or None if not nilpotent."""
    return series_class(lower_central_series(G))

