"""Finite permutation groups given by generators.

A group's elements are one read-only array, one permutation per row, in
the smallest unsigned dtype that holds the degree.  They are enumerated
by Dimino's algorithm (Butler 1991): the generators are added one at a
time, and <g_1..g_i> is the union of the left cosets a*D of
D = <g_1..g_{i-1}>, each one gather a[D].  A coset is new when the bytes
of its representative are not yet in the set of row bytes, which then
serves as the membership index.  No Schreier-Sims, so this is a
desk-scale engine.  Subgroups are generator lists with lazy enumeration;
equality means mutual membership of generators.
"""

import numpy as np

from .errors import OrderCapExceeded

DEFAULT_CAP = 10**6


def identity_perm(degree):
    return tuple(range(degree))


def perm_mul(a, b):
    """Composition (a*b)(x) = a(b(x))."""
    return tuple(a[b[x]] for x in range(len(a)))


def _row_keys(rows):
    """The bytes of each row of a 2-D array."""
    count, degree = rows.shape
    if not degree:
        return [b""] * count
    row = np.dtype((np.void, degree * rows.itemsize))
    return np.ascontiguousarray(rows).view(row).ravel().tolist()


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
        self.dtype = np.min_scalar_type(max(degree - 1, 0))
        self._elements = None
        self._index = None

    @classmethod
    def trivial(cls, degree, cap=DEFAULT_CAP):
        return cls(degree, [], cap=cap)

    def generator_array(self):
        """The generators, one per row."""
        return np.array(self.generators, dtype=self.dtype).reshape(-1, self.degree)

    def elements(self, cap=None):
        """All elements, one per row of a read-only array, identity first."""
        if self._elements is not None:
            return self._elements
        cap = self.cap if cap is None else cap
        gens = self.generator_array()
        elems = np.arange(self.degree, dtype=self.dtype)[None]
        index = {elems.tobytes()}
        for i in range(len(gens)):
            if gens[i].tobytes() in index:
                continue
            D = elems
            cosets = [D]
            # the list grows while it is read: the coset a[D] starts with a,
            # and s*a for each generator s so far represents a coset of D
            for coset in cosets:
                for a in gens[: i + 1, coset[0]]:
                    if a.tobytes() not in index:
                        if (len(cosets) + 1) * len(D) > cap:
                            raise OrderCapExceeded(cap)
                        cosets.append(a[D])
                        index.update(_row_keys(cosets[-1]))
            elems = np.concatenate(cosets)
        elems.setflags(write=False)
        self._index = index
        self._elements = elems
        return elems

    def order(self):
        return len(self.elements())

    def contains(self, p):
        """Is p in the group?  For a stack of permutations, one per row,
        a boolean array with one entry per row."""
        self.elements()
        rows = np.asarray(p)
        single = rows.ndim == 1
        if single:
            rows = rows[None]
        valid = True
        if rows.dtype != self.dtype:
            # the cast may wrap an entry out of range onto a member's
            valid = ((rows >= 0) & (rows < self.degree)).all(axis=1)
            rows = rows.astype(self.dtype)
        keys = _row_keys(rows)
        hits = np.fromiter(map(self._index.__contains__, keys), bool, len(keys)) & valid
        return bool(hits[0]) if single else hits

    def is_trivial(self):
        # the generators exclude the identity
        return not self.generators

    def is_subgroup_of(self, other):
        return bool(other.contains(self.generator_array()).all())

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
    """Smallest subgroup of <G union S> containing S and normalized by G.

    Each round conjugates every generator of N by every generator of G and
    its inverse in one gather, and adds all conjugates outside N at once.
    """
    N = PermGroup(G.degree, S, cap=G.cap)
    if not N.generators or not G.generators:
        return N
    g = G.generator_array()
    inv = np.argsort(g, axis=1).astype(g.dtype)
    g, g_inv = np.concatenate([g, inv]), np.concatenate([inv, g])
    offsets = np.arange(0, g.size, G.degree)[:, None]
    flat = g.ravel()
    while True:
        s = N.generator_array()
        # t[j, i] = g_i s_j g_i^-1, i.e. x -> g_i[s_j[g_i^-1[x]]]
        t = flat[s[:, g_inv] + offsets].reshape(-1, G.degree)
        missing = t[~N.contains(t)]
        if not len(missing):
            return N
        N = PermGroup(G.degree, N.generators + missing.tolist(), cap=G.cap)


def commutator_subgroup(G, H):
    """Normal closure of the generator commutators [g, h] inside <G, H>.

    Valid for the lower-central-series recursion [G, Gamma_i] because that
    subgroup is normal in G and generated by the commutators of generators
    up to normal closure.
    """
    comms = []
    if G.generators and H.generators:
        a, b = G.generator_array(), H.generator_array()
        # comms[i, j] = [a_i, b_j], i.e. x -> a_i[b_j[a_i^-1[b_j^-1[x]]]]
        comms = np.argsort(a, axis=1)[:, np.argsort(b, axis=1)]
        comms = b.ravel()[comms + np.arange(0, b.size, G.degree)[:, None]]
        comms = a.ravel()[comms + np.arange(0, a.size, G.degree)[:, None, None]]
        comms = comms.reshape(-1, G.degree).tolist()
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

