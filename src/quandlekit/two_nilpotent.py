"""Classification data for 2-nilpotent quandles.

A 2-nilpotent quandle with orbit set {1..n} is a disjoint union of
quotients Z^n/H_i (with e_i in H_i) under the law x |> y = e_i + y for x
in orbit i.  This module moves between that lattice data, concrete
operation tables, canonical triangular parameters, and the enveloping
group, which is a central extension of Z^n by Lambda^2(Z^n)/sum e_i^H_i.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from . import finite_quandle as fq
from . import nilpotency
from .errors import (
    CapExceeded, InfiniteIndex, InfiniteOrbit, InvalidOrbitLattice, NotTwoNilpotent, ParseError,
)
from .lattice import IntLattice, hnf, wedge_image, wedge_vector


class TwoNilpotentData:
    """Orbit count n plus one sublattice of Z^n per orbit, each containing e_i."""

    def __init__(self, Hs):
        self.n = len(Hs)
        self.Hs = list(Hs)
        for i, H in enumerate(self.Hs):
            if H.n != self.n:
                raise InvalidOrbitLattice(i, f"H_{i} lies in Z^{H.n}, not Z^{self.n}")
            e_i = [1 if j == i else 0 for j in range(self.n)]
            if not H.member(e_i):
                raise InvalidOrbitLattice(i, f"H_{i} does not contain e_{i}")

    def __eq__(self, other):
        return isinstance(other, TwoNilpotentData) and self.Hs == other.Hs

    def __repr__(self):
        return f"<TwoNilpotentData n={self.n}>"


@dataclass
class OrbitParameters:
    """Triangular generator data for one orbit, coordinates 1..n-1.

    m[k-1] is the pivot of the generator at coordinate k (0 if absent);
    mkl[(k, l)] is that generator's entry at coordinate l < k, reduced
    into [0, m_l) whenever m_l != 0.
    """

    m: tuple
    mkl: dict


@dataclass
class LMParameters:
    n: int
    orbits: list


@dataclass
class CentralExtensionData:
    free_rank: int
    torsion: list
    center_free_rank: int
    relator_lattice: IntLattice


def qmn_data(m, n):
    """Lattice data for the two-orbit family: H_1 = <e1, m e2>, H_2 = <n e1, e2>."""
    H1 = IntLattice(2, [[1, 0], [0, m]])
    H2 = IntLattice(2, [[n, 0], [0, 1]])
    return TwoNilpotentData([H1, H2])


def trivial_data(n):
    return TwoNilpotentData([IntLattice.full(n) for _ in range(n)])


def three_orbit_data(k):
    """Three-orbit data with two size-k orbits tied together by e2 - e3 and
    e1 - e3 relations plus a fixed point; its enveloping group is abelian."""
    H1 = IntLattice(3, [[1, 0, 0], [0, k, 0], [0, 1, -1]])
    H2 = IntLattice(3, [[k, 0, 0], [0, 1, 0], [1, 0, -1]])
    H3 = IntLattice.full(3)
    return TwoNilpotentData([H1, H2, H3])


def build_quandle(D, cap=10**6):
    """Operation table of the quandle defined by D; returns (rack, labels).

    labels[x] = (orbit index, canonical coset representative).  Every x
    in orbit i acts by the same row y -> e_i + y, so the table is one row
    per orbit, gathered by orbit: n * size calls to `reduce`, not size^2.
    """
    labels = []
    for i, H in enumerate(D.Hs):
        try:
            reps = H.cosets(cap)
        except InfiniteIndex:
            raise InfiniteOrbit(i)
        labels.extend((i, rep) for rep in reps)
        if len(labels) > cap:
            raise CapExceeded(cap)
    index = {lab: x for x, lab in enumerate(labels)}
    rows = np.empty((D.n, len(labels)), dtype=np.int64)
    for i in range(D.n):
        for y, (j, h) in enumerate(labels):
            shifted = list(h)
            shifted[i] += 1
            rows[i, y] = index[(j, D.Hs[j].reduce(shifted))]
    orbit_of = np.array([i for i, _ in labels], dtype=np.int64)
    return fq.validate(rows[orbit_of], require_quandle=True), labels


def extract_data(Q, cap=10**6):
    """Recover lattice data from a 2-nilpotent quandle.

    H_i is the stabilizer of an orbit representative under the Z^n action
    where e_j acts by the (orbit-constant) row of orbit j.
    """
    if not Q.is_quandle_flag:
        raise NotTwoNilpotent("input is not a quandle")
    cls = nilpotency.nilpotency_class(Q, cap)
    if cls is None or cls > 2:
        raise NotTwoNilpotent(f"nilpotency class is {cls}")
    cong = fq.orbits(Q)
    classes = cong.classes()
    n = len(classes)
    # rows must be constant on orbits for the classification form
    perms = []
    for cls_elems in classes:
        row0 = Q.row(cls_elems[0])
        for x in cls_elems[1:]:
            if Q.row(x) != row0:
                raise NotTwoNilpotent(f"rows differ inside orbit of {x}")
        perms.append(row0)
    Hs = []
    for i, cls_elems in enumerate(classes):
        q0 = cls_elems[0]
        vec_of = {q0: tuple(0 for _ in range(n))}
        stab_gens = []
        frontier = [q0]
        while frontier:
            nxt = []
            for e in frontier:
                base = vec_of[e]
                for j in range(n):
                    e2 = perms[j][e]
                    vec = list(base)
                    vec[j] += 1
                    vec = tuple(vec)
                    if e2 in vec_of:
                        diff = [a - b for a, b in zip(vec, vec_of[e2])]
                        if any(diff):
                            stab_gens.append(diff)
                    else:
                        vec_of[e2] = vec
                        nxt.append(e2)
            frontier = nxt
        Hs.append(IntLattice(n, stab_gens))
    return TwoNilpotentData(Hs)


def _coord_map(i, n):
    """Projected coordinate k = 1..n-1 -> original coordinate (skipping i)."""
    return [k if k < i else k + 1 for k in range(n - 1)]


def canonical_parameters(D):
    """Triangular parameters per orbit: project H_i along e_i, then bring the
    projected lattice to the lower-triangular echelon form (pivot m_k at
    coordinate k, earlier entries reduced modulo earlier pivots)."""
    out = []
    n = D.n
    for i, H in enumerate(D.Hs):
        coords = _coord_map(i, n)
        projected = [[row[c] for c in coords] for row in H.basis]
        # reverse the column order so row HNF puts pivots at the high end
        reversed_rows = [row[::-1] for row in projected]
        ech = hnf(reversed_rows, cols=n - 1)
        m = [0] * (n - 1)
        mkl = {}
        for row in ech:
            orig = row[::-1]
            k = max(j for j, v in enumerate(orig) if v) + 1  # 1-indexed
            m[k - 1] = orig[k - 1]
            for l in range(1, k):
                if orig[l - 1]:
                    mkl[(k, l)] = orig[l - 1]
        out.append(OrbitParameters(m=tuple(m), mkl=mkl))
    return LMParameters(n=n, orbits=out)


def from_parameters(P):
    """Rebuild lattice data from triangular parameters."""
    n = P.n
    Hs = []
    for i, op in enumerate(P.orbits):
        coords = _coord_map(i, n)
        gens = [[1 if j == i else 0 for j in range(n)]]
        for k in range(1, n):
            if op.m[k - 1] == 0 and not any(op.mkl.get((k, l), 0) for l in range(1, k)):
                continue
            row = [0] * n
            row[coords[k - 1]] = op.m[k - 1]
            for l in range(1, k):
                row[coords[l - 1]] = op.mkl.get((k, l), 0)
            gens.append(row)
        Hs.append(IntLattice(n, gens))
    return TwoNilpotentData(Hs)


def isomorphic(D1, D2):
    """Orbit relabelling sigma with sigma(H_i) = K_sigma(i), or None."""
    if D1.n != D2.n:
        return None
    n = D1.n
    for sigma in permutations(range(n)):
        ok = True
        for i in range(n):
            moved = []
            for row in D1.Hs[i].basis:
                new = [0] * n
                for j, v in enumerate(row):
                    new[sigma[j]] = v
                moved.append(new)
            if IntLattice(n, moved) != D2.Hs[sigma[i]]:
                ok = False
                break
        if ok:
            return list(sigma)
    return None


def enveloping_extension(D):
    """Invariants of the enveloping group as a central extension of Z^n."""
    W = wedge_image(D.Hs)
    center_free, torsion = W.quotient_invariants()
    return CentralExtensionData(
        free_rank=D.n,
        torsion=torsion,
        center_free_rank=center_free,
        relator_lattice=W,
    )


def is_enveloping_abelian(D):
    ext = enveloping_extension(D)
    return ext.center_free_rank == 0 and not ext.torsion


def is_injective_2nilp(D, cap=10**6):
    """Does the quandle embed in its enveloping group?

    The image of a coset gH_i is determined by (e_i, class of g^e_i), so
    injectivity fails exactly when two distinct cosets of some H_i have
    wedge difference inside the relator lattice.  The wedge is linear and
    `W.reduce` gives each class of Lambda^2 / W one representative, so that
    happens exactly when two cosets reduce to the same wedge: one `reduce`
    per coset, not one per pair.
    """
    W = wedge_image(D.Hs)
    for i, H in enumerate(D.Hs):
        try:
            reps = H.cosets(cap)
        except InfiniteIndex:
            raise InfiniteOrbit(i)
        seen = set()
        for rep in reps:
            key = W.reduce(wedge_vector(i, rep, D.n))
            if key in seen:
                return False
            seen.add(key)
    return True


# -- file format ----------------------------------------------------------------

def parse_data(text):
    """Line 1 = orbit count n, then n lattice blocks ('n k' plus k rows)."""
    from .lattice import parse_lattice_lines

    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].split("#", 1)[0].strip():
        idx += 1
    if idx >= len(lines):
        raise ParseError(1, "empty data file")
    header = lines[idx].split("#", 1)[0].strip()
    try:
        n = int(header)
    except ValueError:
        raise ParseError(idx + 1, "first line must be the orbit count")
    idx += 1
    Hs = []
    for _ in range(n):
        lat, used = parse_lattice_lines(lines[idx:], start_lineno=idx + 1)
        Hs.append(lat)
        idx += used
    return TwoNilpotentData(Hs)


def load_data(path):
    with open(path) as fh:
        return parse_data(fh.read())


def dump_data(D):
    from .lattice import dump_lattice

    parts = [str(D.n)]
    for H in D.Hs:
        parts.append(dump_lattice(H).rstrip("\n"))
    return "\n".join(parts) + "\n"
