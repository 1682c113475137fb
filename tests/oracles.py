"""Brute-force oracles shared by the unit and acceptance tests.

Each checks a theorem by exhaustion on small cases (all small subsets,
a ball of words, a full element set, every braid word), so it has no place
in the library.  The loop versions of the array code in `permgroup`,
`finite_quandle` and `kernels` are kept here as references for it.
"""

from itertools import combinations

import numpy as np

from quandlekit import finite_quandle as fq
from quandlekit import kernels
from quandlekit import nilpotency as nil
from quandlekit import welded as wd
from quandlekit.errors import (
    AxiomViolation, InvalidRange, NotAQuandle, OrderCapExceeded, ParseError,
)
from quandlekit.magnus import qd, quandle_elt
from quandlekit.permgroup import PermGroup, identity_perm, perm_mul


def check_generation_criterion(Q):
    """Generation == one element per orbit, over all small subsets."""
    k = fq.orbits(Q).num_classes
    max_size = min(Q.n, k + 1)
    for size in range(1, max_size + 1):
        for S in combinations(range(Q.n), size):
            if nil.generates(Q, S) != nil.meets_every_orbit(Q, S):
                return False
    return True


def _ball_words(depth, letters):
    """All words of length <= depth over the given letters."""
    out = [()]
    layer = [()]
    for _ in range(depth):
        layer = [w + (l,) for w in layer for l in letters]
        out.extend(layer)
    return out


def check_free_2nilp_is_Q00(depth):
    """Verify the orbit of x1 in the free 2-nilpotent quandle on x1, x2.

    Conjugates of x1 over a radius-`depth` ball must be classified by one
    integer coordinate (the X2X1 coefficient) covering -depth..depth, and
    the law must shift that coordinate by 1 across orbits and fix it
    within an orbit: the shape of the infinite two-orbit quandle with
    both orbit lattices reduced to a single axis.
    """
    if depth < 0:
        raise InvalidRange("depth must be nonnegative")
    n, c = 2, 2
    words = _ball_words(depth, (1, -1, 2, -2))
    orbit1 = {}
    for w in words:
        elt = quandle_elt(w, 1, n, c)
        coord = elt.element_poly.coefficient((2, 1))
        key = elt.key()
        if key in orbit1 and orbit1[key][0] != coord:
            return False
        orbit1[key] = (coord, elt)
    coords = sorted(v[0] for v in orbit1.values())
    if coords != list(range(-depth, depth + 1)):
        return False
    if len(set(coords)) != len(orbit1):
        return False
    # law: conjugates of x2 shift the coordinate by one, own orbit fixes it
    x2 = quandle_elt((), 2, n, c)
    x2_conj = quandle_elt((1,), 2, n, c)
    for coord, elt in orbit1.values():
        for a, delta in ((x2, 1), (x2_conj, 1)):
            moved = qd(a, elt)
            if moved.element_poly.coefficient((2, 1)) != coord + delta:
                return False
        same = qd(quandle_elt((2,), 1, n, c), elt)
        if same.element_poly.coefficient((2, 1)) != coord:
            return False
    return True


def element_set(elements):
    """An element array, one permutation per row as `PermGroup.elements`
    returns it, as a frozenset of tuples."""
    return frozenset(map(tuple, elements.tolist()))


def center(G):
    """Centre of a permutation group, by testing every element."""
    elems = element_set(G.elements())
    gens = G.generators
    central = [
        p for p in elems if all(perm_mul(p, g) == perm_mul(g, p) for g in gens)
    ]
    return PermGroup(G.degree, central, cap=G.cap)


def first_moving_braid(Q, n, c):
    """Index of the first braid of weight_c_commutators(n, c) that moves a
    tuple of Q^n, or None, by evaluating each braid word on all of Q^n."""
    rows = np.asarray(Q.table, dtype=np.int64)
    rows_inv = np.asarray(Q.inv_table, dtype=np.int64)
    for k, beta in enumerate(wd.weight_c_commutators(n, c)):
        sigma = np.array(beta.sigma, dtype=np.int64)
        letters, offsets = kernels.pack_words(beta.ws)
        if kernels.braid_fixes_all(rows, rows_inv, sigma, letters, offsets, n) is not None:
            return k
    return None


# -- loop versions of the array code -------------------------------------------

def perm_inv(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def perm_comm(a, b):
    """[a, b] = a b a^-1 b^-1."""
    return perm_mul(perm_mul(a, b), perm_mul(perm_inv(a), perm_inv(b)))


def elements_bfs(G, cap):
    """Element set of G by BFS, one perm_mul per (element, generator)."""
    ident = identity_perm(G.degree)
    elems = {ident}
    frontier = [ident]
    gens = G.generators + [perm_inv(g) for g in G.generators]
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
    return frozenset(elems)


def normal_closure_conjugates(S, G):
    """Element set of the normal closure of S under G: the group generated
    by x s x^-1 for every element x of G and every s in S."""
    conjugates = [
        perm_mul(perm_mul(x, s), perm_inv(x))
        for x in elements_bfs(G, G.cap) for s in map(tuple, S)
    ]
    return elements_bfs(PermGroup(G.degree, conjugates), G.cap)


def normality_witness_loops(Q, G):
    """The first (row of x, g), x outermost, with row * g * row^-1 not in G,
    or None."""
    elems = elements_bfs(G, G.cap)
    for x in range(Q.n):
        s = Q.row(x)
        for g in G.generators:
            if perm_mul(perm_mul(s, g), perm_inv(s)) not in elems:
                return (s, g)
    return None


def parse_rack_int(text, require_quandle=False):
    """parse_rack with every token read by int() and every entry range
    checked."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(([int(tok) for tok in line.split()], lineno))
        except ValueError:
            raise ParseError(lineno, f"non-integer token in {line!r}")
    if not rows:
        raise ParseError(1, "empty file")
    header, lineno = rows[0]
    if len(header) != 1 or header[0] < 0:
        raise ParseError(lineno, "first line must be the element count")
    n = header[0]
    if len(rows) - 1 != n:
        raise ParseError(lineno, f"expected {n} table rows, got {len(rows) - 1}")
    table = []
    for row, lineno in rows[1:]:
        if len(row) != n:
            raise ParseError(lineno, f"expected {n} entries, got {len(row)}")
        if any(v < 0 or v >= n for v in row):
            raise ParseError(lineno, "entry out of range")
        table.append(row)
    if n == 0:
        return fq.validate(np.zeros((0, 0), dtype=np.int64), require_quandle)
    return fq.validate(table, require_quandle)


def dump_rack_str(Q):
    """dump_rack with one str() per entry."""
    lines = [str(Q.n)]
    for x in range(Q.n):
        lines.append(" ".join(str(v) for v in Q.row(x)))
    return "\n".join(lines) + "\n"


def check_rack_loops(table, require_quandle=False):
    """validate's checks on an n x n table with entries in range, one row or
    entry at a time: raises what validate raises, else returns whether the
    table is a quandle."""
    n = table.shape[0]
    for x in range(n):
        if len(set(table[x].tolist())) != n:
            raise AxiomViolation("bijectivity", x)
    witness = distributive_witness_all_rows(table)
    if witness is not None:
        raise AxiomViolation("distributivity", witness)
    is_quandle = all(table[x, x] == x for x in range(n))
    if require_quandle and not is_quandle:
        raise NotAQuandle(next(x for x in range(n) if table[x, x] != x))
    return is_quandle


def distributive_witness_all_rows(table):
    """The first failing (x, y, z), checking the row of every x."""
    n = table.shape[0]
    for x in range(n):
        r = table[x]
        bad = r[table] != table[r[:, None], r[None, :]]
        if bad.any():
            y, z = divmod(int(np.argmax(bad)), n)
            return (x, y, z)
    return None


def orbit_classes_loops(Q):
    """Orbit partition, joining x to y |> x for every pair (x, y)."""
    uf = fq._UnionFind(Q.n)
    for x in range(Q.n):
        for y in range(Q.n):
            uf.union(x, Q.op(y, x))
    return fq.Congruence(Q, uf.class_of()).class_of


def group_orbit_classes_loops(Q, G):
    """Orbit partition of Q's points under G, joining x to g(x) for every
    generator g."""
    uf = fq._UnionFind(Q.n)
    for g in G.generators:
        for x, gx in enumerate(g):
            uf.union(x, gx)
    return fq.Congruence(Q, uf.class_of()).class_of


def quotient_table_loops(Q, cong):
    """Quotient table on class representatives; ValueError at the first
    (x, y) whose class the table gets wrong."""
    reps = [cls[0] for cls in cong.classes()]
    k = len(reps)
    table = np.empty((k, k), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            table[a, b] = cong.class_of[Q.op(reps[a], reps[b])]
    for x in range(Q.n):
        for y in range(Q.n):
            a, b = cong.class_of[x], cong.class_of[y]
            if cong.class_of[Q.op(x, y)] != table[a, b]:
                raise ValueError(f"partition is not a congruence at ({x}, {y})")
    return table


def check_morphism_loops(source, target, f):
    """ValueError at the first (x, y) where f does not commute with the law."""
    if len(f) != source.n:
        raise ValueError("map length does not match source size")
    for x in range(source.n):
        for y in range(source.n):
            if f[source.op(x, y)] != target.op(f[x], f[y]):
                raise ValueError(f"not a morphism at ({x}, {y})")


def reduced_witness_loops(Q):
    """The first (y, x), x outermost, in one orbit with y |> x != x."""
    class_of = orbit_classes_loops(Q)
    for x in range(Q.n):
        for y in range(Q.n):
            if class_of[x] == class_of[y] and Q.op(y, x) != x:
                return (y, x)
    return None
