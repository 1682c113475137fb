"""Finite racks and quandles as dense operation tables.

Elements are indices 0..n-1; table[x][y] = x > y (written x |> y below).
Named families, orbit/quotient machinery, coverings, and the universal
reduced quotient all live here.
"""

import numpy as np

from . import kernels
from .errors import (
    AxiomViolation, InvalidGroup, InvalidRange, NotAQuandle, NotNormalized, ParseError,
)
from .permgroup import perm_inv, perm_mul


class FiniteRack:
    """Validated rack on 0..n-1.  Construct through validate()."""

    def __init__(self, table, is_quandle_flag):
        self.table = table
        self.table.setflags(write=False)
        self.n = table.shape[0]
        self.is_quandle_flag = is_quandle_flag
        self._inv_table = None
        self._orbits = None

    def op(self, x, y):
        return int(self.table[x, y])

    @property
    def inv_table(self):
        """inv_table[x][y] = the unique z with x |> z = y."""
        if self._inv_table is None:
            inv = np.empty_like(self.table)
            for x in range(self.n):
                inv[x, self.table[x]] = np.arange(self.n)
            inv.setflags(write=False)
            self._inv_table = inv
        return self._inv_table

    def inv_op(self, x, y):
        return int(self.inv_table[x, y])

    def row(self, x):
        return tuple(int(v) for v in self.table[x])

    def inner_generators(self):
        """Row permutations y -> x |> y, one per element."""
        return [self.row(x) for x in range(self.n)]

    def __eq__(self, other):
        return isinstance(other, FiniteRack) and np.array_equal(
            self.table, other.table
        )

    def __hash__(self):
        return hash(self.table.tobytes())

    def __repr__(self):
        kind = "quandle" if self.is_quandle_flag else "rack"
        return f"<{kind} n={self.n}>"


class QuandleMorphism:
    """Map of racks commuting with the law; validated on construction."""

    def __init__(self, source, target, map):
        self.source = source
        self.target = target
        self.map = tuple(int(v) for v in map)
        if len(self.map) != source.n:
            raise ValueError("map length does not match source size")
        for x in range(source.n):
            for y in range(source.n):
                if self.map[source.op(x, y)] != target.op(self.map[x], self.map[y]):
                    raise ValueError(f"not a morphism at ({x}, {y})")

    def __call__(self, x):
        return self.map[x]

    def is_surjective(self):
        return len(set(self.map)) == self.target.n

    def is_injective(self):
        return len(set(self.map)) == self.source.n

    def compose(self, other):
        """self after other."""
        return QuandleMorphism(
            other.source, self.target, [self.map[v] for v in other.map]
        )


class Congruence:
    """Partition of a rack's elements compatible with the law."""

    def __init__(self, rack, class_of):
        self.rack = rack
        ids = {}
        canon = []
        for c in class_of:
            if c not in ids:
                ids[c] = len(ids)
            canon.append(ids[c])
        self.class_of = tuple(canon)
        self.num_classes = len(ids)

    def classes(self):
        out = [[] for _ in range(self.num_classes)]
        for x, c in enumerate(self.class_of):
            out[c].append(x)
        return out

    def is_identity(self):
        return self.num_classes == self.rack.n


def validate(table, require_quandle=False):
    """Check the rack axioms and wrap the table."""
    arr = np.asarray(table, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 0)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise AxiomViolation("shape", arr.shape)
    if n and (arr.min() < 0 or arr.max() >= n):
        raise AxiomViolation("range", (int(arr.min()), int(arr.max())))
    for x in range(n):
        if len(set(arr[x].tolist())) != n:
            raise AxiomViolation("bijectivity", x)
    witness = kernels.distributive_witness(arr)
    if witness is not None:
        raise AxiomViolation("distributivity", witness)
    is_quandle = all(arr[x, x] == x for x in range(n))
    if require_quandle and not is_quandle:
        bad = next(x for x in range(n) if arr[x, x] != x)
        raise NotAQuandle(bad)
    return FiniteRack(arr, is_quandle)


# -- builders ----------------------------------------------------------------

def trivial(n):
    """Trivial quandle: x |> y = y."""
    return validate(np.tile(np.arange(n, dtype=np.int64), (n, 1)))


def q_mn(m, n):
    """Two-orbit 2-nilpotent quandle on (Z/m) u (Z/n).

    Elements 0..m-1 form the first orbit, m..m+n-1 the second; acting
    across orbits shifts by one, acting within an orbit does nothing.
    """
    if m < 1 or n < 1:
        raise InvalidRange(f"orbit sizes must be at least 1, got {m} and {n}")
    size = m + n
    table = np.empty((size, size), dtype=np.int64)
    for x in range(size):
        for y in range(size):
            if (x < m) == (y < m):
                table[x, y] = y
            elif y < m:
                table[x, y] = (y + 1) % m
            else:
                table[x, y] = m + (y - m + 1) % n
    return validate(table)


def q_12():
    """Three-element quandle: one fixed point whose row swaps the other two."""
    return q_mn(1, 2)


def q_10_truncated(k):
    """Finite wrap-around stand-in for the quandle with one infinite orbit.

    The genuine object has a point acting on a copy of the integers by
    n -> n+1; no finite truncation of that orbit closes up, so this
    returns q_mn(1, k), which wraps the shift modulo k.
    """
    return q_mn(1, k)


def validate_cayley(cayley):
    """Check a Cayley table is a group; return (identity, inverse list)."""
    g = len(cayley)
    tab = [list(map(int, row)) for row in cayley]
    for row in tab:
        if len(row) != g or any(v < 0 or v >= g for v in row):
            raise InvalidGroup("malformed Cayley table")
    ident = None
    for e in range(g):
        if all(tab[e][h] == h and tab[h][e] == h for h in range(g)):
            ident = e
            break
    if ident is None:
        raise InvalidGroup("no identity element")
    inv = [None] * g
    for a in range(g):
        for b in range(g):
            if tab[a][b] == ident and tab[b][a] == ident:
                inv[a] = b
        if inv[a] is None:
            raise InvalidGroup(f"element {a} has no inverse")
    for a in range(g):
        for b in range(g):
            for c in range(g):
                if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                    raise InvalidGroup(f"associativity fails at ({a},{b},{c})")
    return ident, inv


def conj_quandle(cayley):
    """Conjugation quandle of a finite group: g |> h = g h g^-1."""
    _, inv = validate_cayley(cayley)
    tab = [list(map(int, row)) for row in cayley]
    g = len(tab)
    table = np.empty((g, g), dtype=np.int64)
    for a in range(g):
        for b in range(g):
            table[a, b] = tab[tab[a][b]][inv[a]]
    return validate(table, require_quandle=True)


# -- orbits and quotients ----------------------------------------------------

class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def class_of(self):
        return [self.find(x) for x in range(len(self.parent))]


def orbits(Q):
    """Orbit decomposition under the inner group, computed once per rack."""
    if Q._orbits is None:
        uf = _UnionFind(Q.n)
        for x in range(Q.n):
            for y in range(Q.n):
                uf.union(x, Q.op(y, x))
        Q._orbits = Congruence(Q, uf.class_of())
    return Q._orbits


def pi0(Q):
    """Trivialization: the trivial quandle on the orbit set."""
    return trivial(orbits(Q).num_classes)


def quotient_by_congruence(Q, cong):
    """Quotient rack and the projection morphism."""
    classes = cong.classes()
    reps = [cls[0] for cls in classes]
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
    quot = validate(table)
    proj = QuandleMorphism(Q, quot, cong.class_of)
    return quot, proj


def quotient_by_subgroup(Q, G):
    """Quotient by the orbits of a subgroup normalized by the inner group."""
    elems = G.elements()
    for s in Q.inner_generators():
        s_inv = perm_inv(s)
        for g in G.generators:
            if perm_mul(perm_mul(s, g), s_inv) not in elems:
                raise NotNormalized((s, g))
    uf = _UnionFind(Q.n)
    for g in G.generators:
        for x in range(Q.n):
            uf.union(x, g[x])
    cong = Congruence(Q, uf.class_of())
    quot, _ = quotient_by_congruence(Q, cong)
    return quot, cong


def is_covering(p):
    """Surjective and fiber-constant: equal images force equal rows."""
    if not p.is_surjective():
        return False
    Q = p.source
    rep = {}
    for x in range(Q.n):
        fx = p.map[x]
        if fx in rep:
            if Q.row(x) != Q.row(rep[fx]):
                return False
        else:
            rep[fx] = x
    return True


# -- reduced quotients --------------------------------------------------------

def is_reduced(Q):
    """Every element of an orbit fixes the whole orbit: y |> x = x there."""
    return reduced_witness(Q) is None


def reduced_witness(Q):
    """A pair (y, x) in one orbit with y |> x != x, or None."""
    cong = orbits(Q)
    for x in range(Q.n):
        for y in range(Q.n):
            if cong.class_of[x] == cong.class_of[y] and Q.op(y, x) != x:
                return (y, x)
    return None


def is_trivial(Q):
    return all(Q.op(x, y) == y for x in range(Q.n) for y in range(Q.n))


def reduced_quotient(Q):
    """Universal reduced quotient R(Q) with its class map.

    Builds the smallest congruence whose quotient is reduced: alternately
    close the partition under law compatibility and merge the pairs
    ((image of y) |> (image of x), image of x) forced by orbit-triviality
    in the current quotient, until a fixpoint.
    """
    uf = _UnionFind(Q.n)
    changed = True
    while changed:
        changed = False
        # law compatibility closure
        inner = True
        while inner:
            inner = False
            for x in range(Q.n):
                for x2 in range(x + 1, Q.n):
                    if uf.find(x) != uf.find(x2):
                        continue
                    for y in range(Q.n):
                        if uf.union(uf.find(Q.op(x, y)), uf.find(Q.op(x2, y))):
                            inner = True
                        if uf.union(uf.find(Q.op(y, x)), uf.find(Q.op(y, x2))):
                            inner = True
        changed = changed or inner
        cong = Congruence(Q, uf.class_of())
        quot, _ = quotient_by_congruence(Q, cong)
        w = reduced_witness(quot)
        if w is not None:
            yq, xq = w
            classes = cong.classes()
            rep_y, rep_x = classes[yq][0], classes[xq][0]
            uf.union(Q.op(rep_y, rep_x), rep_x)
            changed = True
    cong = Congruence(Q, uf.class_of())
    quot, _ = quotient_by_congruence(Q, cong)
    return quot, cong


def subquandle_generated(Q, S):
    """Close S under the law and its inverse."""
    closed = set(int(s) for s in S)
    frontier = list(closed)
    while frontier:
        nxt = []
        for x in list(closed):
            for y in list(closed):
                for z in (Q.op(x, y), Q.inv_op(x, y)):
                    if z not in closed:
                        closed.add(z)
                        nxt.append(z)
        frontier = nxt
    return closed


def subrack(Q, elements):
    """Restrict to a law-closed subset; returns (rack, sorted elements)."""
    elems = sorted(set(int(e) for e in elements))
    index = {e: i for i, e in enumerate(elems)}
    k = len(elems)
    table = np.empty((k, k), dtype=np.int64)
    for a, x in enumerate(elems):
        for b, y in enumerate(elems):
            z = Q.op(x, y)
            if z not in index:
                raise ValueError(f"subset not closed: {x} |> {y} = {z}")
            table[a, b] = index[z]
    return validate(table), elems


def find_isomorphism(A, B):
    """Backtracking search for a table isomorphism, or None."""
    if A.n != B.n:
        return None
    n = A.n
    image = [None] * n
    used = [False] * n

    def consistent(x):
        for y in range(n):
            if image[y] is None:
                continue
            for a, b in ((x, y), (y, x)):
                c = A.op(a, b)
                if image[c] is not None and image[c] != B.op(image[a], image[b]):
                    return False
        return True

    def extend(x):
        if x == n:
            return True
        for t in range(n):
            if used[t]:
                continue
            image[x] = t
            used[t] = True
            if consistent(x) and extend(x + 1):
                return True
            image[x] = None
            used[t] = False
        return False

    if extend(0):
        return list(image)
    return None


# -- file format ---------------------------------------------------------------

def parse_rack(text, require_quandle=False):
    """Parse the table file format: first n, then n rows; '#' comments."""
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
        return validate(np.zeros((0, 0), dtype=np.int64), require_quandle)
    return validate(table, require_quandle)


def load_rack(path, require_quandle=False):
    with open(path) as fh:
        return parse_rack(fh.read(), require_quandle)


def dump_rack(Q):
    lines = [str(Q.n)]
    for x in range(Q.n):
        lines.append(" ".join(str(v) for v in Q.row(x)))
    return "\n".join(lines) + "\n"
