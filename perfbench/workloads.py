"""Seeded inputs, CLI requests and answer checks for the four workloads.

Every request is one ``quandlekit.cli.main`` call.  A workload is a list
of strata; each round draws every stratum's fixed count of requests, so
all rounds share one mix of request kinds and sizes.  The strata are
ordered by cost and sized so that the median and the 90th percentile fall
inside a stratum, never on the step between two: that is what keeps the
percentiles steady from seed to seed.

No quandle table repeats within a run (tables are fresh instances or
random relabellings of a base quandle), so a per-table memo in the
program can only save work inside one request.  ``trace`` takes only
(n, c), so its few inputs do repeat.

Expected answers come from how each input was built (orbit sizes, lattice
indices, which families are nilpotent), except that the welded workload
computes each base quandle's class by the group route during set-up.
"""

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from quandlekit import finite_quandle as fq
from quandlekit import nilpotency, welded


@dataclass
class Request:
    """One CLI call.  ``argv`` excludes the leading ``--format kv``."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


class Exhausted(Exception):
    """The workload has no unused input left for a stratum."""


# -- tables ----------------------------------------------------------------------

def dihedral(p):
    x, y = np.indices((p, p))
    return (2 * x - y) % p


def alexander(m, a):
    x, y = np.indices((m, m))
    return (a * y + (1 - a) * x) % m


def _gf_mul(a, b, p, modpoly):
    """Multiply two elements of GF(p^k) coded as base-p digit integers."""
    k = len(modpoly) - 1
    da = [(a // p**i) % p for i in range(k)]
    db = [(b // p**i) % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i, u in enumerate(da):
        for j, v in enumerate(db):
            prod[i + j] = (prod[i + j] + u * v) % p
    for deg in range(2 * k - 2, k - 1, -1):
        coef = prod[deg]
        if coef:
            for i, m in enumerate(modpoly):
                prod[deg - k + i] = (prod[deg - k + i] - coef * m) % p
    return sum(prod[i] * p**i for i in range(k))


def _gf_add(a, b, p, k):
    return sum((((a // p**i) + (b // p**i)) % p) * p**i for i in range(k))


def _gf_neg(a, p, k):
    return sum(((-(a // p**i)) % p) * p**i for i in range(k))


def gf_alexander(p, modpoly, a):
    """Alexander quandle x |> y = a y + (1 - a) x over GF(p^k); modpoly is
    monic, low degree first.  Connected, so not nilpotent, when a != 0, 1."""
    k = len(modpoly) - 1
    q = p**k
    one_minus_a = _gf_add(1, _gf_neg(a, p, k), p, k)
    table = np.empty((q, q), dtype=np.int64)
    for x in range(q):
        bx = _gf_mul(one_minus_a, x, p, modpoly)
        for y in range(q):
            table[x, y] = _gf_add(_gf_mul(a, y, p, modpoly), bx, p, k)
    return table


def qmn_table(m, n):
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
    return table


def trivial_table(n):
    return np.tile(np.arange(n, dtype=np.int64), (n, 1))


def union_table(a, b):
    """Disjoint union, each part acting trivially on the other."""
    na, nb = len(a), len(b)
    table = trivial_table(na + nb)
    table[:na, :na] = a
    table[na:, na:] = np.asarray(b) + na
    return table


def conj_table(cayley):
    g, e = len(cayley), _identity(cayley)
    inv = [next(b for b in range(g) if cayley[a][b] == e) for a in range(g)]
    return np.array([[cayley[cayley[a][b]][inv[a]] for b in range(g)] for a in range(g)])


def relabel(table, rng):
    """Isomorphic copy under a random permutation of the elements."""
    n = len(table)
    perm = np.array(rng.sample(range(n), n), dtype=np.int64)
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def dump_table(table):
    lines = [str(len(table))] + [" ".join(str(int(v)) for v in row) for row in table]
    return "\n".join(lines) + "\n"


# -- groups (Cayley tables) ----------------------------------------------------

def _identity(cayley):
    g = len(cayley)
    return next(e for e in range(g) if all(cayley[e][h] == h for h in range(g)))


def dihedral_group(k):
    """Order 2k; element i + k*j is r^i s^j."""
    def mul(a, b):
        i, j, i2, j2 = a % k, a // k, b % k, b // k
        return ((i + i2) % k if j == 0 else (i - i2) % k) + k * ((j + j2) % 2)
    return [[mul(a, b) for b in range(2 * k)] for a in range(2 * k)]


def quaternion_group():
    """Q8 as {+-1, +-i, +-j, +-k}; element 2*u + s is (-1)^s * unit u."""
    units = {(0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
             (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
             (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
             (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1)}

    def mul(a, b):
        u, s = divmod(a, 2)
        v, t = divmod(b, 2)
        w, sign = units[(u, v)]
        return 2 * w + (s + t + sign) % 2
    return [[mul(a, b) for b in range(8)] for a in range(8)]


def heisenberg3():
    """Upper unitriangular 3x3 matrices over Z/3, order 27."""
    def mul(a, b):
        x1, y1, z1 = a // 9, (a // 3) % 3, a % 3
        x2, y2, z2 = b // 9, (b // 3) % 3, b % 3
        return 9 * ((x1 + x2) % 3) + 3 * ((y1 + y2) % 3) + (z1 + z2 + x1 * y2) % 3
    return [[mul(a, b) for b in range(27)] for a in range(27)]


def direct_product(A, B):
    ga, gb = len(A), len(B)
    return [[A[a1][a2] * gb + B[b1][b2] for a2 in range(ga) for b2 in range(gb)]
            for a1 in range(ga) for b1 in range(gb)]


def cyclic_group(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def subgroup(cayley, gens):
    """Elements of the subgroup generated by ``gens`` (closure under products)."""
    out = {_identity(cayley)}
    frontier = list(out)
    while frontier:
        frontier = [cayley[x][h] for x in frontier for h in gens if cayley[x][h] not in out]
        out.update(frontier)
    return sorted(out)


def relabel_group(cayley, rng):
    g = len(cayley)
    perm = rng.sample(range(g), g)
    out = [[0] * g for _ in range(g)]
    for a in range(g):
        for b in range(g):
            out[perm[a]][perm[b]] = perm[cayley[a][b]]
    return out


# -- base workload -----------------------------------------------------------------

class Workload:
    """Seeded request stream.  Subclasses define ``warmup`` and either
    ``strata`` (count, draw) pairs or their own ``round``."""

    name = ""

    def __init__(self, seed, workdir, small=False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.small = small
        self.used = set()
        self.files = 0

    def write(self, text):
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def out_path(self):
        self.files += 1
        return os.path.join(self.workdir, f"out{self.files}.txt")

    def fresh(self, key):
        """True the first time ``key`` is seen in this run."""
        if key in self.used:
            return False
        self.used.add(key)
        return True

    def round(self):
        out = []
        for count, draw in self.strata():
            for _ in range(count):
                out.extend(draw())
        return out


# -- classify ------------------------------------------------------------------------

def _envelope_text(Hs):
    """Two-nilpotent data file: orbit count, then one 'k r' lattice block each."""
    k = len(Hs)
    parts = [str(k)]
    for rows in Hs:
        parts.append(f"{k} {len(rows)}")
        parts.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(parts) + "\n"


class Classify(Workload):
    """construct -> analyze -> envelope on nilpotent quandles of 20-96 elements.

    Per round of 34 requests, 22 are construct or envelope requests, so the
    median falls among the constructs.  The four analyze requests on
    62-74-element q_mn with near-equal orbits sit just above p90, with one
    88-96-element q_mn above them; the two-nilpotent and coset chains stay
    at 20-44 elements, where the group route is cheap, so their random
    inner-group orders do not reach the tail.
    """

    name = "classify"
    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.groups = [dihedral_group(8), heisenberg3(),
                       direct_product(cyclic_group(2), dihedral_group(4)),
                       direct_product(cyclic_group(2), quaternion_group())]
        # (chains per round, chain maker, smallest size, largest size); the
        # q_mn makers bound the orbit-size difference
        self.chains = [(2, lambda s: self._qmn(s, 14), 8, 20),
                       (1, self._two_nilp, 8, 16), (1, self._coset, 8, 16)] if small else [
            (1, lambda s: self._qmn(s, 28), 20, 40), (4, lambda s: self._qmn(s, 12), 62, 74),
            (1, lambda s: self._qmn(s, 24), 88, 96),
            (4, self._two_nilp, 20, 44), (2, self._coset, 20, 44)]

    def round(self):
        """Each kind's chains have sizes spread evenly over its size range."""
        out = []
        for count, make, lo, hi in self.chains:
            for i in range(count):
                out.extend(make(lo + int((hi - lo + 1) * (i + self.rng.random()) / count)))
        return out

    def warmup(self):
        lo = self.chains[-1][2]
        return self._qmn(lo, lo) + self._two_nilp(lo) + self._coset(lo)

    def _qmn(self, size, max_diff):
        """q_mn with m + n = size and |m - n| <= max_diff (the inner group has
        order m*n, so near-equal orbits keep one size class at one cost)."""
        choices = [m for m in range(3, size - 2) if abs(2 * m - size) <= max_diff
                   and ("qmn", m, size - m) not in self.used]
        if not choices:
            raise Exhausted(f"q_mn of size {size}")
        m = self.rng.choice(choices)
        n = size - m
        self.fresh(("qmn", m, n))
        out = self.out_path()
        data = self.write(_envelope_text([[[1, 0], [0, m]], [[n, 0], [0, 1]]]))
        g = math.gcd(m, n)
        return [
            Request("construct", ["construct", "qmn", str(m), str(n), "-o", out]),
            Request("analyze", ["analyze", out], {"n": size, "orbits": sorted([m, n]),
                                                  "nilpotent": True, "max_class": 2,
                                                  "min_class": 2}),
            Request("envelope", ["envelope", data], {"free_rank": 2,
                                                     "torsion": [g] if g > 1 else []}),
        ]

    def _two_nilp(self, target):
        """Random lattice data H_i = <e_i, triangular rows with pivots d_ij>
        on 2-4 orbits, about ``target`` elements in all.

        The index of H_i is the product of its pivots, so the quandle size
        is known without the program.
        """
        rng = self.rng
        for _ in range(100000):
            k = rng.choice((2, 3, 4))
            Hs, sizes = [], []
            for i in range(k):
                rows = [[1 if j == i else 0 for j in range(k)]]
                index = 1
                for j in range(k):
                    if j == i:
                        continue
                    # most pivots are 1 when there are many, so sizes stay in range
                    d = rng.randint(2, target) if k == 2 or rng.random() < 0.5 else 1
                    row = [rng.randint(-3, 3) if l < j else 0 for l in range(k)]
                    row[j] = d
                    rows.append(row)
                    index *= d
                Hs.append(rows)
                sizes.append(index)
            total = sum(sizes)
            if abs(total - target) > 2 or not self.fresh(("2nilp", str(Hs))):
                continue
            data = self.write(_envelope_text(Hs))
            out = self.out_path()
            return [
                Request("construct", ["construct", "two-nilp", data, "-o", out]),
                Request("analyze", ["analyze", out], {"n": total, "nilpotent": True,
                                                      "max_class": 2, "min_class": 1,
                                                      "orbit_total": total}),
                Request("envelope", ["envelope", data], {"free_rank": k}),
            ]
        raise Exhausted("two-nilpotent data")

    def _coset(self, target):
        """Coset quandle of a small nilpotent group G over abelian subgroups
        H_i = <h_i, z_i> with z_i central: the construction is then valid and
        the inner group abelian, so the class is at most 2 and the identity
        route stops at c <= 2 as on the other classify inputs."""
        rng = self.rng
        for _ in range(10000):
            cayley = relabel_group(rng.choice(self.groups), rng)
            g = len(cayley)
            e = _identity(cayley)
            center = [z for z in range(g) if z != e
                      and all(cayley[z][x] == cayley[x][z] for x in range(g))]
            Hs, zs, total = [], [], 0
            while total < target - 2:
                z = rng.choice(center)
                H = subgroup(cayley, [rng.randrange(g), z])
                Hs.append(H)
                zs.append(z)
                total += g // len(H)
            if total > target + 2 or not self.fresh(("coset", str(cayley), str(Hs), str(zs))):
                continue
            lines = [str(g)] + [" ".join(map(str, row)) for row in cayley]
            lines += [str(len(Hs))] + [" ".join(map(str, H)) for H in Hs]
            lines.append(" ".join(map(str, zs)))
            data = self.write("\n".join(lines) + "\n")
            out = self.out_path()
            return [
                Request("construct", ["construct", "coset", data, "-o", out]),
                Request("analyze", ["analyze", out], {"n": total, "nilpotent": True,
                                                      "max_class": 2, "min_class": 1}),
            ]
        raise Exhausted("coset data")


# -- scan -------------------------------------------------------------------------------

def _scan_bases():
    """(name, table, nilpotent) for the small quandles the scan workload uses."""
    S3 = dihedral_group(3)
    nilp = [
        ("R4", dihedral(4)), ("R8", dihedral(8)), ("A8_3", alexander(8, 3)), ("A8_5", alexander(8, 5)), ("A9_4", alexander(9, 4)),
        ("A9_7", alexander(9, 7)), ("conjD4", conj_table(dihedral_group(4))),
        ("conjQ8", conj_table(quaternion_group())), ("q25", qmn_table(2, 5)),
        ("q34", qmn_table(3, 4)), ("R4+R4", union_table(dihedral(4), dihedral(4))),
        ("R8+1", union_table(dihedral(8), trivial_table(1))),
    ]
    non = [
        ("R5", dihedral(5)), ("A5_2", alexander(5, 2)), ("A5_3", alexander(5, 3)),
        ("R6", dihedral(6)), ("conjS3", conj_table(S3)),
        ("R7", dihedral(7)), ("A7_2", alexander(7, 2)), ("A7_3", alexander(7, 3)),
        ("A7_4", alexander(7, 4)), ("A7_5", alexander(7, 5)),
        ("GF8_2", gf_alexander(2, [1, 1, 0, 1], 2)), ("GF8_3", gf_alexander(2, [1, 1, 0, 1], 3)),
        ("GF8_5", gf_alexander(2, [1, 1, 0, 1], 5)), ("GF8_6", gf_alexander(2, [1, 1, 0, 1], 6)),
        ("R9", dihedral(9)), ("A9_2", alexander(9, 2)), ("A9_5", alexander(9, 5)),
        ("GF9_3", gf_alexander(3, [1, 0, 1], 3)), ("GF9_4", gf_alexander(3, [1, 0, 1], 4)),
    ]
    return [(n, t, True) for n, t in nilp] + [(n, t, False) for n, t in non]


class Scan(Workload):
    """analyze on quandles of 4-9 elements, where the tuple scans run up to
    MAX_SCAN_CLASS on every non-nilpotent input."""

    name = "scan"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.bases = _scan_bases()

    def strata(self):
        if self.small:
            return [(3, lambda: self._pick(True, range(4, 9))),
                    (2, lambda: self._pick(False, (5, 6)))]
        # per round of 20: 40% cheap nilpotent, then non-nilpotent of 6, 7, 8, 9
        # elements; the median falls in the 6-element block, p90 in the 8s.
        return [(8, lambda: self._pick(True, range(4, 10))),
                (5, lambda: self._pick(False, (6,))),
                (3, lambda: self._pick(False, (7,))),
                (3, lambda: self._pick(False, (8,))),
                (1, lambda: self._pick(False, (9,)))]

    def warmup(self):
        return self._pick(True, (4,)) + self._pick(False, (5,))

    def _pick(self, nilpotent, sizes):
        pool = [b for b in self.bases if b[2] == nilpotent and len(b[1]) in sizes]
        for _ in range(1000):
            _, table, _ = self.rng.choice(pool)
            table = relabel(table, self.rng)
            if not self.fresh(table.tobytes()):
                continue
            path = self.write(dump_table(table))
            return [Request("analyze", ["analyze", path],
                            {"n": len(table), "nilpotent": nilpotent})]
        raise Exhausted("scan quandles")


# -- welded ---------------------------------------------------------------------------

def _welded_bases():
    """Small quandles, nilpotent (class <= 3) and not, by size."""
    R4, q12 = dihedral(4), qmn_table(1, 2)
    return [
        trivial_table(4), R4, qmn_table(1, 3), qmn_table(2, 2), union_table(q12, trivial_table(1)),
        union_table(qmn_table(1, 3), trivial_table(1)), union_table(qmn_table(2, 2), trivial_table(1)),
        trivial_table(5), qmn_table(1, 4), qmn_table(2, 3), union_table(R4, trivial_table(1)),
        union_table(q12, trivial_table(2)),
        trivial_table(6), qmn_table(1, 5), qmn_table(2, 4), qmn_table(3, 3),
        union_table(R4, trivial_table(2)), union_table(q12, q12),
        union_table(qmn_table(2, 2), trivial_table(2)),
        qmn_table(3, 4), qmn_table(2, 5), union_table(R4, q12),
        dihedral(8), alexander(8, 3), alexander(8, 5), conj_table(dihedral_group(4)),
        conj_table(quaternion_group()), qmn_table(4, 4), qmn_table(3, 5),
        union_table(R4, R4),
        dihedral(3), dihedral(5), alexander(5, 2), dihedral(6), conj_table(dihedral_group(3)),
        dihedral(7), alexander(7, 3),
    ]


class Welded(Workload):
    """braid --check-gamma c on (strands, c) = (3, 2) and (4, 3)."""

    name = "welded"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        # the group-route class of each base; relabelling keeps it
        self.bases = []
        for table in _welded_bases():
            cls = nilpotency.nilpotency_class(fq.validate(table, require_quandle=True))
            self.bases.append((table, cls))

    def strata(self):
        if self.small:
            return [(2, lambda: self._pick(3, 2, None, range(3, 9))),
                    (2, lambda: self._pick(4, 3, True, (5,)))]
        # per round of 20: 30% checks that fail on an early braid, 40% full
        # 3-strand checks (24 braids), then full 4-strand checks (768 braids)
        # on 5- and 7-element quandles; the median falls among the 3-strand
        # checks, p90 among the 5-element 4-strand checks, which take most
        # of the time.
        return [(3, lambda: self._pick(4, 3, False, range(3, 8))),
                (3, lambda: self._pick(3, 2, False, range(4, 9))),
                (8, lambda: self._pick(3, 2, True, range(4, 9))),
                (5, lambda: self._pick(4, 3, True, (5,))),
                (1, lambda: self._pick(4, 3, True, (7,)))]

    def warmup(self):
        return self._pick(3, 2, None, range(3, 9)) + self._pick(4, 3, True, (5,))

    def _pick(self, strands, c, trivial, sizes):
        """A request whose expected verdict is ``trivial`` (None: either)."""
        rng = self.rng
        pool = [(t, cls) for t, cls in self.bases if len(t) in sizes
                and (trivial is None or (cls is not None and cls <= c) == trivial)]
        for _ in range(1000):
            table, cls = rng.choice(pool)
            table = relabel(table, rng)
            if not self.fresh(table.tobytes()):
                continue
            path = self.write(dump_table(table))
            word = " ".join(self._token(strands) for _ in range(rng.randint(1, 3)))
            tup = " ".join(str(rng.randrange(len(table))) for _ in range(strands))
            return [Request("braid", ["braid", path, word, tup, "--check-gamma", str(c)],
                            {"c": c, "strands": strands, "trivial": cls is not None and cls <= c,
                             "path": path})]
        raise Exhausted("welded quandles")

    def _token(self, strands):
        rng = self.rng
        kind = rng.choice("Kts")
        if kind == "K":
            i, j = rng.sample(range(1, strands + 1), 2)
            return f"K{i}{j}" + rng.choice(("", "^-1"))
        i = rng.randint(1, strands - 1)
        return f"t{i}" if kind == "t" else f"s{i}" + rng.choice(("", "^-1"))


# -- freenilp --------------------------------------------------------------------------

class FreeNilp(Workload):
    """freenilp (Magnus arithmetic) and trace (Lie traces) on seeded words."""

    name = "freenilp"

    def strata(self):
        if self.small:
            return [(2, lambda: self._trace((2, 3), range(3, 6))),
                    (2, lambda: self._freenilp([(2, 3), (3, 3)], range(4, 7)))]
        # per round of 20: 30% cheap requests; 40% freenilp on 10-letter words
        # at (n, c) = (2, 6), (3, 4), where the median falls; 25% trace at
        # (3, 10) and (4, 9), where p90 falls; one heavy freenilp at (3, 5).
        # Longer words vary less in cost: their expansions are nearly dense.
        return [(3, lambda: self._trace((2, 3, 4), range(3, 8))),
                (3, lambda: self._freenilp([(2, 4), (3, 3), (4, 3)], (10,))),
                (8, lambda: self._freenilp([(2, 6), (3, 4)], (10,))),
                (2, lambda: self._trace((4,), (9,))),
                (3, lambda: self._trace((3,), (10,))),
                (1, lambda: self._freenilp([(3, 5)], (8, 9, 10)))]

    def warmup(self):
        return self._trace((2,), (3,)) + self._freenilp([(2, 3)], (4,))

    def _trace(self, ns, cs):
        n, c = self.rng.choice(ns), self.rng.choice(cs)
        return [Request("trace", ["trace", "--n", str(n), "--c", str(c)], {"c": c})]

    def _freenilp(self, configs, lengths):
        rng = self.rng
        for _ in range(1000):
            n, c = rng.choice(configs)
            length = rng.choice(lengths)
            word = []
            while len(word) < length:
                letter = rng.choice([1, -1]) * rng.randint(1, n)
                if not word or word[-1] != -letter:
                    word.append(letter)
            gen = rng.randint(1, n)
            if not self.fresh(("freenilp", n, c, tuple(word), gen)):
                continue
            text = " ".join(f"x{abs(l)}" + ("^-1" if l < 0 else "") for l in word)
            sums = [sum(1 if l == g else -1 if l == -g else 0 for l in word)
                    for g in range(1, n + 1)]
            return [Request("freenilp", ["freenilp", "--n", str(n), "--c", str(c),
                                         "--word", text, "--gen", str(gen)],
                            {"weight1": any(sums)})]
        raise Exhausted("freenilp words")


WORKLOADS = {w.name: w for w in (Classify, Scan, Welded, FreeNilp)}


# -- checks ---------------------------------------------------------------------------

def parse_kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _int_or_none(value):
    return None if value in (None, "none") else int(value)


def _ints(value):
    return [int(v) for v in value.strip("[]").split(",") if v]


def check(req, rc, stdout):
    """Return (verdict, error).  The verdict is the answer in a stable text
    form for the run's digest; error is None when the answer is right."""
    if rc != 0:
        return f"{req.kind}:rc={rc}", f"exit code {rc}"
    kv = parse_kv(stdout)
    e = req.expect
    if req.kind == "construct":
        return "construct:ok", None
    if req.kind == "analyze":
        keys = ("n", "orbit_sizes", "inn_order", "nilpotency_class", "reductive_class",
                "weak_class", "is_reduced", "residually_nilpotent", "covering_chain_sizes")
        verdict = "analyze:" + ",".join(f"{k}={kv.get(k)}" for k in keys)
        cls = _int_or_none(kv.get("nilpotency_class"))
        red, weak = _int_or_none(kv.get("reductive_class")), _int_or_none(kv.get("weak_class"))
        if kv.get("n") != str(e["n"]):
            return verdict, f"n={kv.get('n')}, expected {e['n']}"
        if (cls is not None) != e["nilpotent"]:
            return verdict, f"class {cls}, expected nilpotent={e['nilpotent']}"
        if (cls is None or cls <= nilpotency.MAX_SCAN_CLASS) and not (cls == red == weak):
            return verdict, f"routes disagree: class {cls}, reductive {red}, weak {weak}"
        if cls is not None and not (e.get("min_class", 1) <= cls <= e.get("max_class", cls)):
            return verdict, f"class {cls} out of range"
        if "orbits" in e and _ints(kv.get("orbit_sizes", "")) != e["orbits"]:
            return verdict, f"orbit sizes {kv.get('orbit_sizes')}, expected {e['orbits']}"
        if "orbit_total" in e and sum(_ints(kv.get("orbit_sizes", ""))) != e["orbit_total"]:
            return verdict, "orbit sizes do not add up to the coset indices"
        return verdict, None
    if req.kind == "envelope":
        keys = ("free_rank", "center_free_rank", "torsion", "abelian", "injective")
        verdict = "envelope:" + ",".join(f"{k}={kv.get(k)}" for k in keys)
        if kv.get("free_rank") != str(e["free_rank"]):
            return verdict, f"free rank {kv.get('free_rank')}, expected {e['free_rank']}"
        if "torsion" in e and _ints(kv.get("torsion", "")) != e["torsion"]:
            return verdict, f"torsion {kv.get('torsion')}, expected {e['torsion']}"
        return verdict, None
    if req.kind == "braid":
        key = f"gamma{e['c']}_trivial"
        verdict = f"braid:output={kv.get('output')},{key}={kv.get(key)}"
        if kv.get(key) != str(e["trivial"]).lower():
            return verdict, f"{key}={kv.get(key)}, expected {e['trivial']}"
        if not e["trivial"]:
            tup = tuple(int(t) for t in kv.get("witness_tuple", "").split())
            Q = fq.load_rack(e["path"], require_quandle=True)
            braids = welded.weight_c_commutators(e["strands"], e["c"])
            if len(tup) != e["strands"] or all(welded.act_tuple(b, Q, tup) == tup for b in braids):
                return verdict, f"witness tuple {tup} is fixed by every weight-{e['c']} braid"
        return verdict, None
    if req.kind == "freenilp":
        verdict = (f"freenilp:gamma_weight={kv.get('gamma_weight')},"
                   f"expansion={kv.get('expansion')},element={kv.get('element')}")
        if kv.get("idempotent") != "true":
            return verdict, "element is not idempotent"
        if (kv.get("gamma_weight") == "1") != e["weight1"]:
            return verdict, f"gamma weight {kv.get('gamma_weight')} disagrees with exponent sums"
        return verdict, None
    if req.kind == "trace":
        verdict = f"trace:{kv.get('trace')}"
        if kv.get("nonzero") != "true" or kv.get("degree") != str(e["c"] - 1):
            return verdict, "trace is zero or has the wrong degree"
        return verdict, None
    raise ValueError(f"unknown request kind {req.kind}")
