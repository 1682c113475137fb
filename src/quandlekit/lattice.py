"""Exact integer linear algebra: HNF, SNF, lattices in Z^n.

Everything runs on Python ints (coefficient growth in SNF is real even
for small matrices).  The HNF here is canonical row form: positive
pivots, entries above each pivot reduced into [0, pivot), zero rows
dropped, so lattice equality is plain matrix equality.
"""

from itertools import product

from .errors import CapExceeded, InfiniteIndex, ParseError


def _copy(M):
    return [list(map(int, row)) for row in M]


def hnf_with_transform(M, cols):
    """Row HNF plus a unimodular U with U*M = (H padded with zero rows)."""
    mat = _copy(M)
    m = len(mat)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for col in range(cols):
        pivot_row = None
        for i in range(r, m):
            if mat[i][col] != 0:
                if pivot_row is None or abs(mat[i][col]) < abs(mat[pivot_row][col]):
                    pivot_row = i
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        U[r], U[pivot_row] = U[pivot_row], U[r]
        while True:
            done = True
            for i in range(r + 1, m):
                if mat[i][col] == 0:
                    continue
                q = mat[i][col] // mat[r][col]
                for j in range(cols):
                    mat[i][j] -= q * mat[r][j]
                for j in range(m):
                    U[i][j] -= q * U[r][j]
                if mat[i][col] != 0:
                    done = False
                    # remainder became the smaller entry: bring it up
                    mat[r], mat[i] = mat[i], mat[r]
                    U[r], U[i] = U[i], U[r]
            if done:
                break
        if mat[r][col] < 0:
            mat[r] = [-v for v in mat[r]]
            U[r] = [-v for v in U[r]]
        p = mat[r][col]
        for i in range(r):
            q = mat[i][col] // p
            if q:
                for j in range(cols):
                    mat[i][j] -= q * mat[r][j]
                for j in range(m):
                    U[i][j] -= q * U[r][j]
        r += 1
    return [row for row in mat if any(row)], U


def hnf(M, cols=None):
    """Canonical row Hermite normal form, zero rows dropped."""
    if cols is None:
        cols = len(M[0]) if M else 0
    return hnf_with_transform(M, cols)[0]


def snf_invariants(M, cols=None):
    """Smith normal form diagonal d1 | d2 | ... (positive, 1s included)."""
    if cols is None:
        cols = len(M[0]) if M else 0
    mat = _copy(M)
    rows = len(mat)
    invariants = []
    top = 0
    while True:
        pivot = None
        for i in range(top, rows):
            for j in range(top, cols):
                if mat[i][j] != 0:
                    if pivot is None or abs(mat[i][j]) < abs(mat[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        mat[top], mat[pi] = mat[pi], mat[top]
        for row in mat:
            row[top], row[pj] = row[pj], row[top]
        while True:
            p = mat[top][top]
            dirty = False
            for i in range(top + 1, rows):
                if mat[i][top]:
                    q = mat[i][top] // p
                    for j in range(top, cols):
                        mat[i][j] -= q * mat[top][j]
                    if mat[i][top]:
                        mat[top], mat[i] = mat[i], mat[top]
                        dirty = True
                        p = mat[top][top]
            for j in range(top + 1, cols):
                if mat[top][j]:
                    q = mat[top][j] // p
                    for i in range(top, rows):
                        mat[i][j] -= q * mat[i][top]
                    if mat[top][j]:
                        for i in range(top, rows):
                            mat[i][top], mat[i][j] = mat[i][j], mat[i][top]
                        dirty = True
                        p = mat[top][top]
            if not dirty:
                break
        # pivot must divide the remaining block for the divisibility chain
        p = mat[top][top]
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if mat[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                mat[top][j] += mat[offender][j]
            continue
        invariants.append(abs(p))
        top += 1
        if top >= rows or top >= cols:
            break
    return invariants


class IntLattice:
    """Sublattice of Z^n, stored as a canonical HNF basis."""

    def __init__(self, n, generators):
        self.n = n
        for row in generators:
            if len(row) != n:
                raise ValueError("generator length does not match ambient dim")
        self.basis = [tuple(row) for row in hnf(generators, cols=n)]
        self.rank = len(self.basis)
        self._pivots = []
        for row in self.basis:
            col = next(j for j, v in enumerate(row) if v)
            self._pivots.append(col)

    @classmethod
    def full(cls, n):
        return cls(n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, IntLattice)
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, tuple(self.basis)))

    def reduce(self, v):
        """Canonical coset representative of v modulo the lattice."""
        v = list(map(int, v))
        for row, col in zip(self.basis, self._pivots):
            q = v[col] // row[col]
            if q:
                for j in range(self.n):
                    v[j] -= q * row[j]
        return tuple(v)

    def member(self, v):
        return all(x == 0 for x in self.reduce(v))

    def quotient_invariants(self):
        """(free rank, torsion factors > 1) of Z^n modulo this lattice."""
        if not self.basis:
            return self.n, []
        diag = snf_invariants([list(r) for r in self.basis], cols=self.n)
        torsion = [d for d in diag if d > 1]
        return self.n - len(diag), torsion

    def index(self):
        free, torsion = self.quotient_invariants()
        if free > 0:
            raise InfiniteIndex(f"quotient has free rank {free}")
        out = 1
        for d in torsion:
            out *= d
        return out

    def cosets(self, cap=10**6):
        """All canonical coset representatives (finite index only), sorted.

        At finite index the HNF has a pivot p_j in every column j, and
        `reduce` leaves exactly the vectors with 0 <= v_j < p_j.  So the
        representatives are that box, which `product` lists in sorted order.
        """
        total = self.index()
        if total > cap:
            raise CapExceeded(cap)
        return list(product(*(range(row[col]) for row, col in zip(self.basis, self._pivots))))


def member(v, L):
    return L.member(v)


def quotient_invariants(L):
    return L.quotient_invariants()


def cosets(L, cap=10**6):
    return L.cosets(cap)


def wedge_index(i, j, n):
    """Position of e_i ^ e_j (i < j) in the lexicographic Lambda^2 basis."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def wedge_vector(i, h, n):
    """Coordinates of e_i ^ h in Lambda^2(Z^n)."""
    N = n * (n - 1) // 2
    out = [0] * N
    for j, coef in enumerate(h):
        if coef == 0 or j == i:
            continue
        if i < j:
            out[wedge_index(i, j, n)] += coef
        else:
            out[wedge_index(j, i, n)] -= coef
    return out


def wedge_image(Hs):
    """The sublattice sum_i e_i ^ H_i of Lambda^2(Z^n)."""
    n = len(Hs)
    for H in Hs:
        if H.n != n:
            raise ValueError("each lattice must live in Z^n with n = len(Hs)")
    N = n * (n - 1) // 2
    rows = []
    for i, H in enumerate(Hs):
        for h in H.basis:
            rows.append(wedge_vector(i, h, n))
    return IntLattice(N, rows)


# -- file format ----------------------------------------------------------------

def parse_lattice_lines(lines, start_lineno=1):
    """Parse "n k" then k generator rows; returns (IntLattice, lines used)."""
    cleaned = []
    for offset, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        cleaned.append((line, start_lineno + offset))
    idx = 0
    while idx < len(cleaned) and not cleaned[idx][0]:
        idx += 1
    if idx >= len(cleaned):
        raise ParseError(start_lineno, "missing lattice header")
    header, lineno = cleaned[idx]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(lineno, "header must be 'n k'")
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, "header must be two integers")
    rows = []
    idx += 1
    while len(rows) < k:
        if idx >= len(cleaned):
            raise ParseError(lineno, f"expected {k} generator rows")
        line, rlineno = cleaned[idx]
        idx += 1
        if not line:
            continue
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(rlineno, f"non-integer token in {line!r}")
        if len(row) != n:
            raise ParseError(rlineno, f"expected {n} entries, got {len(row)}")
        rows.append(row)
    return IntLattice(n, rows), idx


def parse_lattice(text):
    lat, _ = parse_lattice_lines(text.splitlines())
    return lat


def load_lattice(path):
    with open(path) as fh:
        return parse_lattice(fh.read())


def dump_lattice(L):
    lines = [f"{L.n} {len(L.basis)}"]
    for row in L.basis:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
