"""Inner loops over dense operation tables.

Self-distributivity is checked one row at a time, so a check needs O(n^2)
memory and stops at the first failing row.

The reductivity identities are decided on the distinct maps, not on
tuples.  S_k is the set of maps x1 -> ((x1 |> x2) |> ...) |> x_{k+1}: it
starts from S_0 = {id} and S_{k+1} = {col_y o f : f in S_k}, where
col_y(x) = x |> y.  Each layer is deduplicated and sorted, and keeps for
every map its parent in the layer below and the y that extends it, so a
witness tuple can be read back.  The layers are the powers A, A^2, ... of
the column set A in the finite monoid of maps, so some layer equals an
earlier one; the walk stops at the first such repeat, and every later
layer is read from the cycle it closes.  Both identities hold for every
c past the first that satisfies them, so checking c up to the repeat
decides each class exactly.  Since |S_k| <= n^k, the walk never does
more work than a scan of all n^(c+1) tuples.

The welded-braid action is checked on all colour tuples Q^n at once.
"""

import numpy as np

from .errors import InvalidRange


def backend_name():
    return "numpy"


# -- self-distributivity ----------------------------------------------------

def distributive_witness(table):
    """The first (x, y, z) with x |> (y |> z) != (x |> y) |> (x |> z), or None."""
    n = table.shape[0]
    for x in range(n):
        r = table[x]
        bad = r[table] != table[r[:, None], r[None, :]]
        if bad.any():
            y, z = divmod(int(np.argmax(bad)), n)
            return (x, y, z)
    return None


# -- reductivity identities -------------------------------------------------

class _Walk:
    """The layers S_0, S_1, ... of one table, each built when first asked for.

    Layer k is kept as (maps, parent, y): the sorted distinct maps, and
    for each the index of its parent in layer k-1 and the y that extends
    it.  Growth stops at the first layer S_end equal (by bytes) to an
    earlier S_start; a depth past end is read from the cycle start+1..end.
    Parent pointers stay valid there: equal sets of maps give equal sorted
    arrays, so S_end's array is S_start's.
    """

    def __init__(self, table):
        n = table.shape[0]
        self._cols = np.ascontiguousarray(table.T, dtype=np.min_scalar_type(n - 1))
        identity = np.arange(n, dtype=self._cols.dtype)[None, :]
        self._layers = [(identity, None, None)]
        self._depth_of = {identity.tobytes(): 0}
        self.start = self.end = None

    def _grow(self):
        maps = self._layers[-1][0]
        m, n = maps.shape
        # row y*m + i is the map x -> maps[i, x] |> y
        cand = np.take(self._cols, maps, axis=1).reshape(-1, n)
        _, first = np.unique(cand.view(np.dtype((np.void, cand.itemsize * n))).ravel(),
                             return_index=True)
        nxt = cand[first]
        depth = len(self._layers)
        self._layers.append((nxt, first % m, first // m))
        key = nxt.tobytes()
        if key in self._depth_of:
            self.start, self.end = self._depth_of[key], depth
        else:
            self._depth_of[key] = depth

    def layer(self, k):
        """(maps, parent, y) of S_k."""
        while self.end is None and len(self._layers) <= k:
            self._grow()
        if self.end is not None and k > self.end:
            k = self.start + 1 + (k - self.start - 1) % (self.end - self.start)
        return self._layers[k]

    def witness(self, head, k, i):
        """head followed by the (x2, ..., x_{k+1}) that spell map i of S_k."""
        out = np.empty(len(head) + k, self._cols.dtype)
        out[:len(head)] = head
        for level in range(k, 0, -1):
            _, parent, y = self.layer(level)
            out[len(head) + level - 1] = y[i]
            i = parent[i]
        # a memoryview has a length, so tuple() allocates the witness once
        return tuple(memoryview(out))


def reductive_witness(table, c, walk=None):
    """(x1, ..., x_{c+1}) whose left-iterated product changes when x1 is
    dropped, or None.

    f in S_{c-1} breaks c-reductivity iff f(x1 |> x2) != f(x2) somewhere.
    `walk` is a walk over the same table, reused across calls.
    """
    if c < 1:
        raise InvalidRange(f"class must be at least 1, got {c}")
    if table.shape[0] == 0:
        return None
    if walk is None:
        walk = _Walk(table)
    maps = walk.layer(c - 1)[0]
    bad = maps[:, table] != maps[:, None, :]
    if not bad.any():
        return None
    i, x1, x2 = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return walk.witness((x1, x2), c - 1, i)


def weak_witness(table, c, walk=None):
    """(x1, 0, x2, ..., x_{c+1}) where x1 and 0 give different products, or None.

    Weak c-nilpotency holds iff every map in S_c is constant.  `walk` is a
    walk over the same table, reused across calls.
    """
    if c < 1:
        raise InvalidRange(f"class must be at least 1, got {c}")
    if table.shape[0] == 0:
        return None
    if walk is None:
        walk = _Walk(table)
    maps = walk.layer(c)[0]
    bad = maps != maps[:, :1]
    if not bad.any():
        return None
    i, x1 = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return walk.witness((x1, 0), c, i)


def identity_classes(table):
    """(least c that is c-reductive, least c that is weakly c-nilpotent),
    each None if there is none, from one walk.

    Both identities hold for every c past the first that satisfies them.
    Checking c = 1..end sees every layer the walk ever reaches, so a class
    not found by then does not exist.
    """
    walk = _Walk(table)
    red = weak = None
    c = 1
    while red is None or weak is None:
        if red is None and reductive_witness(table, c, walk) is None:
            red = c
        if weak is None and weak_witness(table, c, walk) is None:
            weak = c
        if walk.end is not None and c >= walk.end:
            break
        c += 1
    return red, weak


# -- welded-braid action on colour tuples -----------------------------------
#
# A braid is handed over as (sigma, letters, offsets): strand i reads its
# word as letters[offsets[i]:offsets[i+1]], a letter +j meaning "apply the
# row of the colour on strand j" and -j its inverse.  The braid acts
# trivially iff every colour tuple is fixed.

def braid_fixes_all(rows, rows_inv, sigma, letters, offsets, nstr):
    """A colour tuple the braid moves, or None if it fixes all of Q^nstr."""
    m = rows.shape[0]
    if m == 0:
        return None
    grids = np.indices((m,) * nstr).reshape(nstr, -1)
    for i in range(nstr):
        p = grids[sigma[i]]
        for k in range(offsets[i + 1] - 1, offsets[i] - 1, -1):
            l = letters[k]
            if l > 0:
                p = rows[grids[l - 1], p]
            else:
                p = rows_inv[grids[-l - 1], p]
        bad = p != grids[i]
        if bad.any():
            return tuple(int(v) for v in grids[:, int(np.argmax(bad))])
    return None


def pack_words(words):
    """Flatten per-strand letter words into (letters, offsets) arrays."""
    offsets = np.zeros(len(words) + 1, np.int64)
    for i, w in enumerate(words):
        offsets[i + 1] = offsets[i] + len(w)
    letters = np.empty(offsets[-1], np.int64)
    pos = 0
    for w in words:
        for l in w:
            letters[pos] = l
            pos += 1
    return letters, offsets
