"""Inner loops over dense operation tables.

Self-distributivity is checked one row at a time, so a check needs O(n^2)
memory and stops at the first failing row.

The reductivity identities are decided on the distinct maps, not on
tuples.  S_k is the set of maps x1 -> ((x1 |> x2) |> ...) |> x_{k+1}: it
starts from S_0 = {id} and S_{k+1} = {col_y o f : f in S_k}, where
col_y(x) = x |> y.  Each layer is deduplicated and sorted, and keeps for
every map its parent in the layer below and the y that extends it, so a
witness tuple can be read back.  Once a layer equals the one below, every
later layer equals it too, and the walk stops.  Since |S_k| <= n^k, this
never does more work than a scan of all n^(c+1) tuples.

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

def _closure(table, depth):
    """Layers S_0..S_depth as (maps, parent, y) triples."""
    n = table.shape[0]
    cols = np.ascontiguousarray(table.T, dtype=np.min_scalar_type(n - 1))
    maps = np.arange(n, dtype=cols.dtype)[None, :]
    layers = [(maps, None, None)]
    while len(layers) <= depth:
        m = len(maps)
        # row y*m + i is the map x -> maps[i, x] |> y
        cand = np.take(cols, maps, axis=1).reshape(-1, n)
        # byte strings sort the same in every layer, so equal sets give equal arrays
        _, first = np.unique(cand.view(np.dtype((np.void, cand.itemsize * n))).ravel(),
                             return_index=True)
        nxt = cand[first]
        layers.append((nxt, first % m, first // m))
        if np.array_equal(nxt, maps):
            # stationary: every later layer is this one, whose parent
            # pointers stay valid because it equals the layer below
            layers += [layers[-1]] * (depth + 1 - len(layers))
            break
        maps = nxt
    return layers


def _path(layers, k, i):
    """(x2, ..., x_{k+1}) spelling map i of S_k."""
    ys = []
    for level in range(k, 0, -1):
        _, parent, y = layers[level]
        ys.append(int(y[i]))
        i = parent[i]
    return tuple(reversed(ys))


def reductive_witness(table, c):
    """(x1, ..., x_{c+1}) whose left-iterated product changes when x1 is
    dropped, or None.

    f in S_{c-1} breaks c-reductivity iff f(x1 |> x2) != f(x2) somewhere.
    """
    if c < 1:
        raise InvalidRange(f"class must be at least 1, got {c}")
    if table.shape[0] == 0:
        return None
    layers = _closure(table, c - 1)
    maps = layers[c - 1][0]
    bad = maps[:, table] != maps[:, None, :]
    if not bad.any():
        return None
    i, x1, x2 = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return (int(x1), int(x2)) + _path(layers, c - 1, i)


def weak_witness(table, c):
    """(x1, 0, x2, ..., x_{c+1}) where x1 and 0 give different products, or None.

    Weak c-nilpotency holds iff every map in S_c is constant.
    """
    if c < 1:
        raise InvalidRange(f"class must be at least 1, got {c}")
    if table.shape[0] == 0:
        return None
    layers = _closure(table, c)
    maps = layers[c][0]
    bad = maps != maps[:, :1]
    if not bad.any():
        return None
    i, x1 = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return (int(x1), 0) + _path(layers, c, i)


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
