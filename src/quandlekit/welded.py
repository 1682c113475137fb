"""Welded braids as basis-conjugating free-group automorphisms.

An automorphism sends x_i to w_i x_{sigma(i)} w_i^-1; the named
generators are K_ij (pure welded), tau_i (strand swap), and sigma_i
(crossing).  Such a braid acts on colour tuples in Q^n by evaluating
each w_i through the rows of the colours.

The nilpotency detector works on the permutations that the K_ij induce
on the |Q|^n colour tuples.  The weight-c commutators form a tree (each
is [a, K_ij] for a commutator a of weight c-1), and the detector walks
it depth first by composing index arrays.  Only the first commutator
that moves a tuple is evaluated as a braid word, to name the tuple.
"""

import random
import re
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import BudgetExceeded, InvalidRange, NotInvertibleRepresentation, ParseError
from .words import concat, free_reduce, invert as word_invert

_BRAID_TOKEN = re.compile(r"^(K(\d)(\d)|t(\d+)|s(\d+))(\^-1)?$")


class BasisConjAuto:
    """x_i -> w_i x_{sigma(i)} w_i^-1 on the free group F_n.

    sigma is stored 0-indexed; words use signed 1-indexed letters.
    provenance tracks the generator factorization when known, enabling
    exact inversion.
    """

    def __init__(self, n, sigma, ws, provenance=None):
        self.n = n
        self.sigma = tuple(sigma)
        self.ws = tuple(free_reduce(w) for w in ws)
        self.provenance = provenance

    @classmethod
    def identity(cls, n):
        return cls(n, range(n), [()] * n, provenance=())

    def image(self, letter):
        """Image word of a single signed letter."""
        j = abs(letter) - 1
        w = concat(self.ws[j], (self.sigma[j] + 1,), word_invert(self.ws[j]))
        return w if letter > 0 else word_invert(w)

    def apply_word(self, word):
        out = ()
        for letter in word:
            out = concat(out, self.image(letter))
        return out

    def is_identity(self):
        if self.sigma != tuple(range(self.n)):
            return False
        return all(self.image(i + 1) == (i + 1,) for i in range(self.n))

    def __eq__(self, other):
        return (
            isinstance(other, BasisConjAuto)
            and self.n == other.n
            and self.sigma == other.sigma
            and all(self.image(i + 1) == other.image(i + 1) for i in range(self.n))
        )

    def __hash__(self):
        return hash((self.n, self.sigma, tuple(self.image(i + 1) for i in range(self.n))))


def K(i, j, n):
    """x_i -> x_j x_i x_j^-1, all other generators fixed (1-indexed)."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need distinct strand indices in range")
    ws = [()] * n
    ws[i - 1] = (j,)
    return BasisConjAuto(n, range(n), ws, provenance=((f"K{i}{j}", 1),))


def K_inv(i, j, n):
    ws = [()] * n
    ws[i - 1] = (-j,)
    return BasisConjAuto(n, range(n), ws, provenance=((f"K{i}{j}", -1),))


def tau(i, n):
    """Swap of x_i and x_{i+1} (1-indexed i < n)."""
    if not 1 <= i < n:
        raise ValueError("tau index out of range")
    sigma = list(range(n))
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    return BasisConjAuto(n, sigma, [()] * n, provenance=((f"t{i}", 1),))


def crossing(i, n):
    """sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i."""
    if not 1 <= i < n:
        raise ValueError("crossing index out of range")
    sigma = list(range(n))
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    ws = [()] * n
    ws[i - 1] = (i,)
    return BasisConjAuto(n, sigma, ws, provenance=((f"s{i}", 1),))


def crossing_inv(i, n):
    """x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}."""
    sigma = list(range(n))
    sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
    ws = [()] * n
    ws[i] = (-(i + 1),)
    return BasisConjAuto(n, sigma, ws, provenance=((f"s{i}", -1),))


def generators(n):
    """All named generators: K_ij (i != j), tau_i, sigma_i."""
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                out[f"K{i}{j}"] = K(i, j, n)
    for i in range(1, n):
        out[f"t{i}"] = tau(i, n)
        out[f"s{i}"] = crossing(i, n)
    return out


def _generator_power(name, exp, n):
    if name.startswith("K"):
        i, j = int(name[1]), int(name[2])
        return K(i, j, n) if exp == 1 else K_inv(i, j, n)
    if name.startswith("t"):
        return tau(int(name[1:]), n)
    if name.startswith("s"):
        i = int(name[1:])
        return crossing(i, n) if exp == 1 else crossing_inv(i, n)
    raise ValueError(f"unknown generator {name!r}")


def compose(a, b):
    """(a o b)(x) = a(b(x))."""
    if a.n != b.n:
        raise ValueError("strand counts differ")
    n = a.n
    sigma = tuple(a.sigma[b.sigma[i]] for i in range(n))
    ws = []
    for i in range(n):
        ws.append(concat(a.apply_word(b.ws[i]), a.ws[b.sigma[i]]))
    prov = None
    if a.provenance is not None and b.provenance is not None:
        prov = a.provenance + b.provenance
    return BasisConjAuto(n, sigma, ws, provenance=prov)


def invert(a):
    """Inverse via the tracked generator factorization."""
    if a.provenance is None:
        raise NotInvertibleRepresentation(
            "automorphism was not built from named generators"
        )
    out = BasisConjAuto.identity(a.n)
    for name, exp in reversed(a.provenance):
        out = compose(out, _generator_power(name, -exp, a.n))
    return out


def commutator(a, b):
    """[a, b] = a b a^-1 b^-1 under composition."""
    return compose(compose(a, b), compose(invert(a), invert(b)))


def parse_braid(text, n):
    """Braid word tokens K12, K12^-1, t1, s2, s2^-1, applied left to right."""
    out = BasisConjAuto.identity(n)
    for pos, tok in enumerate(text.split()):
        m = _BRAID_TOKEN.match(tok)
        if not m:
            raise ParseError(pos + 1, f"bad braid token {tok!r}")
        exp = -1 if m.group(6) else 1
        if m.group(2):
            i, j = int(m.group(2)), int(m.group(3))
            if i == j or i > n or j > n:
                raise ParseError(pos + 1, f"strand index out of range in {tok!r}")
            g = K(i, j, n) if exp == 1 else K_inv(i, j, n)
        elif m.group(4):
            i = int(m.group(4))
            if not 1 <= i < n:
                raise ParseError(pos + 1, f"strand index out of range in {tok!r}")
            g = tau(i, n)
        else:
            i = int(m.group(5))
            if not 1 <= i < n:
                raise ParseError(pos + 1, f"strand index out of range in {tok!r}")
            g = crossing(i, n) if exp == 1 else crossing_inv(i, n)
        out = compose(out, g)
    return out


@dataclass
class Colouring:
    quandle: object
    tuple: tuple


def act_tuple(beta, Q, tup):
    """beta . (q_1..q_n) = (w_i(q) . q_{sigma(i)})_i with x_j acting as the
    row of q_j."""
    if beta.n != len(tup):
        raise ValueError("strand count does not match tuple length")
    out = []
    for i in range(beta.n):
        p = tup[beta.sigma[i]]
        for letter in reversed(beta.ws[i]):
            if letter > 0:
                p = Q.op(tup[letter - 1], p)
            else:
                p = Q.inv_op(tup[-letter - 1], p)
        out.append(p)
    return tuple(out)


def act(beta, col):
    return Colouring(col.quandle, act_tuple(beta, col.quandle, col.tuple))


# -- nilpotency detector -------------------------------------------------------

# n -> [(braids, parent, gen)], weight k at index k-1; see _commutator_tree
_commutator_levels = {}


def _strand_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _commutator_tree(n, c):
    """The weight-1..c levels of left-normed K_ij commutators on n strands.

    Level k holds (braids, parent, gen): braid number i is
    commutator(a, g) with a = braid number parent[i] of level k-1 and g
    the K_ij numbered gen[i], kept only if it is neither the identity nor
    equal to an earlier braid of its level.  Braids come in order of
    (parent, gen).  Level 1 is the K_ij themselves, with no parents.
    """
    levels = _commutator_levels.setdefault(n, [])
    if not levels:
        levels.append(([K(i, j, n) for i, j in _strand_pairs(n)], None, None))
    gens = levels[0][0]
    while len(levels) < c:
        braids, parent, gen = [], [], []
        seen = set()
        for p, a in enumerate(levels[-1][0]):
            for g, b in enumerate(gens):
                com = commutator(a, b)
                if com.is_identity() or com in seen:
                    continue
                seen.add(com)
                braids.append(com)
                parent.append(p)
                gen.append(g)
        levels.append((braids, parent, gen))
    return levels[:c]


def weight_c_commutators(n, c):
    """Deduplicated left-normed weight-c commutators of the K_ij generators.

    Quandle-independent, so every level is cached per n and the same list
    is returned on each call.  Checking these suffices for the whole
    lower-central term: elements acting trivially form a normal subgroup
    of the acting group.
    """
    if c < 1:
        raise InvalidRange(f"commutator weight must be at least 1, got {c}")
    return _commutator_tree(n, c)[-1][0]


def _generator_permutations(Q, n):
    """The permutations of the flattened tuples of Q^n induced by the K_ij,
    one row each, in the order of _strand_pairs.

    K_ij changes only colour i, to q_j |> q_i, so its index array moves
    each tuple by a multiple of the stride of coordinate i.
    """
    m = Q.n
    rows = np.asarray(Q.table, dtype=np.int64)
    grids = np.indices((m,) * n).reshape(n, -1)
    pairs = _strand_pairs(n)
    # filled in place: a list of rows and its stacked copy would double the peak
    perms = np.empty((len(pairs), grids.shape[1]), np.int64)
    for g, (i, j) in enumerate(pairs):
        ti, tj = grids[i - 1], grids[j - 1]
        np.add(np.arange(grids.shape[1]), (rows[tj, ti] - ti) * m ** (n - i), out=perms[g])
    return perms


def _braid_arrays(beta):
    sigma = np.array(beta.sigma, dtype=np.int64)
    letters, offsets = kernels.pack_words(beta.ws)
    return sigma, letters, offsets


def gamma_c_acts_trivially(Q, n, c, mode="exhaustive", budget=10**5, seed=0):
    """Does the weight-c part of the pure welded braid group fix all of Q^n?

    Returns (ok, witness); the witness is (braid, tuple) for the first
    violation found.  In exhaustive mode that is the first braid of
    weight_c_commutators(n, c) that moves a tuple, and the first tuple
    of Q^n it moves.
    """
    if c < 1:
        raise InvalidRange(f"commutator weight must be at least 1, got {c}")
    if mode == "exhaustive":
        if Q.n**n > budget:
            raise BudgetExceeded(budget)
    elif mode == "sample":
        if budget < 1:
            raise InvalidRange(f"sample budget must be at least 1, got {budget}")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    braids = weight_c_commutators(n, c)
    if not braids:
        return True, None
    if mode == "sample":
        rng = random.Random(seed)
        checks = 0
        while checks < budget:
            beta = rng.choice(braids)
            tup = tuple(rng.randrange(Q.n) for _ in range(n))
            if act_tuple(beta, Q, tup) != tup:
                return False, (beta, tup)
            checks += 1
        return True, None
    tree = [(parent, gen) for _, parent, gen in _commutator_tree(n, c)[1:]]
    k = kernels.first_moving_commutator(_generator_permutations(Q, n), tree)
    if k is None:
        return True, None
    beta = braids[k]
    rows = np.asarray(Q.table, dtype=np.int64)
    rows_inv = np.asarray(Q.inv_table, dtype=np.int64)
    witness = kernels.braid_fixes_all(rows, rows_inv, *_braid_arrays(beta), n)
    if witness is None:
        raise RuntimeError(f"weight-{c} commutator {k} moves a tuple of Q^{n} "
                           "as a permutation but not as a braid word")
    return False, (beta, witness)
