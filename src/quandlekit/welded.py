"""Welded braids as basis-conjugating free-group automorphisms.

An automorphism sends x_i to w_i x_{sigma(i)} w_i^-1; the named
generators are K_ij (pure welded), tau_i (strand swap), and sigma_i
(crossing).  Such a braid acts on colour tuples in Q^n by evaluating
each w_i through the rows of the colours; the nilpotency detector scans
weight-c commutators of the K_ij over all of Q^n.
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

_commutator_cache = {}


def weight_c_commutators(n, c):
    """Deduplicated left-normed weight-c commutators of the K_ij generators.

    Quandle-independent, so cached per (n, c).  Checking these suffices
    for the whole lower-central term: elements acting trivially form a
    normal subgroup of the acting group.
    """
    if (n, c) in _commutator_cache:
        return _commutator_cache[(n, c)]
    gens = [K(i, j, n) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    level = list(gens)
    for _ in range(c - 1):
        nxt = []
        seen = set()
        for a in level:
            for g in gens:
                com = commutator(a, g)
                if com.is_identity():
                    continue
                if com in seen:
                    continue
                seen.add(com)
                nxt.append(com)
        level = nxt
    _commutator_cache[(n, c)] = level
    return level


def _braid_arrays(beta):
    sigma = np.array(beta.sigma, dtype=np.int64)
    letters, offsets = kernels.pack_words(beta.ws)
    return sigma, letters, offsets


def gamma_c_acts_trivially(Q, n, c, mode="exhaustive", budget=10**5, seed=0):
    """Does the weight-c part of the pure welded braid group fix all of Q^n?

    Returns (ok, witness); the witness is (braid, tuple) for the first
    violation found.
    """
    if c < 1:
        raise InvalidRange(f"commutator weight must be at least 1, got {c}")
    braids = weight_c_commutators(n, c)
    rows = np.asarray(Q.table, dtype=np.int64)
    rows_inv = np.asarray(Q.inv_table, dtype=np.int64)
    total = Q.n**n
    if mode == "exhaustive":
        if total > budget:
            raise BudgetExceeded(budget)
        for beta in braids:
            sigma, letters, offsets = _braid_arrays(beta)
            witness = kernels.braid_fixes_all(rows, rows_inv, sigma, letters, offsets, n)
            if witness is not None:
                return False, (beta, witness)
        return True, None
    if mode == "sample":
        if budget < 1:
            raise InvalidRange(f"sample budget must be at least 1, got {budget}")
        rng = random.Random(seed)
        checks = 0
        while checks < budget:
            beta = rng.choice(braids) if braids else None
            if beta is None:
                return True, None
            tup = tuple(rng.randrange(Q.n) for _ in range(n))
            if act_tuple(beta, Q, tup) != tup:
                return False, (beta, tup)
            checks += 1
        return True, None
    raise ValueError(f"unknown mode {mode!r}")
