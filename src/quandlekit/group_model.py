"""Coset constructions of racks and quandles from finite groups.

Given a group G with subgroups H_i and elements z_i, the disjoint union
of the coset spaces G/H_i carries the law xH_i |> yH_j = x z_i x^-1 yH_j
whenever the action of each H_i commutes with z_i everywhere; z_i in H_i
upgrades the rack to a quandle.  Coset yH_i is named by its least
element, rep_i[y] = min_h yh, one gather over the Cayley table per
subgroup; the conditions and the table are then checked and built one
gather per (orbit, subgroup) block, not one element pair at a time.

Presentation data for the enveloping group (one generator per orbit,
commutator relators from stabilizer words) is emitted from any finite
quandle with a generating transversal.
"""

from dataclasses import dataclass

import numpy as np

from . import finite_quandle as fq
from .errors import CapExceeded, InvalidData, InvalidGroup, NotGeneratedByTransversal
from .finite_quandle import validate_cayley
from .words import free_reduce, invert

__all__ = [
    "GroupData",
    "PresentationData",
    "validate_data",
    "build",
    "emit_presentation",
    "parse_group_data",
    "load_group_data",
    "dump_presentation",
]


class GroupData:
    """Finite group (Cayley table) with chosen subgroups H_i and elements z_i.

    `table` is the Cayley table as an array, and coset_reps[i][y] is the
    least element of the coset yH_i.
    """

    def __init__(self, cayley, Hs, zs):
        self.cayley = [list(map(int, row)) for row in cayley]
        self.identity, self.inv = validate_cayley(self.cayley)
        g = len(self.cayley)
        if len(Hs) != len(zs):
            raise InvalidGroup("need one z element per subgroup")
        self.Hs = []
        for H in Hs:
            elems = sorted(set(int(h) for h in H))
            if any(h < 0 or h >= g for h in elems):
                raise InvalidGroup("subgroup element out of range")
            if self.identity not in elems:
                raise InvalidGroup("subgroup missing the identity")
            for a in elems:
                for b in elems:
                    if self.cayley[a][b] not in elems:
                        raise InvalidGroup(f"subgroup not closed at ({a},{b})")
                if self.inv[a] not in elems:
                    raise InvalidGroup(f"subgroup missing inverse of {a}")
            self.Hs.append(elems)
        self.zs = [int(z) for z in zs]
        if any(z < 0 or z >= g for z in self.zs):
            raise InvalidGroup("z element out of range")
        self.table = np.array(self.cayley, dtype=np.int64)
        self.coset_reps = [self.table[:, H].min(axis=1) for H in self.Hs]


@dataclass
class PresentationData:
    generators: list
    relators: list


def validate_data(D, rack_mode=False):
    """Check the construction conditions; returns (ok, witness).

    Condition 1: for each i, every commutator [h, z_i] with h in H_i acts
    trivially on every coset space G/H_j.  Quandle mode adds z_i in H_i.
    """
    T = D.table
    for i, (H, z) in enumerate(zip(D.Hs, D.zs)):
        if not rack_mode and z not in H:
            return False, ("z_not_in_H", i)
        for h in H:
            comm = T[T[h, z], D.inv[T[z, h]]]
            if comm == D.identity:
                continue
            for j, rep in enumerate(D.coset_reps):
                moved = rep[T[comm]] != rep
                if moved.any():
                    return False, ("noncommuting", i, h, j, int(np.argmax(moved)))
    return True, None


def build(D, rack_mode=False, cap=10**6):
    """Rack/quandle on the disjoint union of the coset spaces; returns
    (rack, labels) with labels[a] = (i, least element of the coset).

    Labels are numbered by subgroup, then in order of first appearance
    over y = 0, 1, ...; a coset first appears at its least element y,
    the one with rep_i[y] = y, so that is ascending order of y.
    """
    ok, witness = validate_data(D, rack_mode)
    if not ok:
        raise InvalidData(witness)
    T = D.table
    reps = [np.flatnonzero(rep == np.arange(len(T))) for rep in D.coset_reps]
    labels = [(i, y) for i, ys in enumerate(reps) for y in ys.tolist()]
    size = len(labels)
    if size > cap:
        raise CapExceeded(cap)
    xs = np.array([x for _, x in labels], dtype=np.int64)
    zs = np.array(D.zs, dtype=np.int64)[[i for i, _ in labels]]
    # row a acts on every coset by left multiplication with x_a z_i x_a^-1
    conj = T[T[xs, zs], np.array(D.inv, dtype=np.int64)[xs]]
    table = np.empty((size, size), dtype=np.int64)
    start = 0
    for rep, ys in zip(D.coset_reps, reps):
        label_of = np.empty(len(T), dtype=np.int64)
        label_of[ys] = np.arange(start, start + len(ys))
        table[:, start:start + len(ys)] = label_of[rep[T[conj[:, None], ys]]]
        start += len(ys)
    return fq.validate(table, require_quandle=not rack_mode), labels


def emit_presentation(Q):
    """Enveloping-group presentation data from orbit representatives.

    Generators are one symbol per orbit; relators are the commutators
    [h, x_s] where h runs over Schreier words generating the stabilizer
    of the s-th representative inside the permutation image.
    """
    cong = fq.orbits(Q)
    classes = cong.classes()
    reps = [cls[0] for cls in classes]
    k = len(reps)
    if Q.n and len(fq.subquandle_generated(Q, reps)) != Q.n:
        raise NotGeneratedByTransversal("orbit representatives do not generate")
    # letter +s / -s acts by the row of reps[s-1] or its inverse
    rows = [Q.row(r) for r in reps]

    def apply_letter(letter, point):
        if letter > 0:
            return rows[letter - 1][point]
        return rows[-letter - 1].index(point)

    relators = []
    seen = set()
    for s in range(1, k + 1):
        q0 = reps[s - 1]
        word_to = {q0: ()}
        frontier = [q0]
        while frontier:
            nxt = []
            for p in frontier:
                for letter in [l for t in range(1, k + 1) for l in (t, -t)]:
                    p2 = apply_letter(letter, p)
                    candidate = free_reduce((letter,) + word_to[p])
                    if p2 in word_to:
                        stab = free_reduce(invert(word_to[p2]) + candidate)
                        if stab:
                            relator = free_reduce(
                                stab + (s,) + invert(stab) + (-s,)
                            )
                            if relator and relator not in seen:
                                seen.add(relator)
                                relators.append(relator)
                    else:
                        word_to[p2] = candidate
                        nxt.append(p2)
            frontier = nxt
    return PresentationData(
        generators=[f"x{s}" for s in range(1, k + 1)], relators=relators
    )


# -- file format ----------------------------------------------------------------

def parse_group_data(text):
    """Group data file: Cayley block, then subgroup lists, then z list.

    Layout: line 1 = group order g; g Cayley rows; one line k = number of
    subgroups; k lines of subgroup elements; one line of k z-elements.
    """
    from .errors import ParseError

    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((line, lineno))
    if not rows:
        raise ParseError(1, "empty group data file")
    pos = 0

    def take_ints(expected=None):
        nonlocal pos
        if pos >= len(rows):
            raise ParseError(rows[-1][1], "unexpected end of file")
        line, lineno = rows[pos]
        pos += 1
        try:
            vals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(lineno, f"non-integer token in {line!r}")
        if expected is not None and len(vals) != expected:
            raise ParseError(lineno, f"expected {expected} integers")
        return vals

    g = take_ints(expected=1)[0]
    cayley = [take_ints(expected=g) for _ in range(g)]
    k = take_ints(expected=1)[0]
    Hs = [take_ints() for _ in range(k)]
    zs = take_ints(expected=k)
    return GroupData(cayley, Hs, zs)


def load_group_data(path):
    with open(path) as fh:
        return parse_group_data(fh.read())


def dump_presentation(P):
    from .words import format_word

    lines = [" ".join(P.generators)]
    for rel in P.relators:
        lines.append(format_word(rel))
    return "\n".join(lines) + "\n"
