"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import random
import sys
from math import gcd

import pytest

from conftest import symmetric3
from oracles import check_free_2nilp_is_Q00, check_generation_criterion
from quandlekit import finite_quandle as fq
from quandlekit import lie_trace as lt
from quandlekit import magnus as mg
from quandlekit import nilpotency as nil
from quandlekit import two_nilpotent as tn
from quandlekit import welded as wd
from quandlekit.errors import InvalidRange, NotNilpotent
from quandlekit.words import commutator, concat


def _verdict(num, name, ok):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_reductivity_equals_nilpotency(corpus):
    """c-reductive identity <=> nilpotency class <= c, both directions."""
    ok = True
    for Q in corpus:
        cls = nil.nilpotency_class(Q)
        for c in range(1, 5):
            expected = cls is not None and cls <= c
            if nil.is_c_reductive(Q, c) != expected:
                ok = False
    _verdict(1, "reductive identity <=> class <= c", ok)


def test_criterion_02_envelope_torsion_table():
    """Torsion of the enveloping central extension of Q_{m,n} is Z/gcd(m,n)."""
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            ext = tn.enveloping_extension(tn.qmn_data(m, n))
            d = gcd(m, n)
            expected = [d] if d > 1 else []
            if ext.torsion != expected or ext.center_free_rank != 0:
                ok = False
    _verdict(2, "Q_{m,n} envelope torsion = Z/gcd(m,n)", ok)


def test_criterion_03_injectivity_diagonal():
    """Q_{m,n} embeds into its enveloping group exactly when m = n."""
    ok = True
    for m in range(1, 6):
        for n in range(1, 6):
            if tn.is_injective_2nilp(tn.qmn_data(m, n)) != (m == n):
                ok = False
    _verdict(3, "Q_{m,n} injective iff m = n", ok)


def test_criterion_04_abelian_envelope_with_torsion_subquandle():
    """A 3-orbit quandle with torsion-free abelian envelope containing a
    2-orbit subquandle whose own envelope has torsion Z/2."""
    ok = True
    D = tn.three_orbit_data(2)
    if not tn.is_enveloping_abelian(D):
        ok = False
    if tn.enveloping_extension(D).torsion != []:
        ok = False
    Q, labels = tn.build_quandle(D)
    classes = fq.orbits(Q).classes()
    # the two size-2 orbits form a closed subquandle
    elems = sorted(x for x, (i, _) in enumerate(labels) if i in (0, 1))
    sub, _ = fq.subrack(Q, elems)
    D_sub = tn.extract_data(sub)
    if tn.enveloping_extension(D_sub).torsion != [2]:
        ok = False
    if sorted(len(c) for c in classes) != [1, 2, 2]:
        ok = False
    _verdict(4, "torsion subquandle of torsion-free envelope", ok)


def test_criterion_05_covering_chains(corpus):
    """Nilpotent quandles decompose into chains of coverings down to a
    point; non-nilpotent input is rejected."""
    ok = True
    for Q in corpus:
        cls = nil.nilpotency_class(Q)
        if cls is None:
            continue
        chain = nil.covering_chain(Q)
        if len(chain) != cls or chain[-1].target != fq.trivial(1):
            ok = False
        for arrow in chain:
            if not (arrow.is_surjective() and fq.is_covering(arrow)):
                ok = False
    try:
        nil.covering_chain(fq.conj_quandle(symmetric3()))
        ok = False
    except NotNilpotent:
        pass
    _verdict(5, "covering chains for nilpotent quandles", ok)


def test_criterion_06_welded_gamma_detector(corpus):
    """Weight-c commutators of pure welded braids act trivially on all
    colourings by Q iff Q is c-nilpotent."""
    ok = True
    for Q in corpus:
        if Q.n == 0:
            continue
        cls = nil.nilpotency_class(Q)
        for c in (1, 2, 3):
            n = c + 1
            if Q.n**n > 10**5:
                continue
            trivially, witness = wd.gamma_c_acts_trivially(Q, n, c, budget=10**5)
            expected = cls is not None and cls <= c
            if trivially != expected:
                ok = False
            if witness is not None:
                beta, tup = witness
                if wd.act_tuple(beta, Q, tuple(tup)) == tuple(tup):
                    ok = False
    _verdict(6, "braid commutator action detects nilpotency", ok)


def test_criterion_07_trace_obstruction():
    """The trace of the single-contraction derivation matches its closed
    form (worked low-degree case included), certifying non-tame
    automorphisms whenever n >= 2 and c >= 3, and refusing otherwise."""
    ok = True
    d = lt.single_contraction_derivation(2, 1, [2])
    if lt.trace(d).coefficient((2, 1)) != 1:
        ok = False
    rng = random.Random(7)
    for n in (2, 3):
        for i in range(1, n + 1):
            for l in (1, 2, 3):
                others = [j for j in range(1, n + 1) if j != i]
                indices = [rng.choice(others) for _ in range(l)]
                der = lt.single_contraction_derivation(n, i, indices)
                word, sign = lt.contraction_closed_form(i, indices)
                if lt.trace(der).coefficient(word) != sign:
                    ok = False
    for n, c in [(2, 3), (3, 3), (2, 5)]:
        _, t = lt.non_tame_witness(n, c)
        if t.is_zero():
            ok = False
    try:
        lt.non_tame_witness(2, 2)
        ok = False
    except InvalidRange:
        pass
    _verdict(7, "nonzero trace certifies non-tame automorphisms", ok)


def test_criterion_08_magnus_arithmetic():
    """Truncated Magnus expansion: multiplicativity on random word pairs,
    commutator weights, and the orbit shape of the free 2-nilpotent
    quandle on two generators."""
    ok = True
    rng = random.Random(0)
    n, c = 2, 4
    letters = [s * i for i in range(1, n + 1) for s in (1, -1)]
    for _ in range(1000):
        u = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
        v = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 5)))
        if mg.embed_word(concat(u, v), n, c) != mg.mul(
            mg.embed_word(u, n, c), mg.embed_word(v, n, c)
        ):
            ok = False
    w3 = commutator((1,), commutator((2,), (1,)))
    if mg.gamma_weight(mg.embed_word(w3, n, c)) != 3:
        ok = False
    if not check_free_2nilp_is_Q00(4):
        ok = False
    _verdict(8, "free nilpotent quandle arithmetic", ok)


def test_criterion_09_generation_criterion(corpus):
    """In a nilpotent quandle, a subset generates iff it meets every
    orbit; checked exhaustively over all small subsets."""
    ok = True
    for Q in corpus:
        if Q.n > 5 or nil.nilpotency_class(Q) is None:
            continue
        if not check_generation_criterion(Q):
            ok = False
    _verdict(9, "generation <=> meets every orbit", ok)


def test_criterion_10_reduced_quotient_idempotent(corpus):
    """The reduced quotient is reduced and idempotent; the Q_{m,n} family
    is already reduced; conjugation quandles of nonabelian groups are
    not, with a checkable witness."""
    ok = True
    for Q in corpus:
        R, _ = fq.reduced_quotient(Q)
        if not fq.is_reduced(R):
            ok = False
        R2, cong2 = fq.reduced_quotient(R)
        if not (cong2.is_identity() and R2 == R):
            ok = False
    for m in range(1, 5):
        for n in range(1, 5):
            if not fq.is_reduced(fq.q_mn(m, n)):
                ok = False
    s3 = fq.conj_quandle(symmetric3())
    if fq.is_reduced(s3):
        ok = False
    w = fq.reduced_witness(s3)
    if w is None or s3.op(w[0], w[1]) == w[1]:
        ok = False
    _verdict(10, "universal reduced quotient", ok)
