from math import gcd

import pytest

from quandlekit import finite_quandle as fq
from quandlekit import nilpotency as nil
from quandlekit import two_nilpotent as tn
from quandlekit.errors import InfiniteOrbit, InvalidOrbitLattice, NotTwoNilpotent, ParseError
from quandlekit.lattice import IntLattice


def test_build_qmn_matches_direct_table():
    for m, n in [(1, 1), (2, 2), (2, 3), (3, 4)]:
        Q, labels = tn.build_quandle(tn.qmn_data(m, n))
        direct = fq.q_mn(m, n)
        assert fq.find_isomorphism(Q, direct) is not None
        sizes = sorted(len(c) for c in fq.orbits(Q).classes())
        assert sizes == sorted([m, n])


def test_data_names_the_invalid_orbit():
    full = IntLattice.full(2)
    for Hs, orbit in (([full, IntLattice(2, [[1, 0], [0, 2]])], 1),
                      ([IntLattice.full(3), full], 0)):
        with pytest.raises(InvalidOrbitLattice) as exc:
            tn.TwoNilpotentData(Hs)
        assert exc.value.orbit == orbit


def test_build_trivial_data():
    Q, labels = tn.build_quandle(tn.trivial_data(3))
    assert Q == fq.trivial(3)
    assert [lab[0] for lab in labels] == [0, 1, 2]


def test_build_rejects_infinite_orbit():
    H1 = IntLattice(2, [[1, 0]])  # infinite index: orbit 0 never closes
    H2 = IntLattice.full(2)
    with pytest.raises(InfiniteOrbit):
        tn.build_quandle(tn.TwoNilpotentData([H1, H2]))


def test_built_quandles_are_2_nilpotent():
    for D in [tn.qmn_data(2, 3), tn.three_orbit_data(2), tn.trivial_data(2)]:
        Q, _ = tn.build_quandle(D)
        cls = nil.nilpotency_class(Q)
        assert cls is not None and cls <= 2


def test_extract_round_trip():
    for D in [tn.qmn_data(2, 3), tn.qmn_data(3, 3), tn.three_orbit_data(2),
              tn.trivial_data(3)]:
        Q, _ = tn.build_quandle(D)
        D2 = tn.extract_data(Q)
        assert tn.isomorphic(D, D2) is not None


def test_extract_rejects_higher_class():
    from conftest import dihedral

    Q = fq.conj_quandle(dihedral(8))  # class 3
    with pytest.raises(NotTwoNilpotent):
        tn.extract_data(Q)
    with pytest.raises(NotTwoNilpotent):
        tn.extract_data(fq.conj_quandle(dihedral(3)))  # not nilpotent


def test_canonical_parameters_qmn():
    P = tn.canonical_parameters(tn.qmn_data(2, 3))
    assert P.n == 2
    assert P.orbits[0].m == (2,)
    assert P.orbits[1].m == (3,)
    assert P.orbits[0].mkl == {} and P.orbits[1].mkl == {}


def test_parameters_round_trip():
    for D in [tn.qmn_data(2, 3), tn.qmn_data(4, 2), tn.three_orbit_data(2),
              tn.three_orbit_data(3), tn.trivial_data(4)]:
        P = tn.canonical_parameters(D)
        assert tn.from_parameters(P) == D


def test_parameters_separate_non_isomorphic():
    P23 = tn.canonical_parameters(tn.qmn_data(2, 3))
    P24 = tn.canonical_parameters(tn.qmn_data(2, 4))
    assert P23 != P24
    assert tn.isomorphic(tn.qmn_data(2, 3), tn.qmn_data(2, 4)) is None


def test_isomorphic_swaps_orbits():
    sigma = tn.isomorphic(tn.qmn_data(2, 3), tn.qmn_data(3, 2))
    assert sigma == [1, 0]
    assert tn.isomorphic(tn.qmn_data(2, 2), tn.qmn_data(2, 2)) == [0, 1]


def test_enveloping_torsion_table():
    """Torsion of the enveloping group of Q_{m,n} is Z/gcd(m,n)."""
    for m in range(1, 7):
        for n in range(1, 7):
            ext = tn.enveloping_extension(tn.qmn_data(m, n))
            d = gcd(m, n)
            assert ext.free_rank == 2
            assert ext.torsion == ([d] if d > 1 else []), (m, n)
            assert ext.center_free_rank == 0


def test_three_orbit_envelope_abelian():
    D = tn.three_orbit_data(2)
    assert tn.is_enveloping_abelian(D)
    ext = tn.enveloping_extension(D)
    assert ext.torsion == [] and ext.center_free_rank == 0
    # but q_mn(2,2) has central torsion, hence non-abelian envelope
    assert not tn.is_enveloping_abelian(tn.qmn_data(2, 2))


def test_injectivity_diagonal():
    """Q_{m,n} embeds in its enveloping group exactly when m == n."""
    for m in range(1, 6):
        for n in range(1, 6):
            assert tn.is_injective_2nilp(tn.qmn_data(m, n)) == (m == n), (m, n)


def test_trivial_data_injective():
    assert tn.is_injective_2nilp(tn.trivial_data(3))


def test_file_round_trip(tmp_path):
    for D in [tn.qmn_data(2, 3), tn.three_orbit_data(2)]:
        text = tn.dump_data(D)
        assert tn.parse_data(text) == D
        p = tmp_path / "d.2n"
        p.write_text(text)
        assert tn.load_data(str(p)) == D


def test_parse_errors():
    with pytest.raises(ParseError):
        tn.parse_data("")
    with pytest.raises(ParseError):
        tn.parse_data("2\n2 1\n1 0\n")  # second lattice block missing
