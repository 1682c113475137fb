import pytest

from conftest import cyclic, symmetric3
from quandlekit import finite_quandle as fq
from quandlekit import group_model as gm
from quandlekit import nilpotency as nil
from quandlekit.errors import InvalidData, InvalidGroup, NotGeneratedByTransversal, ParseError
from quandlekit.lattice import snf_invariants
from quandlekit.words import parse_word


def _s3_elements():
    """Index lookup for S3 under the conftest ordering (sorted tuples)."""
    from oracles import element_set
    from quandlekit.permgroup import PermGroup

    elems = sorted(element_set(PermGroup(3, [(1, 0, 2), (0, 2, 1)]).elements()))
    return {e: i for i, e in enumerate(elems)}


def test_group_data_validation():
    cay = symmetric3()
    idx = _s3_elements()
    e = idx[(0, 1, 2)]
    with pytest.raises(InvalidGroup):
        gm.GroupData(cay, [[e, 1]], [e, e])  # z count mismatch
    with pytest.raises(InvalidGroup):
        gm.GroupData(cay, [[idx[(1, 0, 2)]]], [e])  # missing identity
    t = idx[(1, 0, 2)]
    with pytest.raises(InvalidGroup):
        gm.GroupData(cay, [[e, t, idx[(0, 2, 1)]]], [e])  # not closed


def test_conjugation_quandle_as_coset_model():
    """G with trivial subgroups and z_i = x_i rebuilds conj orbits."""
    cay = symmetric3()
    idx = _s3_elements()
    e = idx[(0, 1, 2)]
    t = idx[(1, 0, 2)]
    # centralizer of the transposition t = {e, t}
    H = [e, t]
    D = gm.GroupData(cay, [H], [t])
    ok, witness = gm.validate_data(D)
    assert ok, witness
    Q, labels = gm.build(D)
    # cosets of the centralizer = the conjugacy class of t (3 transpositions)
    assert Q.n == 3
    conj_s3 = fq.conj_quandle(cay)
    cls = next(c for c in fq.orbits(conj_s3).classes() if len(c) == 3)
    sub, _ = fq.subrack(conj_s3, cls)
    assert fq.find_isomorphism(Q, sub) is not None


def test_rack_mode_allows_z_outside_H():
    cay = cyclic(3)
    D = gm.GroupData(cay, [[0]], [1])  # z = 1 not in trivial subgroup
    ok, witness = gm.validate_data(D)
    assert not ok and witness[0] == "z_not_in_H"
    ok, witness = gm.validate_data(D, rack_mode=True)
    assert ok
    R, labels = gm.build(D, rack_mode=True)
    assert not R.is_quandle_flag
    assert R.row(0) == (1, 2, 0)
    with pytest.raises(InvalidData):
        gm.build(D)  # quandle mode rejects it


def test_validate_rejects_noncommuting():
    cay = symmetric3()
    idx = _s3_elements()
    t = idx[(1, 0, 2)]
    r = idx[(1, 2, 0)]
    whole = list(range(6))
    # H = G, z = a transposition: [h, z] acts nontrivially on G/{e}
    D = gm.GroupData(cay, [whole, [idx[(0, 1, 2)]]], [t, idx[(0, 1, 2)]])
    ok, witness = gm.validate_data(D)
    assert not ok and witness[0] == "noncommuting"
    del r


def test_build_quandle_is_nilpotent_for_abelian_group():
    cay = cyclic(4)
    D = gm.GroupData(cay, [[0, 2], [0]], [2, 0])
    ok, _ = gm.validate_data(D)
    assert ok
    Q, labels = gm.build(D)
    assert Q.n == 2 + 4
    assert nil.nilpotency_class(Q) is not None


def test_presentation_trivial2():
    P = gm.emit_presentation(fq.trivial(2))
    assert P.generators == ["x1", "x2"]
    comm = {parse_word("x1 x2 x1^-1 x2^-1"), parse_word("x2 x1 x2^-1 x1^-1")}
    assert set(P.relators) <= comm | {
        parse_word("x1^-1 x2 x1 x2^-1"), parse_word("x2^-1 x1 x2 x1^-1"),
        parse_word("x1 x2^-1 x1^-1 x2"), parse_word("x2 x1^-1 x2^-1 x1"),
    }
    assert P.relators  # at least one commutator shows up


def test_presentation_q22_relator():
    Q = fq.q_mn(2, 2)
    P = gm.emit_presentation(Q)
    assert P.generators == ["x1", "x2"]
    rels = set(P.relators)
    assert parse_word("x2^-1 x2^-1 x1 x2 x2 x1^-1") in rels or parse_word(
        "x2 x2 x1 x2^-1 x2^-1 x1^-1"
    ) in rels


def test_presentation_requires_generating_transversal():
    # a quandle where one orbit representative does not generate its orbit
    # does not exist among connected components of size 1, so use a quandle
    # whose orbit needs two generators: the 3-element dihedral quandle
    table = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    Q = fq.validate(table, require_quandle=True)
    assert fq.orbits(Q).num_classes == 1
    with pytest.raises(NotGeneratedByTransversal):
        gm.emit_presentation(Q)


def test_presentation_abelianization_matches_envelope():
    """Abelianized presentation invariants agree with the lattice model."""
    from quandlekit import two_nilpotent as tn

    for m, n in [(2, 2), (2, 3), (3, 3)]:
        Q = fq.q_mn(m, n)
        P = gm.emit_presentation(Q)
        k = len(P.generators)
        rows = []
        for rel in P.relators:
            row = [0] * k
            for letter in rel:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        if rows:
            inv = [d for d in snf_invariants(rows, cols=k) if d > 1]
        else:
            inv = []
        # commutator relators abelianize to zero: abelianization is Z^k
        assert inv == []
        assert k == 2


def test_relators_fix_all_points():
    """Every emitted relator acts trivially on the quandle itself."""
    for Q in (fq.q_mn(2, 3), fq.trivial(3), fq.q_12()):
        cong = fq.orbits(Q)
        reps = [cls[0] for cls in cong.classes()]
        rows = [Q.row(r) for r in reps]
        P = gm.emit_presentation(Q)
        for rel in P.relators:
            for p in range(Q.n):
                out = p
                for letter in reversed(rel):
                    if letter > 0:
                        out = rows[letter - 1][out]
                    else:
                        out = rows[-letter - 1].index(out)
                assert out == p, (Q.table, rel, p)


def test_group_file_round_trip(tmp_path):
    cay = cyclic(4)
    text_lines = ["4"]
    text_lines += [" ".join(map(str, row)) for row in cay]
    text_lines += ["2", "0 2", "0", "2 0"]
    text = "\n".join(text_lines) + "\n"
    D = gm.parse_group_data(text)
    assert D.Hs == [[0, 2], [0]]
    assert D.zs == [2, 0]
    p = tmp_path / "g.grp"
    p.write_text("# cyclic 4\n" + text)
    D2 = gm.load_group_data(str(p))
    assert D2.cayley == D.cayley


def test_parse_errors():
    with pytest.raises(ParseError):
        gm.parse_group_data("")
    with pytest.raises(ParseError):
        gm.parse_group_data("2\n0 1\n1 0\n1\n0\n")  # missing z line
    with pytest.raises(ParseError):
        gm.parse_group_data("2\n0 1\nx y\n1\n0\n0\n")


def test_dump_presentation():
    P = gm.emit_presentation(fq.trivial(2))
    text = gm.dump_presentation(P)
    lines = text.strip().splitlines()
    assert lines[0] == "x1 x2"
    assert all(parse_word(line) for line in lines[1:])
