import pytest

from quandlekit import finite_quandle as fq
from quandlekit import two_nilpotent as tn
from quandlekit.cli import main


@pytest.fixture()
def qfile(tmp_path):
    p = tmp_path / "q23.qdl"
    p.write_text(fq.dump_rack(fq.q_mn(2, 3)))
    return str(p)


@pytest.fixture()
def datafile(tmp_path):
    p = tmp_path / "q23.2n"
    p.write_text(tn.dump_data(tn.qmn_data(2, 3)))
    return str(p)


def _kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_analyze_kv(qfile, capsys):
    assert main(["--format", "kv", "analyze", qfile]) == 0
    kv = _kv(capsys)
    assert kv["n"] == "5"
    assert kv["is_quandle"] == "true"
    assert kv["orbit_sizes"] == "[2,3]"
    assert kv["inn_order"] == "6"
    assert kv["nilpotency_class"] == "2"
    assert kv["reductive_class"] == "2"
    assert kv["is_reduced"] == "true"
    assert kv["residually_nilpotent"] == "true"
    assert kv["covering_chain_sizes"] == "[5,2,1]"


def test_analyze_text_format(qfile, capsys):
    assert main(["analyze", qfile]) == 0
    out = capsys.readouterr().out
    assert "nilpotency_class: 2" in out


def test_analyze_non_nilpotent(tmp_path, capsys):
    from conftest import symmetric3

    p = tmp_path / "s3.qdl"
    p.write_text(fq.dump_rack(fq.conj_quandle(symmetric3())))
    assert main(["--format", "kv", "analyze", str(p)]) == 0
    kv = _kv(capsys)
    assert kv["nilpotency_class"] == "none"
    assert kv["covering_chain_sizes"] == "[]"


def test_construct_qmn_round_trip(tmp_path, capsys):
    out_path = tmp_path / "out.qdl"
    assert main(["construct", "qmn", "2", "3", "-o", str(out_path)]) == 0
    assert fq.load_rack(str(out_path)) == fq.q_mn(2, 3)
    assert main(["construct", "qmn", "2", "2"]) == 0
    text = capsys.readouterr().out
    assert fq.parse_rack(text) == fq.q_mn(2, 2)


def test_construct_two_nilp(datafile, capsys):
    assert main(["construct", "two-nilp", datafile]) == 0
    text = capsys.readouterr().out
    Q = fq.parse_rack(text)
    assert fq.find_isomorphism(Q, fq.q_mn(2, 3)) is not None


def test_construct_coset(tmp_path, capsys):
    lines = ["4"]
    lines += [" ".join(str((a + b) % 4) for b in range(4)) for a in range(4)]
    lines += ["2", "0 2", "0", "2 0"]
    p = tmp_path / "g.grp"
    p.write_text("\n".join(lines) + "\n")
    assert main(["construct", "coset", str(p)]) == 0
    Q = fq.parse_rack(capsys.readouterr().out)
    assert Q.n == 6


def test_construct_coset_rack_mode(tmp_path, capsys):
    lines = ["3"]
    lines += [" ".join(str((a + b) % 3) for b in range(3)) for a in range(3)]
    lines += ["1", "0", "1"]
    p = tmp_path / "g.grp"
    p.write_text("\n".join(lines) + "\n")
    # quandle mode rejects z outside H: domain error, exit 1
    assert main(["construct", "coset", str(p)]) == 1
    capsys.readouterr()
    assert main(["construct", "coset", "--rack", str(p)]) == 0
    R = fq.parse_rack(capsys.readouterr().out)
    assert not R.is_quandle_flag and R.row(0) == (1, 2, 0)


def test_envelope(datafile, capsys):
    assert main(["--format", "kv", "envelope", datafile]) == 0
    kv = _kv(capsys)
    assert kv["free_rank"] == "2"
    assert kv["torsion"] == "[]"
    assert kv["abelian"] == "true"
    assert kv["injective"] == "false"


def test_envelope_with_torsion(tmp_path, capsys):
    p = tmp_path / "q22.2n"
    p.write_text(tn.dump_data(tn.qmn_data(2, 2)))
    assert main(["--format", "kv", "envelope", str(p)]) == 0
    kv = _kv(capsys)
    assert kv["torsion"] == "[2]"
    assert kv["abelian"] == "false"
    assert kv["injective"] == "true"


def test_braid(tmp_path, capsys):
    p = tmp_path / "q12.qdl"
    p.write_text(fq.dump_rack(fq.q_12()))
    assert main(["--format", "kv", "braid", str(p), "K12", "1 0"]) == 0
    kv = _kv(capsys)
    assert kv["output"] == "2 0"


def test_braid_check_gamma(qfile, capsys):
    rc = main(
        ["--format", "kv", "braid", qfile, "K12", "0 0 0", "--check-gamma", "2"]
    )
    assert rc == 0
    kv = _kv(capsys)
    assert kv["gamma2_trivial"] == "true"
    rc = main(
        ["--format", "kv", "braid", qfile, "K12", "0 0", "--check-gamma", "1"]
    )
    assert rc == 0
    kv = _kv(capsys)
    assert kv["gamma1_trivial"] == "false"
    assert "witness_tuple" in kv


def test_braid_check_gamma_on_fewer_than_two_strands(tmp_path, capsys):
    # no K_ij on 0 or 1 strands, so every weight acts trivially
    r3 = fq.validate([[(2 * x - y) % 3 for y in range(3)] for x in range(3)])
    p = tmp_path / "r3.qdl"
    p.write_text(fq.dump_rack(r3))
    for tup in ("", "1"):
        assert main(["--format", "kv", "braid", str(p), "", tup, "--check-gamma", "2"]) == 0
        kv = _kv(capsys)
        assert kv["output"] == tup
        assert kv["gamma2_trivial"] == "true"
        assert "witness_tuple" not in kv


def test_braid_bad_tuple(qfile, capsys):
    assert main(["braid", qfile, "K12", "0 9"]) == 2
    assert main(["braid", qfile, "K99", "0 0"]) == 2


def test_trace(capsys):
    assert main(["--format", "kv", "trace", "--n", "2", "--c", "3"]) == 0
    kv = _kv(capsys)
    assert kv["degree"] == "2"
    assert kv["nonzero"] == "true"
    assert kv["non_tame_automorphisms_exist"] == "true"
    assert main(["trace", "--n", "1", "--c", "3"]) == 1  # out of range


def test_freenilp(capsys):
    rc = main(
        ["--format", "kv", "freenilp", "--n", "2", "--c", "2",
         "--word", "x1 x2 x1^-1 x2^-1"]
    )
    assert rc == 0
    kv = _kv(capsys)
    assert kv["gamma_weight"] == "2"
    rc = main(
        ["--format", "kv", "freenilp", "--n", "2", "--c", "2",
         "--word", "x2", "--gen", "1"]
    )
    assert rc == 0
    kv = _kv(capsys)
    assert kv["idempotent"] == "true"


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.qdl"
    bad.write_text("2\n0 1\n")
    assert main(["analyze", str(bad)]) == 2  # parse error
    missing_word = main(["freenilp", "--n", "2", "--c", "2", "--word", "x9"])
    assert missing_word == 2
    out_of_range = main(["freenilp", "--n", "9", "--c", "2", "--word", "x1"])
    assert out_of_range == 1  # domain error
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_braid_check_gamma_below_one(qfile, capsys):
    for c in ("0", "-1"):
        rc = main(["--format", "kv", "braid", qfile, "K12", "0 1", "--check-gamma", c])
        assert rc == 1
    captured = capsys.readouterr()
    assert "trivial" not in captured.out
    assert captured.err.count("error:") == 2


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    from quandlekit import cli

    def broken(args, out):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_trace", broken)
    assert main(["trace", "--n", "2", "--c", "3"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_parser_is_built_once(monkeypatch, capsys):
    from quandlekit import cli

    build_parser = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["trace", "--n", "2", "--c", "3"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_construct_qmn_rejects_empty_orbits(capsys):
    for m, n in (("0", "0"), ("0", "3"), ("2", "-1")):
        assert main(["construct", "qmn", m, n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 3
    assert "internal error" not in captured.err


def test_braid_sample_budget_below_one(tmp_path, capsys):
    # the dihedral quandle R3 is not 2-nilpotent: exhaustive mode finds a witness
    r3 = fq.validate([[(2 * x - y) % 3 for y in range(3)] for x in range(3)])
    p = tmp_path / "r3.qdl"
    p.write_text(fq.dump_rack(r3))
    args = ["--format", "kv", "braid", str(p), "K12", "0 1", "--check-gamma", "2"]
    assert main(args) == 0
    assert _kv(capsys)["gamma2_trivial"] == "false"
    for budget in ("0", "-3"):
        assert main(args + ["--mode", "sample", "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert "trivial" not in captured.out
    assert captured.err.count("error:") == 2


def test_invalid_two_nilpotent_data_exits_1(tmp_path, capsys):
    # H_0 = <2 e_0, 3 e_1> lacks e_0; H_0 of the second file lies in Z^3
    bad = {"H_0 does not contain e_0": "2\n2 2\n2 0\n0 3\n2 2\n5 0\n0 1\n",
           "H_0 lies in Z^3, not Z^2": "2\n3 1\n1 0 0\n2 1\n0 1\n"}
    for message, text in bad.items():
        p = tmp_path / "bad.2n"
        p.write_text(text)
        for argv in (["envelope", str(p)], ["construct", "two-nilp", str(p)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"


def test_envelope_of_no_orbits(tmp_path, capsys):
    p = tmp_path / "empty.2n"
    p.write_text("0\n")
    assert main(["--format", "kv", "envelope", str(p)]) == 0
    kv = _kv(capsys)
    assert (kv["free_rank"], kv["center_free_rank"], kv["torsion"]) == ("0", "0", "[]")
    assert (kv["abelian"], kv["injective"]) == ("true", "true")


def test_classify_layers_are_called(tmp_path, datafile, monkeypatch, capsys):
    """The classify benchmark's answer check requires each of these layers
    to be called on its requests (perfbench/test_perfbench.py, CALLED_ON);
    perfbench/ is outside the tier-1 test paths, so this guards it here."""
    from quandlekit import group_model, lattice, nilpotency, permgroup

    layers = [(tn, "build_quandle"), (tn, "enveloping_extension"), (group_model, "build"),
              (lattice.IntLattice, "cosets"), (lattice, "hnf_with_transform"),
              (fq, "quotient_by_subgroup"), (fq, "validate"), (nilpotency, "analyze"),
              (permgroup.PermGroup, "elements"), (permgroup, "lower_central_series"),
              (permgroup, "normal_closure")]
    calls = {}

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in layers:
        calls[name] = 0
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), name))
    group = tmp_path / "g.grp"
    group.write_text("4\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n2\n0 2\n0\n2 0\n")
    out = str(tmp_path / "out.qdl")
    for construct in (["qmn", "3", "4"], ["two-nilp", datafile], ["coset", str(group)]):
        assert main(["construct", *construct, "-o", out]) == 0
        assert main(["--format", "kv", "analyze", out]) == 0
    assert main(["--format", "kv", "envelope", datafile]) == 0
    capsys.readouterr()
    assert [name for name, count in calls.items() if not count] == []
