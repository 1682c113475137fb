"""Command-line driver.

Exit codes: 0 success, 1 domain error (reported with its witness),
2 parse or usage error, 3 internal error (any other exception).

`main` may be called many times in one process: the argument parser is
built on the first call and reused, and each subcommand's `cmd_*`
function is looked up by name when it runs.
"""

import argparse
import functools
import sys

from . import finite_quandle as fq
from . import group_model, lie_trace, magnus, nilpotency, two_nilpotent, welded
from .errors import ParseError, QuandlekitError
from .permgroup import DEFAULT_CAP
from .words import parse_word


def _emit(pairs, fmt, out):
    if fmt == "kv":
        for key, value in pairs:
            print(f"{key}={value}", file=out)
    else:
        for key, value in pairs:
            print(f"{key}: {value}", file=out)


def _fmt_list(values):
    return "[" + ",".join(str(v) for v in values) + "]"


def cmd_analyze(args, out):
    Q = fq.load_rack(args.path)
    report = nilpotency.analyze(Q, cap=args.cap)
    orbit_sizes = sorted(len(c) for c in fq.orbits(Q).classes())
    pairs = [
        ("command", "analyze"),
        ("valid", "true"),
        ("is_quandle", str(Q.is_quandle_flag).lower()),
        ("n", Q.n),
        ("orbit_sizes", _fmt_list(orbit_sizes)),
        ("inn_order", report.inn_order),
        ("inn_class", report.inn_class if report.inn_class is not None else "none"),
        (
            "nilpotency_class",
            report.quandle_class if report.quandle_class is not None else "none",
        ),
        (
            "reductive_class",
            report.reductive_class if report.reductive_class is not None else "none",
        ),
        ("weak_class", report.weak_class if report.weak_class is not None else "none"),
        ("is_reduced", str(fq.is_reduced(Q)).lower()),
        ("residually_nilpotent", str(report.residually_nilpotent).lower()),
        ("covering_chain_sizes", _fmt_list(report.covering_chain_lengths)),
    ]
    _emit(pairs, args.format, out)
    return 0


def cmd_construct(args, out):
    if args.kind == "qmn":
        Q = fq.q_mn(args.m, args.n)
        sizes = [args.m, args.n]
        labels = [f"orbit sizes {sizes}"]
    elif args.kind == "two-nilp":
        data = two_nilpotent.load_data(args.path)
        Q, lab = two_nilpotent.build_quandle(data, cap=args.cap)
        labels = [f"element {x} = orbit {i} coset {list(rep)}" for x, (i, rep) in enumerate(lab)]
    else:
        data = group_model.load_group_data(args.path)
        Q, lab = group_model.build(data, rack_mode=args.rack, cap=args.cap)
        labels = [f"element {x} = index {i} coset of {rep}" for x, (i, rep) in enumerate(lab)]
    text = "".join(f"# {line}\n" for line in labels) + fq.dump_rack(Q)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def cmd_envelope(args, out):
    data = two_nilpotent.load_data(args.path)
    ext = two_nilpotent.enveloping_extension(data)
    pairs = [
        ("command", "envelope"),
        ("free_rank", ext.free_rank),
        ("center_free_rank", ext.center_free_rank),
        ("torsion", _fmt_list(ext.torsion)),
        ("abelian", str(two_nilpotent.is_enveloping_abelian(data)).lower()),
    ]
    try:
        pairs.append(
            ("injective", str(two_nilpotent.is_injective_2nilp(data, cap=args.cap)).lower())
        )
    except QuandlekitError:
        pairs.append(("injective", "unknown (infinite orbit)"))
    _emit(pairs, args.format, out)
    return 0


def cmd_braid(args, out):
    Q = fq.load_rack(args.qfile, require_quandle=True)
    try:
        tup = tuple(int(t) for t in args.tuple.split())
    except ValueError:
        raise ParseError(1, f"bad colour tuple {args.tuple!r}")
    if any(t < 0 or t >= Q.n for t in tup):
        raise ParseError(1, "colour out of range")
    beta = welded.parse_braid(args.word, len(tup))
    result = welded.act_tuple(beta, Q, tup)
    pairs = [
        ("command", "braid"),
        ("input", " ".join(str(t) for t in tup)),
        ("output", " ".join(str(t) for t in result)),
    ]
    if args.check_gamma is not None:
        ok, witness = welded.gamma_c_acts_trivially(
            Q,
            len(tup),
            args.check_gamma,
            mode=args.mode,
            budget=args.budget,
            seed=args.seed,
        )
        pairs.append((f"gamma{args.check_gamma}_trivial", str(ok).lower()))
        if not ok:
            pairs.append(("witness_tuple", " ".join(str(t) for t in witness[1])))
    _emit(pairs, args.format, out)
    return 0


def cmd_trace(args, out):
    d, t = lie_trace.non_tame_witness(args.n, args.c)
    images = []
    for i in range(1, args.n + 1):
        img = d.image(i)
        images.append(f"d(x{i}) = {img!r}" if not img.is_zero() else f"d(x{i}) = 0")
    pairs = [
        ("command", "trace"),
        ("degree", d.k),
        ("derivation", "; ".join(images)),
        ("trace", repr(t)),
        ("nonzero", str(not t.is_zero()).lower()),
        ("non_tame_automorphisms_exist", "true"),
    ]
    _emit(pairs, args.format, out)
    return 0


def cmd_freenilp(args, out):
    word = parse_word(args.word, n=args.n)
    poly = magnus.embed_word(word, args.n, args.c)
    pairs = [
        ("command", "freenilp"),
        ("expansion", repr(poly)),
        ("gamma_weight", magnus.gamma_weight(poly)),
    ]
    if args.gen is not None:
        elt = magnus.quandle_elt(word, args.gen, args.n, args.c)
        pairs.append(("element", repr(elt.key())))
        pairs.append(("idempotent", str(magnus.eq(magnus.qd(elt, elt), elt)).lower()))
    _emit(pairs, args.format, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quandlekit", description="finite rack and quandle computations"
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP, help="group order cap")
    parser.add_argument("--format", choices=["text", "kv"], default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="nilpotency report for a quandle file")
    p.add_argument("path")
    p.set_defaults(func="cmd_analyze")

    p = sub.add_parser("construct", help="emit a quandle table file")
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("qmn")
    k.add_argument("m", type=int)
    k.add_argument("n", type=int)
    k = kinds.add_parser("two-nilp")
    k.add_argument("path")
    k = kinds.add_parser("coset")
    k.add_argument("path")
    k.add_argument("--rack", action="store_true", help="allow z_i outside H_i")
    for k_name in ("qmn", "two-nilp", "coset"):
        kinds.choices[k_name].add_argument("-o", "--output", default=None)
        kinds.choices[k_name].set_defaults(func="cmd_construct")

    p = sub.add_parser("envelope", help="enveloping group of 2-nilpotent data")
    p.add_argument("path")
    p.set_defaults(func="cmd_envelope")

    p = sub.add_parser("braid", help="act on a colouring by a welded braid word")
    p.add_argument("qfile")
    p.add_argument("word", help='e.g. "K12 K12^-1 t1 s2"')
    p.add_argument("tuple", help='colour tuple, e.g. "1 0"')
    p.add_argument("--check-gamma", type=int, default=None, metavar="C")
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--budget", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func="cmd_braid")

    p = sub.add_parser("trace", help="non-tame witness derivation and trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(func="cmd_trace")

    p = sub.add_parser("freenilp", help="Magnus expansion of a word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--word", required=True, help='e.g. "x1 x2 x1^-1"')
    p.add_argument("--gen", type=int, default=None)
    p.set_defaults(func="cmd_freenilp")
    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # by name, so a cmd_* rebound after the parser was built is the one run
        return globals()[args.func](args, sys.stdout)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuandlekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
