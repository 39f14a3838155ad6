"""Command-line interface.

Subcommands cover every pipeline: correction terms, reduced coefficients,
Casson-Walker values, certification, the slope search, parametric families,
golden-table verification, fundamental groups, plot data, and the lambda
threshold sweep.  Exit status: 0 success/verified, 1 mismatch/rejection,
2 usage error, 141 stdout closed early.  User input is validated up front,
including slopes against the int64 exactness bound p < 2**19; any other
exception is an internal fault and surfaces with its traceback (exit 1).
"""

import argparse
import json
import os
import sys
from math import gcd

from . import casson, search, tables
from .alex import reduced_coeffs
from .arith import INT64_P_BOUND
from .certify import Certificate, certificate_to_json, certify
from .dinv import d_lens
from .fgroup import abelianization_order, build_presentation, todd_coxeter

USAGE_ERROR = 2
CLOSED_PIPE = 141   # 128 + SIGPIPE: what a shell reports for a writer a closed pipe ended


class UsageError(Exception):
    pass


def _positive(value, name):
    if value < 1:
        raise UsageError(f"{name} must be positive, got {value}")
    return value


def _slope(value, name="p"):
    """A positive slope below the int64 exactness bound."""
    _positive(value, name)
    if value >= INT64_P_BOUND:
        raise UsageError(f"{name} must be below 2**19 = {INT64_P_BOUND}, got {value}")
    return value


def _coprime(a, b, what):
    if gcd(a, b) != 1:
        raise UsageError(f"{what}: gcd({a}, {b}) != 1")


def _surgery_datum(args):
    """Validate 2 <= p < 2**19 and p coprime to q and h; returns p."""
    p = _slope(args.p)
    if p < 2:
        raise UsageError("p must be at least 2")
    _coprime(p, args.q, "lens parameter q")
    _coprime(p, args.h, "dual class h")
    return p


def _slope_range(pmin, pmax):
    if not 2 <= pmin <= pmax:
        raise UsageError(f"need 2 <= pmin <= pmax, got [{pmin}, {pmax}]")
    _slope(pmax, "pmax")


def _write_out(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _laurent(coeffs):
    """The symmetric polynomial with coefficients a_0..a_g, from t^-g up to
    t^g.  Certified coefficients are in the alternating form: 0 or +-1, with
    +1 on top, so each term is a sign and a power of t, and the first sign
    is dropped."""
    g = len(coeffs) - 1
    words = []
    for i in range(-g, g + 1):
        a = coeffs[abs(i)]
        if a:
            words += ["-" if a < 0 else "+", "1" if i == 0 else "t" if i == 1 else f"t^{i}"]
    return " ".join(words[1:])


def cmd_dinv(args):
    p = _slope(args.p)
    if p == 1:
        if args.i not in (None, 0):
            raise UsageError("i must lie in [0, 1)")
        print("0 0")
        return 0
    q = args.q % p
    if q == 0:
        raise UsageError(f"q (mod p) must be nonzero, got q = {args.q}")
    _coprime(p, q, "lens space")
    if args.i is not None:
        if not 0 <= args.i < p:
            raise UsageError(f"i must lie in [0, {p})")
        print(f"{args.i} {d_lens(p, q, args.i)}")
    else:
        for i in range(p):
            print(f"{i} {d_lens(p, q, i)}")
    return 0


def cmd_alex(args):
    p = _surgery_datum(args)
    v = reduced_coeffs(p, args.q, args.h)
    print("reduced:", " ".join(str(x) for x in v.tolist()))
    result = certify(p, args.q, args.h, require_even_d=not args.allow_odd_d)
    if isinstance(result, Certificate):
        print("genus:", result.g)
        print("polynomial:", _laurent(result.poly))
        print("torsions:", " ".join(str(t) for t in result.torsions) or "0")
        return 0
    print(f"rejected at stage: {result.stage} ({result.detail})")
    return 1


def cmd_lambda(args):
    p = _slope(args.p)
    if p == 1:
        print("lambda(L(1,1)) = 0")
        return 0
    q = args.q % p
    _coprime(p, q, "lens space")
    lam = casson.lambda_rustamov(p, q)
    check = casson.lambda_dedekind(p, q)
    print(f"lambda(L({p},{q})) = {lam}")
    if lam != check:
        print(f"WARNING: independent route disagrees: {check}")
        return 1
    return 0


def cmd_certify(args):
    p = _surgery_datum(args)
    result = certify(p, args.q, args.h, require_even_d=not args.allow_odd_d)
    if isinstance(result, Certificate):
        if args.json:
            print(json.dumps(certificate_to_json(result), sort_keys=True))
        else:
            d = result.datum
            print(f"p={d.p} q={d.q} h={d.h} d={d.d} g={d.g}")
            print("polynomial:", _laurent(result.poly))
            print("torsions:", " ".join(str(t) for t in result.torsions) or "0")
            print("lambda(L(p,q)) =", result.lambda_pq,
                  " lambda(L(p,1)) =", result.lambda_p1)
            for name, ok in result.checks:
                print(f"check {name}: {'PASS' if ok else 'FAIL'}")
        return 0
    print(f"rejected at stage: {result.stage} ({result.detail})")
    return 1


def cmd_search(args):
    _positive(args.threads, "--threads")
    _slope_range(args.pmin, args.pmax)
    report = search.enumerate_search(args.pmin, args.pmax, mode=args.mode,
                                     threads=args.threads)
    _write_out(search.report_csv(report, d=args.d), args.out)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(search.report_json(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def cmd_families(args):
    _positive(args.lmax, "--lmax")
    insts = search.families(-args.lmax, args.lmax)
    bad = 0
    for inst in insts:
        r = inst.result
        if isinstance(r, Certificate):
            d = r.datum
            status = "ok" if inst.genus_ok else "GENUS-RULE-FAIL"
            print(f"{inst.label}\tl={inst.ell}\tp={d.p} q={d.q} h={d.h} "
                  f"g={d.g} d={d.d}\t{status}")
        else:
            status = f"REJECTED({r.stage})"
            print(f"{inst.label}\tl={inst.ell}\tp={inst.p}\t{status}")
        if not inst.ok:
            bad += 1
    print(f"{len(insts)} instances, {bad} failing")
    return 0 if bad == 0 else 1


def cmd_tables(args):
    _positive(args.threads, "--threads")
    try:
        fixture_rows = tables.load_fixture(args.verify)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read table {args.verify!r}: {err}") from err
    pmin = min((r[0] for r in fixture_rows), default=2) if args.pmin is None else args.pmin
    pmax = max((r[0] for r in fixture_rows), default=0) if args.pmax is None else args.pmax
    _slope_range(pmin, pmax)
    fixture_rows = [r for r in fixture_rows if pmin <= r[0] <= pmax]
    report = search.enumerate_search(pmin, pmax, mode="square",
                                     threads=args.threads)
    rows = [(c.p, c.datum.q, c.datum.h, c.g) for c in report.certs_with_d(2)]
    problems = tables.verify_rows(rows, fixture_rows)
    if problems:
        for line in problems:
            print(line)
        return 1
    print(f"verified: {len(rows)} rows, p in [{pmin}, {pmax}]")
    return 0


def cmd_group(args):
    p = _surgery_datum(args)
    _positive(args.max_cosets, "--max-cosets")
    result = certify(p, args.q, args.h)
    if not isinstance(result, Certificate):
        print(f"rejected at stage: {result.stage} ({result.detail})")
        return 1
    pres = build_presentation(result)
    print(pres)
    print("abelianization order:", abelianization_order(pres))
    order = todd_coxeter(pres, max_cosets=args.max_cosets)
    if order is None:
        print(f"coset enumeration overflowed at {args.max_cosets} cosets")
        return 1
    print("group order:", order)
    return 0


def cmd_plotdata(args):
    _positive(args.threads, "--threads")
    _slope_range(2, args.pmax)
    report = search.enumerate_search(2, args.pmax, mode="square",
                                     threads=args.threads)
    pts = search.plotdata(report, args.d)
    _write_out(search.plotdata_csv(pts), args.out)
    return 0


def cmd_ras(args):
    if args.pmax < 4:
        raise UsageError(f"--pmax must be at least 4, got {args.pmax}")
    _slope(args.pmax, "pmax")
    violations = casson.ras_verify(args.pmax)
    if violations:
        for p, q in violations:
            print(f"violation: L({p},{q})")
        return 1
    print(f"no violations for p <= {args.pmax}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lenssurg",
        description="certify and enumerate lens-space surgeries on "
                    "L-space homology spheres",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dinv", help="correction terms of L(p,q)")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("i", type=int, nargs="?", default=None)
    sp.set_defaults(func=cmd_dinv)

    sp = sub.add_parser("alex", help="reduced Alexander data for (p,q,h)")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("h", type=int)
    sp.add_argument("--allow-odd-d", action="store_true")
    sp.set_defaults(func=cmd_alex)

    sp = sub.add_parser("lambda", help="Casson-Walker invariant of L(p,q)")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.set_defaults(func=cmd_lambda)

    sp = sub.add_parser("certify", help="run the full pipeline on (p,q,h)")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("h", type=int)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--allow-odd-d", action="store_true")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("search", help="enumerate certified data by slope")
    sp.add_argument("--pmin", type=int, default=2)
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--mode", choices=["square", "exhaustive"], default="square")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sp.add_argument("--out", default=None)
    sp.add_argument("--report", default=None)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("families", help="instantiate the parametric families")
    sp.add_argument("--lmax", type=int, required=True)
    sp.set_defaults(func=cmd_families)

    sp = sub.add_parser("tables", help="verify search output against a table")
    sp.add_argument("--verify", required=True,
                    help="bundled name (table1/table2) or CSV path")
    sp.add_argument("--pmin", type=int, default=None)
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("group", help="fundamental group of the source sphere")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.add_argument("h", type=int)
    sp.add_argument("--max-cosets", type=int, default=10**6)
    sp.set_defaults(func=cmd_group)

    sp = sub.add_parser("plotdata", help="(h, p) plot points")
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_plotdata)

    sp = sub.add_parser("ras", help="lambda threshold sweep")
    sp.add_argument("--pmax", type=int, required=True)
    sp.set_defaults(func=cmd_ras)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return status
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:   # the reader of stdout is gone (`| head`)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
