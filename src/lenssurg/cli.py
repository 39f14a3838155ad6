"""Command-line interface.

Subcommands cover every pipeline: correction terms, reduced coefficients,
Casson-Walker values, certification, the slope search, parametric families,
golden-table verification, fundamental groups, plot data, and the lambda
threshold sweep.  Exit status: 0 success/verified, 1 mismatch/rejection,
2 usage error, 141 stdout closed early.  User input is validated up front,
including slopes against the int64 exactness bound p < 2**19; any other
exception is an internal fault and surfaces with its traceback (exit 1).

Each argument shape has one path: a lens space (p, q) (dinv, lambda) is
checked by _lens_space; a datum (p, q, h) (alex, certify, group) is checked
by _surgery_datum and certified or rejected by _certified; a slope range
(search, tables, plotdata) is checked and searched by _searched; families
checks its largest slope before it certifies anything.
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


def _lens_space(args):
    """Validate 1 <= p < 2**19 and, for p >= 2, q nonzero mod p and coprime to p;
    returns (p, q mod p)."""
    p = _slope(args.p)
    q = args.q % p
    if p > 1 and q == 0:
        raise UsageError(f"q (mod p) must be nonzero, got q = {args.q}")
    _coprime(p, q, "lens space")
    return p, q


def _surgery_datum(args):
    """Validate 2 <= p < 2**19 and p coprime to q and h; returns p."""
    p = _slope(args.p)
    if p < 2:
        raise UsageError("p must be at least 2")
    _coprime(p, args.q, "lens parameter q")
    _coprime(p, args.h, "dual class h")
    return p


def _certified(args, require_even_d=True):
    """The certificate of (args.p, args.q, args.h), or None after printing the rejection."""
    result = certify(args.p, args.q, args.h, require_even_d=require_even_d)
    if isinstance(result, Certificate):
        return result
    print(f"rejected at stage: {result.stage} ({result.detail})")
    return None


def _searched(args, pmin, pmax, mode="square"):
    """The search report over [pmin, pmax], after checking --threads and the range."""
    _positive(args.threads, "--threads")
    if not 2 <= pmin <= pmax:
        raise UsageError(f"need 2 <= pmin <= pmax, got [{pmin}, {pmax}]")
    _slope(pmax, "pmax")
    return search.enumerate_search(pmin, pmax, mode=mode, threads=args.threads)


def _write_out(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_polynomial(cert):
    """Print the symmetric polynomial a_0..a_g from t^-g up to t^g, then
    its torsion coefficients.  Certified coefficients are in the alternating
    form: 0 or +-1, with +1 on top, so each term is a sign and a power of t,
    and the first sign is dropped."""
    words = []
    for i in range(-cert.g, cert.g + 1):
        a = cert.poly[abs(i)]
        if a:
            words += ["-" if a < 0 else "+", "1" if i == 0 else "t" if i == 1 else f"t^{i}"]
    print("polynomial:", " ".join(words[1:]))
    print("torsions:", " ".join(str(t) for t in cert.torsions) or "0")


def cmd_dinv(args):
    p, q = _lens_space(args)
    if args.i is not None and not 0 <= args.i < p:
        raise UsageError(f"i must lie in [0, {p})")
    if p == 1:
        print("0 0")
        return 0
    for i in range(p) if args.i is None else (args.i,):
        print(f"{i} {d_lens(p, q, i)}")
    return 0


def cmd_alex(args):
    p = _surgery_datum(args)
    v = reduced_coeffs(p, args.q, args.h)
    print("reduced:", " ".join(str(x) for x in v.tolist()))
    cert = _certified(args, require_even_d=not args.allow_odd_d)
    if cert is None:
        return 1
    print("genus:", cert.g)
    _print_polynomial(cert)
    return 0


def cmd_lambda(args):
    p, q = _lens_space(args)
    if p == 1:
        print("lambda(L(1,1)) = 0")
        return 0
    lam = casson.lambda_rustamov(p, q)
    check = casson.lambda_dedekind(p, q)
    print(f"lambda(L({p},{q})) = {lam}")
    if lam != check:
        print(f"WARNING: independent route disagrees: {check}")
        return 1
    return 0


def cmd_certify(args):
    _surgery_datum(args)
    cert = _certified(args, require_even_d=not args.allow_odd_d)
    if cert is None:
        return 1
    if args.json:
        print(json.dumps(certificate_to_json(cert), sort_keys=True))
        return 0
    print(f"p={cert.p} q={cert.q} h={cert.h} d={cert.d} g={cert.g}")
    _print_polynomial(cert)
    print("lambda(L(p,q)) =", cert.lambda_pq, " lambda(L(p,1)) =", cert.lambda_p1)
    for name, ok in cert.checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    return 0


def cmd_search(args):
    report = _searched(args, args.pmin, args.pmax, mode=args.mode)
    _write_out(search.report_csv(report, d=args.d), args.out)
    if args.report:
        _write_out(json.dumps(search.report_json(report), sort_keys=True, indent=2) + "\n",
                   args.report)
    return 0


def cmd_families(args):
    lmax = _positive(args.lmax, "--lmax")
    _slope(search.family_slope_max(-lmax, lmax), "family slope p")
    insts = search.families(-lmax, lmax)
    for inst in insts:
        r = inst.result
        if isinstance(r, Certificate):
            status = "ok" if inst.ok else "GENUS-RULE-FAIL"
            print(f"{inst.label}\tl={inst.ell}\tp={r.p} q={r.q} h={r.h} "
                  f"g={r.g} d={r.d}\t{status}")
        else:
            print(f"{inst.label}\tl={inst.ell}\tp={r.p}\tREJECTED({r.stage})")
    bad = sum(not inst.ok for inst in insts)
    print(f"{len(insts)} instances, {bad} failing")
    return 0 if bad == 0 else 1


def cmd_tables(args):
    _positive(args.threads, "--threads")   # before the table is read
    try:
        fixture_rows = tables.load_fixture(args.verify)
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read table {args.verify!r}: {err}") from err
    if not fixture_rows and None in (args.pmin, args.pmax):
        raise UsageError(f"table {args.verify!r} has no rows; give --pmin and --pmax")
    if args.pmin is None and min(fixture_rows)[0] < 2:
        raise UsageError(f"table {args.verify!r} has the row {min(fixture_rows)}, with p < 2")
    pmin = min(r[0] for r in fixture_rows) if args.pmin is None else args.pmin
    pmax = max(r[0] for r in fixture_rows) if args.pmax is None else args.pmax
    report = _searched(args, pmin, pmax)
    fixture_rows = [r for r in fixture_rows if pmin <= r[0] <= pmax]
    rows = [(c.p, c.q, c.h, c.g) for c in report.certs_with_d(2)]
    problems = tables.verify_rows(rows, fixture_rows)
    if problems:
        for line in problems:
            print(line)
        return 1
    print(f"verified: {len(rows)} rows, p in [{pmin}, {pmax}]")
    return 0


def cmd_group(args):
    _surgery_datum(args)
    _positive(args.max_cosets, "--max-cosets")
    cert = _certified(args)
    if cert is None:
        return 1
    pres = build_presentation(cert)
    print(pres)
    print("abelianization order:", abelianization_order(pres))
    order = todd_coxeter(pres, max_cosets=args.max_cosets)
    if order is None:
        print(f"coset enumeration overflowed at {args.max_cosets} cosets")
        return 1
    print("group order:", order)
    return 0


def cmd_plotdata(args):
    pts = search.plotdata(_searched(args, 2, args.pmax), args.d)
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
    threads = os.cpu_count() or 1

    def command(func, help, positional=""):
        """Subcommand <name> running cmd_<name>, with one int positional per letter."""
        sp = sub.add_parser(func.__name__.removeprefix("cmd_"), help=help)
        for name in positional:
            sp.add_argument(name, type=int)
        sp.set_defaults(func=func)
        return sp

    sp = command(cmd_dinv, "correction terms of L(p,q)", "pq")
    sp.add_argument("i", type=int, nargs="?", default=None)
    sp = command(cmd_alex, "reduced Alexander data for (p,q,h)", "pqh")
    sp.add_argument("--allow-odd-d", action="store_true")
    command(cmd_lambda, "Casson-Walker invariant of L(p,q)", "pq")
    sp = command(cmd_certify, "run the full pipeline on (p,q,h)", "pqh")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--allow-odd-d", action="store_true")
    sp = command(cmd_search, "enumerate certified data by slope")
    sp.add_argument("--pmin", type=int, default=2)
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--mode", choices=["square", "exhaustive"], default="square")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--threads", type=int, default=threads)
    sp.add_argument("--out", default=None)
    sp.add_argument("--report", default=None)
    sp = command(cmd_families, "instantiate the parametric families")
    sp.add_argument("--lmax", type=int, required=True)
    sp = command(cmd_tables, "verify search output against a table")
    sp.add_argument("--verify", required=True,
                    help="bundled name (table1/table2) or CSV path")
    sp.add_argument("--pmin", type=int, default=None)
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("--threads", type=int, default=threads)
    sp = command(cmd_group, "fundamental group of the source sphere", "pqh")
    sp.add_argument("--max-cosets", type=int, default=10**6)
    sp = command(cmd_plotdata, "(h, p) plot points")
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--threads", type=int, default=threads)
    sp.add_argument("--out", default=None)
    command(cmd_ras, "lambda threshold sweep").add_argument("--pmax", type=int, required=True)

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
