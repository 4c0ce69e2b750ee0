"""Command-line front end.

Subcommands: series (emit coefficients), verify (identity cross-checks),
oracle (brute force vs formula), constants (growth/zeta constants).
Exit codes: 0 success, 1 verification or oracle failure, 2 usage error.
Output is deterministic.  --threads is accepted and does not change the work.
No code path calls BLAS, so the package loads NumPy's OpenBLAS with one thread
unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set: an idle pool of one
worker per core cost each command about 0.1 s of CPU at start-up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import asymptotics, oracle
from .arith import odd_divisor_sums
from .counting import CrossCheckFailure, Target, closed_sequence, engine_sequence, series, ssm_count
from .dirichlet import is_multiplicative
from .orders import ORDERS

_SLUGS = {t.value: t for t in Target}

_THREADS_HELP = ("accepted for compatibility; does not change the work (BLAS is loaded with one "
                 "thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set)")

# --terms above this would need gigabytes of coefficient storage
MAX_TERMS = 10**7

# series rows (or json terms) per write: one % format per chunk writes
# 100,000 rows in about 0.05 s where one f-string per row takes 0.07 s
# (buffered stdout, 2-core x86 VM), and a chunk keeps the string and the
# Python ints of its slice small, where one string for the whole output
# would hold all of it in memory at once
_SERIES_CHUNK = 8192


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _terms_error(terms: int) -> str | None:
    if terms < 1:
        return "terms must be >= 1"
    if terms > MAX_TERMS:
        return f"terms must be <= {MAX_TERMS}"
    return None


def cmd_series(args) -> int:
    if err := _terms_error(args.terms):
        return _usage_error(err)
    target = _SLUGS[args.target]
    try:
        seq = series(target, args.terms)
    except CrossCheckFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    square = target.index_kind == "square"
    out = sys.stdout
    x = seq.array
    if args.format == "json":
        # the bytes of json.dumps(obj) with obj["terms"] the whole sequence
        head = json.dumps({"target": target.value, "index_kind": target.index_kind, "terms": []})
        out.write(head[:-2])
        for lo in range(0, len(x), _SERIES_CHUNK):
            out.write(("" if lo == 0 else ", ") + ", ".join(map(str, x[lo:lo + _SERIES_CHUNK].tolist())))
        out.write(head[-2:] + "\n")
        return 0
    if args.format == "csv":
        out.write("m,index,count\n")
    row = "%d,%d,%d\n" if args.format == "csv" else "%d %d %d\n"
    for lo in range(0, len(x), _SERIES_CHUNK):
        counts = x[lo:lo + _SERIES_CHUNK].tolist()
        ms = range(lo + 1, lo + 1 + len(counts))
        cells = zip(ms, [m * m for m in ms] if square else ms, counts)
        out.write(row * len(counts) % tuple(itertools.chain.from_iterable(cells)))
    return 0


def _verify_one(target: Target, n: int) -> list[tuple[str, bool]]:
    checks = []
    closed = closed_sequence(target, n)
    engine = engine_sequence(target, n)
    checks.append(("engine-vs-closed-form", closed == engine))
    checks.append(("multiplicativity", is_multiplicative(engine)))
    if target is Target.ZETA_J:
        checks.append(("sum-of-odd-divisors", np.array_equal(closed.array, odd_divisor_sums(n)[1:])))
    return checks


def cmd_verify(args) -> int:
    if err := _terms_error(args.terms):
        return _usage_error(err)
    targets = list(Target) if args.target == "all" else [_SLUGS[args.target]]
    failed = False
    for t in targets:
        for name, ok in _verify_one(t, args.terms):
            status = "PASS" if ok else "FAIL"
            failed |= not ok
            print(f"{status} {name} target={t.value} terms={args.terms}")
    return 1 if failed else 0


def _breakdown(lattice: oracle.Order, m: int) -> None:
    """Per-lambda census of index m^2 on stderr, to show where a mismatch lies."""
    for c in oracle.census(lattice, m):
        print(f"  {lattice.name} m={m} lambda={c.lam}: {c.vectors} vectors, {c.frames} frames, "
              f"{len(c.keys)} SSMs", file=sys.stderr)


def cmd_oracle(args) -> int:
    if args.module:
        if args.m is None:
            return _usage_error("--module requires --m")
        if args.max_m is not None:
            return _usage_error("--max-m does not apply to --module; use --m")
        m = args.m
        try:
            if args.module == "icosian":
                ssms, target = oracle.enumerate_ssm_icosian(m), Target.F_I
            else:
                ssms, target = oracle.enumerate_ssm_cubian(m), Target.F_K
        except ValueError as exc:
            return _usage_error(str(exc))
        formula = ssm_count(target, m)
        kinds = {"right-ideal": 0, "left-ideal": 0, "two-sided": 0, "product": 0}
        for s in ssms:
            kinds[s.kind] += 1
        ok = len(ssms) == formula
        print(
            f"m={m}: {len(ssms)} SSMs: {kinds['right-ideal']} right, {kinds['left-ideal']} left, "
            f"{kinds['two-sided']} two-sided, {kinds['product']} generic; "
            f"formula={formula} {'MATCH' if ok else 'MISMATCH'}"
        )
        if not ok:
            _breakdown(ORDERS[args.module], m)
        return 0 if ok else 1
    if args.m is not None:
        return _usage_error("--m does not apply to --lattice; use --max-m")
    lat = ORDERS[args.lattice]
    target = Target.F_Z4 if args.lattice == "z4" else Target.F_J
    max_m = args.max_m if args.max_m is not None else 3
    if not 1 <= max_m <= lat.max_m:  # before any line prints; the census checks each m
        return _usage_error(f"max-m = {max_m} is outside the {lat.name} census bound "
                            f"1 <= m <= {lat.max_m}")
    failed = False
    for m in range(1, max_m + 1):
        o = oracle.count_ssl_bruteforce(lat, m)
        f = ssm_count(target, m)
        ok = o == f
        failed |= not ok
        print(f"m={m}: oracle={o} formula={f} {'MATCH' if ok else 'MISMATCH'}")
        if not ok:
            _breakdown(lat, m)
    return 1 if failed else 0


def _fmt(v: float) -> str:
    return f"{v:.6f}".rstrip("0").rstrip(".")


def cmd_constants(args) -> int:
    if err := _terms_error(args.terms):
        return _usage_error(err)
    if args.estimate and args.terms < 16:
        return _usage_error("terms must be >= 16 for estimates")
    for name, (text, value, _) in asymptotics.CONSTANTS.items():
        row = [name, text, _fmt(value)]
        if args.estimate:
            est = asymptotics.estimate_constant(name, args.terms)
            row += ["-" if est is None else _fmt(est), str(args.terms)]
        print(" ".join(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="similitude",
        description="Counting functions for similarity sublattices of the 4D hypercubic "
        "lattices and similarity submodules of the Hurwitz, icosian, and cubian "
        "quaternion orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="emit coefficients of a counting series")
    p.add_argument("--target", required=True, choices=sorted(_SLUGS))
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="cross-check identities and closed forms")
    p.add_argument("--target", default="all", choices=sorted(_SLUGS) + ["all"])
    p.add_argument("--terms", type=int, default=10_000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force counts vs formulas")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", choices=("z4", "d4star"))
    group.add_argument("--module", choices=("icosian", "cubian"))
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("constants", help="closed-form constants (and estimates)")
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--terms", type=int, default=10_000)
    p.set_defaults(func=cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
