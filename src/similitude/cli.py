"""Command-line front end.

Subcommands: series (emit coefficients), verify (identity cross-checks),
oracle (brute force vs formula), constants (growth/zeta constants).
Exit codes: 0 success, 1 verification or oracle failure, 2 usage error.
Output is deterministic.  --threads is accepted and does not change the work.
series writes through one decimal encoder, whose domain it checks first.
Only the census's small float64 matmuls call BLAS, so the package loads
NumPy's OpenBLAS with one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is set: an idle pool of one worker per core cost each command
about 0.1 s of CPU at start-up.
The console script (`entry`, also `python -m similitude.cli`) freezes the
garbage collector once `main` has returned, so the interpreter's shutdown
skips its collection over the ~22,000 tracked objects of NumPy and the
package: the CPU spent after the last atexit handler fell from 26-35 ms to
6-8 ms per command.  Output is flushed and atexit handlers run as before;
`main` itself leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter

import numpy as np

from . import asymptotics, oracle
from .arith import odd_divisor_sums
from .counting import CrossCheckFailure, Target, series, ssm_count
from .dirichlet import CoeffSeq, is_multiplicative
from .orders import ORDERS

_SLUGS = {t.value: t for t in Target}

_THREADS_HELP = ("accepted for compatibility; does not change the work (BLAS is loaded with one "
                 "thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set)")

# --terms above this would need gigabytes of coefficient storage
MAX_TERMS = 10**7

# series rows (or json terms) per write.  A chunk's working arrays are one
# uint64 per row and digit word, 64 kB at 8,192 rows; the four benchmark
# commands (10^5 terms each) took the same in-process time at 2,048 to 16,384
# rows and the same 35.3 MB peak RSS, and at 32,768 rows 11 % more time and
# 38.7 MB (medians of 5, 2-core x86 VM)
_SERIES_CHUNK = 8192

_ONES = 0x0101_0101_0101_0101  # 0x01 in each byte: a keep-mask word's "keep"
_ASCII_ZEROS = 0x3030_3030_3030_3030  # "00000000"


def _digits8(g: np.ndarray) -> np.ndarray:
    """The decimal digits (0-9, not ASCII) of each uint64 g < 10^8 as 8 bytes
    of one uint64 word, most significant first in little-endian memory.

    SWAR: a word holds several numbers in lanes, and one multiply or shift
    acts on all of them.  g splits by 10^4 into two 32-bit lanes, the first
    four digits in the low lane.  Each lane v < 10^4 splits into v // 100 =
    (v * 5243) >> 19 (exact for v < 43,699) and the rest, as two 16-bit
    lanes, and each of those v < 100 into v // 10 = (v * 103) >> 10 (exact
    for v < 179) and the rest, as two bytes.  No lane's product reaches the
    next lane: 10^4 * 5243 < 2^32 and 100 * 103 < 2^16.  Each split writes
    the quotient q of a lane value v = d*q + r as (v << b) - q*(d*2^b - 1)
    = q + (r << b), with b the new lane width.
    """
    hi = g // 10_000
    w = (g << 32) - hi * (10_000 * 2**32 - 1)
    q = (w * 5243) >> 19 & 0x0000_007F_0000_007F
    w = (w << 16) - q * (100 * 2**16 - 1)
    q = (w * 103) >> 10 & 0x000F_000F_000F_000F
    return (w << 8) - q * (10 * 2**8 - 1)


def _encode(fields: list[tuple[str, np.ndarray]]) -> str:
    """The rows that are, for each (prefix, column) in fields, the prefix and
    then the decimal digits of the column's value.  The columns are int64
    of one length and hold no negative value.

    Each field takes the fewest 8-byte words that hold its prefix and the
    digits of the column's largest value, right-aligned; the prefix takes the
    leading bytes, which are zero digits there.  A keep-mask word per digit
    word (0x01 per printed byte, by a prefix OR of its digits and those of
    the field's earlier words) drops the leading zeros, and one boolean
    compaction of the whole (rows x words) byte matrix writes the rows.
    """
    words, keeps = [], []
    for prefix, column in fields:
        p, top = len(prefix), int(column.max())
        n_words = 1
        while top >= 10 ** (8 * n_words - p):
            n_words += 1
        v = column.astype(np.uint64)
        groups = []  # 8-digit groups, least significant first
        for _ in range(n_words - 1):
            q = v // 10**8
            groups.append(v - q * 10**8)
            v = q
        groups.append(v)
        carry = 0  # _ONES times a nonzero byte once an earlier group had a digit
        for i, g in enumerate(reversed(groups)):
            d = _digits8(g)
            z = d | d << 8 | carry
            z |= z << 16
            z |= z << 32
            carry = (z >> 56) * _ONES
            keep = (z + 0x7F * _ONES) >> 7 & _ONES  # digits are < 16: no byte carries
            ascii_ = _ASCII_ZEROS
            if i == 0:
                head = (1 << 8 * p) - 1
                ascii_ = ascii_ & ~head | int.from_bytes(prefix.encode("ascii"), "little")
                keep |= _ONES & head
            if i == n_words - 1:
                keep |= 1 << 56  # the units digit, printed even when the value is 0
            words.append(d | ascii_)
            keeps.append(keep)
    chars = np.column_stack(words).astype("<u8", copy=False)
    mask = np.column_stack(keeps).astype("<u8", copy=False)
    return chars.view(np.uint8).ravel()[mask.view(np.bool_).ravel()].tobytes().decode("ascii")


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
    """Write the coefficients in chunks, each through _encode, whose domain
    (int64 counts >= 0) every accepted command meets: each Euler rule value is
    >= 0, and at MAX_TERMS the bit bound by which from_multiplicative picks
    int64 is at most 47 (f_k), far below 63.  The check before the first byte
    refuses anything else with the first m out of range."""
    if err := _terms_error(args.terms):
        return _usage_error(err)
    target = _SLUGS[args.target]
    try:
        seq = series(target, args.terms)
    except CrossCheckFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    x = seq.array
    if x.dtype != np.int64 or x.min() < 0:
        bad = next((m for m, v in enumerate(x.tolist(), 1) if not 0 <= v < 1 << 63), None)
        raise AssertionError(f"series {target.value}: {x.dtype} counts, first outside "
                             f"0 <= a(m) < 2^63 at m = {bad}")
    square = target.index_kind == "square"
    if args.format == "json":
        import json  # here only, so that no other command pays for the import
        # the bytes of json.dumps(obj) with obj["terms"] the whole sequence
        head = json.dumps({"target": target.value, "index_kind": target.index_kind, "terms": []})
        start, end = head[:-2], head[-2:] + "\n"
    else:
        start, end = "m,index,count\n" if args.format == "csv" else "", "\n"
    sep = "," if args.format == "csv" else " "
    out = sys.stdout
    out.write(start)
    for lo in range(0, len(x), _SERIES_CHUNK):
        counts = x[lo:lo + _SERIES_CHUNK]
        if args.format == "json":
            fields = [(", ", counts)]
        else:  # each row begins with the newline that ends the row before
            ms = np.arange(lo + 1, lo + 1 + len(counts), dtype=np.int64)
            fields = [("\n", ms), (sep, ms * ms if square else ms), (sep, counts)]
        text = _encode(fields)
        out.write(text[len(fields[0][0]):] if lo == 0 else text)
    out.write(end)
    return 0


def _verify_one(target: Target, n: int) -> list[tuple[str, bool]]:
    try:  # series' cross-check: on a pass, its sequence is the engine's element for element
        closed = engine = series(target, n)
    except CrossCheckFailure as exc:  # a stopped engine fails multiplicativity too
        print(f"FAIL {exc}", file=sys.stderr)
        closed, engine = exc.closed, exc.engine
    checks = [("engine-vs-closed-form", closed is engine),
              ("multiplicativity", isinstance(engine, CoeffSeq) and is_multiplicative(engine))]
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


# the similarity series that counts the SSMs of each order
_SSM_TARGET = {"z4": Target.F_Z4, "d4star": Target.F_J, "icosian": Target.F_I, "cubian": Target.F_K}


def cmd_oracle(args) -> int:
    if args.module:
        if args.m is None:
            return _usage_error("--module requires --m")
        if args.max_m is not None:
            return _usage_error("--max-m does not apply to --module; use --m")
        m = args.m
        try:  # by name: perfbench traces oracle.enumerate_ssm_icosian
            ssms = getattr(oracle, f"enumerate_ssm_{args.module}")(m)
        except ValueError as exc:
            return _usage_error(str(exc))
        formula = ssm_count(_SSM_TARGET[args.module], m)
        kinds = Counter(s.kind for s in ssms)
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
    max_m = args.max_m if args.max_m is not None else 3
    if not 1 <= max_m <= lat.max_m:  # before any line prints; the census checks each m
        return _usage_error(f"max-m = {max_m} is outside the {lat.name} census bound "
                            f"1 <= m <= {lat.max_m}")
    failed = False
    for m in range(1, max_m + 1):
        o = oracle.count_ssl_bruteforce(lat, m)
        f = ssm_count(_SSM_TARGET[args.lattice], m)
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
    code = main()
    # Everything left alive is garbage at exit: a frozen collector spares the
    # shutdown collection from tracing and tearing it down (see the docstring).
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
