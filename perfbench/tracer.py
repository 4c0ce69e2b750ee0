"""Span tracing of the similitude package from outside, for the benchmark.

Run as a script, it replaces the CLI entry point in a fresh interpreter:

    python perfbench/tracer.py SPANS.json <similitude arguments...>

It imports the package, wraps each function named in WRAPPED in every
module namespace that holds it, runs `similitude.cli.main` on the
arguments (stdout is untouched), writes the recorded spans to SPANS.json
and exits with the CLI's exit code.  The benchmark derives self times
from the spans with `self_times` and per-layer metrics with
`layer_metrics`.

`quadfield` has no spans: it does millions of tiny QuadInt operations and
wrapping each would distort the run.  Its time lands in the callers'
self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "similitude"

# "<module>.<qualified name>" of every function or method that gets a span.
# Names without a per-layer metric are wrapped too, so that their time is
# not charged to their caller's self time.
WRAPPED = (
    "cli.main", "cli.cmd_series", "cli.cmd_verify", "cli.cmd_oracle", "cli.cmd_constants",
    "counting.series", "counting.closed_sequence", "counting.engine_sequence",
    "counting.ssm_count", "counting.dedekind_coeff", "counting.order_zeta_coeff",
    "dirichlet.convolve", "dirichlet.dirichlet_inverse", "dirichlet.dilate", "dirichlet.shift",
    "dirichlet.from_multiplicative", "dirichlet.is_multiplicative", "dirichlet.partial_sum",
    "arith.smallest_prime_factor_sieve", "arith.factorize", "arith.primes_up_to",
    "oracle.count_ssl_bruteforce", "oracle.enumerate_ssm_icosian",
    "oracle.enumerate_sublattices", "oracle.is_similar_sublattice",
    "orders.module_lattice", "orders.element", "orders.is_member", "orders.unit_group",
    "orders.canonicalize_pair",
    "quat.Quat.__mul__",
    "lattice.lattice_key",
    "asymptotics.estimate_constant",
)

# span name -> (counter name, work done by one call from (args, result))
COUNTERS = {
    "dirichlet.convolve": ("dirichlet.convolve.terms", lambda args, res: len(args[0])),
    "dirichlet.dirichlet_inverse": ("dirichlet.dirichlet_inverse.terms", lambda args, res: len(args[0])),
    "dirichlet.from_multiplicative": ("dirichlet.from_multiplicative.terms", lambda args, res: args[1]),
    "oracle.count_ssl_bruteforce": ("oracle.ssl_found", lambda args, res: res),
    "oracle.enumerate_ssm_icosian": ("oracle.ssm_found", lambda args, res: len(res)),
    "orders.is_member": ("orders.is_member.hits", lambda args, res: int(bool(res))),
}


class Tracer:
    """Wraps functions in place and records one span per call.

    A span is (id, parent id, name index, start ns, end ns, thread id, work).
    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack takes as parent the innermost span
    open on the main thread, which is the call that handed out the work.
    """

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        work_of = counter[1] if counter else None
        record = self.spans.append
        next_id = self._ids.__next__
        clock = time.perf_counter_ns
        main_stack = self._main_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack and stack is not main_stack else -1
            sid = next_id()
            stack.append(sid)
            res = done = None
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
                done = True
                return res
            finally:
                t1 = clock()
                stack.pop()
                work = 0
                if done and work_of is not None:
                    try:
                        work = work_of(args, res)
                    except (LookupError, TypeError):
                        pass  # the signature changed: the counter reads 0
                record((sid, parent, nid, t0, t1, threading.get_ident(), work))

        return wrapper

    def install(self, wrapped=WRAPPED) -> None:
        """Wrap each name in every loaded module of the package that holds it.

        A name missing from its module (removed by a later change) is listed
        in `absent` and skipped."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for full in wrapped:
            mod_name, _, qual = full.partition(".")
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                self.absent.append(full)
                continue
            owner_path, _, attr = qual.rpartition(".")
            owner = mod
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(full)
                continue
            wrapper = self._wrap(fn, full)
            if owner is not mod:  # a method: one place holds it
                self._set(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "absent": self.absent, "spans": self.spans}, fh)


def self_times(spans) -> dict[int, float]:
    """Self time in seconds of every span id.

    A span's self time is its duration minus the time its children cover.
    Children on the span's own thread run one after another.  Children
    adopted from worker threads may overlap: the parent loses the union
    of their intervals, and their subtrees' self times are scaled by
    union / sum of durations, so the workers share the wall time they
    overlapped in.  The self times of a tree therefore sum to its root's
    duration.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    own: dict[int, float] = {}
    scale: dict[int, float] = {}
    for s in spans:
        sid, _, _, t0, t1, tid, _ = s
        dur = t1 - t0
        adopted = []
        for c in children.get(sid, ()):
            if c[5] == tid:
                dur -= c[4] - c[3]
            else:
                adopted.append(c)
        if adopted:
            union = _union_length([(c[3], c[4]) for c in adopted])
            total = sum(c[4] - c[3] for c in adopted)
            dur -= union
            for c in adopted:
                scale[c[0]] = union / total if total else 0.0
        own[sid] = dur
    # a span's factor is the product of the factors on its path to the root
    factor: dict[int, float] = {}

    def factor_of(sid: int) -> float:
        path = []
        while sid in by_id and sid not in factor:
            path.append(sid)
            sid = by_id[sid][1]
        f = factor.get(sid, 1.0)
        for p in reversed(path):
            f *= scale.get(p, 1.0)
            factor[p] = f
        return f

    return {sid: own[sid] * factor_of(sid) / 1e9 for sid in own}


def _union_length(intervals) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def aggregate(trace: dict) -> dict:
    """Per span name: calls, self_s, and the COUNTERS totals, plus the
    in-process wall time (sum of root span durations) and the sum of all
    self times, which the derivation makes equal to it."""
    names = trace["names"]
    spans = [tuple(s) for s in trace["spans"]]
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counters: dict[str, int] = defaultdict(int)
    for s in spans:
        name = names[s[2]]
        calls[name] += 1
        self_s[name] += selfs[s[0]]
        counter = COUNTERS.get(name)
        if counter:
            counters[counter[0]] += s[6]
    roots = [s for s in spans if s[1] == -1]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "counters": dict(counters),
        "absent": list(trace["absent"]),
        "inproc_s": sum(s[4] - s[3] for s in roots) / 1e9,
        "self_sum_s": sum(selfs.values()),
    }


def merge(aggs: list[dict]) -> dict:
    """Sum the aggregates of several commands."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "counters": defaultdict(int), "absent": set(), "inproc_s": 0.0, "self_sum_s": 0.0}
    for a in aggs:
        for key in ("calls", "self_s", "counters"):
            for k, v in a[key].items():
                out[key][k] += v
        out["absent"].update(a["absent"])
        out["inproc_s"] += a["inproc_s"]
        out["self_sum_s"] += a["self_sum_s"]
    return out


def layer_metrics(agg: dict, wanted: list[str], wrapped=WRAPPED) -> tuple[dict, list[str]]:
    """Values of the wanted per-layer metric names from a (merged) aggregate.

    Returns (values, absent names).  A metric is absent when the function it
    measures was not found to wrap; it is left out rather than reported as 0.
    A wrapped function that simply did not run reports 0.
    """
    absent_fns = set(agg["absent"])
    counter_owner = {c[0]: fn for fn, c in COUNTERS.items()}
    values: dict[str, float] = {}
    missing: list[str] = []
    for metric in wanted:
        if metric.startswith("trace."):
            continue
        if metric in counter_owner:
            fn, kind = counter_owner[metric], "counter"
        else:
            fn, _, kind = metric.rpartition(".")
        if fn not in wrapped:
            raise ValueError(f"metric {metric} names no wrapped function")
        if fn in absent_fns:
            missing.append(metric)
        elif kind == "counter":
            values[metric] = agg["counters"].get(metric, 0)
        elif kind == "self_s":
            values[metric] = agg["self_s"].get(fn, 0.0)
        elif kind == "calls":
            values[metric] = agg["calls"].get(fn, 0)
        elif kind == "hit_ratio":
            calls = agg["calls"].get(fn, 0)
            values[metric] = agg["counters"].get(fn + ".hits", 0) / calls if calls else 0.0
        else:
            raise ValueError(f"unknown metric kind in {metric}")
    return values, missing


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
