"""Benchmark of the similitude CLI: fixed command sequences run as fresh
processes, timed from outside, every stdout checked against a reference.

    python3 perfbench/run.py --workload series --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is taken from its `src`.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 its per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

# Every child is killed once the run has lasted this long, so that the
# benchmark ends within its 180 s limit even if the program hangs.
RUN_LIMIT_S = 165.0

# Each target keeps its output format for every seed: the format changes
# peak RSS (json builds one large string), so pairing them by seed would
# make seeds do different work.
SERIES_FORMATS = {"f_j": "plain", "f_z4": "csv", "f_i": "json", "f_k": "plain"}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument lists of one pass of a workload.  The seed only
    permutes their order, so every seed does the same work."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series":
        cmds = [["series", "--target", t, "--terms", "100000", "--format", f]
                for t, f in SERIES_FORMATS.items()]
    elif workload == "checks":
        cmds = [["verify", "--target", "all", "--terms", "10000"],
                ["constants", "--estimate", "--terms", "100000"]]
    elif workload == "oracle":
        cmds = [["oracle", "--lattice", "z4", "--max-m", "5", "--threads", "2"],
                ["oracle", "--lattice", "d4star", "--max-m", "5", "--threads", "2"],
                ["oracle", "--module", "icosian", "--m", "9", "--threads", "2"]]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cmds)
    return cmds


def child_env() -> dict[str, str]:
    """A fixed environment: no SIMILITUDE_THREADS or other PYTHON* settings,
    the checkout's src on PYTHONPATH, and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if k != "SIMILITUDE_THREADS" and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def check_output(argv: list[str], returncode: int, out: bytes, reference: dict) -> str | None:
    """Why the command failed, or None when it succeeded."""
    if returncode != 0:
        return f"exit code {returncode}"
    key = " ".join(argv)
    want = reference.get(key)
    if want is None:
        return "no reference digest"
    if hashlib.sha256(out).hexdigest() != want:
        return "stdout differs from the reference"
    lines = out.decode().splitlines()
    if argv[0] == "verify" and not all(line.startswith("PASS ") for line in lines):
        return "a verify line is not PASS"
    if argv[0] == "oracle" and not all(line.endswith(" MATCH") for line in lines):
        return "an oracle line is not MATCH"
    return None


class Runner:
    """Runs one command at a time in a fresh interpreter and reads the
    child's own rusage, so CPU time and peak RSS are that child's alone."""

    def __init__(self, reference: dict, deadline: float):
        self.reference = reference
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def spawn(self, cmd: list[str]):
        """Run cmd; return (wall s, exit code, stdout, rusage)."""
        err_path = WORK / f"stderr-{os.getpid()}"
        t0 = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
                proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_bytes()
        err_path.unlink()
        if proc.returncode != 0 and stderr:
            sys.stderr.write(stderr.decode(errors="replace"))
        return wall, proc.returncode, out, usage

    def run(self, argv: list[str], traced: bool = False) -> dict:
        """Run `similitude argv` and check it; traced runs also return the
        aggregated spans under "trace"."""
        if traced:
            spans_path = WORK / f"spans-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "similitude.cli", *argv]
        wall, rc, out, usage = self.spawn(cmd)
        self.attempted += 1
        reason = check_output(argv, rc, out, self.reference)
        if reason:
            self.failures.append((" ".join(argv), reason))
        result = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                  "rss_mb": usage.ru_maxrss / 1024}
        if traced:
            if spans_path.exists():
                result["trace"] = tracer.aggregate(json.loads(spans_path.read_text()))
                spans_path.unlink()
            elif reason is None:
                self.failures.append((" ".join(argv), "tracer wrote no spans"))
        return result

    def run_pass(self, cmds: list[list[str]], traced: bool = False, setup_samples=None) -> dict:
        """Run the commands in order.  With a list for setup_samples, time a
        fresh import before each command and append it there; the pass's
        wall time leaves those imports out."""
        wall = 0.0
        results = []
        for argv in cmds:
            if setup_samples is not None:
                setup_samples.append(self.import_time())
            t0 = time.perf_counter()
            results.append(self.run(argv, traced))
            wall += time.perf_counter() - t0
        return {"wall_s": wall,
                "cpu_s": sum(r["cpu_s"] for r in results),
                "peak_rss_mb": max(r["rss_mb"] for r in results),
                "results": results}

    def import_time(self) -> float:
        """Wall time of a fresh interpreter importing similitude.cli."""
        wall, rc, _, _ = self.spawn([sys.executable, "-c", "import similitude.cli"])
        if rc != 0:
            raise RuntimeError(f"import similitude.cli failed with exit code {rc}")
        return wall


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def measure(runner: Runner, cmds: list[list[str]], seconds: float, trace: bool) -> dict:
    """Repeat the pass until `seconds` have gone by (at least once) and
    return the metrics as medians over the passes.

    Untraced, setup_s is the median of one import timed before every
    command, so its samples spread over the whole run like the commands'.
    """
    t0 = time.perf_counter()
    passes = []
    setup_samples = []
    while not passes or (time.perf_counter() - t0 < seconds and time.monotonic() < runner.deadline):
        if trace:
            plain = runner.run_pass(cmds)
            traced = runner.run_pass(cmds, traced=True)
            traced["overhead_s"] = traced["wall_s"] - plain["wall_s"]
            passes.append(traced)
        else:
            passes.append(runner.run_pass(cmds, setup_samples=setup_samples))
    out = {"passes": len(passes)}
    print("# pass wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    if not trace:
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            out[key] = statistics.median(p[key] for p in passes)
        out["setup_s"] = statistics.median(setup_samples)
        return out
    out["trace.overhead_s"] = statistics.median(p["overhead_s"] for p in passes)
    out["aggregates"] = [tracer.merge([r["trace"] for r in p["results"] if "trace" in r])
                         for p in passes]
    return out


def per_layer(measured: dict, wanted: list[str]) -> tuple[dict, list[str]]:
    """Median over the traced passes of each per-layer metric (the lower
    middle value, so that counts stay whole numbers)."""
    runs = [tracer.layer_metrics(agg, wanted) for agg in measured["aggregates"]]
    values = {m: statistics.median_low(r[0][m] for r in runs) for m in runs[0][0]}
    if "trace.overhead_s" in wanted:
        values["trace.overhead_s"] = measured["trace.overhead_s"]
    return values, runs[0][1]


def report_trace(agg: dict) -> None:
    """Human-readable self-time shares of the last traced pass."""
    inproc = agg["inproc_s"]
    print(f"# in-process wall {inproc:.3f} s, sum of span self times {agg['self_sum_s']:.3f} s")
    top = sorted(agg["self_s"].items(), key=lambda kv: -kv[1])
    for name, s in top:
        if s >= 0.005 * inproc:
            print(f"#   {name:34s} {s:8.3f} s {100 * s / inproc:5.1f} %  calls {agg['calls'][name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("series", "checks", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "similitude" / "cli.py").is_file():
        print(f"error: no similitude package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())
    started = time.monotonic()
    env_info = environment()
    WORK.mkdir(exist_ok=True)
    runner = Runner(reference, started + RUN_LIMIT_S)
    cmds = commands(args.workload, args.seed)
    print(f"# workload {args.workload} seed {args.seed}: "
          + "; ".join(" ".join(c) for c in cmds))
    print("# environment " + json.dumps(env_info))

    trace = bool(args.trace)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    runner.import_time()  # untimed: fills the bytecode cache
    measured = measure(runner, cmds, args.seconds, trace)
    if trace:
        values, absent = per_layer(measured, [m["name"] for m in metrics])
        report_trace(measured["aggregates"][-1])
        if absent:
            print("# absent (function no longer exists): " + ", ".join(absent))
    else:
        values = {k: measured[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    attempted, failed = runner.attempted, len(runner.failures)
    for cmd, reason in runner.failures:
        print(f"# FAIL {cmd}: {reason}")
    print(f"# passes {measured['passes']}, commands {attempted}, "
          f"fail_rate {failed / attempted:.4f} ({failed}/{attempted})")
    result = {}
    for m in metrics:
        if m["name"] in values:
            result[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"# {m['name']} {values[m['name']]:.6g} {m['unit']}")
    with contextlib.suppress(OSError):
        WORK.rmdir()
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
