import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import similitude
from similitude import cli
from similitude.cli import main
from similitude.counting import Target, series
from similitude.dirichlet import coeff_seq


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_plain(capsys):
    code, out, _ = run(capsys, "series", "--target", "f_z4", "--terms", "4")
    assert code == 0
    assert out == "1 1 1\n2 4 3\n3 9 8\n4 16 3\n"


def test_series_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, "series", "--target", "riemann", "--terms", "3", "--format", "csv")
    assert code == 0
    assert out == "m,index,count\n1,1,1\n2,2,1\n3,3,1\n"
    code, out, _ = run(capsys, "series", "--target", "zeta_j", "--terms", "3", "--format", "csv")
    assert out == "m,index,count\n1,1,1\n2,4,1\n3,9,4\n"


def _expected_series(target, fmt, counts):
    """The series output built one row (or one json.dumps) at a time."""
    if fmt == "json":
        obj = {"target": target.value, "index_kind": target.index_kind, "terms": list(counts)}
        return json.dumps(obj) + "\n"
    sep = "," if fmt == "csv" else " "
    square = target.index_kind == "square"
    rows = "".join(f"{m}{sep}{m * m if square else m}{sep}{c}\n" for m, c in enumerate(counts, 1))
    return ("m,index,count\n" if fmt == "csv" else "") + rows


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("target", [Target.F_J, Target.RIEMANN], ids=["square", "plain_index"])
def test_series_chunks_equal_row_by_row(capsys, fmt, target):
    chunk = cli._SERIES_CHUNK
    for terms in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        code, out, _ = run(capsys, "series", "--target", target.value, "--terms", str(terms),
                           "--format", fmt)
        assert code == 0
        assert out == _expected_series(target, fmt, series(target, terms).array.tolist()), terms


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("bad", [2**64, -(10**12)], ids=["beyond_int64", "negative_int64"])
def test_series_refuses_counts_the_encoder_cannot_print(capsys, monkeypatch, fmt, bad):
    # the encoder takes int64 counts >= 0 only; the one check runs before the
    # first byte, so a bad value in the second chunk leaves stdout empty
    chunk = cli._SERIES_CHUNK
    counts = [m % 1000 for m in range(2 * chunk + 1)]
    counts[chunk + 5] = bad
    seq = coeff_seq(counts)
    assert seq.array.dtype == (object if bad > 0 else np.int64)
    monkeypatch.setattr(cli, "series", lambda target, n: seq)
    with pytest.raises(AssertionError, match=rf"^series f_k: .* at m = {chunk + 6}$"):
        main(["series", "--target", "f_k", "--terms", str(len(counts)), "--format", fmt])
    assert capsys.readouterr().out == ""


# 0, 10^k - 1 and 10^k for k = 0..18 (every digit count), and the largest int64
_DIGIT_BOUNDARIES = sorted({0, 2**63 - 1} | {10**k + d for k in range(19) for d in (-1, 0)})


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_series_encoder_at_digit_boundaries(capsys, monkeypatch, fmt):
    # each chunk cycles the boundaries up to its own cap, so that the count
    # field takes one, two and three words, with a largest value just at a
    # word's capacity (10^(8k) less the separator's bytes), and every chunk
    # starts and ends on a boundary; m and the square index cross 10^7 too
    chunk = cli._SERIES_CHUNK
    caps = (10**6, 10**7, 10**14, 10**15, 2**63 - 1)
    counts = [v for cap in caps
              for v in np.resize([b for b in _DIGIT_BOUNDARIES if b <= cap], chunk).tolist()]
    counts.append(2**63 - 1)
    seq = coeff_seq(counts)
    assert seq.array.dtype == np.int64
    monkeypatch.setattr(cli, "series", lambda target, n: seq)
    code, out, _ = run(capsys, "series", "--target", "f_j", "--terms", str(len(counts)), "--format", fmt)
    assert code == 0
    assert out == _expected_series(Target.F_J, fmt, counts)


def test_digits8_lane_identities_over_their_domains():
    v = np.arange(10**4, dtype=np.uint64)
    assert np.array_equal((v * 5243) >> 19, v // 100) and 10**4 * 5243 < 2**32
    v = np.arange(100, dtype=np.uint64)
    assert np.array_equal((v * 103) >> 10, v // 10) and 100 * 103 < 2**16
    # every value of each 32-bit lane, in both lanes: that is every value
    # of each 16-bit lane and of each byte, in every position of the word
    for g in (np.arange(10**4), np.arange(10**4) * 10**4):
        words = (cli._digits8(g.astype(np.uint64)) | cli._ASCII_ZEROS).astype("<u8")
        assert np.array_equal(words.view("S8"), np.array([b"%08d" % x for x in g.tolist()]))


def test_series_json_roundtrip(capsys):
    code, out, _ = run(capsys, "series", "--target", "zeta_i", "--terms", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"target": "zeta_i", "index_kind": "square", "terms": [1, 0, 0, 5, 6, 0]}


def test_series_rejects_bad_terms(capsys):
    code, _, err = run(capsys, "series", "--target", "f_j", "--terms", "0")
    assert code == 2
    assert "terms must be >= 1" in err


def test_constants_rejects_bad_terms(capsys):
    code, out, err = run(capsys, "constants", "--terms", "0")
    assert code == 2
    assert out == ""
    assert "terms must be >= 1" in err
    code, out, err = run(capsys, "constants", "--estimate", "--terms", "15")
    assert (code, out) == (2, "")
    assert "terms must be >= 16 for estimates" in err


@pytest.mark.parametrize("command", (["series", "--target", "f_j"], ["verify"],
                                     ["constants"], ["constants", "--estimate"]))
def test_terms_above_memory_guard_rejected(capsys, command):
    code, out, err = run(capsys, *command, "--terms", str(10**12))
    assert code == 2
    assert out == ""
    assert "terms must be <= 10000000" in err


def test_verify_single_target(capsys):
    code, out, _ = run(capsys, "verify", "--target", "zeta_j", "--terms", "200")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert any("sum-of-odd-divisors" in line for line in lines)


def test_verify_all_targets(capsys):
    code, out, _ = run(capsys, "verify", "--terms", "300")
    assert code == 0
    assert "FAIL" not in out


def test_verify_bad_terms(capsys):
    code, _, err = run(capsys, "verify", "--target", "f_i", "--terms", "0")
    assert code == 2
    assert "terms must be >= 1" in err


def test_oracle_lattice(capsys):
    code, out, _ = run(capsys, "oracle", "--lattice", "z4", "--max-m", "3")
    assert code == 0
    assert out == "m=1: oracle=1 formula=1 MATCH\nm=2: oracle=3 formula=3 MATCH\nm=3: oracle=8 formula=8 MATCH\n"
    code, out, _ = run(capsys, "oracle", "--lattice", "d4star", "--max-m", "2")
    assert code == 0
    assert out.endswith("m=2: oracle=1 formula=1 MATCH\n")


def test_oracle_icosian(capsys):
    code, out, _ = run(capsys, "oracle", "--module", "icosian", "--m", "4")
    assert code == 0
    assert "10 SSMs: 5 right, 5 left, 0 two-sided" in out
    assert "MATCH" in out


def test_oracle_cubian(capsys):
    code, out, err = run(capsys, "oracle", "--module", "cubian", "--m", "7")
    assert code == 0
    assert out == "m=7: 32 SSMs: 16 right, 16 left, 0 two-sided, 0 generic; formula=32 MATCH\n"
    assert err == ""


def test_oracle_mismatch_prints_breakdown_to_stderr(capsys, monkeypatch):
    import similitude.cli as cli_mod

    monkeypatch.setattr(cli_mod, "ssm_count", lambda target, m: 0)
    code, out, err = run(capsys, "oracle", "--module", "cubian", "--m", "7")
    assert code == 1
    assert out == "m=7: 32 SSMs: 16 right, 16 left, 0 two-sided, 0 generic; formula=0 MISMATCH\n"
    lines = err.splitlines()
    assert len(lines) == 2  # 7 splits over Z[sqrt2]: two lambda classes
    assert all(l.startswith("  cubian m=7 lambda=") and l.endswith("36864 frames, 16 SSMs")
               for l in lines)
    code, out, err = run(capsys, "oracle", "--lattice", "z4", "--max-m", "2")
    assert code == 1
    assert out.endswith("m=2: oracle=3 formula=0 MISMATCH\n")
    assert err.splitlines() == ["  z4 m=1 lambda=1: 8 vectors, 384 frames, 1 SSMs",
                                "  z4 m=2 lambda=2: 24 vectors, 1152 frames, 3 SSMs"]


def test_oracle_bound_violation(capsys):
    code, out, err = run(capsys, "oracle", "--lattice", "z4", "--max-m", "31")
    assert (code, out) == (2, "")
    assert "bound" in err
    code, out, err = run(capsys, "oracle", "--module", "icosian", "--m", "26")
    assert (code, out) == (2, "")
    assert "bound" in err
    for flags in (("--lattice", "z4", "--max-m", "0"), ("--module", "icosian", "--m", "0")):
        code, out, err = run(capsys, "oracle", *flags)
        assert (code, out) == (2, ""), flags
        assert "bound" in err, flags


def test_oracle_module_requires_m(capsys):
    code, _, err = run(capsys, "oracle", "--module", "icosian")
    assert code == 2
    assert "--m" in err


def test_oracle_rejects_a_flag_that_does_not_apply(capsys):
    code, out, err = run(capsys, "oracle", "--lattice", "z4", "--m", "4")
    assert (code, out) == (2, "")
    assert "--m does not apply to --lattice" in err
    code, out, err = run(capsys, "oracle", "--module", "icosian", "--m", "4", "--max-m", "9")
    assert (code, out) == (2, "")
    assert "--max-m does not apply to --module" in err


def test_constants_rows(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["residue_dedekind_tau"].endswith("0.430409")
    assert lines["slope_f_k"].endswith("0.374519")
    assert lines["C_J"].endswith("0.25")
    assert lines["C_Z4"].endswith("0.375")


def test_constants_estimate(capsys):
    code, out, _ = run(capsys, "constants", "--estimate", "--terms", "2000")
    assert code == 0
    row = next(l for l in out.splitlines() if l.startswith("C_J "))
    fields = row.split()
    assert fields[-1] == "2000"
    assert float(fields[-2]) > 0.25


def test_thread_flag_is_byte_invariant(capsys):
    outputs = set()
    for t in ("1", "4", "8"):
        code, out, _ = run(capsys, "oracle", "--lattice", "z4", "--max-m", "2", "--threads", t)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["series", "--target", "nonsense"])
    assert info.value.code == 2


def test_verify_failure_exits_one(capsys, monkeypatch):
    # verify runs counting.series, so the fault goes into counting's closed form
    from similitude import counting
    from similitude.dirichlet import ones

    real = counting.closed_sequence

    def broken(target, n):
        seq = real(target, n)
        if target.value == "f_j":
            return ones(n)  # wrong on purpose
        return seq

    monkeypatch.setattr(counting, "closed_sequence", broken)
    code, out, err = run(capsys, "verify", "--target", "f_j", "--terms", "50")
    assert code == 1
    assert "FAIL engine-vs-closed-form" in out
    assert err == "FAIL f_j, N = 50: closed form 1 != engine 8 at m = 3\n"


def test_verify_zeta_k_alone_sees_a_negated_kronecker_period(capsys, monkeypatch):
    # with (d/2) negated, the engine's whole zeta_sqrt2 column changes sign,
    # which zeta_K squares away; the engine refuses the period at (8/1) = -1
    from similitude import arith

    monkeypatch.setattr(arith, "_TWO", tuple(-v for v in arith._TWO))
    code, out, err = run(capsys, "verify", "--target", "zeta_k", "--terms", "1000")
    assert code == 1
    assert "FAIL engine-vs-closed-form" in out
    assert err.startswith("FAIL zeta_k, N = 1000: engine failed: (d/1) = -1 for d = 8")


def test_verify_multiplicativity_checks_the_engine(capsys, monkeypatch):
    from similitude import counting
    from similitude.dirichlet import coeff_seq

    real = counting.engine_sequence

    def broken(target, n):
        values = real(target, n).array.tolist()
        values[5] += 1  # a(6) != a(2) a(3): not multiplicative
        return coeff_seq(values)

    monkeypatch.setattr(counting, "engine_sequence", broken)
    code, out, _ = run(capsys, "verify", "--target", "riemann", "--terms", "50")
    assert code == 1
    assert "FAIL multiplicativity target=riemann terms=50" in out


def test_series_cross_check_failure_exits_one(capsys, monkeypatch):
    import similitude.cli as cli_mod
    from similitude.counting import CrossCheckFailure, Target

    def explode(target, n):
        raise CrossCheckFailure(Target.F_J, coeff_seq([1, 1, 8, 1, 12]),
                                coeff_seq([1, 1, 7, 1, 12]))

    monkeypatch.setattr(cli_mod, "series", explode)
    code, out, err = run(capsys, "series", "--target", "f_j", "--terms", "5")
    assert code == 1
    assert out == ""
    assert err == "FAIL f_j, N = 5: closed form 8 != engine 7 at m = 3\n"


def test_engine_error_fails_with_the_target_and_n(capsys, monkeypatch):
    # (5/1) = 0 is no character, so the engine's zeta_tau, and with it f_i,
    # stops in _character (as in test_counting's Kronecker mutation test)
    from similitude import counting

    kronecker = counting.kronecker
    monkeypatch.setattr(counting, "kronecker", lambda d, m: 0 if (d, m) == (5, 1) else kronecker(d, m))
    fail = "FAIL f_i, N = 10000: engine failed: (d/1) = 0 for d = 5, where a character has 1\n"
    assert run(capsys, "series", "--target", "f_i", "--terms", "10000") == (1, "", fail)
    assert run(capsys, "verify", "--target", "f_i", "--terms", "10000") == (
        1, "FAIL engine-vs-closed-form target=f_i terms=10000\n"
        "FAIL multiplicativity target=f_i terms=10000\n", fail)


def _child_env() -> dict[str, str]:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(similitude.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _peak_rss_mb(*args: str) -> float:
    """Peak RSS of a fresh `python args` process, read from its own rusage."""
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL, env=_child_env())
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, args
    return usage.ru_maxrss / 1024  # kB on Linux


# Measured at 55.4-55.6 MB over the import on a 2-core x86 VM (CPython 3.11,
# NumPy 2.4); a CoeffSeq of Python ints made it 93.8 MB.
SERIES_1E6_RSS_BOUND_MB = 70


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in kB, as Linux reports it")
def test_series_memory_at_a_million_terms():
    base = _peak_rss_mb("-c", "import similitude.cli")
    run = _peak_rss_mb("-m", "similitude.cli", "series", "--target", "f_j", "--terms", "1000000")
    assert run - base < SERIES_1E6_RSS_BOUND_MB, (run, base)


def _cli_process(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    """A fresh `python -m similitude.cli args` (or `python -c code args`) with this checkout's src."""
    head = ["-m", "similitude.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *head, *args], capture_output=True, text=True, env=_child_env())


@pytest.mark.parametrize("argv", (["series", "--target", "f_i", "--terms", "300", "--format", "csv"],
                                  ["verify", "--target", "zeta_j", "--terms", "200"],
                                  ["series", "--target", "f_j", "--terms", "0"]),
                         ids=["series", "verify", "usage_error"])
def test_console_entry_matches_main(capsys, argv):
    frozen = gc.get_freeze_count()
    code, out, _ = run(capsys, *argv)
    assert gc.get_freeze_count() == frozen  # main() leaves the collector alone
    proc = _cli_process(*argv)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_console_entry_freezes_the_collector_before_exit():
    hook = ("import atexit, gc, sys; from similitude import cli; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr)); "
            "sys.argv[0] = 'similitude'; cli.entry()")
    proc = _cli_process("series", "--target", "riemann", "--terms", "3", code=hook)
    assert (proc.returncode, proc.stdout) == (0, "1 1 1\n2 2 1\n3 3 1\n")
    assert proc.stderr == "frozen True\n"


def test_benchmark_commands_print_their_reference_digests(capsys):
    # the benchmark checks every command's stdout against a sha256 in
    # perfbench/reference.json (keyed by its argument list); any drift in the
    # output fails here, before a benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    assert len(reference) == 9
    drift = {}
    for argv, digest in reference.items():
        code, out, _ = run(capsys, *argv.split())
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, digest):
            drift[argv] = code
    assert drift == {}


# the sha256 of `constants --estimate --terms N`, recorded when every
# estimate was partial_sum(closed_sequence(target, N), N)
SCALE_DIGESTS = {10**6: "e386cbe7125048baa7554e453af571404e0b0c61408ba4fc18c78edd6e8fa508",
                 10**7: "83cbb359d1156a1bfaa694beb82c69fa0a4edffd8eddca4e3ade87e28e49c803"}


@pytest.mark.parametrize("terms", sorted(SCALE_DIGESTS))
def test_constants_estimate_keeps_its_digest_at_scale(capsys, terms):
    code, out, _ = run(capsys, "constants", "--estimate", "--terms", str(terms))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, SCALE_DIGESTS[terms])
