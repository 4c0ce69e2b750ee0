"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import similitude
from similitude.arith import odd_divisor_sums
from similitude.asymptotics import (l_value_at_one, target_constant,
                                    zeta_special_value_check)
from similitude.cli import main
from similitude.counting import (Target, closed_sequence, engine_sequence,
                                 series, ssm_count)
from similitude.dirichlet import is_multiplicative, partial_sum
from similitude.oracle import D4STAR, Z4, count_ssl_bruteforce, enumerate_ssm_icosian

# the first listed coefficients of each series, keyed by m (index m^2 for all six)
ZETA_J_FIRST = (1, 1, 4, 1, 6, 4, 8, 1, 13, 6, 12, 4)
ZETA_I_FIRST = {4: 5, 5: 6, 9: 10, 11: 24, 16: 21, 19: 40, 20: 30, 25: 31, 29: 60, 31: 64}
ZETA_K_FIRST = {2: 3, 4: 7, 7: 16, 8: 15, 9: 10, 14: 48, 16: 31, 17: 36, 18: 30, 23: 48, 25: 26}
F_J_FIRST = (1, 1, 8, 1, 12, 8, 16, 1, 41, 12, 24, 8)
F_I_FIRST = {4: 10, 5: 12, 9: 20, 11: 48, 16: 66, 19: 80, 20: 120, 25: 97, 29: 120, 31: 128}
F_K_FIRST = {2: 6, 4: 22, 7: 32, 8: 66, 9: 20, 14: 192, 16: 178, 17: 72, 18: 120, 23: 96, 25: 52}


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name} {detail}"


def test_criterion_1_series_reproduction():
    t0 = time.perf_counter()
    assert series(Target.ZETA_J, 12).array.tolist() == list(ZETA_J_FIRST)
    zi = series(Target.ZETA_I, 31)
    assert all(zi[m] == v for m, v in ZETA_I_FIRST.items())
    assert all(zi[m] == 0 for m in range(2, 32) if m not in ZETA_I_FIRST)
    zk = series(Target.ZETA_K, 25)
    assert all(zk[m] == v for m, v in ZETA_K_FIRST.items())
    assert series(Target.F_J, 12).array.tolist() == list(F_J_FIRST)
    fi = series(Target.F_I, 31)
    assert all(fi[m] == v for m, v in F_I_FIRST.items())
    fk = series(Target.F_K, 25)
    assert all(fk[m] == v for m, v in F_K_FIRST.items())
    elapsed = time.perf_counter() - t0
    report("criterion 1: listed series coefficients, exact", elapsed < 1.0,
           f"{elapsed:.3f}s < 1s")


def test_criterion_2_engine_vs_closed_forms():
    t0 = time.perf_counter()
    n = 10_000
    for target in Target:
        closed = closed_sequence(target, n)
        engine = engine_sequence(target, n)
        assert closed.array.tolist() == engine.array.tolist(), target
    elapsed = time.perf_counter() - t0
    report("criterion 2: identity cross-check, ten targets at N=10^4",
           elapsed < 30.0, f"{elapsed:.1f}s < 30s")


def test_criterion_3_oracle_equality():
    t0 = time.perf_counter()
    for m in range(1, 7):
        assert count_ssl_bruteforce(Z4, m) == ssm_count(Target.F_Z4, m), ("z4", m)
        assert count_ssl_bruteforce(D4STAR, m) == ssm_count(Target.F_J, m), ("d4star", m)
    ssms = enumerate_ssm_icosian(4)
    kinds = Counter(s.kind for s in ssms)
    assert len(ssms) == 10
    assert kinds["left-ideal"] == 5 and kinds["right-ideal"] == 5
    assert kinds["two-sided"] == 0 and kinds["product"] == 0
    elapsed = time.perf_counter() - t0
    report("criterion 3: brute-force oracle m=1..6 and icosian m=4",
           elapsed < 300.0, f"{elapsed:.1f}s < 300s")


def test_criterion_4_arithmetic_identities():
    n = 10_000
    aj = closed_sequence(Target.ZETA_J, n)
    odd_sums = odd_divisor_sums(n)
    assert all(aj[m] == odd_sums[m] for m in range(1, n + 1))
    for target in Target:
        assert is_multiplicative(closed_sequence(target, n)), target
    assert all(ssm_count(Target.F_J, 2**r) == 1 for r in range(21))
    report("criterion 4: odd-divisor sums, multiplicativity, dyadic uniqueness", True)


def test_criterion_5_appendix_numerics():
    t0 = time.perf_counter()
    assert abs(l_value_at_one("chi5") - 0.430409) < 1e-5
    assert abs(l_value_at_one("chi8") - 0.623225) < 1e-5
    n = 1_000_000
    tau = closed_sequence(Target.DEDEKIND_TAU, n)
    sqrt2 = closed_sequence(Target.DEDEKIND_SQRT2, n)
    for name, coeffs in (("zeta_2", None), ("zeta_4", None),
                         ("dedekind_tau_2", tau), ("dedekind_tau_4", tau),
                         ("dedekind_sqrt2_2", sqrt2), ("dedekind_sqrt2_4", sqrt2)):
        check = zeta_special_value_check(name, n_terms=n, coeffs=coeffs)
        assert check.relative_error < 1e-6, check
    mean_tau = partial_sum(tau, n) / n
    assert abs(mean_tau / 0.430409 - 1) < 0.01
    aj = closed_sequence(Target.ZETA_J, n)
    slope_aj = partial_sum(aj, n) / n**2
    assert abs(slope_aj / (math.pi**2 / 24) - 1) < 0.02
    ai = closed_sequence(Target.ZETA_I, n)
    slope_ai = partial_sum(ai, n) / n**2
    assert abs(slope_ai / 0.249997 - 1) < 0.02
    ak = closed_sequence(Target.ZETA_K, n)
    slope_ak = partial_sum(ak, n) / n**2  # no published value; informational
    print(f"  informational: cubian ideal-count slope {slope_ak:.6f} "
          f"vs derived {target_constant('slope_a_k'):.6f}")
    elapsed = time.perf_counter() - t0
    report("criterion 5: L-values, zeta special values, Cesaro means at N=10^6",
           elapsed < 60.0, f"{elapsed:.1f}s < 60s")


def test_criterion_6_asymptotic_trend():
    points = (10_000, 30_000, 100_000)
    cases = (
        (Target.F_J, target_constant("C_J")),
        (Target.F_Z4, target_constant("C_Z4")),
        (Target.F_I, target_constant("slope_f_i")),
        (Target.F_K, target_constant("slope_f_k")),
    )
    for target, limit in cases:
        seq = closed_sequence(target, points[-1])
        ests = [partial_sum(seq, x) / (x**2 * math.log(x)) for x in points]
        assert all(e > limit for e in ests), (target, ests, limit)
        assert ests[0] > ests[1] > ests[2], (target, ests)
    report("criterion 6: growth-constant estimates above target and decreasing", True)


def test_criterion_7_thread_determinism(capsys):
    def capture(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    for argv in (
        ["oracle", "--lattice", "z4", "--max-m", "3"],
        ["oracle", "--lattice", "d4star", "--max-m", "2"],
        ["oracle", "--module", "icosian", "--m", "4"],
        ["series", "--target", "f_i", "--terms", "200", "--format", "csv"],
    ):
        outputs = {capture(argv + ["--threads", t]) for t in ("1", "4", "8")}
        assert len(outputs) == 1, argv
    # OpenBLAS sizes its pool once, when NumPy loads, so each size needs a
    # fresh process: none set (the package then loads it with one thread),
    # and four threads by either variable
    src = str(Path(similitude.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (
        ["oracle", "--lattice", "z4", "--max-m", "2"],
        ["series", "--target", "f_i", "--terms", "200", "--format", "csv"],
    ):
        outputs = {
            subprocess.run([sys.executable, "-m", "similitude.cli", *argv], env=dict(env, **pool),
                           capture_output=True, check=True, timeout=60).stdout
            for pool in ({}, {"OPENBLAS_NUM_THREADS": "4"}, {"OMP_NUM_THREADS": "4"})
        }
        assert outputs == {capture(argv).encode()}, argv
    report("criterion 7: byte-identical output across thread counts and BLAS pool sizes", True)
