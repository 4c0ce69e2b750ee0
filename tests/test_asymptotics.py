import math

import pytest

from similitude.asymptotics import (CONSTANTS, estimate_constant, l_value_at_one,
                                    target_constant, zeta_special_value_check)
from similitude.counting import Target, closed_sequence
from similitude.dirichlet import floor_grid, partial_sum, prime_sums
from similitude.quadfield import Ring


def test_target_constant_values():
    assert abs(target_constant("residue_dedekind_tau") - 0.430409) < 1e-6
    assert abs(target_constant("slope_a_i") - 0.249997) < 1e-6
    assert target_constant("C_Z4") == 0.375
    assert target_constant("C_J") == 0.25
    assert abs(target_constant("slope_f_i") - 0.124271) < 1e-6
    assert abs(target_constant("slope_f_k") - 0.374519) < 1e-6
    assert abs(target_constant("l1_chi8") - 0.623225) < 1e-6
    assert abs(target_constant("zeta_2") - math.pi**2 / 6) == 0
    with pytest.raises(ValueError, match="unknown constant"):
        target_constant("zeta_3")
    for name, (text, value, _) in CONSTANTS.items():
        assert text and target_constant(name) == value


def test_character_period_sums_to_zero():
    assert sum(Ring.GOLDEN.chi) == sum(Ring.SQRT2.chi) == sum(Ring.RATIONAL.chi) == 0


def test_l_values():
    assert abs(l_value_at_one("chi5") - target_constant("l1_chi5")) < 1e-10
    assert abs(l_value_at_one("chi8") - target_constant("l1_chi8")) < 1e-10
    with pytest.raises(ValueError, match="unknown character"):
        l_value_at_one("chi12")


def test_zeta_special_values_modest_truncation():
    # full 1e-6 tolerance at N = 1e6 is exercised by the acceptance suite
    for name in ("zeta_2", "zeta_4", "dedekind_tau_2", "dedekind_tau_4",
                 "dedekind_sqrt2_2", "dedekind_sqrt2_4"):
        check = zeta_special_value_check(name, n_terms=20_000)
        assert check.relative_error < 1e-5, check
    with pytest.raises(ValueError, match="unknown zeta value 'zeta_3'"):
        zeta_special_value_check("zeta_3")


def test_estimate_constant_trend():
    n = 20_000
    est = [estimate_constant("C_J", x) for x in (n, n // 2, n // 4)]
    # converges slowly from above
    assert target_constant("C_J") < est[0] < est[1] < est[2]


def test_every_growth_route_estimates_its_own_constant():
    # a row whose route names the wrong target misses its value by far more
    n = 20_000
    routed = [(name, row[1], row[2]) for name, row in CONSTANTS.items() if row[2]]
    assert len(routed) == 9
    for name, value, (_, _, logpower) in routed:
        ratio = estimate_constant(name, n) / value
        if logpower == 0:
            assert abs(ratio - 1) < 2e-3, (name, ratio)
        else:  # x^2 log x: the second-order term x^2 keeps it above, converging slowly
            assert 1 < ratio < 1.2, (name, ratio)
    for name in ("l1_chi5", "zeta_2", "dedekind_sqrt2_4"):
        assert estimate_constant(name, n) is None
    with pytest.raises(ValueError, match="unknown constant"):
        estimate_constant("zeta_3", n)


def test_estimate_constant_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        estimate_constant("C_J", 1)  # log(1) = 0


def test_estimate_constant_refuses_n_below_one():
    for n in (-5, -1, 0):
        for name in CONSTANTS:
            with pytest.raises(ValueError, match=f"n = {n}: an estimate needs n >= 1"):
                estimate_constant(name, n)


def test_mean_value_consistency_modest():
    n = 50_000
    tau = closed_sequence(Target.DEDEKIND_TAU, n)
    mean = partial_sum(tau, n) / n
    assert abs(mean / target_constant("residue_dedekind_tau") - 1) < 0.01
    aj = closed_sequence(Target.ZETA_J, n)
    slope = partial_sum(aj, n) / n**2
    assert abs(slope / target_constant("slope_a_j") - 1) < 0.02


def test_estimate_at_ten_million_terms_builds_no_n_array(traced_peak):
    # the sum is read off the grid {n // i}, O(sqrt n) entries: about
    # 1.8 MiB at N = 10^7, where the sieve, partial_sum(closed_sequence(f_k,
    # N), N), peaks at about 97 MiB
    estimate_constant("slope_f_k", 1000)  # first calls outside the trace
    prime_sums.cache_clear()
    floor_grid.cache_clear()
    peak = traced_peak(estimate_constant, "slope_f_k", 10**7)[1]
    assert peak < 2 * 2**20
