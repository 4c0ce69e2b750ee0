"""Numeric checks of growth constants, L(1, chi) values, and zeta special
values.  This is the only module whose results are floating point; every
other computation in the package is exact (the float64 dot kernels of
`oracle` hold only integers below 2^53, under the bound proved there).
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .counting import Target, closed_sequence, summatory
from .dirichlet import CoeffSeq
from .quadfield import Ring, splitting_sign

_TAU = (1 + math.sqrt(5)) / 2
_LOG_TAU = math.log(_TAU)
_LOG_SILVER = math.log(1 + math.sqrt(2))

# name -> (closed-form text, value, growth route): the route (target, alpha,
# logpower) says that the target's partial sums grow like
# value * x^alpha * log(x)^logpower; the L-values and zeta values have none
CONSTANTS: dict[str, tuple[str, float, tuple[Target, int, int] | None]] = {
    "residue_dedekind_tau": ("2*log(tau)/sqrt(5)", 2 * _LOG_TAU / math.sqrt(5),
                             (Target.DEDEKIND_TAU, 1, 0)),
    "residue_dedekind_sqrt2": ("log(1+sqrt(2))/sqrt(2)", _LOG_SILVER / math.sqrt(2),
                               (Target.DEDEKIND_SQRT2, 1, 0)),
    "l1_chi5": ("2*log(tau)/sqrt(5)", 2 * _LOG_TAU / math.sqrt(5), None),
    "l1_chi8": ("log(1+sqrt(2))/sqrt(2)", _LOG_SILVER / math.sqrt(2), None),
    "slope_a_j": ("pi^2/24", math.pi**2 / 24, (Target.ZETA_J, 2, 0)),
    "slope_a_i": ("2*pi^4*log(tau)/375", 2 * math.pi**4 * _LOG_TAU / 375, (Target.ZETA_I, 2, 0)),
    "slope_a_k": ("pi^4*log(1+sqrt(2))/192", math.pi**4 * _LOG_SILVER / 192, (Target.ZETA_K, 2, 0)),
    "C_J": ("1/4", 0.25, (Target.F_J, 2, 1)),
    "C_Z4": ("3/8", 0.375, (Target.F_Z4, 2, 1)),
    "slope_f_i": ("6*log(tau)^2/(5*sqrt(5))", 6 * _LOG_TAU**2 / (5 * math.sqrt(5)),
                  (Target.F_I, 2, 1)),
    "slope_f_k": ("15*log(1+sqrt(2))^2/(22*sqrt(2))", 15 * _LOG_SILVER**2 / (22 * math.sqrt(2)),
                  (Target.F_K, 2, 1)),
    "zeta_2": ("pi^2/6", math.pi**2 / 6, None),
    "zeta_4": ("pi^4/90", math.pi**4 / 90, None),
    "dedekind_tau_2": ("2*pi^4/(75*sqrt(5))", 2 * math.pi**4 / (75 * math.sqrt(5)), None),
    "dedekind_tau_4": ("4*pi^8/(16875*sqrt(5))", 4 * math.pi**8 / (16875 * math.sqrt(5)), None),
    "dedekind_sqrt2_2": ("pi^4/(48*sqrt(2))", math.pi**4 / (48 * math.sqrt(2)), None),
    "dedekind_sqrt2_4": ("11*pi^8/(69120*sqrt(2))", 11 * math.pi**8 / (69120 * math.sqrt(2)), None),
}


def target_constant(name: str) -> float:
    try:
        return CONSTANTS[name][1]
    except KeyError:
        raise ValueError(f"unknown constant {name!r}") from None


def estimate_constant(name: str, n: int) -> float | None:
    """A(n) / (n^alpha log(n)^logpower) for the constant's growth route
    (target, alpha, logpower), with A(n) the target's exact partial sum
    counting.summatory(target, n), which builds no n-term sequence; None for
    a constant with no route."""
    target_constant(name)  # ValueError for an unknown name
    if n < 1:
        raise ValueError(f"n = {n}: an estimate needs n >= 1")
    if (route := CONSTANTS[name][2]) is None:
        return None
    target, alpha, logpower = route
    denom = n**alpha * math.log(n) ** logpower
    if denom == 0:
        raise ValueError("degenerate growth model: zero denominator")
    return summatory(target, n) / denom


# l_value_at_one sums whole periods of chi below mod * _L_PERIODS
_L_PERIODS = 400_000


def l_value_at_one(character: str) -> float:
    """sum chi(m)/m over m < mod * _L_PERIODS, chi the splitting_sign of Z[tau]
    (chi5) or Z[sqrt2] (chi8) and mod its period's length: whole periods, one
    exactly rounded math.fsum, fed in blocks of 2^15 periods so memory stays a few MB.

    Each period contributes O(k^-3), so the truncation error is O(periods^-2),
    far below 1e-10 absolute error.
    """
    try:
        ring = {"chi5": Ring.GOLDEN, "chi8": Ring.SQRT2}[character]
    except KeyError:
        raise ValueError(f"unknown character {character!r}") from None
    mod = len(ring.chi)
    top, step = mod * _L_PERIODS, mod << 15

    def terms(lo: int) -> list[float]:
        m = np.arange(lo, min(lo + step, top))
        chi = splitting_sign(m, ring)
        return (chi[chi != 0] / m[chi != 0]).tolist()

    return math.fsum(itertools.chain.from_iterable(map(terms, range(1, top, step))))


class ZetaCheck(NamedTuple):
    name: str
    computed: float
    target: float
    relative_error: float


# name -> (series, s, the constant giving the coefficient mean; None for mean 1)
_ZETA_SERIES = {
    "zeta_2": (Target.RIEMANN, 2, None),
    "zeta_4": (Target.RIEMANN, 4, None),
    "dedekind_tau_2": (Target.DEDEKIND_TAU, 2, "residue_dedekind_tau"),
    "dedekind_tau_4": (Target.DEDEKIND_TAU, 4, "residue_dedekind_tau"),
    "dedekind_sqrt2_2": (Target.DEDEKIND_SQRT2, 2, "residue_dedekind_sqrt2"),
    "dedekind_sqrt2_4": (Target.DEDEKIND_SQRT2, 4, "residue_dedekind_sqrt2"),
}


def zeta_special_value_check(name: str, n_terms: int = 1_000_000,
                             coeffs: CoeffSeq | None = None) -> ZetaCheck:
    """Compare sum a(m)/m^s (plus a mean-density tail estimate) to the closed form.

    The tail sum_{m>N} a(m)/m^s is approximated by rho * N^(1-s)/(s-1) where
    rho is the coefficient mean; the residual error is O(N^(-3/2)) for s = 2.
    """
    try:
        target_id, s, residue = _ZETA_SERIES[name]
    except KeyError:
        raise ValueError(f"unknown zeta value {name!r}") from None
    rho = 1.0 if residue is None else target_constant(residue)
    seq = closed_sequence(target_id, n_terms) if coeffs is None else coeffs
    n = len(seq)
    nonzero = np.flatnonzero(seq.array)
    head = math.fsum((seq.array[nonzero].astype(float) / (nonzero + 1.0) ** s).tolist())
    tail = rho * n ** (1 - s) / (s - 1)
    computed = head + tail
    target = target_constant(name)
    return ZetaCheck(name, computed, target, abs(computed - target) / target)
