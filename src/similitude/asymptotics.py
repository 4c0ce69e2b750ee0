"""Numeric checks of growth constants, L(1, chi) values, and zeta special
values.  This is the only module that touches floating point; every other
computation in the package is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arith import chi5, chi8
from .counting import Target, closed_sequence
from .dirichlet import CoeffSeq, partial_sum

_TAU = (1 + math.sqrt(5)) / 2
_LOG_TAU = math.log(_TAU)
_LOG_SILVER = math.log(1 + math.sqrt(2))

# name -> (closed-form text, value)
_CONSTANTS: dict[str, tuple[str, float]] = {
    "residue_dedekind_tau": ("2*log(tau)/sqrt(5)", 2 * _LOG_TAU / math.sqrt(5)),
    "residue_dedekind_sqrt2": ("log(1+sqrt(2))/sqrt(2)", _LOG_SILVER / math.sqrt(2)),
    "l1_chi5": ("2*log(tau)/sqrt(5)", 2 * _LOG_TAU / math.sqrt(5)),
    "l1_chi8": ("log(1+sqrt(2))/sqrt(2)", _LOG_SILVER / math.sqrt(2)),
    "slope_a_j": ("pi^2/24", math.pi**2 / 24),
    "slope_a_i": ("2*pi^4*log(tau)/375", 2 * math.pi**4 * _LOG_TAU / 375),
    "slope_a_k": ("pi^4*log(1+sqrt(2))/192", math.pi**4 * _LOG_SILVER / 192),
    "C_J": ("1/4", 0.25),
    "C_Z4": ("3/8", 0.375),
    "slope_f_i": ("6*log(tau)^2/(5*sqrt(5))", 6 * _LOG_TAU**2 / (5 * math.sqrt(5))),
    "slope_f_k": ("15*log(1+sqrt(2))^2/(22*sqrt(2))", 15 * _LOG_SILVER**2 / (22 * math.sqrt(2))),
    "zeta_2": ("pi^2/6", math.pi**2 / 6),
    "zeta_4": ("pi^4/90", math.pi**4 / 90),
    "dedekind_tau_2": ("2*pi^4/(75*sqrt(5))", 2 * math.pi**4 / (75 * math.sqrt(5))),
    "dedekind_tau_4": ("4*pi^8/(16875*sqrt(5))", 4 * math.pi**8 / (16875 * math.sqrt(5))),
    "dedekind_sqrt2_2": ("pi^4/(48*sqrt(2))", math.pi**4 / (48 * math.sqrt(2))),
    "dedekind_sqrt2_4": ("11*pi^8/(69120*sqrt(2))", 11 * math.pi**8 / (69120 * math.sqrt(2))),
}


def constant_names() -> tuple[str, ...]:
    return tuple(_CONSTANTS)


def closed_form(name: str) -> str:
    try:
        return _CONSTANTS[name][0]
    except KeyError:
        raise ValueError(f"unknown constant {name!r}") from None


def target_constant(name: str) -> float:
    try:
        return _CONSTANTS[name][1]
    except KeyError:
        raise ValueError(f"unknown constant {name!r}") from None


@dataclass(frozen=True)
class GrowthModel:
    """A(x) ~ constant * x^alpha * log(x)^logpower."""

    alpha: float
    logpower: int


class Estimate(NamedTuple):
    value: float
    at_half: float
    at_quarter: float


def estimate_constant(seq: CoeffSeq, model: GrowthModel, n: int | None = None) -> Estimate:
    """partial_sum(seq, N) / (N^alpha log(N)^logpower), also at N/2 and N/4."""
    n = seq.n_terms if n is None else n

    def ratio(x: int) -> float:
        denom = x**model.alpha * math.log(x) ** model.logpower
        if denom == 0:
            raise ValueError("degenerate growth model: zero denominator")
        return partial_sum(seq, x) / denom

    return Estimate(ratio(n), ratio(n // 2), ratio(n // 4))


def l_value_at_one(character: str, periods: int = 400_000) -> float:
    """sum chi(m)/m over m < mod * periods: whole periods, one exactly
    rounded math.fsum, fed in blocks of 2^15 periods so memory stays a few MB.

    Each period contributes O(k^-3), so the truncation error is O(periods^-2);
    the default is far below 1e-10 absolute error.
    """
    try:
        chi, mod = {"chi5": (chi5, 5), "chi8": (chi8, 8)}[character]
    except KeyError:
        raise ValueError(f"unknown character {character!r}") from None
    top, step = mod * periods, mod << 15

    def terms(lo: int) -> list[float]:
        m = np.arange(lo, min(lo + step, top))
        m = m[chi(m) != 0]
        return (chi(m) / m).tolist()

    return math.fsum(itertools.chain.from_iterable(map(terms, range(1, top, step))))


class ZetaCheck(NamedTuple):
    name: str
    computed: float
    target: float
    relative_error: float


_ZETA_SERIES = {
    "zeta_2": (Target.RIEMANN, 2, 1.0),
    "zeta_4": (Target.RIEMANN, 4, 1.0),
    "dedekind_tau_2": (Target.DEDEKIND_TAU, 2, None),
    "dedekind_tau_4": (Target.DEDEKIND_TAU, 4, None),
    "dedekind_sqrt2_2": (Target.DEDEKIND_SQRT2, 2, None),
    "dedekind_sqrt2_4": (Target.DEDEKIND_SQRT2, 4, None),
}


def zeta_special_value_check(name: str, n_terms: int = 1_000_000,
                             coeffs: CoeffSeq | None = None) -> ZetaCheck:
    """Compare sum a(m)/m^s (plus a mean-density tail estimate) to the closed form.

    The tail sum_{m>N} a(m)/m^s is approximated by rho * N^(1-s)/(s-1) where
    rho is the coefficient mean; the residual error is O(N^(-3/2)) for s = 2.
    """
    try:
        target_id, s, rho = _ZETA_SERIES[name]
    except KeyError:
        raise ValueError(f"unknown zeta value {name!r}") from None
    if rho is None:
        rho = target_constant(
            "residue_dedekind_tau" if target_id is Target.DEDEKIND_TAU else "residue_dedekind_sqrt2"
        )
    seq = closed_sequence(target_id, n_terms) if coeffs is None else coeffs
    n = seq.n_terms
    nonzero = np.flatnonzero(seq.array)
    head = math.fsum(a / m**s for m, a in zip((nonzero + 1).tolist(), seq.array[nonzero].tolist()))
    tail = rho * n ** (1 - s) / (s - 1)
    computed = head + tail
    target = target_constant(name)
    return ZetaCheck(name, computed, target, abs(computed - target) / target)
