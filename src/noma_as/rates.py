"""Instantaneous rate, fairness, and power-allocation formulas.

Covers the fixed-power two-user downlink (superposition coding, the stronger
receiver cancels the weaker user's signal before decoding), the
QoS-constrained variant where UE2 is primary and the power split adapts to
the channel, and an equal-time orthogonal baseline.

Role assignment is per realization: UE1 is the strong user when its gain is
at least the UE2 gain (``h >= g``; ties deliberately resolve to UE1 so the
mapping is deterministic).  The coefficient ``b`` always rides on the strong
user's signal and ``a = 1 - b`` on the weak user's.  Every QoS-constrained
policy is evaluated with the same exact, clipped split; the high-SNR
simplifications live only in the closed forms of ``analytics``.

All functions are ufunc-based: they accept scalars or broadcast-compatible
arrays, and return Python floats for pure-scalar input.  Rates are bit/s/Hz
(base-2 logs everywhere).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class PowerSplit(NamedTuple):
    """Power-allocation pair with a + b = 1; b is the strong user's share."""

    a: float
    b: float

    @classmethod
    def from_b(cls, b: float) -> "PowerSplit":
        if not 0.0 <= b <= 1.0:
            raise ValueError(f"strong-user coefficient must lie in [0, 1], got {b}")
        return cls(1.0 - b, b)


class RatePair(NamedTuple):
    r1: float  # UE1, bit/s/Hz
    r2: float  # UE2, bit/s/Hz


def _out(v):
    return float(v) if np.ndim(v) == 0 else v


def qos_epsilon(r_th):
    """SINR threshold 2**r_th - 1 implied by a rate requirement."""
    return np.exp2(r_th) - 1.0


def _strong_rate(x, b, rho):
    # decoded after interference cancellation
    return np.log2(1.0 + rho * b * x)


def _weak_rate(x, a, b, rho):
    # decoded while treating the strong user's signal as noise
    return np.log2(1.0 + a * x / (b * x + 1.0 / rho))


def fnoma_pair_rates(h, g, split: PowerSplit, rho) -> RatePair:
    """Achievable rate pair under a fixed power split.

    The larger gain takes the interference-free form, the smaller one the
    interference-limited form; exactly one of each for any input.
    """
    a, b = split
    if not a >= b:
        raise ValueError(f"fixed-power mode needs a >= b, got a={a}, b={b}")
    if not rho > 0:
        raise ValueError("rho must be positive")
    d = np.greater_equal(h, g)
    r1 = np.where(d, _strong_rate(h, b, rho), _weak_rate(h, a, b, rho))
    r2 = np.where(d, _weak_rate(g, a, b, rho), _strong_rate(g, b, rho))
    return RatePair(_out(r1), _out(r2))


def fnoma_sum_rate(gamma_s, gamma_w, b, rho):
    """Sum rate as a function of the ordered gain pair (strong, weak).

    Identical to r1 + r2 of :func:`fnoma_pair_rates` for the same gains.
    """
    if not 0.0 < b <= 0.5:
        raise ValueError(f"strong-user coefficient must lie in (0, 0.5], got {b}")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if np.any(np.less(gamma_s, gamma_w)):
        raise ValueError("gamma_s < gamma_w: caller must order the pair")
    a = 1.0 - b
    return _out(_strong_rate(gamma_s, b, rho) + _weak_rate(gamma_w, a, b, rho))


def jain_fairness(r1, r2):
    """Fairness index (r1+r2)**2 / (2 (r1**2 + r2**2)), in [0.5, 1].

    The degenerate all-zero point is defined as 1 (continuity along the
    equal-rate diagonal).
    """
    if np.any(np.less(r1, 0)) or np.any(np.less(r2, 0)):
        raise ValueError("rates must be nonnegative")
    s = np.add(r1, r2)
    q = np.multiply(r1, r1) + np.multiply(r2, r2)
    small = q < np.finfo(float).tiny
    if np.any(small):  # subnormal squares lose bits: redo those scaled by 2**600
        with np.errstate(over="ignore"):  # overflows only where not small
            u1, u2 = np.multiply(r1, 2.0 ** 600), np.multiply(r2, 2.0 ** 600)
            s = np.where(small, u1 + u2, s)
            q = np.where(small, u1 * u1 + u2 * u2, q)
    safe = np.where(q > 0.0, q, 1.0)
    return _out(np.where(q > 0.0, s * s / (2.0 * safe), 1.0))


def cr_power_split(h, g, rho, r_th) -> PowerSplit:
    """Strong-user coefficient that serves UE1 subject to UE2's rate floor.

    UE2 is primary: its rate must reach r_th, so b is the extreme admissible
    value given the gain ordering, clipped into [0, 1] (an empty admissible
    range means UE1 gets no power and its rate is zero).
    """
    if not np.all(np.greater(rho, 0)) or not np.all(np.greater(r_th, 0)):
        raise ValueError("rho and r_th must be positive")
    with np.errstate(over="ignore"):
        eps = qos_epsilon(r_th)
    if not np.all(np.isfinite(eps)):
        raise ValueError(f"r_th = {r_th}: 2**r_th - 1 is not finite")
    d = np.greater_equal(h, g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = rho * g * (eps + 1.0)
        b_ue1_strong = (rho * g - eps) / den
        big = np.isinf(den)
        if np.any(big):  # the same value, without the overflowing product
            b_ue1_strong = np.where(big, (1.0 - eps / (rho * g)) / (eps + 1.0),
                                    b_ue1_strong)
        b_ue2_strong = eps / (rho * g)
    b = np.where(d, np.maximum(b_ue1_strong, 0.0), np.minimum(b_ue2_strong, 1.0))
    return PowerSplit(_out(1.0 - b), _out(b))


def cr_rates(h, g, rho, r_th) -> RatePair:
    """(secondary, primary) rates under the QoS-driven power split.

    r1 is UE1's (secondary) rate; with a split strictly inside (0, 1) the
    primary rate equals r_th, and a clipped split yields r1 = 0.
    """
    a, b = cr_power_split(h, g, rho, r_th)
    d = np.greater_equal(h, g)
    r1 = np.where(d, _strong_rate(h, b, rho), _weak_rate(h, a, b, rho))
    r2 = np.where(d, _weak_rate(g, a, b, rho), _strong_rate(g, b, rho))
    return RatePair(_out(r1), _out(r2))


def oma_pair_rates(h_best, g_best, rho) -> RatePair:
    """Equal-time orthogonal baseline: each user gets half the resource at
    full power on its own best link."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    r1 = 0.5 * np.log2(1.0 + rho * h_best)
    r2 = 0.5 * np.log2(1.0 + rho * g_best)
    return RatePair(_out(r1), _out(r2))
