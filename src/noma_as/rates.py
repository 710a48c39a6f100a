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
(base-2 logs everywhere).  A fixed-power pair takes two logs: the pair
formulas compute one strong SINR on max(h, g) and one weak SINR on
min(h, g), take log2(1 + SINR) of each, and then select r1 and r2 from the
two by h >= g.

The CR-NOMA rates need no split coefficient.  The split pins UE2's SINR at
eps = 2**r_th - 1 wherever it can and otherwise gives UE2 all the power, in
either gain order, so r2 = min(log2(1 + rho*g), r_th).  UE1's rate takes
the coefficient-free forms of `_cr_secondary_rate`, one log and no branch;
the split itself (`cr_power_split`) keeps the clipped coefficient.  These
forms equal the clipped-split formulas in exact arithmetic and round
differently, by a few ulps.
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


def _strong_sinr(x, b, rho):
    # decoded after interference cancellation
    return rho * b * x


def _weak_sinr(x, a, b, rho):
    # decoded while treating the strong user's signal as noise
    return a * x / (b * x + 1.0 / rho)


def _pair(h, g, d, a, b, rho):
    """(r1, r2): one strong rate on max(h, g) and one weak rate on
    min(h, g), each UE's rate then selected by d = h >= g."""
    strong = np.log2(1.0 + _strong_sinr(np.maximum(h, g), b, rho))
    weak = np.log2(1.0 + _weak_sinr(np.minimum(h, g), a, b, rho))
    return RatePair(_out(np.where(d, strong, weak)), _out(np.where(d, weak, strong)))


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
    return _pair(h, g, np.greater_equal(h, g), a, b, rho)


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
    return _out(_fnoma_sum_rate(gamma_s, gamma_w, b, rho))


def _fnoma_sum_rate(x, y, b, rho):
    """`fnoma_sum_rate` of the gains x and y in either order, without its
    checks: the strong form on max(x, y), the weak form on min(x, y).

    Evaluated in place in three buffers of the broadcast shape, with the
    operations of `_strong_sinr` and `_weak_sinr` in their order, so the
    exhaustive search's (M, K, T) grid takes no further full-size temporary.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(b), np.shape(rho))
    strong = np.maximum(x, y, out=np.empty(shape))
    strong *= rho * b
    strong += 1.0
    np.log2(strong, out=strong)
    weak_x = np.minimum(x, y, out=np.empty(shape))
    weak = np.multiply(1.0 - b, weak_x, out=np.empty(shape))
    weak_x *= b
    weak_x += 1.0 / rho
    weak /= weak_x
    weak += 1.0
    strong += np.log2(weak, out=weak)
    return strong


def jain_fairness(r1, r2):
    """Fairness index (r1+r2)**2 / (2 (r1**2 + r2**2)), in [0.5, 1].

    The degenerate all-zero point is defined as 1 (continuity along the
    equal-rate diagonal).
    """
    if np.any(np.less(r1, 0)) or np.any(np.less(r2, 0)):
        raise ValueError("rates must be nonnegative")
    return _out(_jain(r1, r2, np.add(r1, r2)))


def _jain(r1, r2, s):
    """`jain_fairness` of nonnegative rates whose sum s = r1 + r2 is known."""
    q = np.multiply(r1, r1) + np.multiply(r2, r2)
    small = q < np.finfo(float).tiny
    if np.any(small):  # subnormal squares lose bits: redo those scaled by 2**600
        with np.errstate(over="ignore"):  # overflows only where not small
            u1, u2 = np.multiply(r1, 2.0 ** 600), np.multiply(r2, 2.0 ** 600)
            s = np.where(small, u1 + u2, s)
            q = np.where(small, u1 * u1 + u2 * u2, q)
    return np.divide(s * s, 2.0 * q, out=np.ones(np.shape(q)), where=q > 0.0)


def _checked_epsilon(rho, r_th):
    """The SINR threshold 2**r_th - 1 of the QoS-driven split, once rho and
    r_th are positive and the threshold finite."""
    if not (np.greater(rho, 0).all() and np.greater(r_th, 0).all()):
        raise ValueError("rho and r_th must be positive")
    with np.errstate(over="ignore"):
        eps = qos_epsilon(r_th)
    if not np.isfinite(eps).all():
        raise ValueError(f"r_th = {r_th}: 2**r_th - 1 is not finite")
    return eps


def _qos_coefficients(g, rho, r_th):
    """The clipped strong-user coefficient b of the QoS-driven split where
    UE1 is the strong user and where UE2 is, each at the shape of g, on
    which alone it depends (see `cr_power_split`)."""
    eps = _checked_epsilon(rho, r_th)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho_g = rho * g
        den = rho_g * (eps + 1.0)
        b_ue1_strong = (rho_g - eps) / den
        big = np.isinf(den)
        if np.any(big):  # the same value, without the overflowing product
            b_ue1_strong = np.where(big, (1.0 - eps / rho_g) / (eps + 1.0), b_ue1_strong)
        b_ue2_strong = eps / rho_g
    return np.maximum(b_ue1_strong, 0.0), np.minimum(b_ue2_strong, 1.0)


def _qos_split(h, g, rho, r_th):
    """(d, a, b) of the QoS-driven split: d marks where UE1 is the strong
    user, b is the strong user's clipped coefficient and a = 1 - b."""
    b_ue1_strong, b_ue2_strong = _qos_coefficients(g, rho, r_th)
    d = np.greater_equal(h, g)
    b = np.where(d, b_ue1_strong, b_ue2_strong)
    return d, 1.0 - b, b


def cr_power_split(h, g, rho, r_th) -> PowerSplit:
    """Strong-user coefficient that serves UE1 subject to UE2's rate floor.

    UE2 is primary: its rate must reach r_th, so b is the extreme admissible
    value given the gain ordering, clipped into [0, 1] (an empty admissible
    range means UE1 gets no power and its rate is zero).
    """
    _, a, b = _qos_split(h, g, rho, r_th)
    return PowerSplit(_out(a), _out(b))


def cr_rates(h, g, rho, r_th) -> RatePair:
    """(secondary, primary) rates under the QoS-driven power split.

    r1 is UE1's (secondary) rate; with a split strictly inside (0, 1) the
    primary rate equals r_th, and a clipped split yields r1 = 0.  Both are
    computed without the split (see the module docstring): r2 is
    min(log2(1 + rho*g), r_th) and r1 is `_cr_secondary_rate`.
    """
    r1 = _cr_secondary_rate(h, g, rho, r_th)
    with np.errstate(over="ignore"):  # rho * g = inf reads as the floor
        r2 = np.minimum(np.log2(1.0 + rho * g), r_th, out=np.empty(np.shape(r1)))
    return RatePair(_out(r1), _out(r2))


def _cr_secondary_rate(h, g, rho, r_th):
    """The r1 of `cr_rates`, which the CR-NOMA search also maximizes:
    log2(max(S, W)) with S = 1 + h*(max(rho - eps/g, 0)/(eps + 1)) and
    W = (1 + rho*h)/(1 + h*(eps/g)).

    S is 1 + SINR of UE1 as the strong user (h >= g) and W as the weak one,
    both under the clipped split.  With a = rho*h and c = h*eps/g: where
    a > c, S*(1 + c) - (1 + a) = (a - c)*(c - eps)/(eps + 1), and c >= eps
    exactly where h >= g; where a <= c the split is clipped, S = 1 >= W and
    r1 = 0.  So the larger of the two is the one the gain order selects, and
    no mask is needed.  eps/g and the strong-user share stay at g's shape,
    so the search's (M, K, T) grid takes two full-size buffers.  eps/g = inf
    (g -> 0 or a huge eps) makes W 0 or NaN where S = 1, which fmax reads
    as 1.
    """
    eps = _checked_epsilon(rho, r_th)
    g_shape = np.broadcast_shapes(np.shape(g), np.shape(rho), np.shape(eps))
    shape = np.broadcast_shapes(np.shape(h), g_shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.divide(eps, g, out=np.empty(g_shape))
        strong = np.multiply(rho, h, out=np.empty(shape))
        strong += 1.0
        weak = np.multiply(h, q, out=np.empty(shape))
        weak += 1.0
        np.divide(strong, weak, out=weak)
        np.subtract(rho, q, out=q)
        np.maximum(q, 0.0, out=q)
        q /= eps + 1.0
        np.multiply(h, q, out=strong)
    strong += 1.0
    np.fmax(strong, weak, out=strong)
    return np.log2(strong, out=strong)


def oma_pair_rates(h_best, g_best, rho) -> RatePair:
    """Equal-time orthogonal baseline: each user gets half the resource at
    full power on its own best link."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    r1 = 0.5 * np.log2(1.0 + rho * h_best)
    r2 = 0.5 * np.log2(1.0 + rho * g_best)
    return RatePair(_out(r1), _out(r2))
