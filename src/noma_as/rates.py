"""Instantaneous rate, fairness, and power-allocation formulas.

Covers the fixed-power two-user downlink (superposition coding, the stronger
receiver cancels the weaker user's signal before decoding), the
QoS-constrained variant where UE2 is primary and the power split adapts to
the channel, and an equal-time orthogonal baseline.

Role assignment is per realization: UE1 is the strong user when its gain is
at least the UE2 gain (``h >= g``; ties deliberately resolve to UE1 so the
mapping is deterministic).  The power split is the one number ``b``, the
strong user's share; the weak user's share ``1 - b`` is taken in one place,
the kernel `_fnoma_rates`, which evaluates the fixed-power formulas: the
strong form on the larger gain and the weak form on the smaller.
`fnoma_pair_rates` assigns the two by gain order and the exhaustive search's
`_fnoma_sum_rate` adds them.  The high-SNR simplifications live only in the
closed forms of ``analytics``.

All functions are ufunc-based: they accept scalars or broadcast-compatible
arrays, and return Python floats for pure-scalar input.  Rates are bit/s/Hz
(base-2 logs everywhere).

The CR-NOMA rate path is coefficient-free.  The QoS-driven split pins UE2's
SINR at eps = 2**r_th - 1 wherever it can and otherwise gives UE2 all the
power, in either gain order, so r2 = min(log2(1 + rho*g), r_th).  UE1's rate
takes the forms of `_cr_secondary_rate`, one log and no branch, from an eps
its caller has checked.  These equal the formulas under the clipped split
coefficient in exact arithmetic and round differently, by a few ulps.  The
coefficient itself is computed only by the test oracles
(``ref_cr_power_split`` and ``cr_rates_mp`` in ``tests/oracles.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class RatePair(NamedTuple):
    r1: float  # UE1, bit/s/Hz
    r2: float  # UE2, bit/s/Hz


def _out(v):
    return float(v) if np.ndim(v) == 0 else v


def qos_epsilon(r_th):
    """SINR threshold 2**r_th - 1 implied by a rate requirement."""
    return np.exp2(r_th) - 1.0


def _fnoma_rates(x, y, b, rho):
    """The strong-form rate log2(1 + rho*b*max(x, y)), decoded after
    interference cancellation, and the weak-form rate log2(1 + (1 - b)*min(x,
    y) / (b*min(x, y) + 1/rho)), decoded while treating the strong user's
    signal as noise; unchecked.

    Evaluated in place in three buffers of the broadcast shape, so the
    exhaustive search's (M, K, T) grid takes no further full-size temporary.
    """
    shape = np.broadcast_shapes(*map(np.shape, (x, y, b, rho)))
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
    return strong, np.log2(weak, out=weak)


def fnoma_pair_rates(h, g, b, rho) -> RatePair:
    """Achievable rate pair when the strong user takes the share b of the
    power and the weak user 1 - b, with 0 <= b <= 0.5.

    The larger gain takes the interference-free form, the smaller one the
    interference-limited form; exactly one of each for any input.
    """
    if not 0.0 <= b <= 0.5:
        raise ValueError(f"fixed-power mode needs 0 <= b <= 0.5, got b={b}")
    if not rho > 0:
        raise ValueError("rho must be positive")
    d = np.greater_equal(h, g)
    strong, weak = _fnoma_rates(h, g, b, rho)
    return RatePair(_out(np.where(d, strong, weak)), _out(np.where(d, weak, strong)))


def _fnoma_sum_rate(x, y, b, rho):
    """r1 + r2 of `fnoma_pair_rates` for the gains x and y in either order,
    unchecked."""
    strong, weak = _fnoma_rates(x, y, b, rho)
    strong += weak
    return strong


def _jain(r1, r2, s):
    """Jain's fairness index (r1+r2)**2 / (2 (r1**2 + r2**2)), in [0.5, 1],
    of nonnegative rates whose sum s = r1 + r2 is known.  The all-zero point
    is 1, the limit along the equal-rate diagonal.  The quotient can round
    an ulp past either end for nearly equal or very unequal rates, so it is
    clipped to the range."""
    q = np.multiply(r1, r1) + np.multiply(r2, r2)
    small = q < np.finfo(float).tiny
    if np.any(small):  # subnormal squares lose bits: redo those scaled by 2**600
        with np.errstate(over="ignore"):  # overflows only where not small
            u1, u2 = np.multiply(r1, 2.0 ** 600), np.multiply(r2, 2.0 ** 600)
            s = np.where(small, u1 + u2, s)
            q = np.where(small, u1 * u1 + u2 * u2, q)
    j = np.divide(s * s, 2.0 * q, out=np.ones(np.shape(q)), where=q > 0.0)
    return np.clip(j, 0.5, 1.0, out=j)


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


def cr_rates(h, g, rho, r_th) -> RatePair:
    """(secondary, primary) rates under the QoS-driven power split.

    r1 is UE1's (secondary) rate; with a split strictly inside (0, 1) the
    primary rate equals r_th, and a clipped split yields r1 = 0.  Both are
    computed without the split (see the module docstring): r2 is
    min(log2(1 + rho*g), r_th) and r1 is `_cr_secondary_rate`.
    """
    r1 = _cr_secondary_rate(h, g, rho, _checked_epsilon(rho, r_th))
    with np.errstate(over="ignore"):  # rho * g = inf reads as the floor
        r2 = np.minimum(np.log2(1.0 + rho * g), r_th, out=np.empty(np.shape(r1)))
    return RatePair(_out(r1), _out(r2))


def _cr_secondary_rate(h, g, rho, eps):
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
    as 1.  Unchecked: eps = 2**r_th - 1 comes from the caller.
    """
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
