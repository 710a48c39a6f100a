"""Rayleigh-fading channel generation with counter-based per-trial substreams.

Squared channel magnitudes between the base station and each user terminal
are i.i.d. exponential.  The rate parameter of a link at distance ``d`` with
path-loss exponent ``alpha`` is ``omega = d**alpha``, i.e. the mean squared
gain is ``d**-alpha``.

Sampling uses the inverse-CDF transform ``x = -ln(u) / omega`` with ``u``
uniform on (0, 1); a zero uniform (probability 2**-53 per draw) is remapped
to the smallest positive double so gains are strictly positive.

Every random word comes from Philox4x64-10 (Salmon et al., SC 2011) under
the key ``(seed, domain)``: block ``j`` of trial ``t`` is the output for the
counter ``(j, 0, 0, t)``, ``j >= 1``, with ``t`` taken modulo 2**64.  This
is numpy's own stream: ``np.random.Philox(key=(seed, domain),
counter=(0, 0, 0, t))`` adds 1 to counter word 0 before each block, so its
words are exactly these.  Trial t's state is a pure function of
``(seed, domain, t)``, never of sequential draws, so any subset of trials
can be generated in any order, on any number of workers, with identical
results, and ``_philox_block`` computes the blocks of a whole vector of
trials at once.  ``sample_channel_batch`` is the one sampler; a single
realization is a batch of one.  Its unit draws ``-ln u`` depend on the seed,
the antenna counts and the trials alone; a geometry only divides them by its
``omega``.  Trial t's i-th draw is word i of its blocks whatever the antenna
counts, so the N*(M+K) draws of N BS antennas are the first N*(M+K) of any
larger N's.  Geometries that share the seed, M, K and the trials can
therefore share one computation of the draws: a caller that shares them
computes ``_unit_draws`` for the largest N and passes the array as
``sample_channel_batch``'s ``draws``, and a smaller N scales a prefix of it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_TINY = np.nextafter(0.0, 1.0)  # smallest positive double

# Philox key domains keep independent purposes on disjoint streams even for
# equal (seed, trial) pairs.
CHANNEL_DOMAIN = 0
POLICY_DOMAIN = 1


def largest_gain(omega):
    """Largest gain any draw can give at rate parameter ``omega``: minus the
    log of the smallest uniform, over ``omega``, as the sampler computes it."""
    return float(-np.log(_TINY)) / omega


def _power(base, exponent):
    """``base**exponent`` in floats, inf where it overflows."""
    try:
        return float(base) ** float(exponent)
    except OverflowError:
        return math.inf


def _is_int(value):
    """An integer of any integral type but bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """A real number of any real type but bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ConfigurationError(ValueError):
    """Invalid scenario, axis, or file input (CLI exit code 1).

    `keys` are the scenario keys whose values the message names, if any; a
    scenario file reports the line of the first one it sets.
    """

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = keys


def _check(owner, rows):
    """Refuses the first value of `owner` that fails its row, with a
    `ConfigurationError` "key = value: need" that names its key.  A row is
    (keys, ok, need): the value of each attribute in keys fails where
    ok(value) is false, or raises OverflowError or TypeError, as it does on
    a value it cannot evaluate, such as an int beyond float range."""
    for keys, ok, need in rows:
        for key in keys:
            value = getattr(owner, key)
            try:
                good = ok(value)
            except (OverflowError, TypeError):
                good = False
            if not good:
                raise ConfigurationError(f"{key} = {value!r}: {need}", (key,))


@dataclass(frozen=True)
class FadingConfig:
    """Scenario geometry and radio parameters; fixes all channel statistics.

    n_bs/m_ue1/k_ue2 are the antenna counts at the base station, UE1 and UE2.
    d1/d2 are the BS-to-user distances in metres.  Defaults follow the common
    two-antenna-per-user setup with alpha = 3 and -110 dBm noise.

    Built, it holds the rate parameters ``omega_h = d1**alpha`` and
    ``omega_g = d2**alpha`` of the BS-UE1 and BS-UE2 squared gains (the mean
    gain is the reciprocal) and the linear transmit SNR ``rho =
    10**((ps_dbm - sigma2_dbm)/10)``, computed once.  A geometry that cannot
    run is refused here: a path loss or SNR out of float range, or an SNR
    times the largest gain a draw can give that overflows.
    """

    n_bs: int = 2
    m_ue1: int = 2
    k_ue2: int = 2
    d1: float = 80.0
    d2: float = 200.0
    alpha: float = 3.0
    ps_dbm: float = 30.0
    sigma2_dbm: float = -110.0
    omega_h: float = field(init=False, repr=False, compare=False)
    omega_g: float = field(init=False, repr=False, compare=False)
    rho: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check(self, (
            (("n_bs", "m_ue1", "k_ue2"), lambda v: _is_int(v) and v >= 1,
             "antenna counts must be integers >= 1"),
            (("d1", "d2"), lambda v: _is_real(v) and 0 < float(v) < math.inf,
             "distances must be positive and finite"),
            (("alpha",), lambda v: _is_real(v) and 0 < v < math.inf,
             "path-loss exponent must be positive and finite"),
            (("ps_dbm", "sigma2_dbm"), lambda v: _is_real(v) and math.isfinite(v),
             "power levels must be finite")))
        omegas = _power(self.d1, self.alpha), _power(self.d2, self.alpha)
        if not all(0 < w < math.inf for w in omegas):
            raise ConfigurationError(f"alpha = {self.alpha}: path loss "
                                     f"d1**alpha or d2**alpha is out of float range",
                                     ("alpha",))
        rho = _power(10.0, (self.ps_dbm - self.sigma2_dbm) / 10.0)
        if not 0 < rho < math.inf:
            keys = ("ps_dbm", "sigma2_dbm")  # the larger magnitude first
            raise ConfigurationError(
                f"ps_dbm = {self.ps_dbm}, sigma2_dbm = {self.sigma2_dbm}: the SNR "
                f"10**((ps_dbm - sigma2_dbm)/10) is out of float range",
                sorted(keys, key=lambda k: -abs(getattr(self, k))))
        for key, omega in zip(("d1", "d2"), omegas):
            if not rho * largest_gain(omega) < math.inf:
                raise ConfigurationError(
                    f"{key} = {getattr(self, key)}, alpha = {self.alpha}: the largest gain "
                    f"a draw can give, {largest_gain(1.0):.6g} / {key}**alpha, times the "
                    f"SNR {rho:.6g} overflows", (key, "alpha"))
        for name, value in zip(("omega_h", "omega_g", "rho"), (*omegas, rho)):
            object.__setattr__(self, name, value)


# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al.)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_BITS32 = np.uint64(32)


def _mulhilo(a: int, b: np.ndarray):
    """Low and high 64-bit words of the 128-bit product of constant ``a`` and
    the uint64 array ``b``.  The high word is the product of the 32-bit
    halves with its carries: t = (a_lo*b_lo) >> 32, mid = a_hi*b_lo + t,
    w = a_lo*b_hi + (mid & 0xFFFFFFFF) and hi = a_hi*b_hi + (mid >> 32) +
    (w >> 32), where no sum reaches 2**64.

    mid and hi accumulate in place in the arrays that take the low and high
    halves of ``b``.  A 0-d ``b`` gives numpy scalars, which the augmented
    operators rebind instead.
    """
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    mid = b & _LOW32
    hi = b >> _BITS32
    t = mid * a_lo
    t >>= _BITS32
    mid *= a_hi
    mid += t
    w = hi * a_lo
    w += mid & _LOW32
    hi *= a_hi
    mid >>= _BITS32
    hi += mid
    w >>= _BITS32
    hi += w
    return np.uint64(a) * b, hi


def _philox_block(seed: int, domain: int, counter):
    """Philox4x64-10 output block (four uint64 arrays) under key
    ``(seed, domain)`` for the counter words ``counter`` = (c0, c1, c2, c3),
    uint64 arrays or scalars that broadcast against each other.

    Each word keeps its own shape until a round mixes it into a larger one,
    so constant words such as the zeros of ``(j, 0, 0, t)`` stay 0-d through
    the first rounds; the four words are broadcast at the end.
    """
    x0, x1, x2, x3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = seed & _MASK64, domain & _MASK64
    with np.errstate(over="ignore"):  # 0-d words multiply as numpy scalars, which warn
        for _ in range(10):
            lo0, hi0 = _mulhilo(_PHILOX_M[0], x0)
            lo1, hi1 = _mulhilo(_PHILOX_M[1], x2)
            x0, x1, x2, x3 = hi1 ^ (x1 ^ np.uint64(k0)), lo1, hi0 ^ (x3 ^ np.uint64(k1)), lo0
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = (k1 + _PHILOX_W[1]) & _MASK64
    return tuple(np.broadcast_arrays(x0, x1, x2, x3))


def _trial_counters(start: int, count: int) -> np.ndarray:
    """Counter word 3 of trials start .. start+count-1, modulo 2**64."""
    return np.uint64(start & _MASK64) + np.arange(count, dtype=np.uint64)


def _neg_log(u):
    """-ln u of the uniforms u in [0, 1), in place; u = 0 reads as _TINY."""
    np.maximum(u, _TINY, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


def _unit_draws(seed: int, total: int, start: int, count: int):
    """The unit-rate exponentials -ln u of trials start .. start+count-1, a
    (total, count) array whose row i holds every trial's i-th uniform.

    Trial t's uniforms are the words of its blocks (j, 0, 0, t), j = 1, 2,
    ..., each mapped to [0, 1) as numpy's ``random()`` maps a word.  The
    blocks are computed for all trials one j at a time, and each one's words
    are mapped into their four rows of the output in place.
    """
    out = np.empty((total, count))
    trials = _trial_counters(start, count)
    for j in range(-(-total // 4)):
        words = _philox_block(seed, CHANNEL_DOMAIN, (j + 1, 0, 0, trials))
        rows = out[4 * j:4 * j + 4]
        for row, word in zip(rows, words):
            np.multiply(word >> np.uint64(11), 2.0 ** -53, out=row)
        _neg_log(rows)
    return out


def _gains_from_unit_draws(x, cfg: FadingConfig):
    """(h, g) of shapes (T, N, M) and (T, N, K) from the unit draws x
    (N*(M+K), T), h from the first N*M rows in row-major (n, m) order.

    h and g are views of (N, M, T) and (N, K, T) arrays: each (n, m) column
    of the trials is contiguous.
    """
    n, m, k = cfg.n_bs, cfg.m_ue1, cfg.k_ue2
    nm = n * m
    h = (x[:nm] / cfg.omega_h).reshape(n, m, -1).transpose(2, 0, 1)
    g = (x[nm:] / cfg.omega_g).reshape(n, k, -1).transpose(2, 0, 1)
    return h, g


def sample_channel_batch(cfg: FadingConfig, seed: int, start: int, count: int, *,
                         draws=None):
    """Stacked draws for trials start .. start+count-1.

    Returns (h, g) with shapes (count, N, M) and (count, N, K), the trial
    axis fastest in memory: the unit draws of ``_unit_draws`` divided by
    ``omega_h`` and ``omega_g``.  ``draws``, if given, are those unit draws
    for this or a larger N, with at least N*(M+K) rows and ``count``
    columns, and their first N*(M+K) rows are scaled instead of drawing.
    """
    n, m, k = cfg.n_bs, cfg.m_ue1, cfg.k_ue2
    total = n * (m + k)
    if draws is None:
        draws = _unit_draws(seed, total, start, count)
    elif draws.shape[1:] != (count,) or len(draws) < total:
        raise ValueError(f"draws of shape {draws.shape}: need at least {total} rows "
                         f"and {count} columns")
    return _gains_from_unit_draws(draws[:total], cfg)
