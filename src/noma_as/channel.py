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
realization is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_TINY = np.nextafter(0.0, 1.0)  # smallest positive double

# Philox key domains keep independent purposes on disjoint streams even for
# equal (seed, trial) pairs.
CHANNEL_DOMAIN = 0
POLICY_DOMAIN = 1


def omega_from_distance(d, alpha):
    """Exponential rate parameter ``d**alpha`` of a squared channel gain.

    The mean gain is the reciprocal, ``d**-alpha``.
    """
    if not (d > 0 and alpha > 0) or not (math.isfinite(d) and math.isfinite(alpha)):
        raise ValueError(f"need d > 0 and alpha > 0, got d={d}, alpha={alpha}")
    return float(d) ** float(alpha)


def transmit_snr(ps_dbm, sigma2_dbm):
    """Linear transmit SNR ``rho = 10**((ps_dbm - sigma2_dbm)/10)``."""
    if not (math.isfinite(ps_dbm) and math.isfinite(sigma2_dbm)):
        raise ValueError("power levels must be finite")
    return 10.0 ** ((ps_dbm - sigma2_dbm) / 10.0)


def largest_gain(omega):
    """Largest gain any draw can give at rate parameter ``omega``: minus the
    log of the smallest uniform, over ``omega``, as the sampler computes it."""
    return float(-np.log(_TINY)) / omega


@dataclass(frozen=True)
class FadingConfig:
    """Scenario geometry and radio parameters; fixes all channel statistics.

    n_bs/m_ue1/k_ue2 are the antenna counts at the base station, UE1 and UE2.
    d1/d2 are the BS-to-user distances in metres.  Defaults follow the common
    two-antenna-per-user setup with alpha = 3 and -110 dBm noise.
    """

    n_bs: int = 2
    m_ue1: int = 2
    k_ue2: int = 2
    d1: float = 80.0
    d2: float = 200.0
    alpha: float = 3.0
    ps_dbm: float = 30.0
    sigma2_dbm: float = -110.0

    def __post_init__(self):
        if min(self.n_bs, self.m_ue1, self.k_ue2) < 1:
            raise ValueError("antenna counts must be >= 1")
        for name in ("n_bs", "m_ue1", "k_ue2"):
            if int(getattr(self, name)) != getattr(self, name):
                raise ValueError(f"{name} must be an integer")
        if not (self.d1 > 0 and self.d2 > 0):
            raise ValueError("distances must be positive")
        if not self.alpha > 0:
            raise ValueError("path-loss exponent must be positive")
        if not (math.isfinite(self.ps_dbm) and math.isfinite(self.sigma2_dbm)):
            raise ValueError("power levels must be finite")

    @property
    def omega_h(self) -> float:
        """Rate parameter of the BS-UE1 squared gains."""
        return omega_from_distance(self.d1, self.alpha)

    @property
    def omega_g(self) -> float:
        """Rate parameter of the BS-UE2 squared gains."""
        return omega_from_distance(self.d2, self.alpha)

    @property
    def rho(self) -> float:
        """Linear transmit SNR."""
        return transmit_snr(self.ps_dbm, self.sigma2_dbm)


# Philox4x64-10 round multipliers and Weyl key increments (Salmon et al.)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_BITS32 = np.uint64(32)


def _mulhilo(a: int, b: np.ndarray):
    """Low and high 64-bit words of the 128-bit product of constant ``a`` and
    the uint64 array ``b``; the high word is built from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo = b & _LOW32
    b_hi = b >> _BITS32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    lo_hi = a_lo * b_hi
    carry = (lo_lo >> _BITS32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    hi = a_hi * b_hi
    hi += hi_lo >> _BITS32
    hi += lo_hi >> _BITS32
    hi += carry >> _BITS32
    return np.uint64(a) * b, hi


def _philox_block(seed: int, domain: int, counter):
    """Philox4x64-10 output block (four uint64 arrays) under key
    ``(seed, domain)`` for the counter words ``counter`` = (c0, c1, c2, c3),
    uint64 arrays that broadcast against each other."""
    x0, x1, x2, x3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    k0, k1 = seed & _MASK64, domain & _MASK64
    for _ in range(10):
        lo0, hi0 = _mulhilo(_PHILOX_M[0], x0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= np.uint64(k0)
        hi0 ^= x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
        k0 = (k0 + _PHILOX_W[0]) & _MASK64
        k1 = (k1 + _PHILOX_W[1]) & _MASK64
    return x0, x1, x2, x3


def _trial_counters(start: int, count: int) -> np.ndarray:
    """Counter word 3 of trials start .. start+count-1, modulo 2**64."""
    return np.uint64(start & _MASK64) + np.arange(count, dtype=np.uint64)


def _gains_from_uniforms(u: np.ndarray, cfg: FadingConfig):
    n, m, k = cfg.n_bs, cfg.m_ue1, cfg.k_ue2
    nm = n * m
    u = np.where(u == 0.0, _TINY, u)
    x = -np.log(u)
    h = x[..., :nm].reshape(u.shape[:-1] + (n, m)) / cfg.omega_h
    g = x[..., nm:].reshape(u.shape[:-1] + (n, k)) / cfg.omega_g
    return h, g


def sample_channel_batch(cfg: FadingConfig, seed: int, start: int, count: int):
    """Stacked draws for trials start .. start+count-1.

    Trial t's N*(M+K) uniforms are the words of its blocks (j, 0, 0, t),
    j = 1, 2, ..., all computed at once, each mapped to [0, 1) as numpy's
    ``random()`` maps a word.  Returns (h, g) with shapes (count, N, M) and
    (count, N, K).
    """
    total = cfg.n_bs * (cfg.m_ue1 + cfg.k_ue2)
    blocks = np.arange(1, -(-total // 4) + 1, dtype=np.uint64)
    words = _philox_block(seed, CHANNEL_DOMAIN, (blocks[None, :], 0, 0,
                                                 _trial_counters(start, count)[:, None]))
    words = np.stack(words, axis=-1).reshape(count, 4 * blocks.size)[:, :total]
    u = (words >> np.uint64(11)) * 2.0 ** -53
    return _gains_from_uniforms(u, cfg)
