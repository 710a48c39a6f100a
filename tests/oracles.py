"""Independent reference implementations used to check the package.

Everything here is deliberately written with plain Python loops and the
math module: the searches share nothing with the numpy kernels they verify
except the documented tie-break convention (lowest row-major index, UE1
side on a row-level tie).  The per-trial draws are numpy's own streams: one
``np.random.Generator(np.random.Philox(...))`` per trial, read with its
``random`` and ``integers`` methods.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
CHANNEL_DOMAIN, POLICY_DOMAIN = 0, 1


# --- numpy's own per-trial streams ---------------------------------------------
# The package computes trial t's random words for every trial at once.  These
# build numpy's Philox generator for one trial at a time instead, the way the
# package's draws are defined, and are the reference they must match bit for
# bit.


def _key(seed, domain):
    return np.array([seed & _MASK64, domain], dtype=np.uint64)


def _substream(seed, trial_index, domain):
    """numpy Generator whose state is a pure function of (seed, trial, domain)."""
    counter = np.array([0, 0, 0, trial_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=_key(seed, domain), counter=counter))


def channel_uniforms(seed, trial_index, total):
    """The `total` uniforms behind trial `trial_index`'s channel gains."""
    return _substream(seed, trial_index, CHANNEL_DOMAIN).random(total)


def random_triple(seed, trial_index, dims):
    """The random policy's 0-based (n, m, k) for one trial."""
    return tuple(_substream(seed, trial_index, POLICY_DOMAIN).integers(0, list(dims)))


# --- plain-loop references -----------------------------------------------------


def random_instance(rng, n, m, k, omega_h=1.0, omega_g=2.0):
    h = rng.exponential(1.0 / omega_h, (n, m))
    g = rng.exponential(1.0 / omega_g, (n, k))
    return h, g


def fnoma_objective(h, g, b, rho):
    gs, gw = (h, g) if h >= g else (g, h)
    a = 1.0 - b
    return math.log2(1.0 + rho * b * gs) + math.log2(1.0 + a * gw / (b * gw + 1.0 / rho))


def cr_secondary_objective(h, g, rho, r_th):
    eps = 2.0 ** r_th - 1.0
    if h >= g:
        b = max((rho * g - eps) / (rho * g * (eps + 1.0)), 0.0)
        return math.log2(1.0 + rho * b * h)
    b = min(eps / (rho * g), 1.0)
    a = 1.0 - b
    return math.log2(1.0 + a * h / (b * h + 1.0 / rho))


def _argmax_triples(h, g, objective):
    n_dim, m_dim = h.shape
    k_dim = g.shape[1]
    best = None
    best_val = -math.inf
    for n in range(n_dim):
        for m in range(m_dim):
            for k in range(k_dim):
                val = objective(h[n, m], g[n, k])
                if val > best_val:
                    best_val = val
                    best = (n, m, k)
    return best, best_val


def brute_es_fnoma(h, g, b, rho):
    return _argmax_triples(h, g, lambda x, y: fnoma_objective(x, y, b, rho))


def brute_es_crnoma(h, g, rho, r_th):
    return _argmax_triples(h, g, lambda x, y: cr_secondary_objective(x, y, rho, r_th))


def global_max(a):
    best = -math.inf
    where = None
    rows, cols = a.shape
    for i in range(rows):
        for j in range(cols):
            if a[i, j] > best:
                best = a[i, j]
                where = (i, j)
    return best, where


def aia_weak_oracle(h, g):
    """max over rows of the smaller row-maximum."""
    best = -math.inf
    for n in range(h.shape[0]):
        cand = min(max(h[n]), max(g[n]))
        if cand > best:
            best = cand
    return best


def exponential_mean_oracle(omega):
    return 1.0 / omega
