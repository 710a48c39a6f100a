"""Joint transmit/receive antenna-selection policies.

Every policy maps one channel realization to a selected antenna triple
(BS, UE1, UE2) plus the implied gain ordering.  The exhaustive searches are
the optimality references; the staged policies trade a little rate for a
comparison count that is linear instead of cubic in the antenna counts.

eval_count convention: pairwise max/min comparisons plus, for the exhaustive
searches, one unit per candidate objective evaluation.  The exact counts are

    es_fnoma / es_crnoma    : N*M*K
    a3_as / aia_as / mcg_as : N*(M-1) + N*(K-1) + N + (N-1) = N*(M+K) - 1
    pu_as                   : (N*K - 1) + (M - 1)
    su_as                   : (N*M - 1) + (K - 1)
    random_as               : 0
    oma_es                  : (N*M - 1) + (N*K - 1)

mcg_as is realized through per-row maxima (same intermediate values as
a3_as, hence the identical triple and count) rather than two whole-matrix
scans; a direct scan would exceed its advertised N*(M+K)+2 budget once
min(M, K) > 4.

Tie-breaking everywhere: lowest row-major linear index wins, and a tie
between the two matrices resolves to the UE1 side, consistently with the
channel-order indicator.  Ties have probability zero under continuous
fading; the rules exist so results are reproducible.

random_as draws trial t's (n, m, k) from its policy-domain Philox blocks
(see ``channel``) exactly as numpy's ``Generator.integers(0, [N, M, K])``
does on the per-trial generator ``Philox(key=(seed, 1), counter=(0, 0, 0,
t))``.  Each dimension above 1 reads the next 32-bit word, the low half of
a 64-bit word before its high half; a dimension of 1 reads none.  The value
is ``(u32 * dim) >> 32``, and Lemire's rejection (ACM TOMACS 2019) makes it
exactly uniform: when ``(u32 * dim) mod 2**32 < (2**32 - dim) mod dim`` the
trial draws again from its next word.

The ``_*_triples`` kernels operate on stacked realizations of shape
(T, N, M)/(T, N, K) and return 0-based index arrays; the public functions
wrap a batch of one and report 1-based indices.  ``POLICIES`` is the one
table of (mode, policy) pairs that the harness, the figures and the CLI read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import analytics
from .channel import (ChannelRealization, POLICY_DOMAIN, _LOW32, _philox_block,
                      _trial_counters)
from .rates import PowerSplit, cr_power_split, cr_rates, fnoma_sum_rate


@dataclass
class Selection:
    """One policy decision: antenna triple, gain ordering and bookkeeping.

    Antenna indices are 1-based.  gamma_s/gamma_w are the larger/smaller of
    the two selected gains; delta is 1 when the UE1 gain is the larger one.
    split is policy-dependent (the fixed split for fixed-power policies, the
    QoS-driven split for the others, None for the random baseline).
    """

    n_star: int
    m_star: int
    k_star: int
    delta: int
    gamma_s: float
    gamma_w: float
    split: PowerSplit | None
    eval_count: int

    @property
    def h_gain(self) -> float:
        """Selected UE1 gain h[n*, m*]."""
        return self.gamma_s if self.delta else self.gamma_w

    @property
    def g_gain(self) -> float:
        """Selected UE2 gain g[n*, k*]."""
        return self.gamma_w if self.delta else self.gamma_s


@dataclass
class OmaSelection:
    """Per-user best links for the orthogonal baseline.

    The two users need not share a BS antenna, so there are two BS indices
    (all 1-based).
    """

    n1_star: int
    m_star: int
    n2_star: int
    k_star: int
    h_best: float
    g_best: float
    eval_count: int


# ---------------------------------------------------------------------------
# exact comparison-count formulas


def count_es(n, m, k):
    return n * m * k


def count_a3(n, m, k):
    return n * (m - 1) + n * (k - 1) + n + (n - 1)


def count_pu(n, m, k):
    return (n * k - 1) + (m - 1)


def count_su(n, m, k):
    return (n * m - 1) + (k - 1)


def count_oma(n, m, k):
    return (n * m - 1) + (n * k - 1)


# ---------------------------------------------------------------------------
# batch kernels (0-based indices over stacked realizations)


def _row_stats(a):
    return a.max(axis=2), a.argmax(axis=2)


def _a3_triples(h, g):
    """Largest single gain anywhere, then the best same-row companion."""
    hn, hi = _row_stats(h)
    gn, gi = _row_stats(g)
    n = np.maximum(hn, gn).argmax(axis=1)
    t = np.arange(h.shape[0])
    return n, hi[t, n], gi[t, n]


def _aia_triples(h, g):
    """Row whose smaller row-maximum is largest, then both row maxima."""
    hn, hi = _row_stats(h)
    gn, gi = _row_stats(g)
    n = np.minimum(hn, gn).argmax(axis=1)
    t = np.arange(h.shape[0])
    return n, hi[t, n], gi[t, n]


def _pu_triples(h, g):
    """Global best UE2 link first, then UE1's best on the shared BS antenna."""
    tcount, _, k_dim = g.shape
    t = np.arange(tcount)
    flat = g.reshape(tcount, -1).argmax(axis=1)
    n = flat // k_dim
    k = flat - n * k_dim
    m = h.argmax(axis=2)[t, n]
    return n, m, k


def _su_triples(h, g):
    """Global best UE1 link first, then UE2's best on the shared BS antenna."""
    tcount, _, m_dim = h.shape
    t = np.arange(tcount)
    flat = h.reshape(tcount, -1).argmax(axis=1)
    n = flat // m_dim
    m = flat - n * m_dim
    k = g.argmax(axis=2)[t, n]
    return n, m, k


def _unravel_nmk(idx, m_dim, k_dim):
    n = idx // (m_dim * k_dim)
    rem = idx - n * (m_dim * k_dim)
    return n, rem // k_dim, rem % k_dim


def _es_fnoma_triples(h, g, split, rho):
    tcount, _, m_dim = h.shape
    k_dim = g.shape[2]
    h4 = h[:, :, :, None]
    g4 = g[:, :, None, :]
    obj = fnoma_sum_rate(np.maximum(h4, g4), np.minimum(h4, g4), split.b, rho)
    idx = obj.reshape(tcount, -1).argmax(axis=1)
    return _unravel_nmk(idx, m_dim, k_dim)


def _es_crnoma_triples(h, g, rho, r_th):
    tcount, _, m_dim = h.shape
    k_dim = g.shape[2]
    h4 = np.broadcast_to(h[:, :, :, None], h.shape + (k_dim,))
    g4 = np.broadcast_to(g[:, :, None, :], g.shape[:2] + (m_dim, k_dim))
    r1, _ = cr_rates(h4, g4, rho, r_th, "exact")
    idx = r1.reshape(tcount, -1).argmax(axis=1)
    return _unravel_nmk(idx, m_dim, k_dim)


def _random_triples(n_dim, m_dim, k_dim, seed, start, count):
    """Uniform (n, m, k) of trials start .. start+count-1, drawn as numpy's
    ``integers(0, [n_dim, m_dim, k_dim])`` draws them (see the module
    docstring)."""
    if max(n_dim, m_dim, k_dim) > 2 ** 32:
        raise ValueError("antenna counts above 2**32 are not supported")
    trials = _trial_counters(start, count)
    words = np.empty((count, 0), dtype=np.uint32)  # 8 per block
    used = np.zeros(count, dtype=np.int64)  # words each trial has consumed
    out = []
    for dim in (n_dim, m_dim, k_dim):
        value = np.zeros(count, dtype=np.int64)
        threshold = (2 ** 32 - dim) % dim
        todo = np.arange(count if dim > 1 else 0)
        while todo.size:
            while used[todo].max() >= words.shape[1]:
                block = _philox_block(seed, POLICY_DOMAIN,
                                      (words.shape[1] // 8 + 1, 0, 0, trials))
                # low half of each word first, as numpy's next_uint32 reads it
                halves = np.stack(block, axis=1).astype("<u8", copy=False).view("<u4")
                words = np.concatenate([words, halves], axis=1)
            product = words[todo, used[todo]].astype(np.uint64) * np.uint64(dim)
            used[todo] += 1
            accept = (product & _LOW32) >= threshold
            value[todo[accept]] = product[accept] >> np.uint64(32)
            todo = todo[~accept]
        out.append(value)
    return tuple(out)


def _oma_indices(h, g):
    tcount, _, m_dim = h.shape
    k_dim = g.shape[2]
    hflat = h.reshape(tcount, -1).argmax(axis=1)
    gflat = g.reshape(tcount, -1).argmax(axis=1)
    return hflat // m_dim, hflat % m_dim, gflat // k_dim, gflat % k_dim


def _gains(h, g, n1, m, n2, k):
    """Stacked selected gains h[t, n1, m] and g[t, n2, k]."""
    t = np.arange(h.shape[0])
    return h[t, n1, m], g[t, n2, k]


def _triple_gains(h, g, triple):
    n, m, k = triple
    return _gains(h, g, n, m, n, k)


# ---------------------------------------------------------------------------
# public per-realization policies


def _build(ch, n, m, k, split, eval_count) -> Selection:
    h_sel = float(ch.h[n, m])
    g_sel = float(ch.g[n, k])
    delta = 1 if h_sel >= g_sel else 0
    gs, gw = (h_sel, g_sel) if delta else (g_sel, h_sel)
    return Selection(int(n) + 1, int(m) + 1, int(k) + 1, delta, gs, gw,
                     split, eval_count)


def _dims(ch):
    n, m = ch.h.shape
    return n, m, ch.g.shape[1]


def es_fnoma(ch: ChannelRealization, split: PowerSplit, rho) -> Selection:
    """Exhaustive search maximizing the fixed-power sum rate."""
    n, m, k = _es_fnoma_triples(ch.h[None], ch.g[None], split, rho)
    return _build(ch, n[0], m[0], k[0], split, count_es(*_dims(ch)))


def es_crnoma(ch: ChannelRealization, rho, r_th) -> Selection:
    """Exhaustive search maximizing the secondary rate under the QoS floor.

    Infeasible triples carry objective 0, so they are admissible but
    dominated; an all-infeasible realization returns the first triple.
    """
    n, m, k = _es_crnoma_triples(ch.h[None], ch.g[None], rho, r_th)
    sel = _build(ch, n[0], m[0], k[0], None, count_es(*_dims(ch)))
    sel.split = cr_power_split(sel.h_gain, sel.g_gain, rho, r_th, "exact")
    return sel


def a3_as(ch: ChannelRealization, split: PowerSplit, rho) -> Selection:
    """Maximize the strong user's gain (the search ignores split and rho)."""
    n, m, k = _a3_triples(ch.h[None], ch.g[None])
    return _build(ch, n[0], m[0], k[0], split, count_a3(*_dims(ch)))


def aia_as(ch: ChannelRealization, split: PowerSplit, rho) -> Selection:
    """Maximize the weak user's gain (the search ignores split and rho)."""
    n, m, k = _aia_triples(ch.h[None], ch.g[None])
    return _build(ch, n[0], m[0], k[0], split, count_a3(*_dims(ch)))


def mcg_as(ch: ChannelRealization, rho, r_th) -> Selection:
    """Strong-gain-first selection with the high-SNR QoS split attached.

    Selects the same triple as a3_as on every realization; reduces to su_as
    when the best UE1 gain beats the best UE2 gain and to pu_as otherwise.
    """
    n, m, k = _a3_triples(ch.h[None], ch.g[None])
    sel = _build(ch, n[0], m[0], k[0], None, count_a3(*_dims(ch)))
    sel.split = cr_power_split(sel.h_gain, sel.g_gain, rho, r_th, "asymptotic")
    return sel


def pu_as(ch: ChannelRealization, rho, r_th) -> Selection:
    """Primary-first: best UE2 link globally, then UE1's best on that row."""
    n, m, k = _pu_triples(ch.h[None], ch.g[None])
    sel = _build(ch, n[0], m[0], k[0], None, count_pu(*_dims(ch)))
    sel.split = cr_power_split(sel.h_gain, sel.g_gain, rho, r_th, "asymptotic")
    return sel


def su_as(ch: ChannelRealization, rho, r_th) -> Selection:
    """Secondary-first: best UE1 link globally, then UE2's best on that row."""
    n, m, k = _su_triples(ch.h[None], ch.g[None])
    sel = _build(ch, n[0], m[0], k[0], None, count_su(*_dims(ch)))
    sel.split = cr_power_split(sel.h_gain, sel.g_gain, rho, r_th, "asymptotic")
    return sel


def random_as(ch: ChannelRealization, seed, trial_index=0) -> Selection:
    """Uniform independent indices; deterministic in (seed, trial_index).

    Uses a policy-domain substream so the draws never alias the channel
    generator's for the same (seed, trial_index).
    """
    n_dim, m_dim, k_dim = _dims(ch)
    n, m, k = _random_triples(n_dim, m_dim, k_dim, seed, trial_index, 1)
    return _build(ch, n[0], m[0], k[0], None, 0)


def oma_es(ch: ChannelRealization, rho) -> OmaSelection:
    """Independent per-user best links for the orthogonal baseline."""
    n1, m, n2, k = _oma_indices(ch.h[None], ch.g[None])
    return OmaSelection(int(n1[0]) + 1, int(m[0]) + 1, int(n2[0]) + 1,
                        int(k[0]) + 1, float(ch.h[n1[0], m[0]]),
                        float(ch.g[n2[0], k[0]]), count_oma(*_dims(ch)))


# ---------------------------------------------------------------------------
# the policy table


class Bound(NamedTuple):
    """An advertised comparison-count bound, as `noma-as bench` audits it."""

    row: str  # the audit's row name
    text: str  # the bound as printed
    limit: Callable  # (n, m, k) -> value of the bound
    exact: bool = False  # exhaustive searches: the count equals the bound


@dataclass(frozen=True)
class Policy:
    """Everything the harness, figures and CLI know about one (mode, policy).

    select(h, g, rho=, split=, r_th=, seed=, t0=) returns the stacked UE1
    and UE2 gains of the chosen links for trials t0, t0+1, ...
    closed_form(fading, split, r_th) is the high-SNR average of `metric`,
    the RateReport field the mode reports.  Both look kernels and closed
    forms up on their modules at call time, so a function replaced there
    after import (as the benchmark's tracer does) is the one that runs.
    gains_only says the choice reads the gains (and seed, t0) but not rho,
    split or r_th, so the harness selects once per geometry and reuses the
    chosen gains at every point of a power, split or r_th sweep.
    """

    column: str  # figure column; `_sim`/`_analytic` pair with a closed form
    select: Callable
    count: Callable  # (n, m, k) -> eval_count
    metric: str
    bound: Bound | None = None
    closed_form: Callable | None = None
    gains_only: bool = True


def _split_cfg(fading, split, r_th):
    return analytics.AnalyticConfig.from_fading(fading, b=split.b)


def _qos_cfg(fading, split, r_th):
    return analytics.AnalyticConfig.from_fading(fading, r_th=r_th)


def _random_gains(h, g, seed, t0, **_):
    count, n_dim, m_dim = h.shape
    return _triple_gains(h, g, _random_triples(n_dim, m_dim, g.shape[2], seed, t0, count))


# Within a mode, entries are in figure-column order; the bounded entries are
# in the order `noma-as bench` prints them.
POLICIES = {
    ("fnoma", "es"): Policy(
        "fnoma_es",
        lambda h, g, rho, split, **_: _triple_gains(h, g, _es_fnoma_triples(h, g, split, rho)),
        count_es, "mean_sum", Bound("es_fnoma", "N*M*K", lambda n, m, k: n * m * k, True),
        gains_only=False),
    ("crnoma", "es"): Policy(
        "cr_es",
        lambda h, g, rho, r_th, **_: _triple_gains(h, g, _es_crnoma_triples(h, g, rho, r_th)),
        count_es, "mean_r1", Bound("es_crnoma", "N*M*K", lambda n, m, k: n * m * k, True),
        gains_only=False),
    ("fnoma", "a3"): Policy(
        "a3", lambda h, g, **_: _triple_gains(h, g, _a3_triples(h, g)),
        count_a3, "mean_sum", Bound("a3", "N*(M+K+3)", lambda n, m, k: n * (m + k + 3)),
        lambda *args: analytics.a3_avg_sum_rate(_split_cfg(*args)).value),
    ("fnoma", "aia"): Policy(
        "aia", lambda h, g, **_: _triple_gains(h, g, _aia_triples(h, g)),
        count_a3, "mean_sum", Bound("aia", "N*(M+K+3)", lambda n, m, k: n * (m + k + 3)),
        lambda *args: analytics.aia_avg_sum_rate(_split_cfg(*args)).value),
    ("crnoma", "mcg"): Policy(
        "mcg", lambda h, g, **_: _triple_gains(h, g, _a3_triples(h, g)),
        count_a3, "mean_r1", Bound("mcg", "N*(M+K)+2", lambda n, m, k: n * (m + k) + 2),
        lambda *args: analytics.mcg_avg_secondary_rate(_qos_cfg(*args)).value),
    ("crnoma", "pu"): Policy(
        "pu", lambda h, g, **_: _triple_gains(h, g, _pu_triples(h, g)),
        count_pu, "mean_r1", Bound("pu", "N*K+M", lambda n, m, k: n * k + m),
        lambda *args: analytics.pu_avg_secondary_rate(_qos_cfg(*args)).value),
    ("crnoma", "su"): Policy(
        "su", lambda h, g, **_: _triple_gains(h, g, _su_triples(h, g)),
        count_su, "mean_r1", Bound("su", "N*M+K", lambda n, m, k: n * m + k),
        lambda *args: analytics.su_avg_secondary_rate(_qos_cfg(*args)).value),
    ("fnoma", "random"): Policy(
        "fnoma_ra", _random_gains, lambda n, m, k: 0, "mean_sum"),
    ("crnoma", "random"): Policy(
        "cr_ra", _random_gains, lambda n, m, k: 0, "mean_r1"),
    ("oma", "oma_es"): Policy(
        "oma_es", lambda h, g, **_: _gains(h, g, *_oma_indices(h, g)),
        count_oma, "mean_sum"),
}
