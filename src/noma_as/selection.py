"""Joint transmit/receive antenna-selection policies.

Every policy maps a channel realization to a selected antenna triple
(BS, UE1, UE2); the orthogonal baseline picks each user's best link on its
own.  The exhaustive searches are the optimality references; the staged
policies trade a little rate for a comparison count that is linear instead
of cubic in the antenna counts.

eval_count convention: pairwise max/min comparisons plus, for the exhaustive
searches, one unit per candidate objective evaluation of the paper's
reference search.  The exact counts of the ``POLICIES`` entries are

    es (fnoma and crnoma) : N*M*K
    a3 / aia / mcg        : N*(M-1) + N*(K-1) + N + (N-1) = N*(M+K) - 1
    pu                    : (N*K - 1) + (M - 1)
    su                    : (N*M - 1) + (K - 1)
    random                : 0
    oma_es                : (N*M - 1) + (N*K - 1)

Both exhaustive objectives never decrease when either selected gain grows,
so the best (m, k) of BS antenna n is the pair of row argmaxes of h[n, :]
and g[n, :], and the optimum is the best of these N row-max candidates.
The kernels evaluate the N candidates and then the M*K grid of the first
row that reaches the optimum, N + M*K evaluations in all; es keeps the
count N*M*K of the reference search it reproduces, triple for triple.

mcg is realized through per-row maxima (same intermediate values as a3,
hence the identical triple and count) rather than two whole-matrix scans;
a direct scan would exceed its advertised N*(M+K)+2 budget once
min(M, K) > 4.  It reduces to su when the best UE1 gain beats the best UE2
gain and to pu otherwise.

Tie-breaking everywhere: lowest row-major linear index wins, and a tie
between the two matrices resolves to the UE1 side, as a tie of the two
gains does in ``rates``.  Ties have probability zero under continuous
fading; the rules exist so results are reproducible.

random draws trial t's (n, m, k) from its policy-domain Philox blocks (see
``channel``) exactly as numpy's ``Generator.integers(0, [N, M, K])`` does
on the per-trial generator ``Philox(key=(seed, 1), counter=(0, 0, 0, t))``.
Each dimension above 1 reads the next 32-bit word, the low half of a 64-bit
word before its high half; a dimension of 1 reads none.  The value is
``(u32 * dim) >> 32``, and Lemire's rejection (ACM TOMACS 2019) makes it
exactly uniform: when ``(u32 * dim) mod 2**32 < (2**32 - dim) mod dim`` the
trial draws again from its next word.

The ``_*_triples`` kernels read stacked realizations of shape
(T, N, M)/(T, N, K), through their ``row_stats`` (the per-row maxima and
argmaxes, which depend on the gains alone), and return 0-based index
arrays.  ``POLICIES`` is the one table of (mode, policy) pairs that the
harness, the figures and the CLI read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import analytics
from .channel import POLICY_DOMAIN, _LOW32, _philox_block, _trial_counters
from .rates import cr_rates, fnoma_sum_rate


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


class RowStats(NamedTuple):
    """Per-row maxima of stacked h (T, N, M) and g (T, N, K) and their first
    column indices, each of shape (T, N)."""

    h_max: np.ndarray
    h_arg: np.ndarray
    g_max: np.ndarray
    g_arg: np.ndarray


def row_stats(h, g):
    """The row maxima and argmaxes that every kernel but random reads."""
    hi = h.argmax(axis=2)[:, :, None]
    gi = g.argmax(axis=2)[:, :, None]
    return RowStats(np.take_along_axis(h, hi, axis=2)[:, :, 0], hi[:, :, 0],
                    np.take_along_axis(g, gi, axis=2)[:, :, 0], gi[:, :, 0])


def _row_pick(rows, n):
    """(n, m, k) of trial t's row n[t] maxima."""
    t = np.arange(n.size)
    return n, rows.h_arg[t, n], rows.g_arg[t, n]


def _a3_triples(rows):
    """Largest single gain anywhere, then the best same-row companion."""
    return _row_pick(rows, np.maximum(rows.h_max, rows.g_max).argmax(axis=1))


def _aia_triples(rows):
    """Row whose smaller row-maximum is largest, then both row maxima."""
    return _row_pick(rows, np.minimum(rows.h_max, rows.g_max).argmax(axis=1))


def _pu_triples(rows):
    """Global best UE2 link first, then UE1's best on the shared BS antenna."""
    return _row_pick(rows, rows.g_max.argmax(axis=1))


def _su_triples(rows):
    """Global best UE1 link first, then UE2's best on the shared BS antenna."""
    return _row_pick(rows, rows.h_max.argmax(axis=1))


def _es_triples(h, g, rows, objective):
    """First row-major (n, m, k) maximizing objective(h[n, m], g[n, k]).

    The objective never decreases when either gain grows, so each row's
    best value is its row-max candidate's and the optimum v* is the best of
    the N candidates.  The first row reaching v* holds the first optimal
    triple; its first M x K entry equal to v* is that triple.
    """
    t = np.arange(h.shape[0])
    best = objective(rows.h_max, rows.g_max)
    n = best.argmax(axis=1)
    top = best[t, n]
    grid = objective(h[t, n, :, None], g[t, n, None, :])
    k_dim = g.shape[2]
    idx = (grid == top[:, None, None]).reshape(t.size, -1).argmax(axis=1)
    return n, idx // k_dim, idx % k_dim


def _es_fnoma_triples(h, g, rows, split, rho):
    """Exhaustive search maximizing the fixed-power sum rate."""
    return _es_triples(h, g, rows, lambda x, y: fnoma_sum_rate(
        np.maximum(x, y), np.minimum(x, y), split.b, rho))


def _es_crnoma_triples(h, g, rows, rho, r_th):
    """Exhaustive search maximizing the secondary rate under the QoS floor.

    Infeasible triples carry r1 = 0, so they are admissible but dominated;
    an all-infeasible trial picks (0, 0, 0).
    """
    return _es_triples(h, g, rows, lambda x, y: cr_rates(x, y, rho, r_th).r1)


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

    select(h, g, rows=, rho=, split=, r_th=, seed=, t0=) returns the
    stacked UE1 and UE2 gains of the chosen links for trials t0, t0+1, ...,
    where rows is ``row_stats(h, g)``.
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
        lambda h, g, rows, rho, split, **_: _triple_gains(
            h, g, _es_fnoma_triples(h, g, rows, split, rho)),
        count_es, "mean_sum", Bound("es_fnoma", "N*M*K", lambda n, m, k: n * m * k, True),
        gains_only=False),
    ("crnoma", "es"): Policy(
        "cr_es",
        lambda h, g, rows, rho, r_th, **_: _triple_gains(
            h, g, _es_crnoma_triples(h, g, rows, rho, r_th)),
        count_es, "mean_r1", Bound("es_crnoma", "N*M*K", lambda n, m, k: n * m * k, True),
        gains_only=False),
    ("fnoma", "a3"): Policy(
        "a3", lambda h, g, rows, **_: _triple_gains(h, g, _a3_triples(rows)),
        count_a3, "mean_sum", Bound("a3", "N*(M+K+3)", lambda n, m, k: n * (m + k + 3)),
        lambda *args: analytics.a3_avg_sum_rate(_split_cfg(*args)).value),
    ("fnoma", "aia"): Policy(
        "aia", lambda h, g, rows, **_: _triple_gains(h, g, _aia_triples(rows)),
        count_a3, "mean_sum", Bound("aia", "N*(M+K+3)", lambda n, m, k: n * (m + k + 3)),
        lambda *args: analytics.aia_avg_sum_rate(_split_cfg(*args)).value),
    ("crnoma", "mcg"): Policy(
        "mcg", lambda h, g, rows, **_: _triple_gains(h, g, _a3_triples(rows)),
        count_a3, "mean_r1", Bound("mcg", "N*(M+K)+2", lambda n, m, k: n * (m + k) + 2),
        lambda *args: analytics.mcg_avg_secondary_rate(_qos_cfg(*args)).value),
    ("crnoma", "pu"): Policy(
        "pu", lambda h, g, rows, **_: _triple_gains(h, g, _pu_triples(rows)),
        count_pu, "mean_r1", Bound("pu", "N*K+M", lambda n, m, k: n * k + m),
        lambda *args: analytics.pu_avg_secondary_rate(_qos_cfg(*args)).value),
    ("crnoma", "su"): Policy(
        "su", lambda h, g, rows, **_: _triple_gains(h, g, _su_triples(rows)),
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
