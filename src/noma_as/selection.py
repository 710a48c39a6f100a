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
gain and to pu when it falls short.

Tie-breaking everywhere: the lowest index wins, the row before the column
(row-major order); a row-max policy whose key ties between a UE1 and a
UE2 gain takes the lower row.  Ties have probability zero under
continuous fading; the rules exist so results are reproducible.

random draws trial t's (n, m, k) from its policy-domain Philox blocks (see
``channel``) exactly as numpy's ``Generator.integers(0, [N, M, K])`` does
on the per-trial generator ``Philox(key=(seed, 1), counter=(0, 0, 0, t))``.
Each dimension above 1 reads the next 32-bit word, the low half of a 64-bit
word before its high half; a dimension of 1 reads none.  The value is
``(u32 * dim) >> 32``, and Lemire's rejection (ACM TOMACS 2019) makes it
exactly uniform: when ``(u32 * dim) mod 2**32 < (2**32 - dim) mod dim`` the
trial draws again from its next word.

The kernels read stacked realizations of shape (T, N, M)/(T, N, K) and
their ``row_stats`` (the per-row maxima), and return 0-based index arrays.
They work one column at a time over the short antenna axes: numpy runs
``argmax`` along an axis of length 2-4, or a ufunc whose inner axis is that
short, as one tiny loop per trial.  ``_first_max`` takes the maximum and its
first index over a list of (T,) columns, which the sampler lays out
contiguously.  ``POLICIES`` is the one table of (mode, policy) pairs that
the harness, the figures and the CLI read, and ``METRIC`` the one table of
the mean each mode reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import analytics
from .channel import POLICY_DOMAIN, _LOW32, _philox_block, _trial_counters
from .rates import _cr_secondary_rate, _fnoma_sum_rate, qos_epsilon


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
    """Per-row maxima of stacked h (T, N, M) and g (T, N, K), each of shape
    (N, T): row n is BS antenna n."""

    h_max: np.ndarray
    g_max: np.ndarray


def _first_max(columns):
    """Elementwise maximum of a sequence of equal-shape arrays and the index
    of the first one that holds it.  Column j raises the index only where it
    beats every earlier column, ``max(arg, j * (column > best))``, so a tie
    keeps the lowest index."""
    best = columns[0]
    arg = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, len(columns)):
        column = columns[j]
        np.maximum(arg, j * (column > best), out=arg)
        best = np.maximum(best, column)
    return best, arg


def row_stats(h, g):
    """The row maxima that the search and row-max kernels read, reduced
    over the middle axis of each (N, C, T) view, which the sampler lays out
    contiguously."""
    return RowStats(*(np.maximum.reduce(x.transpose(1, 2, 0), axis=1) for x in (h, g)))


def _row_at(n):
    """Flat indices of row n[t] of each trial t into an (N, T) array."""
    return n * n.size + np.arange(n.size)


def _a3_row(rows):
    """Largest single gain anywhere: its row, whose maxima pair it with the
    best same-row companion."""
    return _first_max(np.maximum(rows.h_max, rows.g_max))[1]


def _aia_row(rows):
    """Row whose smaller row-maximum is largest."""
    return _first_max(np.minimum(rows.h_max, rows.g_max))[1]


def _pu_row(rows):
    """Row of the global best UE2 link; UE1 takes its best on it."""
    return _first_max(rows.g_max)[1]


def _su_row(rows):
    """Row of the global best UE1 link; UE2 takes its best on it."""
    return _first_max(rows.h_max)[1]


def _es_triples(h, g, rows, objective, pick):
    """(candidates, v*, (n, m, k)): the objective at each trial's N row-max
    candidates, an (N, T) array; each trial's optimum v* of objective(h[n,
    m], g[n, k]); and the first row-major triple reaching it, or None unless
    `pick`.

    The optimum v* is the best of the N candidates (see the module
    docstring), and the first row reaching v* holds the first optimal
    triple; its first M x K entry equal to v* is that triple, so the
    objective at the triple is v* bit for bit.  The row's gains are
    gathered into (M, T) and (K, T) so that the grid is (M, K, T).
    """
    candidates = objective(rows.h_max, rows.g_max)
    if not pick:
        return candidates, np.maximum.reduce(candidates, axis=0), None
    top, n = _first_max(candidates)
    grid = objective(_row_of(h, n)[:, None], _row_of(g, n)[None])
    _, idx = _first_max((grid == top).reshape(-1, n.size))
    return candidates, top, (n,) + divmod(idx, g.shape[2])


def _row_of(x, n):
    """The gains x[t, n[t], :] of stacked x (T, N, C), as a (C, T) array."""
    t_dim, _, c_dim = x.shape
    at = n * (c_dim * t_dim) + np.arange(t_dim)
    # a flat index into x laid out as (N, C, T), which the sampler's is
    return np.take(x.transpose(1, 2, 0), at + t_dim * np.arange(c_dim)[:, None])


def _es_fnoma_triples(h, g, rows, b, rho, pick=True):
    """Exhaustive search maximizing the fixed-power sum rate r1 + r2: its
    optimum and, if `pick`, its triple (see `_es_triples`)."""
    return _es_triples(h, g, rows, lambda x, y: _fnoma_sum_rate(x, y, b, rho), pick)


def _es_crnoma_triples(h, g, rows, rho, r_th, pick=True):
    """Exhaustive search maximizing the secondary rate r1 under the QoS
    floor: its optimum and, if `pick`, its triple (see `_es_triples`).

    Infeasible triples carry r1 = 0, so they are admissible but dominated;
    an all-infeasible trial picks (0, 0, 0).
    """
    eps = qos_epsilon(r_th)
    return _es_triples(h, g, rows, lambda x, y: _cr_secondary_rate(x, y, rho, eps), pick)


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
                # low half of each word first, as numpy's next_uint32 reads it
                halves = np.stack(_philox_block(seed, POLICY_DOMAIN,
                                                (words.shape[1] // 8 + 1, 0, 0, trials)),
                                  axis=1).astype("<u8", copy=False).view("<u4")
                words = np.concatenate([words, halves], axis=1) if words.size else halves
            product = words[todo, used[todo]].astype(np.uint64) * np.uint64(dim)
            used[todo] += 1
            accept = (product & _LOW32) >= threshold
            value[todo[accept]] = product[accept] >> np.uint64(32)
            todo = todo[~accept]
        out.append(value)
    return tuple(out)


def _oma_indices(h, g):
    """(n1, m, n2, k): the first row-major maximum of h and of g."""
    out = []
    for x in (h, g):
        _, flat = _first_max([x[:, n, j] for n in range(x.shape[1]) for j in range(x.shape[2])])
        out += divmod(flat, x.shape[2])
    return tuple(out)


def _triple_gains(h, g, choice):
    """Stacked selected gains h[t, n1, m] and g[t, n2, k] of a choice (n1, m,
    n2, k), or of a triple (n, m, k), where n1 = n2 = n."""
    n1, m, n2, k = choice if len(choice) == 4 else (*choice[:2], *choice[::2])
    t = np.arange(h.shape[0])
    return h[t, n1, m], g[t, n2, k]


# ---------------------------------------------------------------------------
# the policy table


class Bound(NamedTuple):
    """An advertised comparison-count bound, as `noma-as bench` audits it.
    An exhaustive search's bound is its count, N*M*K."""

    row: str  # the audit's row name
    text: str  # the bound as printed
    limit: Callable  # (n, m, k) -> value of the bound


@dataclass(frozen=True)
class Policy:
    """Everything the harness, figures and CLI know about one (mode, policy).

    kind names its family, and with it what the choice reads and which
    fields are set:

    - "search", the exhaustive searches: the choice reads rho, b and r_th
      as well as the gains; `optimum` and `bound` are set;
    - "row", the row-max policies: the choice is the flat index
      `_row_at(n)` of each trial's row n, whose maxima are its gains;
      `closed_form` and `bound` are set;
    - "random": the choice reads only the antenna counts, seed and trials;
    - "links", oma's best link per user: the choice reads the gains.

    choose(h, g, rows=, rho=, b=, r_th=, seed=, t0=) returns the choice
    for trials t0, t0+1, ..., where rows is ``row_stats(h, g)``: a row-max
    policy's row index, else the chosen antennas, (n, m, k) or oma's (n1,
    m, n2, k); `gains` turns a choice into the UE1 and UE2 gains.
    closed_form(fading, r_th) is the high-SNR average of its mode's metric,
    `METRIC[mode]`, given r_th exactly when the point sets one: an fnoma
    form refuses a rate floor with a TypeError.  Closed forms and the
    search, random and oma kernels are looked up on their modules at call
    time, so a function replaced there after import (as the benchmark's
    tracer does) is the one that runs.
    optimum(h, g, rows=, rho=, b=, r_th=) returns its mode's metric
    quantity, r1 + r2 (fnoma) or r1 (crnoma), at the N row-max candidates,
    an (N, T) array, and at the policy's choice, their maximum, without
    making the choice.  Each is that quantity's rate formula at its gains
    bit for bit, so a row-max policy's value is its row's candidate.
    """

    column: str  # figure column; `_sim`/`_analytic` pair with a closed form
    kind: str  # "search", "row", "random" or "links"
    choose: Callable
    count: Callable  # (n, m, k) -> eval_count
    bound: Bound | None = None
    closed_form: Callable | None = None
    optimum: Callable | None = None

    def gains(self, choice, h, g, rows):
        """The stacked UE1 and UE2 gains of a choice `choose` made."""
        if self.kind == "row":
            return np.take(rows.h_max, choice), np.take(rows.g_max, choice)
        return _triple_gains(h, g, choice)


def _row_policy(column, row, count, bound, closed_form):
    """A row-max policy choosing the row `row(rows)`, whose closed form is
    the function of that name in `analytics`, given r_th where the point
    sets one."""
    def closed(fading, r_th):
        form = getattr(analytics, closed_form)
        return form(fading) if r_th is None else form(fading, r_th)
    return Policy(column, "row", lambda h, g, rows, **_: _row_at(row(rows)), count, bound, closed)


def _random_choice(h, g, seed, t0, **_):
    count, n_dim, m_dim = h.shape
    return _random_triples(n_dim, m_dim, g.shape[2], seed, t0, count)


# The RateReport mean of each mode: what its searches maximize, its figures
# plot and its closed forms average.
METRIC = {"fnoma": "mean_sum", "crnoma": "mean_r1", "oma": "mean_sum"}

# Within a mode, entries are in figure-column order; the bounded entries are
# in the order `noma-as bench` prints them.
POLICIES = {
    ("fnoma", "es"): Policy(
        "fnoma_es", "search",
        lambda h, g, rows, rho, b, **_: _es_fnoma_triples(h, g, rows, b, rho)[2],
        count_es, Bound("es_fnoma", "N*M*K", count_es),
        optimum=lambda h, g, rows, rho, b, **_: _es_fnoma_triples(
            h, g, rows, b, rho, pick=False)[:2]),
    ("crnoma", "es"): Policy(
        "cr_es", "search",
        lambda h, g, rows, rho, r_th, **_: _es_crnoma_triples(h, g, rows, rho, r_th)[2],
        count_es, Bound("es_crnoma", "N*M*K", count_es),
        optimum=lambda h, g, rows, rho, r_th, **_: _es_crnoma_triples(
            h, g, rows, rho, r_th, pick=False)[:2]),
    ("fnoma", "a3"): _row_policy(
        "a3", _a3_row, count_a3, Bound("a3", "N*(M+K+3)", lambda n, m, k: n * (m + k + 3)),
        "a3_avg_sum_rate"),
    ("fnoma", "aia"): _row_policy(
        "aia", _aia_row, count_a3, Bound("aia", "N*(M+K+3)", lambda n, m, k: n * (m + k + 3)),
        "aia_avg_sum_rate"),
    ("crnoma", "mcg"): _row_policy(
        "mcg", _a3_row, count_a3, Bound("mcg", "N*(M+K)+2", lambda n, m, k: n * (m + k) + 2),
        "mcg_avg_secondary_rate"),
    ("crnoma", "pu"): _row_policy(
        "pu", _pu_row, count_pu, Bound("pu", "N*K+M", lambda n, m, k: n * k + m),
        "pu_avg_secondary_rate"),
    ("crnoma", "su"): _row_policy(
        "su", _su_row, count_su, Bound("su", "N*M+K", lambda n, m, k: n * m + k),
        "su_avg_secondary_rate"),
    ("fnoma", "random"): Policy("fnoma_ra", "random", _random_choice, lambda n, m, k: 0),
    ("crnoma", "random"): Policy("cr_ra", "random", _random_choice, lambda n, m, k: 0),
    ("oma", "oma_es"): Policy("oma_es", "links", lambda h, g, **_: _oma_indices(h, g), count_oma),
}
