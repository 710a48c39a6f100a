"""Independent reference implementations used to check the package.

The plain-loop searches use the math module alone: they share nothing with
the numpy kernels they verify except the documented tie-break convention
(the lowest index wins a tie: the first row, then the first column).  The full searches
evaluate the package's own objectives on all N*M*K triples, so the row-max
kernels must pick the very same triple.  The per-trial draws are numpy's
own streams: one ``np.random.Generator(np.random.Philox(...))`` per trial,
read with its ``random`` and ``integers`` methods.  The weak-gain-first
closed form is checked against its expansion listed composition by
composition, in float and at 80 digits with mpmath, under an explicit power
split b; the other closed forms against their series as printed, at 80
digits.  The harness's means and standard errors are checked against
numpy's over per-trial arrays drawn, selected and rated in one batch.
"""

import math
from functools import lru_cache

import mpmath
import numpy as np

from noma_as.analytics import EULER_GAMMA, _aia_power_table
from noma_as.channel import sample_channel_batch
from noma_as.rates import _fnoma_sum_rate, cr_rates, fnoma_pair_rates, oma_pair_rates
from noma_as.selection import POLICIES, _first_max, _row_of, row_stats

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


# --- the rate formulas as two branches and four logs ----------------------------
# The package selects each element's SINR first and takes one log per rate.
# These keep the form that computes both rate forms for every element and then
# picks one; every selected element meets the same IEEE operations in the same
# order, so the package's fixed-power rates and CR-NOMA split must match them
# bit for bit.


def ref_cr_power_split(h, g, rho, r_th):
    """(a, b) of the QoS-driven split, clipped into [0, 1]."""
    if not np.all(np.greater(rho, 0)) or not np.all(np.greater(r_th, 0)):
        raise ValueError("rho and r_th must be positive")
    with np.errstate(over="ignore"):
        eps = np.exp2(r_th) - 1.0
    if not np.all(np.isfinite(eps)):
        raise ValueError(f"r_th = {r_th}: 2**r_th - 1 is not finite")
    d = np.greater_equal(h, g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        den = rho * g * (eps + 1.0)
        b_ue1_strong = (rho * g - eps) / den
        big = np.isinf(den)
        if np.any(big):
            b_ue1_strong = np.where(big, (1.0 - eps / (rho * g)) / (eps + 1.0),
                                    b_ue1_strong)
        b_ue2_strong = eps / (rho * g)
    b = np.where(d, np.maximum(b_ue1_strong, 0.0), np.minimum(b_ue2_strong, 1.0))
    return 1.0 - b, b


def _ref_strong_rate(x, b, rho):
    return np.log2(1.0 + rho * b * x)


def _ref_weak_rate(x, a, b, rho):
    return np.log2(1.0 + a * x / (b * x + 1.0 / rho))


def _ref_pair(h, g, a, b, rho):
    d = np.greater_equal(h, g)
    r1 = np.where(d, _ref_strong_rate(h, b, rho), _ref_weak_rate(h, a, b, rho))
    r2 = np.where(d, _ref_weak_rate(g, a, b, rho), _ref_strong_rate(g, b, rho))
    return r1, r2


def ref_fnoma_pair_rates(h, g, b, rho):
    """(r1, r2) with the strong user's power share b, the weak user's
    a = 1 - b."""
    return _ref_pair(h, g, 1.0 - b, b, rho)


# --- the CR-NOMA rates at 50 digits ---------------------------------------------
# The package rates CR-NOMA without the split coefficient, in forms equal to
# the two-branch formulas in exact arithmetic that round differently.  These
# evaluate the two-branch formulas, with the clipped split, on the exact
# values of the float inputs.


def cr_rates_mp(h, g, rho, r_th, dps=50):
    """(r1, r2) under the QoS-driven clipped split, as mpf at `dps` digits."""
    with mpmath.workdps(dps):
        h, g, rho, r_th = (mpmath.mpf(float(v)) for v in (h, g, rho, r_th))
        eps = mpmath.power(2, r_th) - 1
        if h >= g:
            b = max((rho * g - eps) / (rho * g * (eps + 1)), mpmath.mpf(0))
        else:
            b = min(eps / (rho * g), mpmath.mpf(1))
        a = 1 - b
        strong = lambda x: mpmath.log(1 + rho * b * x, 2)
        weak = lambda x: mpmath.log(1 + a * x / (b * x + 1 / rho), 2)
        return (strong(h), weak(g)) if h >= g else (weak(h), strong(g))


def cr_condition(h, g, rho, r_th):
    """How much the cancellation rho*g - eps of the secondary rate, where UE1
    is strong and the split inside (0, 1), magnifies a rounding of an input:
    (rho*g + eps) / (rho*g - eps) there, else 1.  Any float form of the rate
    shares it, the two-branch formulas included."""
    eps = 2.0 ** float(r_th) - 1.0
    if h >= g and rho * g > eps:
        return (rho * g + eps) / (rho * g - eps)
    return 1.0


# --- per-trial rates of one point ----------------------------------------------
# The harness reduces each leaf of trials where it is simulated and merges the
# leaves' moments.  This keeps every trial of a point in one array instead, so
# numpy's mean and std over it are the reference for that reduction.


def select(key, h, g, **kwargs):
    """The stacked UE1 and UE2 gains that policy `key` = (mode, policy)
    selects on stacked h and g, through the `choose` and `gains` the harness
    runs; kwargs are `choose`'s rho, b, r_th, seed and t0."""
    policy, rows = POLICIES[key], row_stats(h, g)
    return policy.gains(policy.choose(h, g, rows=rows, **kwargs), h, g, rows)


def row_triple(h, g, row):
    """(n, m, k) of the row-max policy choosing the row n =
    row(row_stats(h, g)): n with the first column of each row maximum."""
    n = row(row_stats(h, g))
    return (n,) + tuple(_first_max(_row_of(x, n))[1] for x in (h, g))


def per_trial_rates(fading, mode, policy, trials, seed, b=None, r_th=None):
    """(r1, r2) of one policy at one point, one entry per trial, drawn,
    selected and rated in one batch."""
    h, g = sample_channel_batch(fading, seed, 0, trials)
    rho = fading.rho
    h_sel, g_sel = select((mode, policy), h, g, rho=rho, b=b, r_th=r_th, seed=seed,
                          t0=0)
    if mode == "fnoma":
        return fnoma_pair_rates(h_sel, g_sel, b, rho)
    if mode == "oma":
        return oma_pair_rates(h_sel, g_sel, rho)
    return cr_rates(h_sel, g_sel, rho, r_th)


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


def _first_argmax(values):
    """Index of the first maximum of a sequence, by plain comparison."""
    best = 0
    for i, v in enumerate(values):
        if v > values[best]:
            best = i
    return best


# the row each row-max policy picks maximizes this key of the row's maxima
_ROW_KEYS = {"a3": max, "mcg": max, "aia": min,
             "pu": lambda h_max, g_max: g_max, "su": lambda h_max, g_max: h_max}


def policy_triple(key, h, g, b, rho, r_th, seed, trial):
    """The triple (n, m, k) that policy `key` = (mode, policy) picks on one
    instance h (N, M), g (N, K), or (n1, m, n2, k) for oma_es, by plain
    loops; every tie goes to the lowest index."""
    mode, policy = key
    if policy == "es":
        if mode == "fnoma":
            return brute_es_fnoma(h, g, b, rho)[0]
        return brute_es_crnoma(h, g, rho, r_th)[0]
    if policy == "random":
        return random_triple(seed, trial, (h.shape[0], h.shape[1], g.shape[1]))
    if policy == "oma_es":
        return global_max(h)[1] + global_max(g)[1]
    rule = _ROW_KEYS[policy]
    n = _first_argmax([rule(max(h[i]), max(g[i])) for i in range(h.shape[0])])
    return n, _first_argmax(list(h[n])), _first_argmax(list(g[n]))


def max_row_stats(h, g):
    """(h_max, g_max) of stacked h (T, N, M) and g (T, N, K) by numpy's max
    along the antenna axis, each transposed to the (N, T) of
    `selection.row_stats`."""
    return h.max(axis=2).T, g.max(axis=2).T


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


# --- full N*M*K searches over stacked realizations -------------------------------


def _unravel_nmk(idx, m_dim, k_dim):
    n = idx // (m_dim * k_dim)
    rem = idx - n * (m_dim * k_dim)
    return n, rem // k_dim, rem % k_dim


def full_es_fnoma_triples(h, g, b, rho):
    """Every (n, m, k)'s fixed-power sum rate; the first maximum's triple."""
    tcount, _, m_dim = h.shape
    k_dim = g.shape[2]
    h4 = h[:, :, :, None]
    g4 = g[:, :, None, :]
    obj = _fnoma_sum_rate(h4, g4, b, rho)
    idx = obj.reshape(tcount, -1).argmax(axis=1)
    return _unravel_nmk(idx, m_dim, k_dim)


def full_es_crnoma_triples(h, g, rho, r_th):
    """Every (n, m, k)'s secondary rate; the first maximum's triple."""
    tcount, _, m_dim = h.shape
    k_dim = g.shape[2]
    h4 = np.broadcast_to(h[:, :, :, None], h.shape + (k_dim,))
    g4 = np.broadcast_to(g[:, :, None, :], g.shape[:2] + (m_dim, k_dim))
    r1, _ = cr_rates(h4, g4, rho, r_th)
    idx = r1.reshape(tcount, -1).argmax(axis=1)
    return _unravel_nmk(idx, m_dim, k_dim)


# --- the weak-gain-first strong-companion density ------------------------------
# The closed form integrates this density term by term; the tests hold it to
# simulated histograms and to quadrature.


@lru_cache(maxsize=64)
def _aia_strong_mixture(n, m, k, oh, og):
    """Exponential-mixture representation (weights w, rates theta) of the
    density of the strong companion gain under weak-gain-first selection.

    Derived by conditioning on the winning row and expanding every CDF
    factor, the other N - 1 rows through the exact table of
    ``analytics._aia_power_table``; consolidating equal decay rates keeps
    the representation small.  The printed three-psi-term variant of this
    density carries extra pieces that cancel across the expansion (and
    vanish identically only for N >= 2), so the reduced form below is the
    one that is also correct at N = 1.
    """
    acc = {}
    for (p, q), c in _aia_power_table(n, m, k):
        coef, xi = float(c), p * oh + q * og
        for i in range(1, m + 1):
            for j in range(1, k + 1):
                z = coef * n * i * j * oh * og * _mu(i, m) * _mu(j, k)
                phi_i = i * oh + xi
                phi_j = j * og + xi
                for weight, rate in ((z / phi_j, i * oh), (z / phi_i, j * og),
                                     (-z * (1.0 / phi_i + 1.0 / phi_j),
                                      i * oh + j * og + xi)):
                    acc.setdefault(rate, []).append(weight)
    return np.array([math.fsum(v) for v in acc.values()]), np.array(list(acc))


def aia_strong_pdf(x, cfg):
    """Density of the strong companion gain under weak-gain-first selection,
    at a scalar or an array of nonnegative points."""
    xs = np.asarray(x, dtype=np.float64)
    if np.any(xs < 0.0):
        raise ValueError("density support is x >= 0")
    w, th = _aia_strong_mixture(cfg.n_bs, cfg.m_ue1, cfg.k_ue2, cfg.omega_h, cfg.omega_g)
    val = np.exp(-xs[..., None] * th) @ w
    return float(val) if np.ndim(x) == 0 else val


# --- the weak-gain-first expansion, one multinomial composition at a time -------
# The package reads P(X, Y)**(N-1), P = 1 - sum mu(i, M) mu(j, K) X^i Y^j, from
# an exact coefficient table.  These list all C(N-1+M*K, M*K) compositions of
# N - 1 over P's 1 + M*K terms instead.


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _mu(i, n):
    return (-1) ** i * math.comb(n, i)


def aia_composition_terms(n, m, k):
    """One exact ((p, q), coefficient) per composition of the (N-1)-fold
    product; terms with equal (p, q) decay at the same rate."""
    pairs = [(i, j, -_mu(i, m) * _mu(j, k)) for i in range(1, m + 1)
             for j in range(1, k + 1)]
    out = []
    for ell in _compositions(n - 1, m * k + 1):
        coef = math.factorial(n - 1)
        for l in ell:
            coef //= math.factorial(l)
        p = q = 0
        for (i, j, base), l in zip(pairs, ell[1:]):
            if l:
                coef *= base ** l
                p, q = p + i * l, q + j * l
        out.append(((p, q), coef))
    return out


def _aia_pieces(coef, xi, i, j, n, m, k, oh, og):
    """The (weight, rate) pairs of one (composition, i, j) summand of the
    average sum rate, which is sum weight * chi(rate), chi(u) = C + ln(u/(b
    rho)), in the arithmetic of coef, xi, oh and og."""
    z = coef * n * i * j * oh * og * _mu(i, m) * _mu(j, k)
    io, jo = i * oh, j * og
    phi_i = io + xi
    phi_j = jo + xi
    phi_1 = io + jo + xi
    phi_2 = io + jo + 2 * xi
    return [(-z / (io * phi_j), io), (-z / (jo * phi_i), jo),
            (z * phi_2 / (phi_i * phi_j * phi_1), phi_1)]


def aia_rate_from_float_compositions(cfg, b):
    """The average sum rate log2(1/b) + sum/ln 2 under the power split b,
    with every composition's weight built in float as float(multinomial) *
    base**l per part, summed with math.fsum."""
    n, m, k, oh, og = cfg.n_bs, cfg.m_ue1, cfg.k_ue2, cfg.omega_h, cfg.omega_g
    pair_rate = [(-float(_mu(i, m)) * float(_mu(j, k)), i * oh + j * og)
                 for i in range(1, m + 1) for j in range(1, k + 1)]
    terms = []
    for ell in _compositions(n - 1, m * k + 1):
        coef = math.factorial(n - 1)
        for l in ell:
            coef //= math.factorial(l)
        weight = float(coef)
        xi = 0.0
        for (base, rate), l in zip(pair_rate, ell[1:]):
            if l:
                weight *= base ** l
                xi += rate * l
        terms += [w * (EULER_GAMMA + math.log(u / (b * cfg.rho)))
                  for i in range(1, m + 1) for j in range(1, k + 1)
                  for w, u in _aia_pieces(weight, xi, i, j, n, m, k, oh, og)]
    return math.log2(1.0 / b) + math.fsum(terms) / math.log(2.0)


@lru_cache(maxsize=64)
def _aia_sums_mp(n, m, k, oh, og, dps):
    """(sum weight * ln rate, sum weight) over every (composition, i, j)
    summand at `dps` digits, the compositions grouped by decay rate in exact
    integers first, and the weights of each rate summed before its log."""
    grouped = {}
    for pq, coef in aia_composition_terms(n, m, k):
        grouped[pq] = grouped.get(pq, 0) + coef
    with mpmath.workdps(dps):
        oh, og = mpmath.mpf(oh), mpmath.mpf(og)
        by_rate = {}
        for (p, q), coef in grouped.items():
            for i in range(1, m + 1):
                for j in range(1, k + 1):
                    for w, u in _aia_pieces(mpmath.mpf(coef), p * oh + q * og, i, j,
                                            n, m, k, oh, og):
                        by_rate.setdefault(u, []).append(w)
        weights = {u: mpmath.fsum(ws) for u, ws in by_rate.items()}
        return (mpmath.fsum(w * mpmath.log(u) for u, w in weights.items()),
                mpmath.fsum(weights.values()))


def aia_rate_mp(cfg, b, dps=80):
    """The average sum rate log2(1/b) + sum weight * chi(rate) / ln 2 under
    the power split b at `dps` digits; the parts that depend on neither b
    nor rho are cached per geometry."""
    logs, weights = _aia_sums_mp(cfg.n_bs, cfg.m_ue1, cfg.k_ue2, cfg.omega_h,
                                 cfg.omega_g, dps)
    with mpmath.workdps(dps):
        b, rho = mpmath.mpf(b), mpmath.mpf(cfg.rho)
        total = logs + (mpmath.euler - mpmath.log(b * rho)) * weights
        return float(mpmath.log(1 / b, 2) + total / mpmath.log(2))


# --- the other closed forms at 80 digits ----------------------------------------
# Each sums its series as printed, on the exact values of cfg's floats, and
# caches the part of the sum that does not depend on rho per geometry.


@lru_cache(maxsize=64)
def _a3_sum_mp(nm, nk, oh, og, dps):
    with mpmath.workdps(dps):
        oh, og = mpmath.mpf(oh), mpmath.mpf(og)
        return mpmath.fsum(_mu(i, nm) * _mu(j, nk) * mpmath.log((i * oh + j * og)
                                                                 / (i * j * oh * og))
                           for i in range(1, nm + 1) for j in range(1, nk + 1))


def a3_rate_mp(cfg, dps=80):
    """(ln rho - C + sum mu(i, NM) mu(j, NK) ln((i oh + j og)/(i j oh og)))/ln 2."""
    total = _a3_sum_mp(cfg.n_bs * cfg.m_ue1, cfg.n_bs * cfg.k_ue2, cfg.omega_h,
                       cfg.omega_g, dps)
    with mpmath.workdps(dps):
        return float((mpmath.log(mpmath.mpf(cfg.rho)) - mpmath.euler + total) / mpmath.log(2))


@lru_cache(maxsize=256)
def _cr_sums_mp(i_max, j_max, oh, og, eps, dps):
    """(sum sign, sum sign * (singular - ln io)) of the CR-NOMA series at
    `dps` digits, its singular part taken as its limit -eps/(eps + 1) where
    io = eps*jo exactly."""
    with mpmath.workdps(dps):
        oh, og, eps = (mpmath.mpf(v) for v in (oh, og, eps))
        signs, total = 0, mpmath.mpf(0)
        for i in range(1, i_max + 1):
            io = i * oh
            for j in range(1, j_max + 1):
                jo = j * og
                den = io - eps * jo
                singular = (-eps / (eps + 1) if den == 0
                            else eps * jo / den * mpmath.log((eps + 1) * jo / (io + jo)))
                sign = _mu(i, i_max) * _mu(j, j_max)
                signs += sign
                total += sign * (singular - mpmath.log(io))
        return signs, total


def _cr_series_mp(i_max, j_max, cfg, dps):
    signs, total = _cr_sums_mp(i_max, j_max, cfg.omega_h, cfg.omega_g, cfg.epsilon, dps)
    with mpmath.workdps(dps):
        return (total + signs * (mpmath.log(mpmath.mpf(cfg.rho)) - mpmath.euler)) / mpmath.log(2)


def cr_secondary_series_mp(i_max, j_max, cfg, dps=60):
    """The average secondary rate of a best-of-i_max UE1 gain paired with a
    best-of-j_max UE2 gain at `dps` digits: each summand, sign * (eps*jo/(io
    - eps*jo) * ln((eps + 1)*jo/(io + jo)) - ln(io/rho) - C), over ln 2."""
    return float(_cr_series_mp(i_max, j_max, cfg, dps))


def pu_rate_mp(cfg, dps=80):
    return cr_secondary_series_mp(cfg.m_ue1, cfg.n_bs * cfg.k_ue2, cfg, dps)


def su_rate_mp(cfg, dps=80):
    return cr_secondary_series_mp(cfg.n_bs * cfg.m_ue1, cfg.k_ue2, cfg, dps)


@lru_cache(maxsize=64)
def _prob_mp(nm, nk, oh, og, dps):
    with mpmath.workdps(dps):
        oh, og = mpmath.mpf(oh), mpmath.mpf(og)
        return mpmath.fsum(_mu(i, nm) * _mu(j, nk) * j * og / (i * oh + j * og)
                           for i in range(1, nm + 1) for j in range(1, nk + 1))


def mcg_rate_mp(cfg, dps=80):
    """(1 - p) * pu + p * su, p = P(best UE1 gain >= best UE2 gain)."""
    n, m, k = cfg.n_bs, cfg.m_ue1, cfg.k_ue2
    p = _prob_mp(n * m, n * k, cfg.omega_h, cfg.omega_g, dps)
    with mpmath.workdps(dps):
        return float((1 - p) * _cr_series_mp(m, n * k, cfg, dps)
                     + p * _cr_series_mp(n * m, k, cfg, dps))
