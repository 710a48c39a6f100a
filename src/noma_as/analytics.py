"""Closed-form high-SNR average-rate expressions and their quadrature check.

The selected gains of every policy are order statistics of exponentials, so
their densities are finite mixtures of exponentials obtained from binomial
and multinomial expansions of the relevant CDF powers.  Averaging
``log2(1 + b*rho*x)`` against such a mixture uses

    int_0^inf ln(1 + c*x) * theta * exp(-theta*x) dx = -e^(theta/c) Ei(-theta/c)

and its small-argument behaviour Ei(-t) ~ C + ln t (C is Euler's constant),
which is what makes the high-SNR forms elementary.

Alternating binomial sums are accumulated with ``math.fsum``, so values are
reproducible bit for bit.  Every closed form follows one refusal rule: it
answers for N*M, N*K <= 30 only, beyond which float64 cancellation makes the
expansions meaningless.  The weak-gain-first forms expand the (N-1)-fold
product CDF through one exact big-integer coefficient table, each entry
rounded to float once.  ``quadrature_rate``, the numerical cross-check of
the closed forms, is the only user of ``scipy.integrate``, which scipy loads
on first access, so no figure, sweep or validation run loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy

from .channel import FadingConfig
from .rates import qos_epsilon

EULER_GAMMA = 0.5772156649015329

_LN2 = math.log(2.0)
_MAX_BINOMIAL_SUM = 30


# ---------------------------------------------------------------------------
# configuration and result containers


@dataclass(frozen=True)
class AnalyticConfig:
    """Inputs of the closed forms: geometry counts, exponential rates of the
    two gain populations, linear SNR, and (where needed) the strong-user
    coefficient b or the QoS SINR threshold epsilon."""

    n_bs: int
    m_ue1: int
    k_ue2: int
    omega_h: float
    omega_g: float
    rho: float
    b: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if min(self.n_bs, self.m_ue1, self.k_ue2) < 1:
            raise ValueError("antenna counts must be >= 1")
        if not (self.omega_h > 0 and self.omega_g > 0):
            raise ValueError("rate parameters must be positive")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.b is not None and not 0.0 < self.b < 1.0:
            raise ValueError("b must lie in (0, 1)")
        if self.epsilon is not None and not self.epsilon >= 0.0:
            raise ValueError("epsilon must be nonnegative")

    @classmethod
    def from_fading(cls, fading: FadingConfig, b=None, r_th=None) -> "AnalyticConfig":
        eps = None if r_th is None else float(qos_epsilon(r_th))
        return cls(fading.n_bs, fading.m_ue1, fading.k_ue2,
                   fading.omega_h, fading.omega_g, fading.rho, b, eps)


@dataclass(frozen=True)
class AnalyticResult:
    value: float
    terms: int  # series summands evaluated


def _mu(i: int, n: int) -> float:
    # (-1)^i * C(n, i): signed binomial weight of the CDF-power expansion
    return float((-1) ** i * math.comb(n, i))


def _check_binomial_range(*sizes):
    for s in sizes:
        if s > _MAX_BINOMIAL_SUM:
            raise ValueError(
                f"alternating binomial sum of order {s} exceeds the supported "
                f"range (<= {_MAX_BINOMIAL_SUM}); float64 cancellation would "
                "dominate the result")


# ---------------------------------------------------------------------------
# strong-gain-first policy: average sum rate


def a3_avg_sum_rate(cfg: AnalyticConfig) -> AnalyticResult:
    """High-SNR average sum rate of the strong-gain-first selection.

    (ln rho - C)/ln 2 plus the alternating double binomial sum over the two
    whole-matrix maxima; independent of the power split b.
    """
    nm, nk = cfg.n_bs * cfg.m_ue1, cfg.n_bs * cfg.k_ue2
    _check_binomial_range(nm, nk)
    oh, og = cfg.omega_h, cfg.omega_g
    terms = []
    for i in range(1, nm + 1):
        for j in range(1, nk + 1):
            terms.append(_mu(i, nm) * _mu(j, nk)
                         * math.log((i * oh + j * og) / (i * j * oh * og)))
    value = (math.log(cfg.rho) - EULER_GAMMA + math.fsum(terms)) / _LN2
    return AnalyticResult(value, nm * nk)


# ---------------------------------------------------------------------------
# weak-gain-first policy: average sum rate


@lru_cache(maxsize=64)
def _aia_power_table(n: int, m: int, k: int):
    """Nonzero exact coefficients ((p, q), c_pq) of P(X, Y)**(N-1), where
    P = 1 - sum_{i,j >= 1} mu(i, M) mu(j, K) X^i Y^j, so that P(e^-x omega_h,
    e^-x omega_g) is the CDF of one row's smaller row-maximum.

    The term c_pq of the (N-1)-fold product CDF decays at rate
    xi = p*omega_h + q*omega_g.  N - 1 big-integer convolutions give the
    table exactly; refuses outside N*M, N*K <= 30 before building it.
    """
    _check_binomial_range(n * m, n * k)
    factor = {(0, 0): 1}
    for i in range(1, m + 1):
        for j in range(1, k + 1):
            factor[i, j] = (-1) ** (i + j + 1) * math.comb(m, i) * math.comb(k, j)
    table = {(0, 0): 1}
    for _ in range(n - 1):
        product = {}
        for (p, q), c in table.items():
            for (i, j), f in factor.items():
                product[p + i, q + j] = product.get((p + i, q + j), 0) + c * f
        table = {pq: c for pq, c in product.items() if c}
    return tuple(sorted(table.items()))


def aia_avg_sum_rate(cfg: AnalyticConfig) -> AnalyticResult:
    """High-SNR average sum rate of the weak-gain-first selection.

    log2(1/b) for the saturated weak user plus the mixture average of the
    strong-companion term, each exponential component integrated through the
    small-argument Ei form chi(theta) = C + ln(theta/(b rho)).
    """
    if cfg.b is None:
        raise ValueError("aia_avg_sum_rate needs cfg.b")
    b, rho = cfg.b, cfg.rho
    oh, og = cfg.omega_h, cfg.omega_g
    n, m, k = cfg.n_bs, cfg.m_ue1, cfg.k_ue2

    def chi(u):
        return EULER_GAMMA + math.log(u / (b * rho))

    terms = []
    for (p, q), c in _aia_power_table(n, m, k):
        coef, xi = float(c), p * oh + q * og
        for i in range(1, m + 1):
            for j in range(1, k + 1):
                z = coef * n * i * j * oh * og * _mu(i, m) * _mu(j, k)
                io, jo = i * oh, j * og
                phi_i = io + xi
                phi_j = jo + xi
                phi_1 = io + jo + xi
                phi_2 = io + jo + 2.0 * xi
                terms.append(z * (-chi(io) / (io * phi_j)
                                  - chi(jo) / (jo * phi_i)
                                  + phi_2 * chi(phi_1) / (phi_i * phi_j * phi_1)))
    value = math.log2(1.0 / b) + math.fsum(terms) / _LN2
    return AnalyticResult(value, len(terms))


# ---------------------------------------------------------------------------
# QoS-mode policies: crossing probability and average secondary rates


def prob_h_ge_g(cfg: AnalyticConfig) -> float:
    """Probability that the best UE1 gain beats the best UE2 gain.

    Evaluated in exact rational arithmetic (the summands are ratios of the
    float-exact rate parameters), so the symmetric case returns exactly 0.5
    and the alternating sum loses nothing to cancellation.
    """
    return _prob_h_ge_g(cfg.n_bs * cfg.m_ue1, cfg.n_bs * cfg.k_ue2,
                        cfg.omega_h, cfg.omega_g)


@lru_cache(maxsize=64)
def _prob_h_ge_g(nm: int, nk: int, omega_h: float, omega_g: float) -> float:
    """The exact sum of `prob_h_ge_g`, cached: it depends on the geometry
    only, and costs about a millisecond at N*M = N*K = 8."""
    _check_binomial_range(nm, nk)
    oh, og = Fraction(omega_h), Fraction(omega_g)
    total = Fraction(0)
    for i in range(1, nm + 1):
        for j in range(1, nk + 1):
            sign = (-1) ** (i + j)
            total += (sign * math.comb(nm, i) * math.comb(nk, j)
                      * j * og / (i * oh + j * og))
    return float(total)


def _cr_secondary_summand(io, jo, eps, rho):
    """One summand of `_cr_secondary_series`.  Within 1e-9 of io = eps*jo,
    its singular part eps*jo/(io - eps*jo) * ln((eps + 1)*jo/(io + jo)) is
    taken as -eps/(eps + 1) * log1p(u)/u, u = (io - eps*jo)/((eps + 1)*jo),
    which cancels nothing and is -eps/(eps + 1) at u = 0."""
    num = (eps + 1.0) * jo
    den = io - eps * jo
    if abs(den) <= 1e-9 * max(io, eps * jo):
        u = den / num
        singular = -eps / (eps + 1.0) * (math.log1p(u) / u if u else 1.0)
    else:
        singular = eps * jo / den * math.log(num / (io + jo))
    return singular - math.log(io / rho) - EULER_GAMMA


def _cr_secondary_series(i_max, j_max, cfg) -> AnalyticResult:
    """Average secondary rate for a best-of-i_max UE1 gain paired with a
    best-of-j_max UE2 gain, both orderings integrated out.

    The summand has a removable singularity at i*omega_h = eps*j*omega_g;
    near it, `_cr_secondary_summand` takes the singular part in its log1p
    form, which is exact at the point and cancels nothing around it.
    """
    if cfg.epsilon is None:
        raise ValueError("secondary-rate series needs cfg.epsilon")
    _check_binomial_range(i_max, j_max)
    eps, rho = cfg.epsilon, cfg.rho
    oh, og = cfg.omega_h, cfg.omega_g
    terms = []
    for i in range(1, i_max + 1):
        io = i * oh
        for j in range(1, j_max + 1):
            jo = j * og
            sign = float((-1) ** (i + j) * math.comb(i_max, i) * math.comb(j_max, j))
            terms.append(sign * _cr_secondary_summand(io, jo, eps, rho))
    return AnalyticResult(math.fsum(terms) / _LN2, i_max * j_max)


def pu_avg_secondary_rate(cfg: AnalyticConfig) -> AnalyticResult:
    """High-SNR average secondary rate of primary-first selection: the UE2
    gain is the whole-matrix maximum (N*K-fold), the UE1 gain a row maximum
    (M-fold)."""
    return _cr_secondary_series(cfg.m_ue1, cfg.n_bs * cfg.k_ue2, cfg)


def su_avg_secondary_rate(cfg: AnalyticConfig) -> AnalyticResult:
    """High-SNR average secondary rate of secondary-first selection: same
    summand with the maxima swapped (N*M-fold UE1, K-fold UE2)."""
    return _cr_secondary_series(cfg.n_bs * cfg.m_ue1, cfg.k_ue2, cfg)


def mcg_avg_secondary_rate(cfg: AnalyticConfig) -> AnalyticResult:
    """Total-probability mixture of the primary-first and secondary-first
    averages, weighted by which whole-matrix maximum wins."""
    p_su = prob_h_ge_g(cfg)
    pu = pu_avg_secondary_rate(cfg)
    su = su_avg_secondary_rate(cfg)
    value = (1.0 - p_su) * pu.value + p_su * su.value
    return AnalyticResult(value, pu.terms + su.terms
                          + cfg.n_bs ** 2 * cfg.m_ue1 * cfg.k_ue2)


# ---------------------------------------------------------------------------
# quadrature oracle


def quadrature_rate(pdf, b, rho, abs_tol=1e-8) -> float:
    """Numerical E[log2(1 + b*rho*X)] for X with density ``pdf`` on [0, inf).

    Works at any SNR, so it cross-checks the asymptotic closed forms from
    the outside.  The support is probed on a log grid to locate the density
    scale, the upper cutoff grows until the tail mass drops below 1e-12, and
    the integral is accumulated over log-spaced segments so the rate knee at
    1/(b*rho) and the density scale may sit many decades apart.  Raises if
    the accumulated error estimate exceeds ``abs_tol``.
    """
    if not (b > 0 and rho > 0):
        raise ValueError("b and rho must be positive")
    probe = 10.0 ** np.arange(-18.0, 19.0)
    dens = np.asarray([float(pdf(x)) for x in probe])
    if not np.any(dens > 0.0):
        raise ValueError("pdf is zero on the whole probe grid 1e-18..1e18")
    scale = float(probe[int(np.argmax(dens * probe))])

    cutoff = scale
    for _ in range(200):
        seg, _ = scipy.integrate.quad(pdf, cutoff, 2.0 * cutoff, limit=100)
        if abs(seg) < 1e-13:
            break
        cutoff *= 2.0
    else:
        raise RuntimeError("could not find a 1e-12 tail cutoff for the pdf")

    knee = 1.0 / (b * rho)
    points = [0.0]
    edge = knee
    while edge < cutoff:
        if edge > 0.0:
            points.append(edge)
        edge *= 100.0
    points.append(cutoff)

    def f(x):
        return math.log2(1.0 + b * rho * x) * pdf(x)

    total = 0.0
    err = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        v, e = scipy.integrate.quad(f, lo, hi, epsabs=abs_tol / (2 * len(points)),
                                    epsrel=1e-12, limit=200)
        total += v
        err += e
    if err > abs_tol:
        raise RuntimeError(
            f"quadrature did not converge to {abs_tol:g}; achieved {err:g}")
    return total
