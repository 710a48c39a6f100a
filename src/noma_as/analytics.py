"""Closed-form high-SNR average-rate expressions and their quadrature check.

The selected gains of every policy are order statistics of exponentials, so
their densities are finite mixtures of exponentials (binomial and
multinomial expansions of CDF powers).  A component of rate theta averages
ln(1 + c*x) to -e^(theta/c) Ei(-theta/c) ~ ln(c/theta) - C at high SNR (C is
Euler's constant), and the weights sum to 1, so every closed form is
(ln rho + S)/ln 2: the offset S depends on the geometry (N, M, K, omega_h,
omega_g and, in QoS mode, epsilon), not on rho nor on the power split b.

S is a sum of c*ln(a) over exact rational pairs (a, c), built from the
float rate parameters taken exactly and grouped by argument, minus C, plus
a rational constant.  `_Offset`, the one evaluator, sums ln rho + S in
``decimal`` at the precision its condition sum|t_i| / |sum t_i| asks for,
found by iterating, and rounds to float once: a value is within an ulp of
the exact one.  Offsets are cached per geometry.  A closed form refuses
(ValueError) a series of more than `_MAX_TERMS` terms, before building any
coefficient, and a sum that cancels more than the 80 digits of C kept here
can hold, unsummed when a first guess already asks for more.
``quadrature_rate`` alone uses ``scipy.integrate``, which scipy loads on
first access, so no figure, sweep or validation run loads it.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import scipy

from .channel import FadingConfig, _is_real
from .rates import qos_epsilon

EULER_GAMMA = 0.5772156649015329
# C to 80 significant digits, the most an offset is evaluated at
_GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992359880576723488486772677766467")
_MAX_DIGITS = 80
_LN2 = Decimal(2).ln(Context(prec=_MAX_DIGITS))
# Most terms of a series; near it a closed form takes up to 4 s on 2 CPUs
_MAX_TERMS = 2 ** 15
# Digits beyond the condition's: 20 for a float (17 needed) and the sum's error
_GUARD = 24
# Most |ln rho + S|, so a sum whose first guess would need more than
# _MAX_DIGITS digits even at this |ln rho + S| is refused unsummed.  ln x of
# a positive double x is within [-745, 710].  S is the mean log of the gain
# a high-SNR rate reads: one of n <= 2**16 gains (a3, aia), so between the
# mean log of the smallest at the largest rate, -ln(n*omega) - C >= -722,
# and the log of the mean of the largest at the smallest, ln(H_n/omega) <=
# 748; or (QoS) a UE1 gain over a factor in [1, eps + 1], which lowers it by
# up to ln(eps + 1) <= 710.  So |ln rho + S| <= 745 + 722 + 710 < 2500.
_MAX_VALUE = 2500


def _dec(x):  # a Fraction or int, rounded to the context's precision
    return Decimal(x.numerator) / x.denominator


class _Offset:
    """S = sum c*ln(a) - C + rational over exact pairs (a, c), grouped by
    argument, evaluated when built at the digits a first guess asks for
    (sum|t_i| to 4 digits, |ln rho + S| >= 1); `result` adds ln rho.  A
    guess that needs more than `_MAX_DIGITS` digits at |ln rho + S| =
    `_MAX_VALUE` is not summed, and `result` refuses it."""

    def __init__(self, pairs, rational=0):
        self.logs, self.rational = {}, rational
        for a, c in pairs:
            self.logs[a] = self.logs.get(a, 0) + c
        with localcontext(Context(prec=4)):
            size = sum(abs(_dec(c) * Decimal(math.log(a))) for a, c in self.logs.items()) + 1
            guess = size * (len(self.logs) + 3)
            self._at = None
            if _GUARD + (guess / _MAX_VALUE).adjusted() <= _MAX_DIGITS:
                self._sum(min(_GUARD + 1 + guess.adjusted(), _MAX_DIGITS))

    def _sum(self, digits):
        """Sets `_at` to (digits, S, sum|t_i|), S at `digits` digits."""
        with localcontext(Context(prec=digits)):
            t = [_dec(c) * _dec(a).ln() for a, c in self.logs.items()]
            t += [-_GAMMA, _dec(self.rational)]
            self._at = digits, sum(t), sum(map(abs, t))

    def result(self, rho) -> float:
        """(ln rho + S)/ln 2, rounded to float once.  A sum errs by under
        10**(1.6 - digits) * terms * sum|t_i|; below 10**-20 of |ln rho + S|
        it is kept, else redone at the digits its computed condition asks."""
        terms = len(self.logs) + 3
        while self._at is not None:
            digits, total, size = self._at
            with localcontext(Context(prec=digits)):
                ln_rho = Decimal(rho).ln()
                value = ln_rho + total
                need = (_GUARD + ((size + abs(ln_rho)) / abs(value) * terms).adjusted()
                        if value else _MAX_DIGITS + 1)
                if need <= digits:
                    return float(value / _LN2)
            if digits == _MAX_DIGITS:
                break
            self._sum(min(need, _MAX_DIGITS))
        raise ValueError(f"the sum cancels more than {_MAX_DIGITS} digits can hold")


def _alternating(i_max, j_max, terms=None):
    """[(i, j, (-1)**(i+j) C(i_max, i) C(j_max, j))], i <= i_max, j <= j_max:
    the signed weights of two expanded CDF powers, which sum to 1.  Refuses
    a series of more than `_MAX_TERMS` terms, i_max*j_max unless `terms`."""
    if (terms or i_max * j_max) > _MAX_TERMS:
        raise ValueError(f"the series has {terms or i_max * j_max} terms, above {_MAX_TERMS}")
    return [(i, j, (-1) ** (i + j) * math.comb(i_max, i) * math.comb(j_max, j))
            for i in range(1, i_max + 1) for j in range(1, j_max + 1)]


def _integers(omega_h, omega_g):
    """Integers (A, B, D) with omega_h = A/D and omega_g = B/D."""
    d = math.lcm(*(Fraction(w).denominator for w in (omega_h, omega_g)))
    return (*(int(Fraction(w) * d) for w in (omega_h, omega_g)), d)


# ---------------------------------------------------------------------------
# strong-gain-first policy: average sum rate


def a3_avg_sum_rate(fading: FadingConfig) -> float:
    """High-SNR average sum rate of the strong-gain-first selection: S = -C
    plus the alternating double binomial sum over the two whole-matrix
    maxima of ln((i*omega_h + j*omega_g)/(i*j*omega_h*omega_g))."""
    return _a3_offset(fading.n_bs * fading.m_ue1, fading.n_bs * fading.k_ue2,
                      fading.omega_h, fading.omega_g).result(fading.rho)


@lru_cache(maxsize=64)
def _a3_offset(nm, nk, omega_h, omega_g):
    a, b, d = _integers(omega_h, omega_g)
    return _Offset((Fraction((i * a + j * b) * d, i * j * a * b), sign)
                   for i, j, sign in _alternating(nm, nk))


# ---------------------------------------------------------------------------
# weak-gain-first policy: average sum rate


@lru_cache(maxsize=64)
def _aia_power_table(n: int, m: int, k: int):
    """Nonzero exact coefficients ((p, q), c_pq) of P(X, Y)**(N-1), where
    P = 1 - sum_{i,j >= 1} (-1)**(i+j) C(M, i) C(K, j) X^i Y^j, so that
    P(e^-x omega_h, e^-x omega_g) is the CDF of one row's smaller
    row-maximum; c_pq decays at rate xi = p*omega_h + q*omega_g.  N - 1
    big-integer convolutions give the table exactly."""
    factor = {(0, 0): 1, **{(i, j): -sign for i, j, sign in _alternating(m, k)}}
    table = {(0, 0): 1}
    for _ in range(n - 1):
        product = {}
        for (p, q), c in table.items():
            for (i, j), f in factor.items():
                product[p + i, q + j] = product.get((p + i, q + j), 0) + c * f
        table = {pq: c for pq, c in product.items() if c}
    return tuple(sorted(table.items()))


def aia_avg_sum_rate(fading: FadingConfig) -> float:
    """High-SNR average sum rate of the weak-gain-first selection:
    log2(1/b) for the saturated weak user plus the strong-companion term,
    whose components of rate theta and weight w give -w*(C + ln(theta/(b
    rho))).  The weights sum to 1, so b cancels and S = -C - sum w*ln(theta)
    over i*omega_h, j*omega_g and i*omega_h + j*omega_g + xi of each table
    entry and (i, j)."""
    return _aia_offset(fading.n_bs, fading.m_ue1, fading.k_ue2, fading.omega_h,
                       fading.omega_g).result(fading.rho)


@lru_cache(maxsize=64)
def _aia_offset(n, m, k, omega_h, omega_g):
    signs = _alternating(m, k, ((n - 1) * m + 1) * ((n - 1) * k + 1) * m * k)
    a, b, d = _integers(omega_h, omega_g)
    logs = {}  # (x, y) -> coefficient of ln((x*a + y*b)/d)
    for (p, q), c in _aia_power_table(n, m, k):
        for i, j, sign in signs:
            z, xi = c * n * sign, p * a + q * b
            phi_i, phi_j, phi_1 = i * a + xi, j * b + xi, i * a + j * b + xi
            for key, num, den in (((i, 0), -z * j * b, phi_j), ((0, j), -z * i * a, phi_i),
                                  ((i + p, j + q), z * i * a * j * b * (phi_1 + xi),
                                   phi_i * phi_j * phi_1)):
                logs[key] = logs.get(key, 0) + Fraction(num, den)
    return _Offset((Fraction(x * a + y * b, d), c) for (x, y), c in logs.items())


# ---------------------------------------------------------------------------
# QoS-mode policies: crossing probability and average secondary rates


def prob_h_ge_g(fading: FadingConfig) -> float:
    """Probability that the best UE1 gain beats the best UE2 gain, summed in
    exact rational arithmetic, so the symmetric case returns exactly 0.5."""
    return float(_prob_h_ge_g(fading.n_bs * fading.m_ue1, fading.n_bs * fading.k_ue2,
                              fading.omega_h, fading.omega_g))


@lru_cache(maxsize=64)
def _prob_h_ge_g(nm: int, nk: int, omega_h: float, omega_g: float) -> Fraction:
    """The exact sum of `prob_h_ge_g`, cached per geometry."""
    a, b, _ = _integers(omega_h, omega_g)
    return sum(Fraction(sign * j * b, i * a + j * b) for i, j, sign in _alternating(nm, nk))


def _qos(fading, r_th):
    """(omega_h, omega_g, epsilon) of a QoS-mode form, epsilon = 2**r_th -
    1; refuses an r_th that is not a real number (a bool is not) with
    0 <= epsilon < inf."""
    with np.errstate(over="ignore"):
        eps = float(qos_epsilon(r_th)) if _is_real(r_th) else math.nan
    if not 0 <= eps < math.inf:
        raise ValueError(f"r_th = {r_th}: the secondary-rate closed forms need "
                         f"0 <= 2**r_th - 1 < inf")
    return fading.omega_h, fading.omega_g, eps


@lru_cache(maxsize=256)
def _cr_offset(i_max, j_max, omega_h, omega_g, epsilon):
    """Offset of the average secondary rate of a best-of-i_max UE1 gain and
    a best-of-j_max UE2 gain, both orders integrated out: each summand is
    eps*jo/(io - eps*jo) * ln((eps + 1)*jo/(io + jo)) - ln(io/rho) - C, io =
    i*omega_h, jo = j*omega_g; where io = eps*jo exactly, the singular part
    is its limit -eps/(eps + 1)."""
    signs, (a, b, d) = _alternating(i_max, j_max), _integers(omega_h, omega_g)
    e, f = Fraction(epsilon).as_integer_ratio()
    pairs = [(Fraction(i * a, d), -sign) for i, j, sign in signs]
    pairs += [(Fraction((e + f) * j * b, f * (i * a + j * b)),
               Fraction(sign * e * j * b, i * a * f - e * j * b))
              for i, j, sign in signs if i * a * f != e * j * b]
    return _Offset(pairs, -sum(Fraction(sign * e, e + f) for i, j, sign in signs
                               if i * a * f == e * j * b))


def pu_avg_secondary_rate(fading: FadingConfig, r_th) -> float:
    """High-SNR average secondary rate of primary-first selection: the UE2
    gain is the whole-matrix maximum (N*K-fold), the UE1 gain a row maximum
    (M-fold)."""
    return _cr_offset(fading.m_ue1, fading.n_bs * fading.k_ue2,
                      *_qos(fading, r_th)).result(fading.rho)


def su_avg_secondary_rate(fading: FadingConfig, r_th) -> float:
    """High-SNR average secondary rate of secondary-first selection: same
    summand with the maxima swapped (N*M-fold UE1, K-fold UE2)."""
    return _cr_offset(fading.n_bs * fading.m_ue1, fading.k_ue2,
                      *_qos(fading, r_th)).result(fading.rho)


def mcg_avg_secondary_rate(fading: FadingConfig, r_th) -> float:
    """Total-probability mixture of the primary-first and secondary-first
    averages, weighted by which whole-matrix maximum wins: S = (1 - p)*S_pu
    + p*S_su with p the exact `prob_h_ge_g`."""
    return _mcg_offset(fading.n_bs, fading.m_ue1, fading.k_ue2,
                       *_qos(fading, r_th)).result(fading.rho)


@lru_cache(maxsize=64)
def _mcg_offset(n, m, k, omega_h, omega_g, epsilon):
    p = _prob_h_ge_g(n * m, n * k, omega_h, omega_g)
    parts = ((1 - p, _cr_offset(m, n * k, omega_h, omega_g, epsilon)),
             (p, _cr_offset(n * m, k, omega_h, omega_g, epsilon)))
    return _Offset([(a, w * c) for w, s in parts for a, c in s.logs.items()],
                   sum(w * s.rational for w, s in parts))


# ---------------------------------------------------------------------------
# quadrature oracle

# the absolute error `quadrature_rate` vouches for
_QUAD_ABS_TOL = 1e-8


def quadrature_rate(pdf, b, rho) -> float:
    """Numerical E[log2(1 + b*rho*X)] for X with density ``pdf`` on [0, inf),
    at any SNR, so it cross-checks the asymptotic closed forms from the
    outside.  The support is probed on a log grid to locate the density
    scale, the upper cutoff grows until the tail mass drops below 1e-12, and
    the integral is accumulated over log-spaced segments so the rate knee at
    1/(b*rho) and the density scale may sit many decades apart.  Raises if
    the accumulated error estimate exceeds `_QUAD_ABS_TOL`."""
    if not (b > 0 and rho > 0):
        raise ValueError("b and rho must be positive")
    probe = 10.0 ** np.arange(-18.0, 19.0)
    dens = np.asarray([float(pdf(x)) for x in probe])
    if not np.any(dens > 0.0):
        raise ValueError("pdf is zero on the whole probe grid 1e-18..1e18")
    cutoff = float(probe[int(np.argmax(dens * probe))])  # the density scale
    for _ in range(200):
        seg, _ = scipy.integrate.quad(pdf, cutoff, 2.0 * cutoff, limit=100)
        if abs(seg) < 1e-13:
            break
        cutoff *= 2.0
    else:
        raise RuntimeError("could not find a 1e-12 tail cutoff for the pdf")

    points, edge = [0.0], 1.0 / (b * rho)  # from the rate knee up
    while edge < cutoff:
        if edge > 0.0:
            points.append(edge)
        edge *= 100.0
    points.append(cutoff)

    def f(x):
        return math.log2(1.0 + b * rho * x) * pdf(x)

    total = err = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        v, e = scipy.integrate.quad(f, lo, hi, epsabs=_QUAD_ABS_TOL / (2 * len(points)),
                                    epsrel=1e-12, limit=200)
        total += v
        err += e
    if err > _QUAD_ABS_TOL:
        raise RuntimeError(f"quadrature did not converge to {_QUAD_ABS_TOL:g}; achieved {err:g}")
    return total
