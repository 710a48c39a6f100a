import math

import numpy as np
import pytest

import oracles
from noma_as import (ChannelRealization, PowerSplit, a3_as, aia_as,
                     cr_power_split, es_crnoma, es_fnoma, mcg_as, oma_es,
                     pu_as, random_as, su_as)
from noma_as.selection import (count_a3, count_es, count_oma,
                               count_pu, count_su)

B = PowerSplit.from_b(0.4)
RHO = 1e3


def _instances(n_inst, dims=(1, 4), seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n_inst):
        n, m, k = rng.integers(dims[0], dims[1] + 1, size=3)
        yield ChannelRealization(*oracles.random_instance(rng, n, m, k,
                                                          omega_h=0.7, omega_g=2.0))


def _single():
    rng = np.random.default_rng(1)
    return ChannelRealization(*oracles.random_instance(rng, 1, 1, 1))


# --- exhaustive searches ----------------------------------------------------

def test_es_fnoma_singleton():
    sel = es_fnoma(_single(), B, RHO)
    assert (sel.n_star, sel.m_star, sel.k_star) == (1, 1, 1)
    assert sel.eval_count == 1


def test_es_fnoma_matches_brute_force():
    for ch in _instances(300, seed=2):
        sel = es_fnoma(ch, B, RHO)
        (n, m, k), val = oracles.brute_es_fnoma(ch.h, ch.g, B.b, RHO)
        assert (sel.n_star - 1, sel.m_star - 1, sel.k_star - 1) == (n, m, k)
        got = oracles.fnoma_objective(ch.h[n, m], ch.g[n, k], B.b, RHO)
        assert got == pytest.approx(val, rel=1e-12)


def test_es_eval_count():
    rng = np.random.default_rng(3)
    ch = ChannelRealization(*oracles.random_instance(rng, 4, 2, 2))
    assert es_fnoma(ch, B, RHO).eval_count == 16
    assert es_crnoma(ch, RHO, 1.0).eval_count == 16


def test_es_crnoma_matches_brute_force():
    for ch in _instances(300, seed=4):
        sel = es_crnoma(ch, RHO, 2.0)
        (n, m, k), val = oracles.brute_es_crnoma(ch.h, ch.g, RHO, 2.0)
        assert (sel.n_star - 1, sel.m_star - 1, sel.k_star - 1) == (n, m, k)


def test_es_crnoma_all_infeasible_returns_first_triple():
    rng = np.random.default_rng(5)
    # rho*g < eps everywhere, so every triple is served nothing
    ch = ChannelRealization(rng.uniform(0.5, 1.0, (3, 2)), rng.uniform(0.5, 1.0, (3, 2)))
    sel = es_crnoma(ch, 10.0, 10.0)
    assert (sel.n_star, sel.m_star, sel.k_star) == (1, 1, 1)


# --- strong-gain-first ------------------------------------------------------

def test_a3_hand_instance():
    h = np.array([[0.2, 0.1], [0.3, 5.0], [0.4, 0.2]])
    g = np.array([[1.0, 0.5], [2.0, 0.7], [0.3, 0.6]])
    sel = a3_as(ChannelRealization(h, g), B, RHO)
    assert (sel.n_star, sel.m_star, sel.k_star) == (2, 2, 1)
    assert sel.delta == 1
    assert sel.gamma_s == 5.0 and sel.gamma_w == 2.0


def test_a3_singleton():
    sel = a3_as(_single(), B, RHO)
    assert (sel.n_star, sel.m_star, sel.k_star) == (1, 1, 1)


def test_a3_strong_gain_is_global_max():
    for ch in _instances(500, seed=6):
        sel = a3_as(ch, B, RHO)
        hmax, _ = oracles.global_max(ch.h)
        gmax, _ = oracles.global_max(ch.g)
        assert sel.gamma_s == max(hmax, gmax)


# --- weak-gain-first --------------------------------------------------------

def test_aia_equals_a3_for_single_row():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ch = ChannelRealization(*oracles.random_instance(rng, 1, 3, 2))
        s1, s2 = a3_as(ch, B, RHO), aia_as(ch, B, RHO)
        assert (s1.n_star, s1.m_star, s1.k_star) == (s2.n_star, s2.m_star, s2.k_star)


def test_aia_weak_gain_oracle():
    for ch in _instances(500, seed=8):
        sel = aia_as(ch, B, RHO)
        assert sel.gamma_w == oracles.aia_weak_oracle(ch.h, ch.g)


def test_aia_avoids_poor_companion_row():
    # the global-max row pairs with a tiny companion; the weak-first rule
    # must walk away from it
    h = np.array([[10.0, 0.2], [2.0, 0.5]])
    g = np.array([[0.1, 0.05], [1.5, 0.2]])
    strong_first = a3_as(ChannelRealization(h, g), B, RHO)
    weak_first = aia_as(ChannelRealization(h, g), B, RHO)
    assert strong_first.n_star == 1 and weak_first.n_star == 2
    assert weak_first.gamma_w == 1.5


# --- QoS-mode policies ------------------------------------------------------

def test_mcg_triple_identical_to_a3():
    for ch in _instances(400, seed=9):
        s1 = a3_as(ch, B, RHO)
        s2 = mcg_as(ch, RHO, 1.0)
        assert (s1.n_star, s1.m_star, s1.k_star) == (s2.n_star, s2.m_star, s2.k_star)


def test_mcg_reduces_to_su_or_pu():
    for ch in _instances(400, seed=10):
        mcg = mcg_as(ch, RHO, 1.0)
        other = su_as(ch, RHO, 1.0) if ch.h.max() >= ch.g.max() else pu_as(ch, RHO, 1.0)
        assert (mcg.n_star, mcg.m_star, mcg.k_star) == \
            (other.n_star, other.m_star, other.k_star)


def test_mcg_split_is_asymptotic():
    rng = np.random.default_rng(11)
    ch = ChannelRealization(*oracles.random_instance(rng, 3, 2, 2))
    sel = mcg_as(ch, RHO, 1.0)
    expected = cr_power_split(sel.h_gain, sel.g_gain, RHO, 1.0, "asymptotic")
    assert sel.split == expected


def test_pu_hand_instance():
    g = np.zeros((3, 2))
    g[2, 1] = 9.0
    g += 0.1
    h = np.array([[0.2, 0.3], [0.1, 0.2], [0.7, 0.4]])
    sel = pu_as(ChannelRealization(h, g), RHO, 1.0)
    assert (sel.n_star, sel.k_star) == (3, 2)
    assert sel.m_star == 1  # row-3 argmax of h


def test_pu_single_receive_antenna():
    rng = np.random.default_rng(12)
    ch = ChannelRealization(*oracles.random_instance(rng, 4, 2, 1))
    sel = pu_as(ch, RHO, 1.0)
    assert sel.k_star == 1
    _, (n, _) = oracles.global_max(ch.g)
    assert sel.n_star == n + 1


def test_su_hand_instance():
    h = np.zeros((2, 3))
    h[0, 1] = 7.0
    h += 0.05
    g = np.array([[0.3, 0.9], [0.6, 0.1]])
    sel = su_as(ChannelRealization(h, g), RHO, 1.0)
    assert (sel.n_star, sel.m_star) == (1, 2)
    assert sel.k_star == 2  # row-1 argmax of g


def test_su_single_receive_antenna():
    rng = np.random.default_rng(13)
    ch = ChannelRealization(*oracles.random_instance(rng, 4, 1, 3))
    assert su_as(ch, RHO, 1.0).m_star == 1


# --- random and orthogonal baselines ---------------------------------------

def test_random_deterministic_under_seed():
    rng = np.random.default_rng(14)
    ch = ChannelRealization(*oracles.random_instance(rng, 4, 3, 2))
    s1 = random_as(ch, seed=99, trial_index=5)
    s2 = random_as(ch, seed=99, trial_index=5)
    assert (s1.n_star, s1.m_star, s1.k_star) == (s2.n_star, s2.m_star, s2.k_star)
    assert random_as(_single(), seed=1).n_star == 1
    assert s1.eval_count == 0


def test_random_indices_uniform():
    from noma_as.selection import _random_triples
    n, _, _ = _random_triples(4, 2, 2, seed=21, start=0, count=100_000)
    freq = np.bincount(n, minlength=4) / n.size
    se = math.sqrt(0.25 * 0.75 / n.size)
    assert np.all(np.abs(freq - 0.25) < 3 * se)


def test_oma_es_per_user_argmax():
    for ch in _instances(200, seed=15):
        sel = oma_es(ch, RHO)
        hbest, (n1, m) = oracles.global_max(ch.h)
        gbest, (n2, k) = oracles.global_max(ch.g)
        assert (sel.n1_star, sel.m_star, sel.n2_star, sel.k_star) == \
            (n1 + 1, m + 1, n2 + 1, k + 1)
        assert sel.h_best == hbest and sel.g_best == gbest


# --- cross-policy invariants ------------------------------------------------

def test_selection_fields_consistent():
    for ch in _instances(200, seed=16):
        for sel in (es_fnoma(ch, B, RHO), a3_as(ch, B, RHO), aia_as(ch, B, RHO),
                    mcg_as(ch, RHO, 1.0), pu_as(ch, RHO, 1.0), su_as(ch, RHO, 1.0),
                    random_as(ch, seed=0)):
            n, m = ch.h.shape
            k = ch.g.shape[1]
            assert 1 <= sel.n_star <= n and 1 <= sel.m_star <= m and 1 <= sel.k_star <= k
            h_sel = ch.h[sel.n_star - 1, sel.m_star - 1]
            g_sel = ch.g[sel.n_star - 1, sel.k_star - 1]
            assert sel.gamma_s == max(h_sel, g_sel)
            assert sel.gamma_w == min(h_sel, g_sel)
            assert sel.delta == (1 if h_sel >= g_sel else 0)
            assert sel.h_gain == h_sel and sel.g_gain == g_sel


def test_es_dominates_heuristics_per_realization():
    for ch in _instances(300, seed=17):
        best = es_fnoma(ch, B, RHO)
        best_rate = oracles.fnoma_objective(best.h_gain, best.g_gain, B.b, RHO)
        for sel in (a3_as(ch, B, RHO), aia_as(ch, B, RHO), random_as(ch, seed=3)):
            rate = oracles.fnoma_objective(sel.h_gain, sel.g_gain, B.b, RHO)
            assert best_rate >= rate


def test_es_crnoma_dominates_per_realization():
    for ch in _instances(300, seed=18):
        best = es_crnoma(ch, RHO, 2.0)
        best_rate = oracles.cr_secondary_objective(best.h_gain, best.g_gain, RHO, 2.0)
        for sel in (mcg_as(ch, RHO, 2.0), pu_as(ch, RHO, 2.0), su_as(ch, RHO, 2.0)):
            rate = oracles.cr_secondary_objective(sel.h_gain, sel.g_gain, RHO, 2.0)
            assert best_rate >= rate


def test_comparison_policies_scale_equivariant():
    # power-of-two scaling is exact in floating point, so index changes
    # could only come from genuine rank changes
    for ch in _instances(100, seed=19):
        for c in (2.0 ** -20, 2.0 ** 13):
            scaled = ChannelRealization(ch.h * c, ch.g * c)
            for policy in (lambda x: a3_as(x, B, RHO), lambda x: aia_as(x, B, RHO),
                           lambda x: mcg_as(x, RHO, 1.0), lambda x: pu_as(x, RHO, 1.0),
                           lambda x: su_as(x, RHO, 1.0)):
                s0, s1 = policy(ch), policy(scaled)
                assert (s0.n_star, s0.m_star, s0.k_star) == \
                    (s1.n_star, s1.m_star, s1.k_star)


def test_eval_count_formulas_and_bounds():
    rng = np.random.default_rng(20)
    for n in range(1, 6):
        for m in range(1, 6):
            for k in range(1, 6):
                ch = ChannelRealization(*oracles.random_instance(rng, n, m, k))
                assert es_fnoma(ch, B, RHO).eval_count == count_es(n, m, k) == n * m * k
                a3 = a3_as(ch, B, RHO)
                assert a3.eval_count == count_a3(n, m, k)
                assert a3.eval_count <= n * (m + k + 3)
                assert aia_as(ch, B, RHO).eval_count == count_a3(n, m, k)
                mcg = mcg_as(ch, RHO, 1.0)
                assert mcg.eval_count == count_a3(n, m, k) <= n * (m + k) + 2
                assert pu_as(ch, RHO, 1.0).eval_count == count_pu(n, m, k) <= n * k + m
                assert su_as(ch, RHO, 1.0).eval_count == count_su(n, m, k) <= n * m + k
                assert oma_es(ch, RHO).eval_count == count_oma(n, m, k)
