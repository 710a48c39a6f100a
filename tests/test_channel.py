import math

import numpy as np
import pytest
from scipy import stats

import oracles
from noma_as import (FadingConfig, omega_from_distance, sample_channel_batch,
                     transmit_snr)
from noma_as.channel import _gains_from_uniforms, _philox_block

_MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("d, alpha, expected", [
    (1, 3, 1.0),
    (80, 3, 512000.0),
    (200, 3, 8.0e6),
])
def test_omega_from_distance(d, alpha, expected):
    assert omega_from_distance(d, alpha) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("d, alpha", [(0, 3), (-5, 3), (80, 0), (80, -1), (math.nan, 3)])
def test_omega_rejects_bad_parameters(d, alpha):
    with pytest.raises(ValueError):
        omega_from_distance(d, alpha)


@pytest.mark.parametrize("ps, sigma2, expected", [
    (-110, -110, 1.0),
    (10, -110, 1.0e12),
    (20, -110, 1.0e13),
])
def test_transmit_snr(ps, sigma2, expected):
    assert transmit_snr(ps, sigma2) == expected


def test_transmit_snr_rejects_non_finite():
    with pytest.raises(ValueError):
        transmit_snr(math.nan, -110)
    with pytest.raises(ValueError):
        transmit_snr(10, math.inf)


@pytest.mark.parametrize("kwargs", [
    {"n_bs": 0}, {"m_ue1": 0}, {"k_ue2": -1},
    {"d1": 0.0}, {"d2": -3.0}, {"alpha": 0.0}, {"ps_dbm": math.nan},
])
def test_fading_config_validation(kwargs):
    with pytest.raises(ValueError):
        FadingConfig(**kwargs)


def test_sampling_is_pure_in_seed_and_trial():
    cfg = FadingConfig()
    a = sample_channel_batch(cfg, seed=123, start=42, count=1)
    b = sample_channel_batch(cfg, seed=123, start=42, count=1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = sample_channel_batch(cfg, seed=123, start=43, count=1)
    d = sample_channel_batch(cfg, seed=124, start=42, count=1)
    assert not np.array_equal(a[0], c[0])
    assert not np.array_equal(a[0], d[0])


def _oracle_gains(cfg, seed, trials):
    """Gains from numpy's per-trial generators, through the package's map."""
    total = cfg.n_bs * (cfg.m_ue1 + cfg.k_ue2)
    u = np.stack([oracles.channel_uniforms(seed, t, total) for t in trials])
    return _gains_from_uniforms(u, cfg)


def _words(counter):
    """Counter words (c0, c1, c2, c3) of the 256-bit integer `counter`."""
    return np.array([(counter >> (64 * i)) & _MASK64 for i in range(4)], dtype=np.uint64)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_philox_block_matches_numpy_raw_words(seed):
    # numpy adds 1 to the 256-bit counter before each block, with carry
    counters = [0, 5 + (7 << 192), _MASK64, (1 << 256) - 1, 12345 << 64,
                (2 ** 63) | (3 << 64) | (_MASK64 << 192)]
    for domain in (0, 1, 2 ** 64 - 1):
        words = np.stack([_words((c + 1) % (1 << 256)) for c in counters], axis=1)
        got = np.stack(_philox_block(seed, domain, words), axis=1)
        key = np.array([seed, domain], dtype=np.uint64)
        for row, c in zip(got, counters):
            bitgen = np.random.Philox(key=key, counter=_words(c))
            assert row.tolist() == bitgen.random_raw(4).tolist()


@pytest.mark.parametrize("word, expected", [
    (0, [0x16554d9eca36314c, 0xdb20fe9d672d0fdc, 0xd7e772cee186176b, 0x7e68b68aec7ba23b]),
    (_MASK64, [0x87b092c3013fe90b, 0x438c3c67be8d0224, 0x9cc7d7c69cd777b6,
               0xa09caebf594f0ba0]),
])
def test_philox_known_answers(word, expected):
    # Random123's philox4x64-10 known answers, counter and key all `word`
    counter = [np.array([word], dtype=np.uint64)] * 4
    assert [int(w[0]) for w in _philox_block(word, word, counter)] == expected
    # numpy's generator reaches that counter one step after its own
    start = _words((sum(word << (64 * i) for i in range(4)) - 1) % (1 << 256))
    bitgen = np.random.Philox(key=[word, word], counter=start)
    assert bitgen.random_raw(4).tolist() == expected


@pytest.mark.parametrize("dims", [(1, 1, 1), (3, 1, 2), (4, 2, 2), (8, 4, 4)])
def test_batch_matches_numpy_generator(dims):
    # (3, 1, 2) needs 9 uniforms, so its last block is used in part
    # and the trial index wraps: 2**64 - 2, 2**64 - 1, 0, 1
    cfg = FadingConfig(n_bs=dims[0], m_ue1=dims[1], k_ue2=dims[2])
    for seed, start, count in ((0, 10, 7), (2 ** 64 - 1, 2 ** 64 - 2, 4)):
        h, g = sample_channel_batch(cfg, seed, start, count)
        eh, eg = _oracle_gains(cfg, seed, [(start + i) & _MASK64 for i in range(count)])
        assert np.array_equal(h, eh) and np.array_equal(g, eg)


def test_batch_matches_per_trial_draws():
    cfg = FadingConfig(n_bs=3, m_ue1=2, k_ue2=4)
    h, g = sample_channel_batch(cfg, seed=7, start=3, count=6)
    eh, eg = _oracle_gains(cfg, 7, range(3, 9))
    assert np.array_equal(h, eh) and np.array_equal(g, eg)
    for i, t in enumerate(range(3, 9)):
        single_h, single_g = sample_channel_batch(cfg, 7, t, 1)
        assert np.array_equal(h[i], single_h[0])
        assert np.array_equal(g[i], single_g[0])


def test_gains_strictly_positive_and_finite():
    cfg = FadingConfig(n_bs=4, m_ue1=3, k_ue2=2, d1=5.0, d2=500.0)
    h, g = sample_channel_batch(cfg, seed=11, start=0, count=2000)
    for a in (h, g):
        assert np.all(np.isfinite(a))
        assert np.all(a > 0.0)


@pytest.fixture(scope="module")
def single_link_draws():
    # one antenna everywhere isolates the marginal distribution of a gain
    cfg = FadingConfig(n_bs=1, m_ue1=1, k_ue2=1)
    h, g = sample_channel_batch(cfg, seed=2024, start=0, count=1_000_000)
    return cfg, h[:, 0, 0], g[:, 0, 0]


def test_empirical_means_match_path_loss(single_link_draws):
    cfg, h, g = single_link_draws
    assert h.mean() == pytest.approx(1.0 / cfg.omega_h, rel=0.01)
    assert g.mean() == pytest.approx(1.0 / cfg.omega_g, rel=0.01)


def test_empirical_cdf_ks(single_link_draws):
    cfg, h, _ = single_link_draws
    cdf = lambda x: 1.0 - np.exp(-cfg.omega_h * x)
    ks = stats.kstest(h[:100_000], cdf).statistic
    assert ks < 0.01


def test_entries_uncorrelated_within_realization():
    cfg = FadingConfig(n_bs=1, m_ue1=2, k_ue2=1)
    h, _ = sample_channel_batch(cfg, seed=5, start=0, count=100_000)
    corr = np.corrcoef(h[:, 0, 0], h[:, 0, 1])[0, 1]
    assert abs(corr) < 0.01
