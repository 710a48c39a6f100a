import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import oracles
from noma_as import ConfigurationError, FadingConfig, sample_channel_batch
from noma_as.channel import (_PHILOX_M, _gains_from_unit_draws, _mulhilo, _neg_log,
                             _philox_block, _unit_draws, largest_gain)

_MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("d, alpha, expected", [
    (1, 3, 1.0),
    (80, 3, 512000.0),
    (200, 3, 8.0e6),
])
def test_omega_from_distance(d, alpha, expected):
    cfg = FadingConfig(d1=d, d2=d, alpha=alpha)
    assert cfg.omega_h == cfg.omega_g == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("d, alpha", [(0, 3), (-5, 3), (80, 0), (80, -1), (math.nan, 3)])
def test_omega_rejects_bad_parameters(d, alpha):
    with pytest.raises(ConfigurationError):
        FadingConfig(d1=d, alpha=alpha)


@pytest.mark.parametrize("ps, sigma2, expected", [
    (-110, -110, 1.0),
    (10, -110, 1.0e12),
    (20, -110, 1.0e13),
])
def test_transmit_snr(ps, sigma2, expected):
    assert FadingConfig(ps_dbm=ps, sigma2_dbm=sigma2).rho == expected


def test_transmit_snr_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        FadingConfig(ps_dbm=math.nan, sigma2_dbm=-110)
    with pytest.raises(ConfigurationError):
        FadingConfig(ps_dbm=10, sigma2_dbm=math.inf)


def _wide(low, high):
    """Any float, or one in [low, high]."""
    return st.floats() | st.floats(low, high)


_DEFAULTS = dict(d1=80.0, d2=200.0, alpha=3.0, ps_dbm=30.0, sigma2_dbm=-110.0)


@given(d1=_wide(1e-160, 1e160), d2=_wide(1e-160, 1e160), alpha=_wide(1e-3, 1e3),
       ps_dbm=_wide(-5000.0, 5000.0), sigma2_dbm=_wide(-5000.0, 5000.0))
@example(**{**_DEFAULTS, "alpha": 300.0})
@example(**{**_DEFAULTS, "ps_dbm": 2980.0})
@example(**{**_DEFAULTS, "ps_dbm": -5000.0})
@example(**{**_DEFAULTS, "d1": 1e-100})
def test_a_built_fading_config_can_run(d1, d2, alpha, ps_dbm, sigma2_dbm):
    # either refused, naming its keys, or every derived value is usable
    kwargs = dict(d1=d1, d2=d2, alpha=alpha, ps_dbm=ps_dbm, sigma2_dbm=sigma2_dbm)
    try:
        cfg = FadingConfig(**kwargs)
    except ConfigurationError as exc:
        assert exc.keys and set(exc.keys) <= set(kwargs)
        return
    for value in (cfg.omega_h, cfg.omega_g, cfg.rho):
        assert 0 < value < math.inf
    for omega in (cfg.omega_h, cfg.omega_g):
        assert cfg.rho * largest_gain(omega) < math.inf
    h, g = sample_channel_batch(cfg, 0, 0, 4)
    assert np.isfinite(cfg.rho * h).all() and np.isfinite(cfg.rho * g).all()


@pytest.mark.parametrize("kwargs", [
    {"n_bs": 0}, {"m_ue1": 0}, {"k_ue2": -1},
    {"d1": 0.0}, {"d2": -3.0}, {"alpha": 0.0}, {"ps_dbm": math.nan},
    {"d1": math.inf}, {"d2": math.inf}, {"alpha": math.inf},
    {"n_bs": 2.0}, {"m_ue1": True}, {"k_ue2": np.float64(2)},
])
def test_fading_config_validation(kwargs):
    # an integral float or a bool would pass `v >= 1` and then fail inside
    # the run, as a slice index
    with pytest.raises(ConfigurationError) as err:
        FadingConfig(**kwargs)
    assert err.value.keys == tuple(kwargs)


def test_numpy_integer_antenna_counts_are_accepted():
    assert FadingConfig(n_bs=np.int64(3)).n_bs == 3


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
    u = np.stack([oracles.channel_uniforms(seed, t, total) for t in trials], axis=1)
    return _gains_from_unit_draws(_neg_log(u), cfg)


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


_BLOCKS = np.arange(1, 4, dtype=np.uint64)[:, None]  # (B, 1)
_TRIALS = np.uint64(2 ** 64 - 3) + np.arange(5, dtype=np.uint64)[None, :]  # (1, T), wraps


@pytest.mark.parametrize("counter", [
    (_BLOCKS, 0, 0, _TRIALS),  # the sampler's counters
    (2, 0, 0, _TRIALS[0]),  # the random policy's
    (_BLOCKS, np.uint64(7), 2 ** 64 - 1, 5),
    (_TRIALS, _BLOCKS, 0, 0),
    (3, 0, 0, 9),  # all four words 0-d
    (np.array(2 ** 64 - 1, dtype=np.uint64), np.uint64(1), 0, np.array(12345)),
])
@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_philox_block_keeps_unbroadcast_words_exact(counter, seed):
    # words left at their own shape must give the bits of fully broadcast
    # ones, and 0-d words must not warn when their products wrap
    full = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
    expected = _philox_block(seed, 1, [np.array(w) for w in full])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _philox_block(seed, 1, counter)
    for word, want in zip(got, expected):
        assert word.dtype == np.uint64 and word.shape == want.shape == full[0].shape
        assert np.array_equal(word, want)


_EDGE_WORDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 2 ** 32, 2 ** 64 - 1]


@pytest.mark.parametrize("a", _PHILOX_M)
def test_mulhilo_matches_integer_product_on_edge_words(a):
    # every carry of the 32-bit halves, for 1-d and 0-d words
    words = np.array(_EDGE_WORDS, dtype=np.uint64)
    with np.errstate(over="ignore"):
        lo, hi = _mulhilo(a, words.copy())
        scalar = [_mulhilo(a, np.uint64(w)) for w in _EDGE_WORDS]
    assert [int(x) for x in lo] == [a * w & _MASK64 for w in _EDGE_WORDS]
    assert [int(x) for x in hi] == [a * w >> 64 for w in _EDGE_WORDS]
    assert [(int(x), int(y)) for x, y in scalar] == [(a * w & _MASK64, a * w >> 64)
                                                     for w in _EDGE_WORDS]


def test_sampled_columns_are_contiguous():
    # the kernels read each (n, m) column of the trials as one array
    h, g = sample_channel_batch(FadingConfig(n_bs=3, m_ue1=2, k_ue2=4), seed=1, start=0,
                                count=50)
    assert all(x[:, n, j].flags.c_contiguous
               for x in (h, g) for n in range(3) for j in range(x.shape[2]))


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


@pytest.mark.parametrize("seed, start", [(3, 0), (2 ** 64 - 1, 2 ** 64 - 5)])
def test_unit_draws_of_fewer_bs_antennas_are_a_prefix(seed, start):
    # M + K = 3 is odd, so most N use their last block in part; the second
    # start wraps the trial index past 2**64
    largest = _unit_draws(seed, 8 * 3, start, 9)
    for n in range(1, 8):
        assert np.array_equal(_unit_draws(seed, n * 3, start, 9), largest[:n * 3])


_DRAWS_SCRIPT = """\
import sys

from noma_as.channel import _unit_draws

sys.stdout.buffer.write(_unit_draws(1, 16, 0, 8192).tobytes())
"""


def test_unit_draws_at_every_cpu_dispatch_level_are_within_one_ulp():
    # numpy runs float64 log in the best SIMD loop the CPU offers, and the
    # loops round differently, so a seed fixes the draws only to 1 ulp
    # across hosts.  Each child disables the dispatch targets from one level
    # up, in its own environment; the test asserts the ulp bound, not bits.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    offered = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    if not offered:
        pytest.skip("numpy dispatches to no level above its baseline on this CPU")
    host = _unit_draws(1, 16, 0, 8192)
    src = Path(__file__).resolve().parent.parent / "src"
    for level in range(len(offered)):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(offered[level:]),
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _DRAWS_SCRIPT], capture_output=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr.decode()
        child = np.frombuffer(done.stdout, dtype=np.float64).reshape(host.shape)
        ulps = np.abs(child.view(np.int64) - host.view(np.int64))  # all draws are > 0
        assert ulps.max() <= 1, offered[level:]


def test_kept_draws_serve_every_smaller_bs_antenna_count():
    # the unit draws of N = 8, computed once and passed as draws, give every
    # N up to 8 the gains of a fresh batch, which reads their first N*(M+K)
    # rows; draws of too few rows or other trials are refused
    def cfg(n):
        return FadingConfig(n_bs=n, m_ue1=2, k_ue2=1, d1=50.0)

    draws = _unit_draws(3, 8 * 3, 5, 9)
    kept = draws.copy()
    for n in (1, 4, 8):
        h, g = sample_channel_batch(cfg(n), 3, 5, 9, draws=draws)
        fresh_h, fresh_g = sample_channel_batch(cfg(n), 3, 5, 9)
        assert np.array_equal(h, fresh_h) and np.array_equal(g, fresh_g)
    assert draws.tobytes() == kept.tobytes()
    for bad in (draws[:4 * 3 - 1], draws[:, :8], draws[:, None], draws[0]):
        with pytest.raises(ValueError, match="draws"):
            sample_channel_batch(cfg(4), 3, 5, 9, draws=bad)


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
