import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from noma_as import (FadingConfig, PowerSplit, Scenario, cr_rates, fnoma_pair_rates,
                     sample_channel_batch)
from noma_as.rates import _fnoma_sum_rate
from noma_as.selection import (POLICIES, _a3_row, _aia_row, _es_crnoma_triples,
                               _es_fnoma_triples, _oma_indices, _pu_row, _random_triples,
                               _su_row, _triple_gains, row_stats)
from oracles import row_triple

B = PowerSplit.from_b(0.4)
RHO = 1e3
R_TH = 2.0
# shapes (N, M, K), each antenna count down to 1
SHAPES = [(1, 1, 1), (1, 3, 2), (3, 1, 2), (3, 2, 1), (4, 2, 2), (2, 5, 3), (5, 1, 1), (4, 4, 3)]


def _stack(rng, count, n, m, k):
    """`count` stacked instances of one shape: h (count, n, m), g (count, n, k)."""
    pairs = [oracles.random_instance(rng, n, m, k, omega_h=0.7, omega_g=2.0)
             for _ in range(count)]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def _batches(count, seed):
    rng = np.random.default_rng(seed)
    for dims in SHAPES:
        yield _stack(rng, count, *dims)


def _select(key, h, g, seed=7, t0=5):
    return oracles.select(key, h, g, rho=RHO, split=B, r_th=R_TH, seed=seed, t0=t0)


def _row_maxima(h, g, n):
    return max(h[n]), max(g[n])


def _oracle_gains(key, h, g, seed, trial):
    """The UE1 and UE2 gains a policy must choose on one instance, from the
    plain-loop references."""
    mode, policy = key
    if policy == "es":
        brute = oracles.brute_es_fnoma if mode == "fnoma" else oracles.brute_es_crnoma
        args = (B.b, RHO) if mode == "fnoma" else (RHO, R_TH)
        (n, m, k), _ = brute(h, g, *args)
        return h[n, m], g[n, k]
    if policy in ("a3", "mcg"):
        hbest, (hn, _) = oracles.global_max(h)
        gbest, (gn, _) = oracles.global_max(g)
        return _row_maxima(h, g, hn if hbest >= gbest else gn)
    if policy == "aia":
        weak = oracles.aia_weak_oracle(h, g)
        rows = [n for n in range(h.shape[0]) if min(_row_maxima(h, g, n)) == weak]
        return _row_maxima(h, g, rows[0])
    if policy == "pu":
        gbest, (n, _) = oracles.global_max(g)
        return max(h[n]), gbest
    if policy == "su":
        hbest, (n, _) = oracles.global_max(h)
        return hbest, max(g[n])
    if policy == "oma_es":
        return oracles.global_max(h)[0], oracles.global_max(g)[0]
    assert policy == "random"
    n, m, k = oracles.random_triple(seed, trial, (h.shape[0], h.shape[1], g.shape[1]))
    return h[n, m], g[n, k]


@pytest.mark.parametrize("key", sorted(POLICIES), ids="-".join)
def test_every_policy_matches_plain_loop_oracle(key):
    for h, g in _batches(40, seed=30):
        h_sel, g_sel = _select(key, h, g, seed=7, t0=5)
        assert h_sel.shape == g_sel.shape == (h.shape[0],)
        for t in range(h.shape[0]):
            assert (h_sel[t], g_sel[t]) == _oracle_gains(key, h[t], g[t], 7, 5 + t)


# --- exhaustive searches ----------------------------------------------------

def test_es_fnoma_singleton():
    rng = np.random.default_rng(1)
    h, g = _stack(rng, 3, 1, 1, 1)
    *_, triple = _es_fnoma_triples(h, g, row_stats(h, g), B, RHO)
    assert [a.tolist() for a in triple] == [[0, 0, 0]] * 3
    assert POLICIES["fnoma", "es"].count(1, 1, 1) == 1


def test_es_fnoma_matches_brute_force():
    for h, g in _batches(40, seed=2):
        triples = np.stack(_es_fnoma_triples(h, g, row_stats(h, g), B, RHO)[2], axis=1)
        for t in range(h.shape[0]):
            (n, m, k), val = oracles.brute_es_fnoma(h[t], g[t], B.b, RHO)
            assert tuple(triples[t]) == (n, m, k)
            got = oracles.fnoma_objective(h[t, n, m], g[t, n, k], B.b, RHO)
            assert got == pytest.approx(val, rel=1e-12)


def test_es_eval_count():
    assert POLICIES["fnoma", "es"].count(4, 2, 2) == 16
    assert POLICIES["crnoma", "es"].count(4, 2, 2) == 16


def test_es_crnoma_matches_brute_force():
    for h, g in _batches(40, seed=4):
        triples = np.stack(_es_crnoma_triples(h, g, row_stats(h, g), RHO, R_TH)[2], axis=1)
        for t in range(h.shape[0]):
            (n, m, k), _ = oracles.brute_es_crnoma(h[t], g[t], RHO, R_TH)
            assert tuple(triples[t]) == (n, m, k)


def _es_pairs(h, g, split, rho, r_th):
    """(row-max search, full N*M*K reference) triples of both modes, each
    stacked to shape (3, T)."""
    rows = row_stats(h, g)
    return [(np.stack(_es_fnoma_triples(h, g, rows, split, rho)[2]),
             np.stack(oracles.full_es_fnoma_triples(h, g, split, rho))),
            (np.stack(_es_crnoma_triples(h, g, rows, rho, r_th)[2]),
             np.stack(oracles.full_es_crnoma_triples(h, g, rho, r_th)))]


def test_es_keeps_the_first_of_tied_triples():
    # gains from {1, 2, 3} tie within rows and across rows; at r_th = 11 and
    # 12 many or all triples of a trial are infeasible and tie at r1 = 0
    rng = np.random.default_rng(31)
    for n, m, k in SHAPES:
        h = rng.integers(1, 4, (300, n, m)).astype(float)
        g = rng.integers(1, 4, (300, n, k)).astype(float)
        for r_th in (R_TH, 11.0, 12.0):
            for got, expected in _es_pairs(h, g, B, RHO, r_th):
                assert np.array_equal(got, expected)


_SHAPE = st.tuples(*[st.integers(1, 5)] * 3)
_FIGURE_D = st.floats(50.0, 400.0)  # d1 and d2 of the figure grids
_U64 = st.integers(0, 2 ** 64 - 1)


def _sampled(dims, d1, d2, ps_dbm, b, r_th, seed, start, count):
    """Draws of an accepted scenario: (split, rho, h, g)."""
    fading = FadingConfig(*dims, d1=d1, d2=d2, ps_dbm=ps_dbm)
    split = PowerSplit.from_b(b)
    Scenario(fading, "fnoma", "es", split=split)
    Scenario(fading, "crnoma", "es", r_th=r_th)
    return (split, fading.rho) + sample_channel_batch(fading, seed, start, count)


@settings(max_examples=150, deadline=None)
@given(dims=_SHAPE, d1=_FIGURE_D, d2=_FIGURE_D, ps_dbm=st.floats(-20.0, 60.0),
       b=st.floats(0.0, 0.5, exclude_min=True), r_th=st.floats(0.01, 30.0),
       seed=_U64, start=_U64, count=st.integers(1, 300))
def test_es_equals_full_search(dims, d1, d2, ps_dbm, b, r_th, seed, start, count):
    split, rho, h, g = _sampled(dims, d1, d2, ps_dbm, b, r_th, seed, start, count)
    for got, expected in _es_pairs(h, g, split, rho, r_th):
        assert np.array_equal(got, expected)


def _objectives(h, g, triple, split, rho, r_th):
    """Sum rate and secondary rate of the chosen gains."""
    x, y = _triple_gains(h, g, triple)
    return (_fnoma_sum_rate(x, y, split.b, rho),
            cr_rates(x, y, rho, r_th).r1)


# Up to the largest power a Scenario with the default noise floor accepts,
# the float formulas can fall out of step with the monotone rates by an ulp,
# so the two searches may pick different triples of (nearly) equal value.
@settings(max_examples=150, deadline=None)
@given(dims=_SHAPE, d1=_FIGURE_D, d2=_FIGURE_D, ps_dbm=st.floats(60.0, 2972.5),
       b=st.floats(0.0, 0.5, exclude_min=True), r_th=st.floats(0.01, 30.0),
       seed=_U64, start=_U64, count=st.integers(1, 300))
def test_es_matches_full_search_value_at_high_snr(dims, d1, d2, ps_dbm, b, r_th, seed,
                                                  start, count):
    split, rho, h, g = _sampled(dims, d1, d2, ps_dbm, b, r_th, seed, start, count)
    for mode, (got, expected) in enumerate(_es_pairs(h, g, split, rho, r_th)):
        differ = ~(got == expected).all(axis=0)
        ours = _objectives(h, g, got, split, rho, r_th)[mode][differ]
        full = _objectives(h, g, expected, split, rho, r_th)[mode][differ]
        assert np.all(np.abs(ours - full) <= 1e-9 * np.abs(full))


def test_es_crnoma_all_infeasible_returns_first_triple():
    rng = np.random.default_rng(5)
    # rho*g < eps everywhere, so every triple is served nothing
    h, g = rng.uniform(0.5, 1.0, (4, 3, 2)), rng.uniform(0.5, 1.0, (4, 3, 2))
    *_, triple = _es_crnoma_triples(h, g, row_stats(h, g), 10.0, 10.0)
    assert [a.tolist() for a in triple] == [[0] * 4] * 3


def _optimum_cases(n, m, k):
    """(h, g, r_th) cases of one shape: sampled draws at figure powers, the
    trial axis fastest as the sampler lays it out, row-major random draws,
    gains from {1, 2, 3} that tie within and across rows (r_th = 11 leaves
    many of their triples infeasible, at r1 = 0), and trials where every
    triple is infeasible."""
    rng = np.random.default_rng(n * 100 + m * 10 + k)
    for ps_dbm, seed in ((0.0, 1), (20.0, 2), (40.0, 3)):
        fading = FadingConfig(n, m, k, ps_dbm=ps_dbm)
        h, g = sample_channel_batch(fading, seed, 0, 2000)
        yield h * fading.rho / RHO, g * fading.rho / RHO, R_TH
    yield (*_stack(rng, 300, n, m, k), R_TH)
    ties = (rng.integers(1, 4, (300, n, m)).astype(float),
            rng.integers(1, 4, (300, n, k)).astype(float))
    yield (*ties, R_TH)
    yield (*ties, 11.0)
    yield rng.uniform(0.5, 1.0, (50, n, m)) / RHO, rng.uniform(0.5, 1.0, (50, n, k)) / RHO, R_TH


def _same_bits(got, expected):
    return [x.tobytes() for x in got] == [x.tobytes() for x in expected]


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 2, 2), (4, 4, 4)])
def test_es_optimum_is_the_rate_at_its_triple_bit_for_bit(dims):
    # the harness reports the optimum in place of the rates at the triple;
    # the search with and without its pick, and the policy's optimum, give
    # the same candidates and optimum
    for h, g, r_th in _optimum_cases(*dims):
        rows = row_stats(h, g)
        candidates, top, triple = _es_fnoma_triples(h, g, rows, B, RHO)
        r1, r2 = fnoma_pair_rates(*_triple_gains(h, g, triple), B, RHO)
        assert top.tobytes() == (r1 + r2).tobytes()
        assert _es_fnoma_triples(h, g, rows, B, RHO, pick=False)[2] is None
        for optimum in (_es_fnoma_triples(h, g, rows, B, RHO, pick=False)[:2],
                        POLICIES["fnoma", "es"].optimum(h, g, rows=rows, rho=RHO, split=B,
                                                        r_th=None)):
            assert _same_bits(optimum, (candidates, top))
        candidates, top, triple = _es_crnoma_triples(h, g, rows, RHO, r_th)
        assert top.tobytes() == cr_rates(*_triple_gains(h, g, triple), RHO, r_th).r1.tobytes()
        assert _es_crnoma_triples(h, g, rows, RHO, r_th, pick=False)[2] is None
        for optimum in (_es_crnoma_triples(h, g, rows, RHO, r_th, pick=False)[:2],
                        POLICIES["crnoma", "es"].optimum(h, g, rows=rows, rho=RHO, split=None,
                                                         r_th=r_th)):
            assert _same_bits(optimum, (candidates, top))
        infeasible = top == 0.0
        assert all(np.all(i[infeasible] == 0) for i in triple)
    # the last case: every triple infeasible, so r1 = 0 at (0, 0, 0)
    assert infeasible.all()


_ROWS = {("fnoma", "a3"): _a3_row, ("fnoma", "aia"): _aia_row, ("crnoma", "mcg"): _a3_row,
         ("crnoma", "pu"): _pu_row, ("crnoma", "su"): _su_row}


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 2, 2), (4, 4, 4)])
def test_row_policy_value_is_its_candidate_bit_for_bit(dims):
    # where a point runs its mode's search and reads only the metric, the
    # harness reports a row-max policy's candidate of its row in place of
    # the rate at its triple; otherwise its gains come from the row maxima
    assert set(_ROWS) == {key for key, p in POLICIES.items() if p.row}
    for h, g, r_th in _optimum_cases(*dims):
        rows = row_stats(h, g)
        kwargs = dict(rho=RHO, split=B, r_th=r_th, seed=7, t0=5)
        for (mode, name), row in _ROWS.items():
            policy = POLICIES[mode, name]
            gains = _triple_gains(h, g, row_triple(h, g, row))
            assert _same_bits(oracles.select((mode, name), h, g, **kwargs), gains)
            candidates, _ = POLICIES[mode, "es"].optimum(h, g, rows=rows, **kwargs)
            value = np.take(candidates, policy.choose(h, g, rows=rows, **kwargs))
            if mode == "fnoma":
                r1, r2 = fnoma_pair_rates(*gains, B, RHO)
                assert value.tobytes() == (r1 + r2).tobytes()
            else:
                assert value.tobytes() == cr_rates(*gains, RHO, r_th).r1.tobytes()


# --- ties ---------------------------------------------------------------------

# Each kernel's triples, for every (mode, policy) of the table.
_KERNELS = {
    ("fnoma", "es"): lambda h, g, rows, seed, t0: _es_fnoma_triples(h, g, rows, B, RHO)[2],
    ("crnoma", "es"): lambda h, g, rows, seed, t0: _es_crnoma_triples(h, g, rows, RHO, R_TH)[2],
    ("fnoma", "a3"): lambda h, g, rows, seed, t0: row_triple(h, g, _a3_row),
    ("fnoma", "aia"): lambda h, g, rows, seed, t0: row_triple(h, g, _aia_row),
    ("crnoma", "mcg"): lambda h, g, rows, seed, t0: row_triple(h, g, _a3_row),
    ("crnoma", "pu"): lambda h, g, rows, seed, t0: row_triple(h, g, _pu_row),
    ("crnoma", "su"): lambda h, g, rows, seed, t0: row_triple(h, g, _su_row),
    ("fnoma", "random"): lambda h, g, rows, seed, t0: _random_triples(
        h.shape[1], h.shape[2], g.shape[2], seed, t0, h.shape[0]),
    ("oma", "oma_es"): lambda h, g, rows, seed, t0: _oma_indices(h, g),
}
_KERNELS["crnoma", "random"] = _KERNELS["fnoma", "random"]

# The same stacked values in other memory layouts: Fortran order, the trial
# axis fastest (as the sampler lays them out) and a strided view.
_LAYOUTS = [
    np.ascontiguousarray,
    np.asfortranarray,
    lambda x: np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1),
    lambda x: np.repeat(x, 2, axis=2)[:, :, ::2],
]
# g = 1e-3 leaves UE2's floor out of reach when UE1 is the strong user, so
# CR-NOMA triples also tie at r1 = 0
_TIE_GAINS = np.array([1e-3, 0.5, 2.0])


@settings(max_examples=100, deadline=None)
@given(dims=_SHAPE, count=st.integers(1, 12), seed=_U64, t0=st.integers(0, 2 ** 40),
       data=st.data())
def test_ties_go_to_the_lowest_index(dims, count, seed, t0, data):
    assert set(_KERNELS) == set(POLICIES)
    n, m, k = dims
    draw = lambda shape: _TIE_GAINS[data.draw(
        hnp.arrays(np.int8, shape, elements=st.integers(0, 2)))]
    h0, g0 = draw((count, n, m)), draw((count, n, k))
    expected = {key: [oracles.policy_triple(key, h0[t], g0[t], B.b, RHO, R_TH, seed, t0 + t)
                      for t in range(count)] for key in POLICIES}
    for layout in _LAYOUTS:
        h, g = layout(h0), layout(g0)
        rows = row_stats(h, g)
        for got, want in zip(rows, oracles.max_row_stats(h0, g0), strict=True):
            assert np.array_equal(got, want)
        for key in POLICIES:
            triples = np.stack(_KERNELS[key](h, g, rows, seed, t0), axis=1)
            assert [tuple(row) for row in triples.tolist()] == expected[key], key
            h_sel, g_sel = _select(key, h, g, seed=seed, t0=t0)
            picked = [(h0[(t,) + e[:2]], g0[(t,) + (e[2:] if len(e) == 4 else e[::2])])
                      for t, e in enumerate(expected[key])]
            assert list(zip(h_sel.tolist(), g_sel.tolist())) == picked, key


# --- strong-gain-first ------------------------------------------------------

def test_a3_hand_instance():
    h = np.array([[0.2, 0.1], [0.3, 5.0], [0.4, 0.2]])
    g = np.array([[1.0, 0.5], [2.0, 0.7], [0.3, 0.6]])
    assert [int(i[0]) for i in row_triple(h[None], g[None], _a3_row)] == [1, 1, 0]
    assert [float(x[0]) for x in _select(("fnoma", "a3"), h[None], g[None])] == [5.0, 2.0]


def test_a3_singleton():
    rng = np.random.default_rng(1)
    h, g = _stack(rng, 3, 1, 1, 1)
    assert [a.tolist() for a in row_triple(h, g, _a3_row)] == [[0, 0, 0]] * 3


def test_a3_strong_gain_is_global_max():
    for h, g in _batches(60, seed=6):
        h_sel, g_sel = _select(("fnoma", "a3"), h, g)
        for t in range(h.shape[0]):
            hmax, _ = oracles.global_max(h[t])
            gmax, _ = oracles.global_max(g[t])
            assert max(h_sel[t], g_sel[t]) == max(hmax, gmax)


# --- weak-gain-first --------------------------------------------------------

def test_aia_equals_a3_for_single_row():
    h, g = _stack(np.random.default_rng(7), 50, 1, 3, 2)
    for got, expected in zip(row_triple(h, g, _aia_row), row_triple(h, g, _a3_row)):
        assert np.array_equal(got, expected)


def test_aia_weak_gain_oracle():
    for h, g in _batches(60, seed=8):
        h_sel, g_sel = _select(("fnoma", "aia"), h, g)
        for t in range(h.shape[0]):
            assert min(h_sel[t], g_sel[t]) == oracles.aia_weak_oracle(h[t], g[t])


def test_aia_avoids_poor_companion_row():
    # the global-max row pairs with a tiny companion; the weak-first rule
    # must walk away from it
    h = np.array([[[10.0, 0.2], [2.0, 0.5]]])
    g = np.array([[[0.1, 0.05], [1.5, 0.2]]])
    assert row_triple(h, g, _a3_row)[0][0] == 0 and row_triple(h, g, _aia_row)[0][0] == 1
    assert _select(("fnoma", "aia"), h, g)[1][0] == 1.5


# --- QoS-mode policies ------------------------------------------------------

def test_mcg_triple_identical_to_a3():
    for h, g in _batches(50, seed=9):
        for got, expected in zip(_select(("crnoma", "mcg"), h, g),
                                 _select(("fnoma", "a3"), h, g)):
            assert np.array_equal(got, expected)


def test_mcg_reduces_to_su_or_pu():
    for h, g in _batches(50, seed=10):
        ue1_wins = h.max(axis=(1, 2)) >= g.max(axis=(1, 2))
        su = _select(("crnoma", "su"), h, g)
        pu = _select(("crnoma", "pu"), h, g)
        for got, s, p in zip(_select(("crnoma", "mcg"), h, g), su, pu):
            assert np.array_equal(got, np.where(ue1_wins, s, p))


def test_pu_hand_instance():
    g = np.zeros((3, 2))
    g[2, 1] = 9.0
    g += 0.1
    h = np.array([[0.2, 0.3], [0.1, 0.2], [0.7, 0.4]])
    n, m, k = row_triple(h[None], g[None], _pu_row)
    assert (n[0], k[0]) == (2, 1)
    assert m[0] == 0  # row-3 argmax of h


def test_pu_single_receive_antenna():
    h, g = _stack(np.random.default_rng(12), 20, 4, 2, 1)
    n, _, k = row_triple(h, g, _pu_row)
    assert not k.any()
    assert n.tolist() == [oracles.global_max(g[t])[1][0] for t in range(20)]


def test_su_hand_instance():
    h = np.zeros((2, 3))
    h[0, 1] = 7.0
    h += 0.05
    g = np.array([[0.3, 0.9], [0.6, 0.1]])
    n, m, k = row_triple(h[None], g[None], _su_row)
    assert (n[0], m[0]) == (0, 1)
    assert k[0] == 1  # row-1 argmax of g


def test_su_single_receive_antenna():
    h, g = _stack(np.random.default_rng(13), 20, 4, 1, 3)
    assert not row_triple(h, g, _su_row)[1].any()


# --- random and orthogonal baselines ---------------------------------------

def test_random_deterministic_under_seed():
    first = _random_triples(4, 3, 2, seed=99, start=5, count=50)
    again = _random_triples(4, 3, 2, seed=99, start=5, count=50)
    other = _random_triples(4, 3, 2, seed=98, start=5, count=50)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))
    assert [a.tolist() for a in _random_triples(1, 1, 1, seed=1, start=0, count=2)] == \
        [[0, 0]] * 3
    assert POLICIES["fnoma", "random"].count(4, 3, 2) == 0


@pytest.mark.parametrize("dims", [(4, 2, 2), (3, 5, 7), (1, 2, 3), (2, 1, 1),
                                  (2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 5)])
def test_random_triples_match_numpy_integers(dims, monkeypatch):
    # the last case rejects about half of its first words, so trials retry
    # and some run past their first block
    from noma_as import selection
    blocks = []
    philox_block = selection._philox_block
    monkeypatch.setattr(selection, "_philox_block",
                        lambda *args: blocks.append(args) or philox_block(*args))
    # the second start wraps the trial index past 2**64 - 1 to 0
    for seed, start in ((21, 0), (2 ** 64 - 1, 2 ** 64 - 100)):
        got = np.stack(selection._random_triples(*dims, seed, start, 200), axis=1)
        expected = [oracles.random_triple(seed, start + i, dims) for i in range(200)]
        assert got.tolist() == [list(e) for e in expected]
    if dims[0] > 2 ** 31:
        assert len(blocks) > 2


def test_random_indices_uniform():
    n, _, _ = _random_triples(4, 2, 2, seed=21, start=0, count=100_000)
    freq = np.bincount(n, minlength=4) / n.size
    se = math.sqrt(0.25 * 0.75 / n.size)
    assert np.all(np.abs(freq - 0.25) < 3 * se)


def test_oma_es_per_user_argmax():
    for h, g in _batches(30, seed=15):
        indices = np.stack(_oma_indices(h, g), axis=1)
        for t in range(h.shape[0]):
            _, (n1, m) = oracles.global_max(h[t])
            _, (n2, k) = oracles.global_max(g[t])
            assert tuple(indices[t]) == (n1, m, n2, k)


# --- cross-policy invariants ------------------------------------------------

def test_selection_fields_consistent():
    # every NOMA policy serves both users from one BS antenna: the chosen
    # gains are h[n, m] and g[n, k] of a single row n
    for h, g in _batches(30, seed=16):
        for key in POLICIES:
            if key[0] == "oma":
                continue
            h_sel, g_sel = _select(key, h, g)
            for t in range(h.shape[0]):
                rows = [n for n in range(h.shape[1])
                        if h_sel[t] in h[t, n] and g_sel[t] in g[t, n]]
                assert rows, (key, t)


def test_es_dominates_heuristics_per_realization():
    for h, g in _batches(40, seed=17):
        rate = oracles.fnoma_objective
        es_h, es_g = _select(("fnoma", "es"), h, g)
        for policy in ("a3", "aia", "random"):
            h_sel, g_sel = _select(("fnoma", policy), h, g, seed=3)
            for t in range(h.shape[0]):
                assert rate(es_h[t], es_g[t], B.b, RHO) >= rate(h_sel[t], g_sel[t], B.b, RHO)


def test_es_crnoma_dominates_per_realization():
    for h, g in _batches(40, seed=18):
        rate = oracles.cr_secondary_objective
        es_h, es_g = _select(("crnoma", "es"), h, g)
        for policy in ("mcg", "pu", "su", "random"):
            h_sel, g_sel = _select(("crnoma", policy), h, g, seed=3)
            for t in range(h.shape[0]):
                assert rate(es_h[t], es_g[t], RHO, R_TH) >= rate(h_sel[t], g_sel[t], RHO, R_TH)


def test_comparison_policies_scale_equivariant():
    # power-of-two scaling is exact in floating point, so index changes
    # could only come from genuine rank changes
    for h, g in _batches(20, seed=19):
        for c in (2.0 ** -20, 2.0 ** 13):
            for row in (_a3_row, _aia_row, _pu_row, _su_row):
                for s0, s1 in zip(row_triple(h, g, row),
                                  row_triple(h * c, g * c, row)):
                    assert np.array_equal(s0, s1)
