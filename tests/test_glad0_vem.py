import math
import warnings

import numpy as np
import pytest
import scipy.special

from glad.baselines import fit_mmsb
from glad.generator import generate_glad0
from glad.glad0_vem import (
    Fit0Config,
    Glad0Variational,
    _activity_sums,
    _gamma_block,
    _group_softmax,
    _lambda_logits,
    _phi_logits,
    _sweep0,
    compute_elbo0,
    fit0,
    m_step0,
)
from glad.glad_vem import FitConfig, _expected_log_pi, _mu_logits
from glad.model import (
    ActivityDataset,
    Dataset,
    GladNumericsError,
    ModelParams,
    PROB_EPS,
    digamma,
    floored_log,
    softmax,
)


# ---------------------------------------------------------------------------
# straight-line oracles (plain loops, scipy digamma); they index the pair
# arrays pair-major, phi[p, q, g], so the tests hand them np.moveaxis views
# of the group-major state
# ---------------------------------------------------------------------------

def _flog(v):
    return math.log(max(float(v), 1e-12))


def oracle_gamma0(p, alpha, phi_out, phi_in, lam_act):
    n, _, m = phi_out.shape
    out = [float(alpha[g]) for g in range(m)]
    for g in range(m):
        for q in range(n):
            if q == p:
                continue
            out[g] += phi_out[p, q, g] + phi_in[q, p, g]
        for a in range(lam_act[p].shape[0]):
            out[g] += lam_act[p][a, g]
    return np.array(out)


def oracle_phi_out(p, q, y, block, gamma, phi_in):
    m = block.shape[0]
    psi = scipy.special.psi
    scores = []
    for g in range(m):
        s = psi(gamma[p, g]) - psi(gamma[p].sum())
        for h in range(m):
            f = y[p, q] * math.log(block[g, h]) + (1 - y[p, q]) * math.log(1 - block[g, h])
            s += phi_in[p, q, h] * f
        scores.append(s)
    shift = max(scores)
    e = [math.exp(s - shift) for s in scores]
    return np.array(e) / sum(e)


def oracle_phi_in(p, q, y, block, gamma, phi_out):
    m = block.shape[0]
    psi = scipy.special.psi
    scores = []
    for h in range(m):
        s = psi(gamma[q, h]) - psi(gamma[q].sum())
        for g in range(m):
            f = y[p, q] * math.log(block[g, h]) + (1 - y[p, q]) * math.log(1 - block[g, h])
            s += phi_out[p, q, g] * f
        scores.append(s)
    shift = max(scores)
    e = [math.exp(s - shift) for s in scores]
    return np.array(e) / sum(e)


def oracle_lambda0(p, a, gamma, theta, mu_act):
    m, k = theta.shape
    psi = scipy.special.psi
    scores = []
    for g in range(m):
        s = psi(gamma[p, g])
        for r in range(k):
            s += mu_act[p][a, r] * _flog(theta[g, r])
        scores.append(s)
    shift = max(scores)
    e = [math.exp(s - shift) for s in scores]
    return np.array(e) / sum(e)


def oracle_mu0(p, a, feature_ids, theta, beta, lam_act):
    m, k = theta.shape
    scores = []
    for r in range(k):
        s = _flog(beta[feature_ids[p][a], r])
        for g in range(m):
            s += lam_act[p][a, g] * _flog(theta[g, r])
        scores.append(s)
    shift = max(scores)
    e = [math.exp(s - shift) for s in scores]
    return np.array(e) / sum(e)


def oracle_m_step0_block(y, phi_out, phi_in):
    n, _, m = phi_out.shape
    num = np.zeros((m, m))
    den = np.zeros((m, m))
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            for g in range(m):
                for h in range(m):
                    w = phi_out[p, q, g] * phi_in[p, q, h]
                    num[g, h] += y[p, q] * w
                    den[g, h] += w
    return np.clip(num / den, PROB_EPS, 1 - PROB_EPS)


def random_instance0(seed, n=4, m=2, k=2, v=3, max_acts=3):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.2, 2.0, size=m)
    raw = rng.uniform(0.05, 0.95, size=(m, m))
    block = np.clip(0.5 * (raw + raw.T), PROB_EPS, 1 - PROB_EPS)
    theta = rng.dirichlet(np.ones(k), size=m)
    beta = rng.dirichlet(np.ones(v), size=k).T
    params = ModelParams(alpha=alpha, block=block, theta=theta, beta=beta)

    counts = rng.integers(0, max_acts + 1, size=n)
    feature_ids = tuple(rng.integers(0, v, size=c) for c in counts)
    y = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
    data = ActivityDataset(feature_ids=feature_ids, links=y + y.T, n_features=v)

    gamma = rng.uniform(0.3, 3.0, size=(n, m))
    phi_out = rng.dirichlet(np.ones(m), size=(n, n))
    phi_in = rng.dirichlet(np.ones(m), size=(n, n))
    idx = np.arange(n)
    phi_out[idx, idx] = 1.0 / m
    phi_in[idx, idx] = 1.0 / m
    lam = tuple(rng.dirichlet(np.ones(m), size=c) for c in counts)
    mu = tuple(rng.dirichlet(np.ones(k), size=c) for c in counts)
    state = Glad0Variational(
        gamma=gamma, phi_out=np.moveaxis(phi_out, 2, 0), phi_in=np.moveaxis(phi_in, 2, 0),
        lam_act=lam, mu_act=mu,
    )
    return data, params, state


def pair_major(state):
    """(N, N, M) views of the state's pair arrays, the oracles' indexing."""
    return np.moveaxis(state.phi_out, 0, 2), np.moveaxis(state.phi_in, 0, 2)


# ---------------------------------------------------------------------------
# update kernels against the oracles, every entry of each block
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_update_gamma0_matches_oracle(seed):
    data, params, state = random_instance0(seed)
    n = data.n_nodes
    person = np.repeat(np.arange(n), data.activity_counts)
    act = _activity_sums(np.concatenate(state.lam_act), person, n)
    got = _gamma_block(params.alpha, state.phi_out, state.phi_in, act)
    phi_out, phi_in = pair_major(state)
    for p in range(n):
        want = oracle_gamma0(p, params.alpha, phi_out, phi_in, state.lam_act)
        np.testing.assert_allclose(got[p], want, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_update_phi_matches_oracle(seed):
    data, params, state = random_instance0(seed)
    n = data.n_nodes
    elogpi = _expected_log_pi(state.gamma)
    new_out = _group_softmax(_phi_logits(data.links, params.block, state.phi_in, elogpi, "out"))
    new_in = _group_softmax(_phi_logits(data.links, params.block, state.phi_out, elogpi, "in"))
    phi_out, phi_in = pair_major(state)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            np.testing.assert_allclose(
                new_out[:, p, q],
                oracle_phi_out(p, q, data.links, params.block, state.gamma, phi_in),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                new_in[:, p, q],
                oracle_phi_in(p, q, data.links, params.block, state.gamma, phi_out),
                atol=1e-12,
            )


@pytest.mark.parametrize("seed", range(8))
def test_update_activity_posteriors_match_oracle(seed):
    # one row per activity, people ascending, as fit0 stacks them
    data, params, state = random_instance0(seed)
    counts = data.activity_counts
    person = np.repeat(np.arange(data.n_nodes), counts)
    log_theta = floored_log(params.theta)
    log_beta = floored_log(params.beta)[np.concatenate(data.feature_ids)]
    lam = softmax(_lambda_logits(digamma(state.gamma)[person], np.concatenate(state.mu_act),
                                 log_theta))
    mu = softmax(_mu_logits(np.concatenate(state.lam_act), log_theta, log_beta))
    acts = [(p, a) for p in range(data.n_nodes) for a in range(counts[p])]
    for row, (p, a) in enumerate(acts):
        np.testing.assert_allclose(
            lam[row], oracle_lambda0(p, a, state.gamma, params.theta, state.mu_act), atol=1e-12
        )
        np.testing.assert_allclose(
            mu[row],
            oracle_mu0(p, a, data.feature_ids, params.theta, params.beta, state.lam_act),
            atol=1e-12,
        )


@pytest.mark.parametrize("seed", range(6))
def test_m_step0_block_matches_oracle(seed):
    data, params, state = random_instance0(seed, n=5, m=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = m_step0(data, state, params.alpha)
    want = oracle_m_step0_block(data.links, *pair_major(state))
    np.testing.assert_allclose(got.block, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_sweep0_is_the_public_updates_in_block_order(seed):
    # one block sweep = the oracle phi_out update over all pairs, then
    # phi_in, gamma, the activity lambdas and the activity mus, each written
    # back before the next block
    data, params, state = random_instance0(seed, n=5, m=3)
    n, counts = data.n_nodes, data.activity_counts
    gamma = np.array(state.gamma)
    phi_out, phi_in = np.array(state.phi_out), np.array(state.phi_in)
    flat_lam, flat_mu = np.concatenate(state.lam_act), np.concatenate(state.mu_act)
    person = np.repeat(np.arange(n), counts)
    ids = np.concatenate(data.feature_ids)
    _sweep0(data, params, gamma, phi_out, phi_in, flat_lam, flat_mu, person, ids)

    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    acts = [(p, a) for p in range(n) for a in range(counts[p])]
    assert acts
    want_gamma = np.array(state.gamma)
    want_out, want_in = (a.copy() for a in pair_major(state))
    want_lam = [np.array(a) for a in state.lam_act]
    want_mu = [np.array(a) for a in state.mu_act]
    for p, q in pairs:
        want_out[p, q] = oracle_phi_out(p, q, data.links, params.block, want_gamma, want_in)
    for p, q in pairs:
        want_in[p, q] = oracle_phi_in(p, q, data.links, params.block, want_gamma, want_out)
    for p in range(n):
        want_gamma[p] = oracle_gamma0(p, params.alpha, want_out, want_in, want_lam)
    for p, a in acts:
        want_lam[p][a] = oracle_lambda0(p, a, want_gamma, params.theta, want_mu)
    for p, a in acts:
        want_mu[p][a] = oracle_mu0(p, a, data.feature_ids, params.theta, params.beta, want_lam)
    np.testing.assert_allclose(np.moveaxis(phi_out, 0, 2), want_out, atol=1e-10, rtol=0)
    np.testing.assert_allclose(np.moveaxis(phi_in, 0, 2), want_in, atol=1e-10, rtol=0)
    np.testing.assert_allclose(gamma, want_gamma, atol=1e-10, rtol=0)
    np.testing.assert_allclose(flat_lam, np.concatenate(want_lam), atol=1e-10, rtol=0)
    np.testing.assert_allclose(flat_mu, np.concatenate(want_mu), atol=1e-10, rtol=0)


def test_m_step0_theta_beta_match_oracle():
    data, params, state = random_instance0(3, n=5, m=3, k=2, v=4)
    got = m_step0(data, state, params.alpha)
    m, k, v = 3, 2, 4
    theta = np.zeros((m, k))
    beta = np.zeros((v, k))
    for p in range(5):
        for a in range(data.activity_counts[p]):
            for g in range(m):
                for r in range(k):
                    theta[g, r] += state.lam_act[p][a, g] * state.mu_act[p][a, r]
            for r in range(k):
                beta[data.feature_ids[p][a], r] += state.mu_act[p][a, r]
    theta /= theta.sum(axis=1, keepdims=True)
    beta /= beta.sum(axis=0, keepdims=True)
    np.testing.assert_allclose(got.theta, theta, atol=1e-12)
    np.testing.assert_allclose(got.beta, beta, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form examples
# ---------------------------------------------------------------------------

def test_gamma0_single_node_one_activity():
    phi = np.full((2, 1, 1), 0.5)
    act = _activity_sums(np.array([[1.0, 0.0]]), np.array([0]), 1)
    got = _gamma_block(np.array([1.0, 1.0]), phi, phi, act)
    np.testing.assert_allclose(got, [[2.0, 1.0]], atol=1e-12)


def test_gamma0_uniform_pairs_count_directions():
    phi = np.full((2, 3, 3), 0.5)
    got = _gamma_block(np.zeros(2), phi, phi, np.zeros((3, 2)))
    np.testing.assert_allclose(got[1], [2.0, 2.0], atol=1e-12)


def test_phi_out_constant_block_reduces_to_digamma():
    data, params, state = random_instance0(0)
    elogpi = _expected_log_pi(state.gamma)
    logits = _phi_logits(data.links, np.full((2, 2), 0.3), state.phi_in, elogpi, "out")
    g = state.gamma[0]
    want = np.exp(scipy.special.psi(g) - scipy.special.psi(g.sum()))
    np.testing.assert_allclose(_group_softmax(logits)[:, 0, 1], want / want.sum(), atol=1e-12)


def test_phi_uniform_under_symmetric_gamma_and_flat_block():
    data, params, state = random_instance0(1)
    elogpi = _expected_log_pi(np.full((4, 2), 1.3))
    flat = np.full((2, 2), 0.4)
    for side, other in (("out", state.phi_in), ("in", state.phi_out)):
        got = _group_softmax(_phi_logits(data.links, flat, other, elogpi, side))
        np.testing.assert_allclose(got[:, 2, 3], [0.5, 0.5], atol=1e-12)


def test_phi_out_linked_follows_one_hot_counterpart():
    data, params, state = random_instance0(2)
    block = np.array([[0.9, 0.1], [0.1, 0.9]])
    linked = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    data = ActivityDataset(feature_ids=data.feature_ids, links=linked, n_features=3)
    one_hot = np.array(state.phi_in)
    one_hot[:, 0, 1] = [0.0, 1.0]
    elogpi = _expected_log_pi(np.full((4, 2), 1.0))
    got = _group_softmax(_phi_logits(data.links, block, one_hot, elogpi, "out"))
    assert got[:, 0, 1].argmax() == 1


def test_lambda0_identical_rate_rows_uses_gamma_only():
    data, params, state = random_instance0(4)
    p = 0
    if data.activity_counts[p] == 0:
        pytest.skip("instance drew no activities for person 0")
    same = np.array([[0.3, 0.7], [0.3, 0.7]])
    got = softmax(_lambda_logits(digamma(state.gamma[p]), state.mu_act[p][0], np.log(same)))
    g = np.exp(scipy.special.psi(state.gamma[p]))
    np.testing.assert_allclose(got, g / g.sum(), atol=1e-12)


def test_mu0_identical_emissions_uses_rates_only():
    data, params, state = random_instance0(6)
    p = next(p for p in range(4) if data.activity_counts[p] > 0)
    same_beta = np.full((3, 2), 1.0 / 3)
    log_beta = np.log(same_beta)[data.feature_ids[p][0]]
    got = softmax(_mu_logits(state.lam_act[p][0], floored_log(params.theta), log_beta))
    s = state.lam_act[p][0] @ np.log(params.theta)
    want = np.exp(s - s.max())
    np.testing.assert_allclose(got, want / want.sum(), atol=1e-12)


def test_mu0_one_hot_emissions_pin_the_role():
    # one activity with feature 1; role 0 emits feature 0, role 1 feature 1
    beta = np.array([[1.0, 0.0], [0.0, 1.0]])
    theta = np.array([[0.5, 0.5]])
    got = softmax(_mu_logits(np.array([1.0]), floored_log(theta), floored_log(beta)[1]))
    assert got.argmax() == 1 and got[1] > 0.999


def test_m_step0_one_hot_saturates_block():
    n, m = 4, 2
    phi_out = np.zeros((m, n, n))
    phi_in = np.zeros((m, n, n))
    phi_out[0] = 1.0
    phi_in[1] = 1.0
    y = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    data = ActivityDataset(
        feature_ids=tuple(np.zeros(0, dtype=int) for _ in range(n)), links=y, n_features=2
    )
    state = Glad0Variational(
        gamma=np.ones((n, m)),
        phi_out=phi_out,
        phi_in=phi_in,
        lam_act=tuple(np.zeros((0, m)) for _ in range(n)),
        mu_act=tuple(np.zeros((0, 2)) for _ in range(n)),
    )
    with pytest.warns(UserWarning):
        got = m_step0(data, state, np.array([0.1, 0.1]))
    assert got.block[0, 1] == pytest.approx(1 - PROB_EPS)
    assert got.block[1, 0] == pytest.approx(0.5)  # no mass: fallback


@pytest.mark.parametrize("links,match", [
    ([[0, 2], [2, 0]], "0/1"),
    ([[0, 1], [0, 0]], "symmetric"),
    ([[0, 1, 0], [1, 0, 0]], "square"),
])
def test_activity_dataset_checks_links_as_dataset_does(links, match):
    # a link weight of 2 would weight that pair twice in glad0's bound
    n = len(links)
    with pytest.raises(ValueError, match=match):
        Dataset(features=np.ones((n, 2), dtype=int), links=links)
    with pytest.raises(ValueError, match=match):
        ActivityDataset(feature_ids=(np.zeros(1, dtype=int),) * n, links=links, n_features=2)


# ---------------------------------------------------------------------------
# state container
# ---------------------------------------------------------------------------

def test_state_validation_catches_bad_rows():
    # three people, two groups, one activity each, pair arrays group-major
    phi = np.full((2, 3, 3), 0.5)
    acts = tuple(np.full((1, 2), 0.5) for _ in range(3))
    good = dict(gamma=np.full((3, 2), 0.5), phi_out=phi, phi_in=phi, lam_act=acts, mu_act=acts)
    Glad0Variational(**good)
    with pytest.raises(ValueError, match=r"\(M, N, N\)"):
        Glad0Variational(**{**good, "phi_in": np.moveaxis(phi, 0, 2)})
    bad_phi = phi.copy()
    bad_phi[:, 0, 1] = [0.7, 0.7]
    with pytest.raises(ValueError, match="simplices"):
        Glad0Variational(**{**good, "phi_out": bad_phi})
    with pytest.raises(ValueError, match="positive"):
        Glad0Variational(**{**good, "gamma": np.zeros((3, 2))})


def test_grouping_falls_back_to_gamma_without_activities():
    phi = np.full((2, 2, 2), 0.5)
    gamma = np.array([[0.2, 5.0], [1.0, 1.0]])
    lam = (np.zeros((0, 2)), np.array([[0.9, 0.1], [0.8, 0.2]]))
    mu = (np.zeros((0, 2)), np.full((2, 2), 0.5))
    state = Glad0Variational(gamma=gamma, phi_out=phi, phi_in=phi, lam_act=lam, mu_act=mu)
    np.testing.assert_array_equal(state.grouping(), [1, 0])


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------

def _planted_params():
    return ModelParams(
        alpha=np.array([0.01, 0.01]),
        block=np.array([[0.5, 0.05], [0.05, 0.5]]),
        theta=np.array([[0.9, 0.1], [0.1, 0.9]]),
        beta=np.array([[0.9, 0.05], [0.05, 0.9], [0.05, 0.05]]),
    )


def _node_truth(truth, m=2):
    return np.array(
        [np.bincount(g, minlength=m).argmax() if g.size else 0 for g in truth.group]
    )


def test_fit0_single_outer_iteration_when_tol_inf():
    data, _ = generate_glad0(_planted_params(), 12, 4, seed=0)
    res = fit0(data, 2, 2, Fit0Config(max_iters=20, tol=np.inf, seed=0))
    assert res.n_iters == 1 and res.converged


def test_fit0_checks_the_bound_at_initialization():
    # log Gamma of a subnormal prior is inf, so the very first bound is not
    # finite; the abort names the start, not the first iteration
    data, _ = generate_glad0(_planted_params(), 12, 4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(GladNumericsError, match="at initialization"):
            fit0(data, 2, 2, Fit0Config(max_iters=3, alpha0=1e-320))


def test_fit0_deterministic():
    data, _ = generate_glad0(_planted_params(), 15, 4, seed=1)
    a = fit0(data, 2, 2, Fit0Config(max_iters=8, seed=5))
    b = fit0(data, 2, 2, Fit0Config(max_iters=8, seed=5))
    np.testing.assert_array_equal(a.trace, b.trace)
    np.testing.assert_array_equal(a.params.block, b.params.block)
    np.testing.assert_array_equal(a.state.gamma, b.state.gamma)


@pytest.mark.parametrize("seed", range(3))
def test_fit0_outer_trace_monotone(seed):
    data, _ = generate_glad0(_planted_params(), 25, 6, seed=seed)
    res = fit0(data, 2, 2, Fit0Config(max_iters=30, seed=seed))
    assert np.all(np.diff(res.trace) >= -1e-8), np.diff(res.trace).min()


def test_fit0_pinned_trace_and_grouping():
    # recorded from the (N, N, M)-layout fit before the pair arrays went
    # group-major: a swapped pair or group axis, or a changed draw order of
    # the initial jitter, moves these far beyond the 1e-10 tolerance
    data, _ = generate_glad0(_planted_params(), 20, 5, seed=3)
    res = fit0(data, 3, 2, Fit0Config(max_iters=4, tol=0.0, inner_max=10, inner_tol=0.0, seed=7))
    want_trace = [
        -592.3616151387754, -423.85868244302145, -340.12194306688326,
        -284.94598611506524, -269.02802197494634,
    ]
    want_grouping = [1, 2, 1, 2, 2, 1, 1, 0, 1, 2, 1, 1, 2, 1, 1, 2, 0, 0, 1, 2]
    np.testing.assert_allclose(res.trace, want_trace, rtol=1e-10, atol=0)
    np.testing.assert_array_equal(res.state.grouping(), want_grouping)


def test_fit0_elbo_matches_oracle_on_returned_state():
    # the traced bound equals an independent recomputation on the snapshot
    data, _ = generate_glad0(_planted_params(), 10, 3, seed=2)
    res = fit0(data, 2, 2, Fit0Config(max_iters=5, seed=0))
    again = compute_elbo0(data, res.params, res.state)
    assert abs(again - res.trace[-1]) <= 1e-8 * max(1.0, abs(again))


def test_fit0_recovers_planted_groups():
    data, truth = generate_glad0(_planted_params(), 60, 20, seed=2)
    res = fit0(data, 2, 2, Fit0Config(max_iters=60, tol=1e-5, seed=2, restarts=2))
    tg = _node_truth(truth)
    g = res.state.grouping()
    acc = max((g == tg).mean(), (g != tg).mean())
    assert acc >= 0.9, acc


def test_fit0_restarts_never_lose_bound():
    data, _ = generate_glad0(_planted_params(), 30, 8, seed=0)
    single = fit0(data, 2, 2, Fit0Config(max_iters=25, seed=0))
    multi = fit0(data, 2, 2, Fit0Config(max_iters=25, seed=0, restarts=3))
    assert multi.trace[-1] >= single.trace[-1] - 1e-6


def test_fit0_without_activities_reduces_to_pair_mmsb():
    # two disconnected cliques, nobody has activities: the fit must still
    # separate the cliques, matching the node-level MMSB fit
    n = 16
    y = np.zeros((n, n), dtype=int)
    y[: n // 2, : n // 2] = 1
    y[n // 2 :, n // 2 :] = 1
    np.fill_diagonal(y, 0)
    data = ActivityDataset(
        feature_ids=tuple(np.zeros(0, dtype=int) for _ in range(n)),
        links=y,
        n_features=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = fit0(data, 2, 2, Fit0Config(max_iters=20, seed=0))
        ref = fit_mmsb(y, 2, FitConfig(max_iters=30, seed=0)).grouping
    g = res.state.grouping()
    assert len(set(g[: n // 2])) == 1 and len(set(g[n // 2 :])) == 1 and g[0] != g[-1]
    same_fit0 = g[:, None] == g[None, :]
    same_ref = ref[:, None] == ref[None, :]
    np.testing.assert_array_equal(same_fit0, same_ref)


def test_fit0_returned_state_satisfies_invariants():
    data, _ = generate_glad0(_planted_params(), 12, 3, seed=4)
    res = fit0(data, 2, 2, Fit0Config(max_iters=6, seed=1))
    s = res.state
    np.testing.assert_allclose(s.phi_out.sum(axis=0), 1.0, atol=1e-9)
    np.testing.assert_allclose(s.phi_in.sum(axis=0), 1.0, atol=1e-9)
    for lam, mu in zip(s.lam_act, s.mu_act):
        if lam.size:
            np.testing.assert_allclose(lam.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(s.gamma > 0)
