import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
from scipy.optimize import linear_sum_assignment

from glad import glad_vem
from glad.baselines import stage_one
from glad.generator import InjectionConfig, generate_glad, inject_anomalies
from glad.glad_vem import (
    RESTART_TIE,
    FitConfig,
    FitResult,
    Member,
    _cross_index,
    _expected_log_pi,
    _lambda_logits,
    _mu_logits,
    _sequential_sweep,
    best_of_restarts,
    compute_elbo,
    fit,
    fit_members,
    infer_state,
    init_state,
    m_step,
    run_em,
)
from glad.model import (
    Dataset,
    GladNumericsError,
    GladVariational,
    ModelParams,
    PROB_EPS,
    floored_log,
    gammaln,
    softmax,
)


# ---------------------------------------------------------------------------
# straight-line oracles: plain loops, scipy digamma, math.lgamma -- written
# independently of the vectorized implementation
# ---------------------------------------------------------------------------

def _flog(v):
    return math.log(max(float(v), 1e-12))


def oracle_lambda(p, X, Y, alpha, B, theta, beta, gamma, lam, mu):
    N, M = lam.shape
    K = mu.shape[1]
    scores = []
    for m in range(M):
        s = 0.0
        for k in range(K):
            s += mu[p, k] * _flog(theta[m, k])
        s += scipy.special.psi(gamma[p, m]) - scipy.special.psi(gamma[p].sum())
        for q in range(N):
            if q == p:
                continue
            for n in range(M):
                f = Y[p, q] * math.log(B[m, n]) + (1 - Y[p, q]) * math.log(1 - B[m, n])
                s += lam[q, n] * f
        scores.append(s)
    shift = max(scores)
    e = [math.exp(s - shift) for s in scores]
    z = sum(e)
    return np.array([v / z for v in e])


def oracle_mu(p, X, theta, beta, lam):
    V, K = beta.shape
    M = theta.shape[0]
    scores = []
    for k in range(K):
        s = 0.0
        for v in range(V):
            s += X[p, v] * _flog(beta[v, k])
        for m in range(M):
            s += lam[p, m] * _flog(theta[m, k])
        scores.append(s)
    shift = max(scores)
    e = [math.exp(s - shift) for s in scores]
    z = sum(e)
    return np.array([v / z for v in e])


def oracle_m_step(X, Y, lam, mu):
    N, M = lam.shape
    K = mu.shape[1]
    V = X.shape[1]
    beta = np.zeros((V, K))
    for v in range(V):
        for k in range(K):
            for p in range(N):
                beta[v, k] += X[p, v] * mu[p, k]
    beta /= beta.sum(axis=0, keepdims=True)
    theta = np.zeros((M, K))
    for m in range(M):
        for k in range(K):
            for p in range(N):
                theta[m, k] += mu[p, k] * lam[p, m]
    theta /= theta.sum(axis=1, keepdims=True)
    num = np.zeros((M, M))
    den = np.zeros((M, M))
    for p in range(N):
        for q in range(N):
            if p == q:
                continue
            for m in range(M):
                for n in range(M):
                    num[m, n] += Y[p, q] * lam[p, m] * lam[q, n]
                    den[m, n] += lam[p, m] * lam[q, n]
    block = np.clip(num / den, PROB_EPS, 1 - PROB_EPS)
    return block, theta, beta


def oracle_elbo(X, Y, alpha, B, theta, beta, gamma, lam, mu):
    N, V = X.shape
    M, K = theta.shape
    psi = scipy.special.psi
    total = 0.0
    elogpi = [[psi(gamma[p, m]) - psi(gamma[p].sum()) for m in range(M)] for p in range(N)]
    for p in range(N):
        a_p = int(X[p].sum())
        coef = math.lgamma(a_p + 1)
        for v in range(V):
            coef -= math.lgamma(int(X[p, v]) + 1)
        total += coef
        for k in range(K):
            s = 0.0
            for v in range(V):
                s += X[p, v] * _flog(beta[v, k])
            total += mu[p, k] * s
        for m in range(M):
            for k in range(K):
                total += lam[p, m] * mu[p, k] * _flog(theta[m, k])
        for m in range(M):
            total += lam[p, m] * elogpi[p][m]
    for p in range(N):
        for q in range(p + 1, N):
            for m in range(M):
                for n in range(M):
                    f = Y[p, q] * math.log(B[m, n]) + (1 - Y[p, q]) * math.log(1 - B[m, n])
                    total += lam[p, m] * lam[q, n] * f
    for p in range(N):
        total += math.lgamma(alpha.sum()) - sum(math.lgamma(a) for a in alpha)
        for m in range(M):
            total += (alpha[m] - 1.0) * elogpi[p][m]
        total -= math.lgamma(gamma[p].sum()) - sum(math.lgamma(g) for g in gamma[p])
        for m in range(M):
            total -= (gamma[p, m] - 1.0) * elogpi[p][m]
        for m in range(M):
            if lam[p, m] > 0:
                total -= lam[p, m] * _flog(lam[p, m])
        for k in range(K):
            if mu[p, k] > 0:
                total -= mu[p, k] * _flog(mu[p, k])
    return total


def random_instance(seed, n=4, m=2, k=2, v=3):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.2, 2.0, size=m)
    raw = rng.uniform(0.05, 0.95, size=(m, m))
    block = np.clip(0.5 * (raw + raw.T), PROB_EPS, 1 - PROB_EPS)
    theta = rng.dirichlet(np.ones(k), size=m)
    beta = rng.dirichlet(np.ones(v), size=k).T
    params = ModelParams(alpha=alpha, block=block, theta=theta, beta=beta)
    x = rng.integers(0, 9, size=(n, v))
    y = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
    y = y + y.T
    data = Dataset(features=x, links=y)
    gamma = rng.uniform(0.3, 3.0, size=(n, m))
    lam = rng.dirichlet(np.ones(m), size=n)
    mu = rng.dirichlet(np.ones(k), size=n)
    state = GladVariational(gamma=gamma, lam=lam, mu=mu)
    return data, params, state


def rel_close(a, b, tol=1e-10):
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# update kernels against the oracles.  The lambda kernel takes what the sweep
# computes once per sweep: E[log pi] and role logits of every person, the
# neighbour rows, the column sum of lambda and the log block matrices.
# ---------------------------------------------------------------------------

def one_graph_lambda(neighbours, lam, col, log_b, log_1mb):
    """The sweep's lambda kernel for one fit on one graph, as a function of
    p, E[log pi_p] and p's role logits: ``lam`` is the member table over its
    zero row, which ``_cross_index([neighbours])`` indexes."""
    rows, starts = _cross_index([neighbours])
    table = np.vstack([lam, np.zeros((1, lam.shape[1]))])

    def logits(p, elogpi_p, role_logits_p):
        return _lambda_logits(p, elogpi_p, rows[p], starts[p], table, table[:-1], col,
                              log_b, log_1mb, role_logits_p)
    return logits


def test_init_state_uniform():
    s = init_state(3, 4, 2)
    np.testing.assert_array_equal(s.gamma, np.full((3, 4), 0.25))
    np.testing.assert_array_equal(s.lam, np.full((3, 4), 0.25))
    np.testing.assert_array_equal(s.mu, np.full((3, 2), 0.5))
    with pytest.raises(ValueError):
        init_state(0, 2, 2)


def test_update_gamma_is_alpha_plus_lambda():
    # the sweep's gamma block reads every person's pre-sweep lambda
    data, params, state = random_instance(0)
    gamma, lam, mu = (np.array(a) for a in (state.gamma, state.lam, state.mu))
    xlogbeta = data.features @ floored_log(params.beta)
    run = SimpleNamespace(params=params, gamma=gamma, lam=lam, mu=mu, xlogbeta=xlogbeta)
    _sequential_sweep([[run]], _cross_index([data.neighbours]))
    np.testing.assert_array_equal(gamma, params.alpha + state.lam)


@pytest.mark.parametrize("seed", range(10))
def test_update_lambda_matches_oracle(seed):
    data, params, state = random_instance(seed)
    elogpi = _expected_log_pi(state.gamma)
    role_logits = state.mu @ floored_log(params.theta).T
    col = state.lam.sum(axis=0)
    log_b, log_1mb = np.log(params.block), np.log1p(-params.block)
    logits = one_graph_lambda(data.neighbours, state.lam, col, log_b, log_1mb)
    for p in range(data.n_nodes):
        got = softmax(logits(p, elogpi[p], role_logits[p]))
        want = oracle_lambda(
            p, data.features, data.links, params.alpha, params.block,
            params.theta, params.beta, state.gamma, state.lam, state.mu,
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_update_mu_matches_oracle(seed):
    data, params, state = random_instance(seed, v=4)
    got = softmax(_mu_logits(state.lam, floored_log(params.theta),
                             data.features @ floored_log(params.beta)))
    for p in range(data.n_nodes):
        want = oracle_mu(p, data.features, params.theta, params.beta, state.lam)
        np.testing.assert_allclose(got[p], want, atol=1e-12)


def test_update_lambda_constant_block_ignores_links():
    # all block entries equal: the pairwise term is constant in m and the
    # result is driven by the point-wise and digamma terms alone
    data, params, state = random_instance(3)
    elogpi = _expected_log_pi(state.gamma)
    role_logits = state.mu @ floored_log(params.theta).T
    col = state.lam.sum(axis=0)
    log_b, log_1mb = np.log(np.full((2, 2), 0.4)), np.log1p(-np.full((2, 2), 0.4))
    no_links = (np.zeros(data.n_nodes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    kernels = [one_graph_lambda(graph, state.lam, col, log_b, log_1mb)
               for graph in (data.neighbours, no_links)]
    for p in range(data.n_nodes):
        linked, alone = (
            softmax(logits(p, elogpi[p], role_logits[p])) for logits in kernels
        )
        np.testing.assert_allclose(linked, alone, atol=1e-12)


def test_update_lambda_single_node_uniform():
    # N=1: no pairwise terms; uniform theta and symmetric gamma give uniform
    data = Dataset(features=np.array([[3, 1]]), links=np.zeros((1, 1)))
    params = ModelParams(
        alpha=np.array([0.1, 0.1]),
        block=np.full((2, 2), 0.3),
        theta=np.full((2, 2), 0.5),
        beta=np.array([[0.7, 0.3], [0.3, 0.7]]),
    )
    gamma, lam, mu = np.array([[1.2, 1.2]]), np.array([[0.5, 0.5]]), np.array([[0.6, 0.4]])
    logits = one_graph_lambda(
        data.neighbours, lam, lam.sum(axis=0), np.log(params.block), np.log1p(-params.block)
    )(0, _expected_log_pi(gamma[0]), floored_log(params.theta) @ mu[0])
    np.testing.assert_allclose(softmax(logits), [0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_m_step_matches_oracle(seed):
    data, params, state = random_instance(seed, n=5, m=3, k=2, v=4)
    got = m_step(data, state, params.alpha)
    block, theta, beta = oracle_m_step(data.features, data.links, state.lam, state.mu)
    np.testing.assert_allclose(got.block, block, atol=1e-12)
    np.testing.assert_allclose(got.theta, theta, atol=1e-12)
    np.testing.assert_allclose(got.beta, beta, atol=1e-12)
    np.testing.assert_array_equal(got.alpha, params.alpha)


def test_m_step_one_hot_clique_saturates_block():
    # every person hard-assigned to group 0 and fully linked: the (0, 0)
    # block rate hits the upper clamp; empty cells fall back to 1/2
    n = 4
    lam = np.zeros((n, 2))
    lam[:, 0] = 1.0
    mu = np.full((n, 2), 0.5)
    state = GladVariational(gamma=np.ones((n, 2)), lam=lam, mu=mu)
    y = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    data = Dataset(features=np.ones((n, 2), dtype=int), links=y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = m_step(data, state, np.array([0.1, 0.1]))
    assert got.block[0, 0] == pytest.approx(1 - PROB_EPS)
    assert got.block[1, 1] == pytest.approx(0.5)


@pytest.mark.parametrize("seed", range(8))
def test_compute_elbo_matches_oracle(seed):
    data, params, state = random_instance(seed, n=5, m=3, k=2, v=3)
    got = compute_elbo(data, params, state)
    want = oracle_elbo(
        data.features, data.links, params.alpha, params.block,
        params.theta, params.beta, state.gamma, state.lam, state.mu,
    )
    assert rel_close(got, want), (got, want)


# dense oracles of the pair terms: the N x N matrix forms the edge kernels
# replace, written out with the diagonal masked by hand

def dense_oracle_elbo(X, Y, alpha, B, theta, beta, gamma, lam, mu):
    psi, lg = scipy.special.psi, scipy.special.gammaln
    n = lam.shape[0]
    elogpi = psi(gamma) - psi(gamma.sum(axis=1))[:, None]
    upper = np.triu(np.ones((n, n)), k=1)
    y = upper * Y
    linked = lam.T @ y @ lam
    unlinked = lam.T @ (upper - y) @ lam
    pair = (linked * np.log(B)).sum() + (unlinked * np.log1p(-B)).sum()
    flog = lambda a: np.log(np.maximum(a, 1e-12))  # noqa: E731
    point = (lg(X.sum(axis=1) + 1.0).sum() - lg(X + 1.0).sum()
             + (mu * (X @ flog(beta))).sum())
    role = (lam * (mu @ flog(theta).T)).sum()
    prior = n * (lg(alpha.sum()) - lg(alpha).sum()) + ((alpha - 1.0) * elogpi).sum()
    ent_gamma = (lg(gamma.sum(axis=1)) - lg(gamma).sum(axis=1)
                 + ((gamma - 1.0) * elogpi).sum(axis=1)).sum()
    ent = (lam * flog(lam)).sum() + (mu * flog(mu)).sum()
    return point + role + (lam * elogpi).sum() + pair + prior - ent_gamma - ent


def dense_oracle_block(Y, lam):
    off = 1.0 - np.eye(lam.shape[0])
    linked = lam.T @ (off * Y) @ lam
    total = lam.T @ off @ lam
    return np.clip(linked / total, PROB_EPS, 1 - PROB_EPS)


def _with_self_links(data):
    # ones on the diagonal, which every kernel ignores
    return Dataset(features=data.features, links=np.maximum(data.links, np.eye(data.n_nodes)))


def _asymmetric(params, seed):
    raw = np.random.default_rng(seed).uniform(0.05, 0.95, size=params.block.shape)
    return ModelParams(params.alpha, raw, params.theta, params.beta)


@pytest.mark.parametrize("asymmetric", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_compute_elbo_matches_oracles_with_self_links(seed, asymmetric):
    for n, oracle in ((5, oracle_elbo), (40, dense_oracle_elbo)):
        data, params, state = random_instance(seed, n=n, m=3, k=2, v=3)
        data = _with_self_links(data)
        if asymmetric:
            params = _asymmetric(params, seed)
        got = compute_elbo(data, params, state)
        want = oracle(
            data.features, data.links, params.alpha, params.block,
            params.theta, params.beta, state.gamma, state.lam, state.mu,
        )
        assert rel_close(got, want), (n, got, want)


@pytest.mark.parametrize("seed", range(4))
def test_m_step_block_matches_oracles_with_self_links(seed):
    data, params, state = random_instance(seed, n=5, m=3, k=2, v=4)
    data = _with_self_links(data)
    want, _, _ = oracle_m_step(data.features, data.links, state.lam, state.mu)
    np.testing.assert_allclose(m_step(data, state, params.alpha).block, want,
                               rtol=1e-10, atol=0)
    data, params, state = random_instance(seed, n=40, m=3, k=2, v=4)
    data = _with_self_links(data)
    np.testing.assert_allclose(m_step(data, state, params.alpha).block,
                               dense_oracle_block(data.links, state.lam), rtol=1e-10, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_lambda_updates_ignore_self_links(seed):
    data, params, state = random_instance(seed, n=6, m=3, k=2, v=3)
    looped = _with_self_links(data)
    elogpi = _expected_log_pi(state.gamma)
    role_logits = state.mu @ floored_log(params.theta).T
    col = state.lam.sum(axis=0)
    log_b, log_1mb = np.log(params.block), np.log1p(-params.block)
    logits = one_graph_lambda(looped.neighbours, state.lam, col, log_b, log_1mb)
    for p in range(data.n_nodes):
        want = oracle_lambda(
            p, data.features, looped.links, params.alpha, params.block,
            params.theta, params.beta, state.gamma, state.lam, state.mu,
        )
        got = softmax(logits(p, elogpi[p], role_logits[p]))
        np.testing.assert_allclose(got, want, atol=1e-12)
    swept, _ = infer_state(looped, params, FitConfig(max_iters=2))
    plain, _ = infer_state(data, params, FitConfig(max_iters=2))
    np.testing.assert_array_equal(swept.lam, plain.lam)


def test_compute_elbo_trivial_instance_is_zero():
    # one person, one group, one role, one feature, alpha = [1]: every term
    # vanishes or cancels at the converged state gamma = alpha + lambda
    data = Dataset(features=np.array([[7]]), links=np.zeros((1, 1)))
    params = ModelParams(
        alpha=np.array([1.0]),
        block=np.array([[0.5]]),
        theta=np.array([[1.0]]),
        beta=np.array([[1.0]]),
    )
    state = GladVariational(gamma=np.array([[2.0]]), lam=np.array([[1.0]]), mu=np.array([[1.0]]))
    assert compute_elbo(data, params, state) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fit loop behaviour
# ---------------------------------------------------------------------------

def _planted(seed=0, n=120, m=3):
    cfg = InjectionConfig(n_nodes=n, n_groups=m, block_in=0.35, block_out=0.05, seed=seed)
    return inject_anomalies(cfg)


def test_fit_trace_monotone_and_converges():
    data, _ = _planted(seed=2)
    res = fit(data, 3, 2, FitConfig(max_iters=80, seed=1))
    diffs = np.diff(res.trace)
    assert np.all(diffs >= -1e-8), diffs.min()
    assert res.converged


def test_fit_tol_inf_runs_exactly_one_iteration():
    data, _ = _planted(seed=3, n=40)
    res = fit(data, 3, 2, FitConfig(tol=np.inf, seed=0))
    assert res.n_iters == 1
    assert res.converged


def test_run_em_records_steps_and_stops_on_relative_change():
    steps = iter([-50.0, -20.0, -19.99999, -19.0])
    trace, converged = run_em(-100.0, steps.__next__, 10, 1e-6)
    np.testing.assert_array_equal(trace, [-100.0, -50.0, -20.0, -19.99999])
    assert converged
    # below 1 the change is absolute; tol=0 stops only on an exact repeat
    trace, converged = run_em(0.0, iter([1e-7, 1e-7]).__next__, 10, 0.0)
    np.testing.assert_array_equal(trace, [0.0, 1e-7, 1e-7])
    assert converged


def test_run_em_caps_iterations():
    trace, converged = run_em(0.0, iter(range(1, 100)).__next__, 3, 1e-6)
    np.testing.assert_array_equal(trace, [0.0, 1.0, 2.0, 3.0])
    assert not converged
    trace, converged = run_em(0.0, iter([1.0]).__next__, 0, np.inf)
    np.testing.assert_array_equal(trace, [0.0])
    assert not converged


def test_run_em_names_the_non_finite_iteration():
    with pytest.raises(GladNumericsError, match="at initialization"):
        run_em(np.nan, iter([1.0]).__next__, 5, 1e-6)
    with pytest.raises(GladNumericsError, match="at iteration 2"):
        run_em(-10.0, iter([-5.0, -np.inf, 0.0]).__next__, 5, 1e-6)


@pytest.mark.parametrize("bounds, winner", [
    # two label-permuted copies of one optimum: dglad's anchor on a planted
    # instance ended at these bounds, 1.5e-16 apart
    ([-780.8343992347864, -780.8343992347862, -780.8343992347864], 0),
    ([-100.0, -100.0 * (1 - 0.5 * RESTART_TIE)], 0),
    ([100.0, 100.0 * (1 + 0.5 * RESTART_TIE), 99.0], 0),
    # clearly better: the later run wins, and must beat the new best
    ([-100.0, -100.0 * (1 - 2 * RESTART_TIE)], 1),
    ([-100.0, -90.0, -90.0 * (1 - 0.5 * RESTART_TIE), -95.0], 1),
    ([-100.0, -120.0, -80.0], 2),
])
def test_best_of_restarts_keeps_the_earlier_run_on_rounding_ties(bounds, winner):
    runs = iter(range(len(bounds)))

    def run(seed):
        index = next(runs)
        return SimpleNamespace(trace=np.array([-1e6, bounds[index]]), index=index)

    assert best_of_restarts(run, 0, len(bounds)).index == winner


def test_bound_multinomial_coefficient_is_derived_once():
    # the bound's data-only term is cached on the dataset, with the value of
    # the expression compute_elbo evaluated on every call before
    data, _ = _planted(seed=1, n=30)
    x = data.features
    want = float(gammaln(x.sum(axis=1) + 1.0).sum() - gammaln(x + 1.0).sum())
    assert "log_multinomial_coef" not in vars(data)
    assert data.log_multinomial_coef == want
    assert vars(data)["log_multinomial_coef"] == want


def test_fit_checks_the_bound_at_initialization():
    # a subnormal prior passes the config check, but log Gamma of it is
    # inf and the prior's normalizer inf - inf; the abort names the start,
    # not the first iteration
    data, _ = _planted(seed=0, n=30)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(GladNumericsError, match="at initialization"):
            fit(data, 2, 2, FitConfig(max_iters=3, alpha0=1e-320))


def test_fit_deterministic_under_seed():
    data, _ = _planted(seed=4, n=60)
    r1 = fit(data, 3, 2, FitConfig(max_iters=30, seed=7))
    r2 = fit(data, 3, 2, FitConfig(max_iters=30, seed=7))
    np.testing.assert_array_equal(r1.trace, r2.trace)
    np.testing.assert_array_equal(r1.state.lam, r2.state.lam)
    np.testing.assert_array_equal(r1.params.theta, r2.params.theta)
    r3 = fit(data, 3, 2, FitConfig(max_iters=30, seed=8))
    assert not np.array_equal(r1.state.lam, r3.state.lam)


def test_fit_pinned_trace_and_grouping():
    # recorded before glad, glad0 and the baselines shared one copy of the
    # M-step, bound terms and stopping rule: a reordered update or a changed
    # random stream moves these far beyond the 1e-10 tolerance
    cfg = InjectionConfig(n_nodes=30, n_groups=3, block_in=0.35, block_out=0.05, seed=6)
    data, _ = inject_anomalies(cfg)
    res = fit(data, 3, 2, FitConfig(max_iters=5, tol=0.0, seed=3))
    want_trace = [
        -1975.1607807623604, -478.72261539809426, -296.07448971636154,
        -294.21181000396115, -285.9062419306789, -271.4820624088958,
    ]
    want_grouping = [
        1, 2, 0, 2, 2, 0, 0, 2, 0, 2, 1, 1, 1, 1, 1,
        1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0,
    ]
    np.testing.assert_allclose(res.trace, want_trace, rtol=1e-10, atol=0)
    np.testing.assert_array_equal(res.state.grouping(), want_grouping)
    assert not res.converged


def test_fit_recovers_planted_partition():
    data, truth = _planted(seed=0, n=500, m=5)
    res = fit(data, 5, 2, FitConfig(max_iters=100, seed=0))
    inferred = res.state.grouping()
    overlap = np.zeros((5, 5))
    for g_true, g_hat in zip(truth.group, inferred):
        overlap[g_true, g_hat] += 1
    rows, cols = linear_sum_assignment(-overlap)
    agreement = overlap[rows, cols].sum() / data.n_nodes
    assert agreement >= 0.95, agreement


# ---------------------------------------------------------------------------
# fits on one graph in lockstep
# ---------------------------------------------------------------------------

def _assert_lone_fit(got, member, n_groups):
    # a member's result is its lone fit's bit for bit, with the same
    # grouping and stopping point; its arrays are its own
    want = fit(member.data, n_groups, member.n_roles, member.config)
    assert (got.n_iters, got.converged) == (want.n_iters, want.converged)
    np.testing.assert_array_equal(got.state.grouping(), want.state.grouping())
    np.testing.assert_array_equal(got.trace, want.trace)
    for part in ("state", "params"):
        for name, value in vars(getattr(got, part)).items():
            assert value.flags.c_contiguous and value.flags.owndata, (part, name)
            np.testing.assert_array_equal(value, getattr(getattr(want, part), name),
                                          err_msg=f"{part}.{name}")


def _stops(results):
    return [(r.n_iters, r.converged) for r in results]


def test_fit_members_joint_fit_and_stage_one_match_their_lone_fits():
    data, _ = _planted(seed=2, n=90)
    config = FitConfig(max_iters=60, seed=2)
    members = [Member(data, 2, config), stage_one(data, config)]
    got = fit_members(members, 3)
    # the stage-one member stops one iteration before the joint fit
    assert _stops(got) == [(7, True), (6, True)]
    for result, member in zip(got, members):
        _assert_lone_fit(result, member, 3)


def test_fit_members_restarts_stop_where_their_lone_fits_stop():
    data, _ = _planted(seed=2, n=90)
    members = [
        Member(data, 2, FitConfig(max_iters=cap, seed=seed))
        for seed, cap in ((0, 200), (1, 200), (2, 4))
    ]
    got = fit_members(members, 3)
    assert _stops(got) == [(11, True), (7, True), (4, False)]
    for result, member in zip(got, members):
        _assert_lone_fit(result, member, 3)
    assert not np.shares_memory(got[0].state.lam, got[1].state.lam)


def test_fit_members_a_non_finite_start_fails_that_member_alone():
    # a subnormal prior makes the starting bound non-finite (see
    # test_fit_checks_the_bound_at_initialization)
    data, _ = _planted(seed=0, n=30)
    good, bad = FitConfig(max_iters=3, seed=1), FitConfig(max_iters=3, alpha0=1e-320)
    members = [Member(data, 2, good), Member(data, 2, bad), Member(data, 2, good)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = fit_members(members, 2)
        with pytest.raises(GladNumericsError) as lone:
            fit(data, 2, 2, bad)
    assert isinstance(got[1], GladNumericsError)
    assert str(got[1]) == str(lone.value) and "at initialization" in str(got[1])
    for i in (0, 2):
        _assert_lone_fit(got[i], members[i], 2)


def test_fit_members_a_bound_failing_mid_fit_stops_that_member_alone(monkeypatch):
    # the bound of one member's dataset turns NaN at every third evaluation,
    # which is iteration 2 of the member fit and of the lone fit after it:
    # that member stops there with fit's error, the others run on
    data, _ = _planted(seed=2, n=60)
    failing = data.with_features(data.features)
    real, calls = glad_vem._elbo, []

    def elbo(d, *pieces):
        if d is failing:
            calls.append(d)
            if len(calls) % 3 == 0:
                return np.nan
        return real(d, *pieces)

    monkeypatch.setattr(glad_vem, "_elbo", elbo)
    config = FitConfig(max_iters=30, seed=0)
    members = [Member(data, 2, config), Member(failing, 2, config), stage_one(data, config)]
    got = fit_members(members, 3)
    with pytest.raises(GladNumericsError) as lone:
        fit(failing, 3, 2, config)
    assert isinstance(got[1], GladNumericsError)
    assert str(got[1]) == str(lone.value) and "at iteration 2" in str(got[1])
    assert min(got[0].n_iters, got[2].n_iters) > 2
    for i in (0, 2):
        _assert_lone_fit(got[i], members[i], 3)


def _graphs_swept(monkeypatch):
    # the member count of each graph of every sweep
    real, swept = glad_vem._sequential_sweep, []

    def sweep(by_graph, across):
        swept.append([len(runs) for runs in by_graph])
        return real(by_graph, across)

    monkeypatch.setattr(glad_vem, "_sequential_sweep", sweep)
    return swept


def test_fit_members_on_several_graphs_match_their_lone_fits(monkeypatch):
    # three graphs of 90 people with two, one and three members, listed out
    # of graph order; the graphs' members stop at different iterations, so
    # the set of graphs swept together shrinks as the fit runs
    a, b, c = (_planted(seed=seed, n=90)[0] for seed in (2, 3, 4))
    members = [
        Member(a, 2, FitConfig(max_iters=60, seed=2)),
        Member(c, 2, FitConfig(max_iters=60, seed=0)),
        Member(b, 2, FitConfig(max_iters=3, seed=1)),
        stage_one(a, FitConfig(max_iters=60, seed=2)),
        Member(c, 2, FitConfig(max_iters=60, seed=1)),
        stage_one(c, FitConfig(max_iters=5, seed=0)),
    ]
    swept = _graphs_swept(monkeypatch)
    got = fit_members(members, 3)
    assert _stops(got) == [(7, True), (6, True), (3, False), (6, True), (6, True), (5, False)]
    assert swept == [[2, 3, 1]] * 3 + [[2, 3]] * 2 + [[2, 2], [1]]
    for result, member in zip(got, members):
        _assert_lone_fit(result, member, 3)


def test_fit_members_share_a_graph_whose_links_are_equal(monkeypatch):
    data, _ = _planted(seed=2, n=60)
    copy = Dataset(features=data.features, links=data.links.copy())
    other, _ = _planted(seed=3, n=60)
    swept = _graphs_swept(monkeypatch)
    config = FitConfig(max_iters=2, seed=0)
    fit_members([Member(data, 2, config), Member(other, 2, config), Member(copy, 2, config)], 3)
    assert swept == [[2, 1]] * 2


def test_fit_members_one_graph_stops_early_or_fails_while_the_others_run_on(monkeypatch):
    # the bound of the first graph's member turns NaN at iteration 2, the
    # second graph's member stops at its cap of 2, and the third graph's
    # members run to convergence on their own
    a, b, c = (_planted(seed=seed, n=60)[0] for seed in (1, 2, 3))
    real, calls = glad_vem._elbo, []

    def elbo(d, *pieces):
        if d is a:
            calls.append(d)
            if len(calls) % 3 == 0:
                return np.nan
        return real(d, *pieces)

    monkeypatch.setattr(glad_vem, "_elbo", elbo)
    config = FitConfig(max_iters=30, seed=0)
    members = [Member(a, 2, config), Member(b, 2, replace(config, max_iters=2)),
               Member(c, 2, config), stage_one(c, config)]
    got = fit_members(members, 3)
    with pytest.raises(GladNumericsError) as lone:
        fit(a, 3, 2, config)
    assert isinstance(got[0], GladNumericsError)
    assert str(got[0]) == str(lone.value) and "at iteration 2" in str(got[0])
    assert got[1].n_iters == 2 and min(got[2].n_iters, got[3].n_iters) > 2
    for i in (1, 2, 3):
        _assert_lone_fit(got[i], members[i], 3)


def test_fit_members_on_several_graphs_do_not_depend_on_the_other_graphs():
    # a's members give the same floats beside a graph that stops after one
    # iteration, beside one with three members that runs on, and beside
    # both: the fit sums a's linked mass by segments to its end, whatever
    # else is swept with it
    a, b, c = (_planted(seed=seed, n=60)[0] for seed in (1, 2, 3))
    config = FitConfig(max_iters=30, seed=0)
    mine = [Member(a, 2, config), stage_one(a, config)]
    short = [Member(b, 2, replace(config, max_iters=1))]
    long = [Member(c, 2, replace(config, seed=s)) for s in (1, 2, 3)]
    runs = [fit_members(mine + others, 3)[:2] for others in (short, long, long + short)]
    assert min(r.n_iters for r in runs[0]) > 2
    for got in runs[1:]:
        for x, y in zip(runs[0], got):
            np.testing.assert_array_equal(x.trace, y.trace)
            for part in ("state", "params"):
                for name, value in vars(getattr(x, part)).items():
                    np.testing.assert_array_equal(value, getattr(getattr(y, part), name))


def test_fit_members_need_graphs_of_one_size():
    data, _ = _planted(seed=1, n=30)
    other, _ = _planted(seed=2, n=36)
    with pytest.raises(ValueError, match="graphs of one size"):
        fit_members([Member(data, 2), Member(other, 2)], 3)
    assert fit_members([], 3) == []


def test_member_bound_from_shared_pieces_equals_compute_elbo():
    # every bound of a member fit comes from the E[log pi] of its sweep,
    # the prior's normaliser of its start and its M-step's xlogbeta; a
    # fresh compute_elbo at the final state gives the same float
    a, b = (_planted(seed=seed, n=60)[0] for seed in (1, 2))
    config = FitConfig(max_iters=4, seed=0)
    members = [Member(a, 2, config), stage_one(a, config), Member(b, 2, replace(config, seed=1))]
    results = fit_members(members, 3) + [fit(a, 3, 2, config)]
    for member, result in zip(members + members[:1], results, strict=True):
        assert result.trace[-1] == compute_elbo(member.data, result.params, result.state)


def test_fit_warns_more_groups_than_people():
    data = Dataset(features=np.array([[2, 1], [1, 2]]), links=np.array([[0, 1], [1, 0]]))
    with pytest.warns(UserWarning):
        fit(data, 3, 2, FitConfig(max_iters=2, seed=0))


@pytest.mark.parametrize("constant_feature", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_infer_state_sweep_is_the_public_updates_in_place(seed, constant_feature):
    # one E-sweep = the oracle updates gamma_p -> lambda_p -> mu_p for each
    # person in index order, each result written back before the next
    # person.  On the MMSB baseline's data (one role, one feature that every
    # person shows once, theta = beta = 1) the oracle's role term is zero.
    data, params, _ = random_instance(seed, n=6, m=3, k=2, v=3)
    if constant_feature:
        data = Dataset(features=np.ones((data.n_nodes, 1), dtype=np.int64), links=data.links)
        params = replace(params, theta=np.ones((params.n_groups, 1)), beta=np.ones((1, 1)))
    state, _ = infer_state(data, params, FitConfig(max_iters=1))
    start = init_state(data.n_nodes, params.n_groups, params.n_roles)
    gamma, lam, mu = (np.array(a) for a in (start.gamma, start.lam, start.mu))
    for p in range(data.n_nodes):
        gamma[p] = params.alpha + lam[p]
        lam[p] = oracle_lambda(p, data.features, data.links, params.alpha, params.block,
                               params.theta, params.beta, gamma, lam, mu)
        mu[p] = oracle_mu(p, data.features, params.theta, params.beta, lam)
    np.testing.assert_allclose(state.gamma, gamma, atol=1e-10, rtol=0)
    np.testing.assert_allclose(state.lam, lam, atol=1e-10, rtol=0)
    np.testing.assert_allclose(state.mu, mu, atol=1e-10, rtol=0)


def test_infer_state_permutation_equivariance():
    data, _ = _planted(seed=8, n=40)
    params = ModelParams(
        alpha=np.array([0.2, 0.5, 0.9]),
        block=np.array([[0.4, 0.1, 0.05], [0.1, 0.5, 0.2], [0.05, 0.2, 0.6]]),
        theta=np.array([[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]),
        beta=np.array([[0.7, 0.2], [0.3, 0.8]]),
    )
    perm = np.array([2, 0, 1])
    permuted = ModelParams(
        alpha=params.alpha[perm],
        block=params.block[np.ix_(perm, perm)],
        theta=params.theta[perm],
        beta=params.beta,
    )
    cfg = FitConfig(max_iters=20, tol=1e-9)
    s1, _ = infer_state(data, params, cfg)
    s2, _ = infer_state(data, permuted, cfg)
    np.testing.assert_allclose(s2.lam[:, :], s1.lam[:, perm], atol=1e-9)
    np.testing.assert_allclose(s2.gamma, s1.gamma[:, perm], atol=1e-9)


def test_infer_state_agrees_with_brute_force_posterior():
    # tiny well-separated instances: mean-field argmax matches the exact
    # marginal argmax from enumerating every (G, R) configuration
    hits = 0
    for seed in range(6):
        params = ModelParams(
            alpha=np.array([0.5, 0.5]),
            block=np.array([[0.8, 0.05], [0.05, 0.8]]),
            theta=np.array([[0.9, 0.1], [0.1, 0.9]]),
            beta=np.array([[0.9, 0.1], [0.1, 0.9]]),
        )
        data, _ = generate_glad(params, 3, 2, seed=seed)
        state, _ = infer_state(data, params, FitConfig(max_iters=300, tol=1e-12))

        n, m, k = 3, 2, 2
        post_g = np.zeros((n, m))
        post_r = np.zeros((n, k))
        for gs in np.ndindex(*(m,) * n):
            for rs in np.ndindex(*(k,) * n):
                w = 1.0
                for p in range(n):
                    w *= params.alpha[gs[p]] / params.alpha.sum()
                    w *= params.theta[gs[p], rs[p]]
                    for v in range(2):
                        w *= params.beta[v, rs[p]] ** data.features[p, v]
                for p in range(n):
                    for q in range(p + 1, n):
                        b = params.block[gs[p], gs[q]]
                        w *= b if data.links[p, q] else (1 - b)
                for p in range(n):
                    post_g[p, gs[p]] += w
                    post_r[p, rs[p]] += w
        exact_g = post_g.argmax(axis=1)
        exact_r = post_r.argmax(axis=1)
        if np.array_equal(state.grouping(), exact_g) and np.array_equal(
            state.roles(), exact_r
        ):
            hits += 1
    assert hits >= 5, hits


def test_fit_result_shape():
    data, _ = _planted(seed=9, n=30)
    res = fit(data, 2, 2, FitConfig(max_iters=5, seed=0))
    assert isinstance(res, FitResult)
    assert res.n_iters == len(res.trace) - 1
    assert res.params.n_groups == 2 and res.state.n_roles == 2
