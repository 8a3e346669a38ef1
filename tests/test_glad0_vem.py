import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.special

from glad.baselines import fit_mmsb
from glad.generator import InjectionConfig, generate_glad0, inject_activity_anomalies
from glad import glad0_vem
from glad.glad0_vem import (
    Fit0Config,
    Glad0Variational,
    _gamma_block,
    _group_softmax,
    _init0,
    _lambda_logits,
    _nolink_mass,
    _own,
    _pairs,
    _role_logits,
    _segment_sums,
    _side_logits,
    _sweep0,
    _terms,
    _variational,
    compute_elbo0,
    fit0,
    m_step0,
)
from glad.glad_vem import FitConfig
from glad.model import (
    ActivityDataset,
    Dataset,
    GladNumericsError,
    ModelParams,
    PROB_EPS,
    digamma,
)


# ---------------------------------------------------------------------------
# straight-line oracles (plain loops, scipy digamma) on the dense pair
# family: every ordered pair (p, q) has its own sides, indexed pair-major,
# phi[p, q, g].  ``expand`` writes a tied state into that family, so the
# oracles check the tied kernels without knowing how they are tied.
# ---------------------------------------------------------------------------

def _flog(v):
    return math.log(max(float(v), 1e-12))


def _normalized_exp(scores):
    shift = max(scores)
    e = [math.exp(s - shift) for s in scores]
    return np.array(e) / sum(e)


def stacked(rows):
    """``(feature_ids, act_indptr)`` of per-person feature id rows, stacked
    people ascending as ``ActivityDataset`` holds them."""
    return np.concatenate([np.zeros(0, dtype=int), *rows]), np.cumsum([0, *map(len, rows)])


def person_ids(data):
    """Each person's feature ids, sliced from the dataset's stacked array."""
    bounds = zip(data.act_indptr[:-1], data.act_indptr[1:])
    return [data.feature_ids[lo:hi] for lo, hi in bounds]


def linked_pairs(y):
    """Ordered linked pairs, sender ascending, then receiver ascending."""
    n = y.shape[0]
    return [(p, q) for p in range(n) for q in range(n) if p != q and y[p, q]]


def expand(y, phi_out, phi_in, nolink_out, nolink_in):
    """(N, N, M) sender and receiver sides of every ordered pair: a linked
    pair's own columns, else the sender's ``nolink_out`` and the receiver's
    ``nolink_in``; the unused diagonal is uniform."""
    n, m = y.shape[0], nolink_out.shape[0]
    out = np.full((n, n, m), 1.0 / m)
    inn = np.full((n, n, m), 1.0 / m)
    e = 0
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            if y[p, q]:
                out[p, q] = phi_out[:, e]
                inn[p, q] = phi_in[:, e]
                e += 1
            else:
                out[p, q] = nolink_out[:, p]
                inn[p, q] = nolink_in[:, q]
    return out, inn


def expand_state(data, state):
    return expand(data.links, state.phi_out, state.phi_in, state.nolink_out, state.nolink_in)


def oracle_elbo0(data, params, gamma, phi_out, phi_in, lams, mus):
    """The bound of the dense pair family, one term at a time."""
    y = data.links
    n, m = gamma.shape
    alpha, block, theta, beta = params.alpha, params.block, params.theta, params.beta
    k = theta.shape[1]
    ids = person_ids(data)
    psi = scipy.special.psi
    elogpi = [[psi(gamma[p, g]) - psi(gamma[p].sum()) for g in range(m)] for p in range(n)]
    total = 0.0
    for p in range(n):
        total += math.lgamma(alpha.sum()) - sum(math.lgamma(a) for a in alpha)
        total -= math.lgamma(gamma[p].sum()) - sum(math.lgamma(g) for g in gamma[p])
        for g in range(m):
            total += (alpha[g] - gamma[p, g]) * elogpi[p][g]
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            for g in range(m):
                total += phi_out[p, q, g] * (elogpi[p][g] - _flog(phi_out[p, q, g]))
                total += phi_in[p, q, g] * (elogpi[q][g] - _flog(phi_in[p, q, g]))
            for g in range(m):
                for h in range(m):
                    f = y[p, q] * math.log(block[g, h]) + (1 - y[p, q]) * math.log(1 - block[g, h])
                    total += phi_out[p, q, g] * phi_in[p, q, h] * f
    for p in range(n):
        for a in range(lams[p].shape[0]):
            lam, mu = lams[p][a], mus[p][a]
            fid = ids[p][a]
            for g in range(m):
                total += lam[g] * (elogpi[p][g] - _flog(lam[g]))
                for r in range(k):
                    total += lam[g] * mu[r] * _flog(theta[g, r])
            for r in range(k):
                total += mu[r] * (_flog(beta[fid, r]) - _flog(mu[r]))
    return total


def oracle_gamma0(p, alpha, phi_out, phi_in, lams):
    n, _, m = phi_out.shape
    out = [float(alpha[g]) for g in range(m)]
    for g in range(m):
        for q in range(n):
            if q == p:
                continue
            out[g] += phi_out[p, q, g] + phi_in[q, p, g]
        for a in range(lams[p].shape[0]):
            out[g] += lams[p][a, g]
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
    return _normalized_exp(scores)


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
    return _normalized_exp(scores)


def oracle_nolink_out(p, y, block, gamma, phi_in):
    # the shared sender side of p's non-linked pairs: the mean over those
    # pairs of each pair's own sender logits
    n, m = y.shape[0], block.shape[0]
    psi = scipy.special.psi
    partners = [q for q in range(n) if q != p and not y[p, q]]
    scores = []
    for g in range(m):
        s = psi(gamma[p, g]) - psi(gamma[p].sum())
        for q in partners:
            for h in range(m):
                s += phi_in[p, q, h] * math.log(1 - block[g, h]) / len(partners)
        scores.append(s)
    return _normalized_exp(scores)


def oracle_nolink_in(q, y, block, gamma, phi_out):
    n, m = y.shape[0], block.shape[0]
    psi = scipy.special.psi
    partners = [p for p in range(n) if p != q and not y[p, q]]
    scores = []
    for h in range(m):
        s = psi(gamma[q, h]) - psi(gamma[q].sum())
        for p in partners:
            for g in range(m):
                s += phi_out[p, q, g] * math.log(1 - block[g, h]) / len(partners)
        scores.append(s)
    return _normalized_exp(scores)


def oracle_lambda0(p, a, gamma, theta, mus):
    m, k = theta.shape
    psi = scipy.special.psi
    scores = []
    for g in range(m):
        s = psi(gamma[p, g])
        for r in range(k):
            s += mus[p][a, r] * _flog(theta[g, r])
        scores.append(s)
    return _normalized_exp(scores)


def oracle_mu0(p, a, feature_ids, theta, beta, lams):
    m, k = theta.shape
    scores = []
    for r in range(k):
        s = _flog(beta[feature_ids[p][a], r])
        for g in range(m):
            s += lams[p][a, g] * _flog(theta[g, r])
        scores.append(s)
    return _normalized_exp(scores)


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


# the blocks of one sweep, in the sweep's order
BLOCKS = ("phi_out", "phi_in", "nolink_out", "nolink_in", "gamma", "lam", "mu")


def oracle_block_update(name, data, params, arrays):
    """``arrays`` (a dict of the tied state's arrays, lam and mu as lists
    of per-person rows) with block ``name`` replaced by its oracle update."""
    y, block = data.links, params.block
    new = {key: (list(val) if key in ("lam", "mu") else np.array(val))
           for key, val in arrays.items()}
    d_out, d_in = expand(y, *(arrays[key] for key in BLOCKS[:4]))
    gamma = arrays["gamma"]
    if name == "phi_out":
        for e, (p, q) in enumerate(linked_pairs(y)):
            new["phi_out"][:, e] = oracle_phi_out(p, q, y, block, gamma, d_in)
    elif name == "phi_in":
        for e, (p, q) in enumerate(linked_pairs(y)):
            new["phi_in"][:, e] = oracle_phi_in(p, q, y, block, gamma, d_out)
    elif name == "nolink_out":
        for p in range(data.n_nodes):
            new["nolink_out"][:, p] = oracle_nolink_out(p, y, block, gamma, d_in)
    elif name == "nolink_in":
        for q in range(data.n_nodes):
            new["nolink_in"][:, q] = oracle_nolink_in(q, y, block, gamma, d_out)
    elif name == "gamma":
        for p in range(data.n_nodes):
            new["gamma"][p] = oracle_gamma0(p, params.alpha, d_out, d_in, arrays["lam"])
    else:
        for p, rows in enumerate(new[name]):
            rows = new[name][p] = np.array(rows)
            for a in range(rows.shape[0]):
                if name == "lam":
                    rows[a] = oracle_lambda0(p, a, gamma, params.theta, arrays["mu"])
                else:
                    rows[a] = oracle_mu0(p, a, person_ids(data), params.theta, params.beta,
                                         arrays["lam"])
    return new


def oracle_bound(data, params, arrays):
    d_out, d_in = expand(data.links, *(arrays[key] for key in BLOCKS[:4]))
    return oracle_elbo0(data, params, arrays["gamma"], d_out, d_in, arrays["lam"], arrays["mu"])


def person_activities(state):
    """``(lams, mus)``: lists of each person's (A_p, M) and (A_p, K) activity
    rows, the columns ``act_indptr[p]:act_indptr[p + 1]`` transposed."""
    bounds = list(zip(state.act_indptr[:-1], state.act_indptr[1:]))
    return tuple([cols[:, lo:hi].T for lo, hi in bounds] for cols in (state.lam, state.mu))


def as_arrays(state):
    lams, mus = person_activities(state)
    return {
        "gamma": state.gamma, "phi_out": state.phi_out, "phi_in": state.phi_in,
        "nolink_out": state.nolink_out, "nolink_in": state.nolink_in, "lam": lams, "mu": mus,
    }


def random_instance0(seed, n=4, m=2, k=2, v=3, max_acts=3):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.2, 2.0, size=m)
    # asymmetric, as glad0's M-step leaves it: a sender and a receiver side
    # read the block along different axes
    block = rng.uniform(0.05, 0.95, size=(m, m))
    theta = rng.dirichlet(np.ones(k), size=m)
    beta = rng.dirichlet(np.ones(v), size=k).T
    params = ModelParams(alpha=alpha, block=block, theta=theta, beta=beta)

    counts = rng.integers(0, max_acts + 1, size=n)
    feature_ids, act_indptr = stacked([rng.integers(0, v, size=c) for c in counts])
    y = np.triu(rng.integers(0, 2, size=(n, n)), k=1)
    data = ActivityDataset(feature_ids, act_indptr, v, links=y + y.T)

    n_linked = int(data.links.sum())
    state = Glad0Variational(
        gamma=rng.uniform(0.3, 3.0, size=(n, m)),
        phi_out=rng.dirichlet(np.ones(m), size=n_linked).T,
        phi_in=rng.dirichlet(np.ones(m), size=n_linked).T,
        nolink_out=rng.dirichlet(np.ones(m), size=n).T,
        nolink_in=rng.dirichlet(np.ones(m), size=n).T,
        # drawn person by person, then stacked group-major as fit0 holds them
        lam=np.concatenate([rng.dirichlet(np.ones(m), size=c) for c in counts]).T.copy(),
        mu=np.concatenate([rng.dirichlet(np.ones(k), size=c) for c in counts]).T.copy(),
        act_indptr=act_indptr,
    )
    return data, params, state


def kernel_updates(data, params, state):
    """Each block's update from the kernels, all at the same given state:
    ``(phi_out, phi_in, nolink_out, nolink_in, gamma, flat_lam, flat_mu)``,
    with gamma and the activity rows per person as the oracles give them;
    the activity rows are None when nobody has an activity."""
    pairs = _pairs(data)
    terms = _terms(params, data.feature_ids)
    own = _own(digamma(state.gamma).T)
    new_out = _group_softmax(_side_logits(np.repeat(own, pairs.degree, axis=1), state.phi_in,
                                          terms.log_b))
    new_in = _group_softmax(_side_logits(np.take(own, pairs.indices, axis=1), state.phi_out,
                                         terms.log_b.T))
    new_a = _group_softmax(
        _side_logits(own, _nolink_mass(state.nolink_in, pairs) / pairs.n0_div, terms.log_1mb))
    new_b = _group_softmax(
        _side_logits(own, _nolink_mass(state.nolink_out, pairs) / pairs.n0_div, terms.log_1mb.T))
    act = _segment_sums(state.lam, state.act_indptr)
    gamma = _gamma_block(params.alpha, pairs, state.phi_out, state.phi_in,
                         state.nolink_out, state.nolink_in, act)
    lam = mu = None
    if state.lam.shape[1]:
        counts = np.diff(state.act_indptr)
        lam = _group_softmax(_lambda_logits(np.repeat(own, counts, axis=1), state.mu,
                                            terms.log_theta)).T
        mu = _group_softmax(_role_logits(state.lam, terms.log_theta, terms.log_beta)).T
    return new_out, new_in, new_a, new_b, gamma.T, lam, mu


def oracle_updates(data, params, state):
    """The oracle twin of ``kernel_updates``, block by block from the same
    state, stacked the same way."""
    arrays = as_arrays(state)
    got = [oracle_block_update(name, data, params, arrays)[name] for name in BLOCKS]
    lam, mu = (np.concatenate(rows) if data.activity_counts.sum() else None
               for rows in got[5:])
    return (*got[:5], lam, mu)


# ---------------------------------------------------------------------------
# update kernels against the oracles, every entry of each block
# ---------------------------------------------------------------------------

def test_expand_fills_each_ordered_pair_once():
    # 0-1 and 1-2 linked, 0-2 not: the linked columns follow the CSR order
    y = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    data = ActivityDataset(*_no_activities(3), 2, links=y)
    indptr, indices = data.neighbours
    senders = np.repeat(np.arange(3), np.diff(indptr))
    assert linked_pairs(y) == list(zip(senders, indices))
    phi = np.array([[0.1, 0.2, 0.3, 0.4], [0.9, 0.8, 0.7, 0.6]])
    nolink = np.array([[0.11, 0.12, 0.13], [0.89, 0.88, 0.87]])
    d_out, d_in = expand(y, phi, phi[::-1], nolink, nolink[::-1])
    np.testing.assert_allclose(d_out[1, 2], phi[:, 2])
    np.testing.assert_allclose(d_in[2, 1], phi[::-1, 3])
    np.testing.assert_allclose(d_out[0, 2], nolink[:, 0])
    np.testing.assert_allclose(d_in[0, 2], nolink[::-1, 2])


@pytest.mark.parametrize("seed", range(8))
def test_update_gamma0_matches_oracle(seed):
    data, params, state = random_instance0(seed)
    got = kernel_updates(data, params, state)[4]
    phi_out, phi_in = expand_state(data, state)
    lams, _ = person_activities(state)
    for p in range(data.n_nodes):
        want = oracle_gamma0(p, params.alpha, phi_out, phi_in, lams)
        np.testing.assert_allclose(got[p], want, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_update_phi_matches_oracle(seed):
    # linked sides pair by pair, and the shared non-link sides
    data, params, state = random_instance0(seed, n=5, m=3)
    got = kernel_updates(data, params, state)
    want = oracle_updates(data, params, state)
    for name, g, w in zip(BLOCKS[:4], got, want):
        np.testing.assert_allclose(g, w, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("seed", range(8))
def test_update_activity_posteriors_match_oracle(seed):
    # one row per activity, people ascending, as fit0 stacks them
    data, params, state = random_instance0(seed)
    counts = data.activity_counts
    *_, lam, mu = kernel_updates(data, params, state)
    lams, mus = person_activities(state)
    acts = [(p, a) for p in range(data.n_nodes) for a in range(counts[p])]
    for row, (p, a) in enumerate(acts):
        np.testing.assert_allclose(
            lam[row], oracle_lambda0(p, a, state.gamma, params.theta, mus), atol=1e-12
        )
        np.testing.assert_allclose(
            mu[row], oracle_mu0(p, a, person_ids(data), params.theta, params.beta, lams),
            atol=1e-12,
        )


@pytest.mark.parametrize("seed", range(6))
def test_m_step0_block_matches_oracle(seed):
    data, params, state = random_instance0(seed, n=5, m=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = m_step0(data, state, params.alpha)
    want = oracle_m_step0_block(data.links, *expand_state(data, state))
    np.testing.assert_allclose(got.block, want, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_compute_elbo0_matches_dense_oracle(seed):
    data, params, state = random_instance0(seed, n=3 + seed % 4, m=2 + seed % 2)
    want = oracle_elbo0(data, params, state.gamma, *expand_state(data, state),
                        *person_activities(state))
    got = compute_elbo0(data, params, state)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("seed", range(4))
def test_compute_elbo0_matches_dense_oracle_at_initialization(seed):
    # the starting state of fit0, expanded, and the trace's first entry
    data, _ = inject_activity_anomalies(
        InjectionConfig(n_nodes=12 + 7 * seed, n_groups=3, seed=seed), activities=3)
    config = Fit0Config(max_iters=1, seed=seed)
    params, _, *arrays = _init0(data, 3, 2, config)
    state = _variational(*arrays, data.act_indptr)
    got = compute_elbo0(data, params, state)
    want = oracle_elbo0(data, params, state.gamma, *expand_state(data, state),
                        *person_activities(state))
    assert abs(got - want) <= 1e-10 * abs(want), (got, want)
    assert fit0(data, 3, 2, config).trace[0] == got


@pytest.mark.parametrize("seed", range(6))
def test_sweep0_is_the_public_updates_in_block_order(seed):
    # one block sweep = the oracle linked senders, linked receivers,
    # non-link senders given receivers, non-link receivers, gamma, the
    # activity lambdas and the activity mus, each written back before the
    # next block
    data, params, state = random_instance0(seed, n=5, m=3)
    pairs = _pairs(data)
    gamma = np.ascontiguousarray(state.gamma.T)
    dig = digamma(gamma)
    sides = [np.array(a) for a in (state.phi_out, state.phi_in, state.nolink_out,
                                   state.nolink_in)]
    lam, mu = state.lam.copy(), state.mu.copy()
    assert lam.shape[1] and pairs.indices.size
    assert _sweep0(_terms(params, data.feature_ids), pairs,
                   state.act_indptr, 0.0, gamma, dig, *sides, lam, mu)
    np.testing.assert_array_equal(dig, digamma(gamma))

    want = as_arrays(state)
    for name in BLOCKS:
        want = oracle_block_update(name, data, params, want)
    for name, got in zip(BLOCKS, [*sides, gamma.T]):
        np.testing.assert_allclose(got, want[name],
                                   atol=1e-10, rtol=0, err_msg=name)
    np.testing.assert_allclose(lam.T, np.concatenate(want["lam"]), atol=1e-10, rtol=0)
    np.testing.assert_allclose(mu.T, np.concatenate(want["mu"]), atol=1e-10, rtol=0)


def test_fit0_carries_digamma_and_builds_terms_once_per_m_step(monkeypatch):
    # fit0 carries digamma(gamma) from one sweep to the next, and builds the
    # parameter terms once per M-step: before and after every sweep the
    # carried digamma equals a fresh one bit for bit, and the terms equal a
    # fresh build from the parameters of the last M-step (or the start)
    data, _ = inject_activity_anomalies(InjectionConfig(n_nodes=24, n_groups=3, seed=2),
                                        activities=3)
    ids = data.feature_ids
    real_init, real_m_step, real_sweep = _init0, m_step0, _sweep0
    current, sweeps = {}, []

    def init(*args):
        out = real_init(*args)
        current["params"] = out[0]
        return out

    def m_step(*args):
        current["params"] = real_m_step(*args)
        return current["params"]

    def check(terms, gamma, dig):
        np.testing.assert_array_equal(dig, digamma(gamma))
        for got, want in zip(terms, _terms(current["params"], ids)):
            np.testing.assert_array_equal(got, want)

    def sweep(terms, pairs, act_indptr, tol, gamma, dig, *rest):
        check(terms, gamma, dig)
        moved = real_sweep(terms, pairs, act_indptr, tol, gamma, dig, *rest)
        check(terms, gamma, dig)
        sweeps.append(moved)
        return moved

    monkeypatch.setattr(glad0_vem, "_init0", init)
    monkeypatch.setattr(glad0_vem, "m_step0", m_step)
    monkeypatch.setattr(glad0_vem, "_sweep0", sweep)
    config = Fit0Config(max_iters=3, tol=0.0, inner_max=4, inner_tol=0.0, seed=1)
    res = fit0(data, 3, 2, config)
    assert len(sweeps) == 12 and all(sweeps)
    monkeypatch.undo()
    np.testing.assert_array_equal(res.trace, fit0(data, 3, 2, config).trace)


def _perturbed(name, rows, rng):
    # a different value of one row (one column of a group-major side)
    if name == "gamma":
        return rows * rng.uniform(0.5, 1.5, size=rows.shape)
    return 0.7 * rows + 0.3 * rng.dirichlet(np.ones(rows.size))


@pytest.mark.parametrize("seed", range(6))
def test_each_block_update_is_a_coordinate_maximizer(seed):
    # along the sweep, each block's update never lowers the dense bound,
    # and moving any one of its rows off the update lowers it
    data, params, state = random_instance0(seed, n=5, m=3, max_acts=2)
    rng = np.random.default_rng(100 + seed)
    arrays = as_arrays(state)
    before = oracle_bound(data, params, arrays)
    for name in BLOCKS:
        arrays = oracle_block_update(name, data, params, arrays)
        best = oracle_bound(data, params, arrays)
        assert best >= before - 1e-10, name
        before = best
        if name in ("lam", "mu"):
            rows = [(p, a) for p, acts in enumerate(arrays[name]) for a in range(len(acts))]
        elif name == "gamma":
            rows = list(range(data.n_nodes))
        elif name.startswith("nolink"):
            # a person linked to everyone has no non-linked pair to share a side
            rows = [p for p in range(data.n_nodes) if data.links[p].sum() < data.n_nodes - 1]
        else:
            rows = list(range(arrays[name].shape[1]))
        for row in rows[:: max(1, len(rows) // 4)]:
            moved = {key: (list(val) if key in ("lam", "mu") else np.array(val))
                     for key, val in arrays.items()}
            if name in ("lam", "mu"):
                p, a = row
                moved[name][p] = np.array(moved[name][p])
                moved[name][p][a] = _perturbed(name, moved[name][p][a], rng)
            elif name == "gamma":
                moved[name][row] = _perturbed(name, moved[name][row], rng)
            else:
                moved[name][:, row] = _perturbed(name, moved[name][:, row], rng)
            assert oracle_bound(data, params, moved) < best, (name, row)


def test_m_step0_theta_beta_match_oracle():
    data, params, state = random_instance0(3, n=5, m=3, k=2, v=4)
    got = m_step0(data, state, params.alpha)
    lams, mus = person_activities(state)
    ids = person_ids(data)
    m, k, v = 3, 2, 4
    theta = np.zeros((m, k))
    beta = np.zeros((v, k))
    for p in range(5):
        for a in range(data.activity_counts[p]):
            for g in range(m):
                for r in range(k):
                    theta[g, r] += lams[p][a, g] * mus[p][a, r]
            for r in range(k):
                beta[ids[p][a], r] += mus[p][a, r]
    theta /= theta.sum(axis=1, keepdims=True)
    beta /= beta.sum(axis=0, keepdims=True)
    np.testing.assert_allclose(got.theta, theta, atol=1e-12)
    np.testing.assert_allclose(got.beta, beta, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form examples
# ---------------------------------------------------------------------------

def _no_activities(n):
    return stacked([np.zeros(0, dtype=int)] * n)


def test_gamma0_single_node_one_activity():
    data = ActivityDataset([0], [0, 1], 2, links=[[0]])
    half = np.full((2, 1), 0.5)
    act = _segment_sums(np.array([[1.0], [0.0]]), data.act_indptr)
    got = _gamma_block(np.array([1.0, 1.0]), _pairs(data), np.zeros((2, 0)), np.zeros((2, 0)),
                       half, half, act)
    np.testing.assert_allclose(got, [[2.0], [1.0]], atol=1e-12)


def test_gamma0_uniform_pairs_count_directions():
    # person 1 is linked to 0, not to 2: two linked and two non-linked sides
    y = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    data = ActivityDataset(*_no_activities(3), 2, links=y)
    linked = np.full((2, 2), 0.5)
    nolink = np.full((2, 3), 0.5)
    got = _gamma_block(np.zeros(2), _pairs(data), linked, linked, nolink, nolink,
                       np.zeros((2, 3)))
    np.testing.assert_allclose(got, np.full((2, 3), 2.0), atol=1e-12)


def test_phi_out_constant_block_reduces_to_digamma():
    data, params, state = random_instance0(0, n=5)
    flat = replace(params, block=np.full((2, 2), 0.3))
    new_out, _, new_a, *_ = kernel_updates(data, flat, state)
    g = state.gamma[0]
    want = np.exp(scipy.special.psi(g) - scipy.special.psi(g.sum()))
    np.testing.assert_allclose(new_a[:, 0], want / want.sum(), atol=1e-12)
    if data.neighbours[0][1]:
        np.testing.assert_allclose(new_out[:, 0], want / want.sum(), atol=1e-12)


def test_phi_uniform_under_symmetric_gamma_and_flat_block():
    data, params, state = random_instance0(1)
    even = replace(state, gamma=np.full((4, 2), 1.3))
    for side in kernel_updates(data, replace(params, block=np.full((2, 2), 0.4)), even)[:4]:
        np.testing.assert_allclose(side, 0.5, atol=1e-12)


def test_phi_out_linked_follows_one_hot_counterpart():
    n = 4
    linked = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    data = ActivityDataset(*_no_activities(n), 3, links=linked)
    params = ModelParams(alpha=np.ones(2), block=np.array([[0.9, 0.1], [0.1, 0.9]]),
                         theta=np.full((2, 2), 0.5), beta=np.full((3, 2), 1 / 3))
    phi_in = np.full((2, n * (n - 1)), 0.5)
    phi_in[:, 0] = [0.0, 1.0]
    state = Glad0Variational(
        gamma=np.ones((n, 2)), phi_out=np.full_like(phi_in, 0.5), phi_in=phi_in,
        nolink_out=np.full((2, n), 0.5), nolink_in=np.full((2, n), 0.5),
        lam=np.zeros((2, 0)), mu=np.zeros((2, 0)), act_indptr=np.zeros(n + 1, dtype=int),
    )
    got = kernel_updates(data, params, state)[0]
    assert got[:, 0].argmax() == 1
    np.testing.assert_allclose(got[:, 1:], 0.5, atol=1e-12)


def test_lambda0_identical_rate_rows_uses_gamma_only():
    data, params, state = random_instance0(4)
    p = 0
    if data.activity_counts[p] == 0:
        pytest.skip("instance drew no activities for person 0")
    same = np.array([[0.3, 0.7], [0.3, 0.7]])
    own = _own(digamma(state.gamma[p])[:, None])
    first = state.act_indptr[p]
    got = _group_softmax(_lambda_logits(own, state.mu[:, first:first + 1], np.log(same)))[:, 0]
    g = np.exp(scipy.special.psi(state.gamma[p]))
    np.testing.assert_allclose(got, g / g.sum(), atol=1e-12)


def test_mu0_identical_emissions_uses_rates_only():
    data, params, state = random_instance0(6)
    p = next(p for p in range(4) if data.activity_counts[p] > 0)
    terms = _terms(replace(params, beta=np.full((3, 2), 1.0 / 3)), person_ids(data)[p][:1])
    first = state.act_indptr[p]
    got = _group_softmax(_role_logits(state.lam[:, first:first + 1], terms.log_theta,
                                      terms.log_beta))[:, 0]
    s = state.lam[:, first] @ np.log(params.theta)
    want = np.exp(s - s.max())
    np.testing.assert_allclose(got, want / want.sum(), atol=1e-12)


def test_mu0_one_hot_emissions_pin_the_role():
    # one activity with feature 1; role 0 emits feature 0, role 1 feature 1
    params = ModelParams(alpha=np.ones(1), block=np.full((1, 1), 0.5),
                         theta=np.array([[0.5, 0.5]]), beta=np.array([[1.0, 0.0], [0.0, 1.0]]))
    terms = _terms(params, np.array([1]))
    got = _group_softmax(_role_logits(np.ones((1, 1)), terms.log_theta, terms.log_beta))[:, 0]
    assert got.argmax() == 1 and got[1] > 0.999


def test_m_step0_one_hot_saturates_block():
    # everyone linked: every sender side in group 0, every receiver in 1
    n, m = 4, 2
    y = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    data = ActivityDataset(*_no_activities(n), 2, links=y)
    phi_out = np.zeros((m, n * (n - 1)))
    phi_in = np.zeros((m, n * (n - 1)))
    phi_out[0] = 1.0
    phi_in[1] = 1.0
    state = Glad0Variational(
        gamma=np.ones((n, m)),
        phi_out=phi_out,
        phi_in=phi_in,
        nolink_out=np.full((m, n), 0.5),
        nolink_in=np.full((m, n), 0.5),
        lam=np.zeros((m, 0)),
        mu=np.zeros((2, 0)),
        act_indptr=np.zeros(n + 1, dtype=int),
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
        ActivityDataset(np.zeros(n, dtype=int), np.arange(n + 1), 2, links=links)


# ---------------------------------------------------------------------------
# state container
# ---------------------------------------------------------------------------

def test_state_validation_catches_bad_rows():
    # three people, two groups, two roles, two linked pairs, one activity each
    sides = np.full((2, 2), 0.5)
    nolink = np.full((2, 3), 0.5)
    acts = np.full((2, 3), 0.5)
    good = dict(gamma=np.full((3, 2), 0.5), phi_out=sides, phi_in=sides, nolink_out=nolink,
                nolink_in=nolink, lam=acts, mu=acts, act_indptr=np.arange(4))
    Glad0Variational(**good)
    with pytest.raises(ValueError, match=r"\(M, 2E\)"):
        Glad0Variational(**{**good, "phi_in": np.full((2, 3), 0.5)})
    with pytest.raises(ValueError, match=r"\(M, N\)"):
        Glad0Variational(**{**good, "nolink_out": nolink.T})
    bad = sides.copy()
    bad[:, 1] = [0.7, 0.7]
    with pytest.raises(ValueError, match="simplices"):
        Glad0Variational(**{**good, "phi_out": bad})
    with pytest.raises(ValueError, match="positive"):
        Glad0Variational(**{**good, "gamma": np.zeros((3, 2))})
    # the activity index: one entry too few, or not ending at A
    for indptr in (np.arange(3), np.array([0, 1, 2, 2])):
        with pytest.raises(ValueError, match=r"\(N \+ 1\) indptr"):
            Glad0Variational(**{**good, "act_indptr": indptr})
    # a role posterior for fewer activities than the group posterior has
    with pytest.raises(ValueError, match=r"\(K, A\)"):
        Glad0Variational(**{**good, "mu": np.full((2, 2), 0.5)})
    for name in ("lam", "mu"):
        bad = acts.copy()
        bad[:, 2] = [0.7, 0.7]
        with pytest.raises(ValueError, match=f"{name} posterior columns must be simplices"):
            Glad0Variational(**{**good, name: bad})


def test_grouping_falls_back_to_gamma_without_activities():
    # person 0 has no activities, person 1 two, in group 0 mostly
    half = np.full((2, 2), 0.5)
    gamma = np.array([[0.2, 5.0], [1.0, 1.0]])
    lam = np.array([[0.9, 0.8], [0.1, 0.2]])
    state = Glad0Variational(gamma=gamma, phi_out=half, phi_in=half, nolink_out=half,
                             nolink_in=half, lam=lam, mu=half, act_indptr=np.array([0, 0, 2]))
    np.testing.assert_array_equal(state.grouping(), [1, 0])

    # a fitted state in which every third person has no activities, against
    # the rule person by person: the argmax of the mean of the person's
    # activity rows, or of gamma for a person without any
    counts = np.where(np.arange(15) % 3 == 0, 0, np.arange(15) % 4 + 1)
    data, _ = generate_glad0(_planted_params(), 15, counts, seed=5)
    s = fit0(data, 3, 2, Fit0Config(max_iters=3, seed=2)).state
    want = []
    for p, (lo, hi) in enumerate(zip(s.act_indptr[:-1], s.act_indptr[1:])):
        rows = s.lam[:, lo:hi].T
        want.append(rows.mean(axis=0).argmax() if rows.shape[0] else s.gamma[p].argmax())
    assert 0 in data.activity_counts
    np.testing.assert_array_equal(s.grouping(), want)


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
    # recorded from the tied family (linked pairs in CSR order, group-major;
    # jitter drawn for linked senders, linked receivers, the non-link sides,
    # then the activities): a swapped pair or group axis, a reordered CSR
    # column, or a changed draw order of the initial jitter, moves these far
    # beyond the 1e-10 tolerance
    data, _ = generate_glad0(_planted_params(), 20, 5, seed=3)
    res = fit0(data, 3, 2, Fit0Config(max_iters=4, tol=0.0, inner_max=10, inner_tol=0.0, seed=7))
    want_trace = [
        -592.312124389415, -425.8507266189002, -356.1972900911881,
        -290.09545204776055, -268.955497686467,
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
    data = ActivityDataset(*_no_activities(n), 2, links=y)
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
    n_linked = int(data.links.sum())
    assert s.phi_out.shape == s.phi_in.shape == (2, n_linked)
    assert s.nolink_out.shape == s.nolink_in.shape == (2, 12)
    for side in (s.phi_out, s.phi_in, s.nolink_out, s.nolink_in):
        np.testing.assert_allclose(side.sum(axis=0), 1.0, atol=1e-9)
    # the activities group-major, stacked people ascending
    acts = int(data.activity_counts.sum())
    assert s.lam.shape == (2, acts) and s.mu.shape == (2, acts)
    np.testing.assert_array_equal(s.act_indptr, np.cumsum([0, *data.activity_counts]))
    for cols in (s.lam, s.mu):
        np.testing.assert_allclose(cols.sum(axis=0), 1.0, atol=1e-9)
    assert np.all(s.gamma > 0)
    # gamma per person, C-ordered, though the fit keeps it group-major
    assert s.gamma.shape == (12, 2) and s.gamma.flags.c_contiguous


def test_fit0_at_2000_people_holds_no_quadratic_array():
    # The graph is sparse (about 3 links per person), so the O(E*M)
    # temporaries of the M-step and the bound stay far below N^2 bytes and an
    # N x N array of any dtype, even bool, would show in the traced peak.
    # The dense pair family needed 640 MB for its pair arrays alone at this
    # size, whatever the density.
    n = 2000
    data, _ = inject_activity_anomalies(
        InjectionConfig(n_nodes=n, n_groups=5, block_in=0.005, block_out=0.0005, seed=0),
        activities=5,
    )
    data.neighbours, data.edges  # derived once per dataset, before tracing
    tracemalloc.start()
    try:
        res = fit0(data, 5, 2, Fit0Config(max_iters=1, inner_max=3, inner_tol=0.0))
        _, fit_peak = tracemalloc.get_traced_memory()
        peaks = []
        for build in (lambda: m_step0(data, res.state, res.params.alpha),
                      lambda: compute_elbo0(data, res.params, res.state)):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            build()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    s = res.state
    arrays = [s.gamma, s.phi_out, s.phi_in, s.nolink_out, s.nolink_in, s.lam, s.mu]
    assert max(a.size for a in arrays) < n * n
    assert max(peaks) < n * n, peaks
    assert fit_peak < 150e6, fit_peak

    # At the default density (about 200 links per person, 2E ~ 4e5) the
    # bound walks the linked pairs in column chunks and adds less than one
    # (M, 2E) float array to the traced peak; holding whole (M, 2E)
    # temporaries, it added three to four of them (54 MB at this size).
    dense, _ = inject_activity_anomalies(InjectionConfig(n_nodes=n, n_groups=5, seed=0),
                                         activities=5)
    dense.neighbours, dense.edges
    # So does the M-step's non-link mass, which gathers the linked partners'
    # sides in runs of rows of at most EDGE_CHUNK pairs: gathering all of
    # them at once added one (M, 2E) float array (22.6 MB at this size).
    params, pairs, *arrays = _init0(dense, 5, 2, Fit0Config())
    state = _variational(*arrays, dense.act_indptr)
    peaks = []
    for build in (lambda: compute_elbo0(dense, params, state),
                  lambda: m_step0(dense, state, params.alpha)):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert pairs.indices.size > 300_000
    assert pairs.indices.size > 8 * glad0_vem.EDGE_CHUNK
    assert max(peaks) < 5 * pairs.indices.size * 8, peaks
