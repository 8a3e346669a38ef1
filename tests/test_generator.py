from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

import glad.generator as generator_module
from glad.generator import (
    InjectionConfig,
    _sample_links,
    generate_dglad,
    generate_glad,
    generate_glad0,
    inject_activity_anomalies,
    inject_anomalies,
    inject_dynamic_change,
    injection_params,
)
from glad.model import ModelParams, PROB_EPS, softmax


def make_params(m=2, k=2, v=2, block_in=0.3, block_out=0.05):
    theta = np.tile(np.array([0.1, 0.9]), (m, 1)) if k == 2 else np.full((m, k), 1.0 / k)
    theta[0] = theta[0][::-1] if k == 2 else theta[0]
    beta = np.full((v, k), 0.1 / max(v - 1, 1))
    for j in range(k):
        beta[min(j, v - 1), j] = 0.9
    beta /= beta.sum(axis=0, keepdims=True)
    block = np.full((m, m), block_out)
    np.fill_diagonal(block, block_in)
    return ModelParams(alpha=np.full(m, 0.1), block=block, theta=theta, beta=beta)


# ---------------------------------------------------------------------------
# generate_glad
# ---------------------------------------------------------------------------

def test_generate_glad_shapes_and_symmetry():
    params = make_params()
    data, truth = generate_glad(params, n_nodes=40, trials=10, seed=3)
    assert data.features.shape == (40, 2)
    assert data.links.shape == (40, 40)
    np.testing.assert_array_equal(data.links, data.links.T)
    np.testing.assert_array_equal(np.diag(data.links), 0)
    np.testing.assert_array_equal(data.trials, np.full(40, 10))
    assert truth.group.shape == (40,) and truth.role.shape == (40,)


def test_generate_glad_deterministic_under_seed():
    params = make_params()
    d1, t1 = generate_glad(params, 30, 5, seed=11)
    d2, t2 = generate_glad(params, 30, 5, seed=11)
    np.testing.assert_array_equal(d1.features, d2.features)
    np.testing.assert_array_equal(d1.links, d2.links)
    np.testing.assert_array_equal(t1.group, t2.group)
    d3, _ = generate_glad(params, 30, 5, seed=12)
    assert not np.array_equal(d1.features, d3.features) or not np.array_equal(
        d1.links, d3.links
    )


def test_generate_glad_single_group_degenerate():
    params = ModelParams(
        alpha=np.array([0.5]),
        block=np.array([[0.2]]),
        theta=np.array([[0.3, 0.7]]),
        beta=np.array([[0.8, 0.2], [0.2, 0.8]]),
    )
    _, truth = generate_glad(params, 25, 4, seed=0)
    np.testing.assert_array_equal(truth.group, np.zeros(25, dtype=int))


def test_generate_glad_block_structure_controls_links():
    # near-diagonal block matrix: cross-group links almost never appear
    m = 2
    block = np.array([[1 - PROB_EPS, PROB_EPS], [PROB_EPS, 1 - PROB_EPS]])
    params = ModelParams(
        alpha=np.full(m, 0.1),
        block=block,
        theta=np.array([[0.5, 0.5], [0.5, 0.5]]),
        beta=np.array([[0.9, 0.1], [0.1, 0.9]]),
    )
    data, truth = generate_glad(params, 60, 2, seed=5)
    same = truth.group[:, None] == truth.group[None, :]
    off = ~np.eye(60, dtype=bool)
    assert data.links[~same].sum() == 0
    assert np.all(data.links[same & off] == 1)


def test_generate_glad_within_group_link_frequency():
    # single group, B = [[0.3]]: empirical frequency within +-0.02 at N=2000
    params = ModelParams(
        alpha=np.array([1.0]),
        block=np.array([[0.3]]),
        theta=np.array([[1.0]]),
        beta=np.array([[1.0]]),
    )
    data, _ = generate_glad(params, 2000, 1, seed=9)
    iu = np.triu_indices(2000, k=1)
    freq = data.links[iu].mean()
    assert abs(freq - 0.3) < 0.02


def test_generate_glad_trials_vector_and_zero():
    params = make_params()
    trials = np.array([0, 1, 2, 3, 4])
    data, _ = generate_glad(params, 5, trials, seed=2)
    np.testing.assert_array_equal(data.trials, trials)
    np.testing.assert_array_equal(np.flatnonzero(data.trials == 0), [0])
    with pytest.raises(ValueError):
        generate_glad(params, 5, np.array([1, 2]), seed=2)


def test_generate_glad_rejects_invalid_params():
    params = make_params()
    bad = ModelParams(params.alpha, params.block, params.theta * 1.5, params.beta)
    with pytest.raises(ValueError):
        generate_glad(bad, 10, 2, seed=0)


def test_generate_glad_goodness_of_fit():
    # chi-square at the 0.01 level: links per block pair and feature counts
    # against their generating distributions, on a large seeded sample
    params = make_params(m=2, k=2, v=2, block_in=0.4, block_out=0.1)
    data, truth = generate_glad(params, 1200, 20, seed=17)

    # links: pooled Bernoulli per (m, n) block, upper triangle
    iu = np.triu_indices(1200, k=1)
    gm, gn = truth.group[iu[0]], truth.group[iu[1]]
    y = data.links[iu]
    for a in range(2):
        for b in range(a, 2):
            sel = ((gm == a) & (gn == b)) | ((gm == b) & (gn == a))
            n_pairs = sel.sum()
            ones = y[sel].sum()
            p = params.block[a, b]
            chi2 = (ones - n_pairs * p) ** 2 / (n_pairs * p) + (
                (n_pairs - ones) - n_pairs * (1 - p)
            ) ** 2 / (n_pairs * (1 - p))
            assert scipy.stats.chi2.sf(chi2, df=1) > 0.01

    # features: aggregate counts per role against beta columns
    for k in range(2):
        rows = data.features[truth.role == k]
        if rows.shape[0] == 0:
            continue
        obs = rows.sum(axis=0)
        exp = obs.sum() * params.beta[:, k]
        _, pval = scipy.stats.chisquare(obs, exp)
        assert pval > 0.01

    # roles: counts per group against theta rows
    for g in range(2):
        counts = np.bincount(truth.role[truth.group == g], minlength=2)
        exp = counts.sum() * params.theta[g]
        _, pval = scipy.stats.chisquare(counts, exp)
        assert pval > 0.01


# ---------------------------------------------------------------------------
# generate_glad0
# ---------------------------------------------------------------------------

def test_generate_glad0_shapes():
    params = make_params()
    data, truth = generate_glad0(params, 20, 7, seed=1)
    assert data.n_nodes == 20 and data.n_features == 2
    np.testing.assert_array_equal(data.activity_counts, np.full(20, 7))
    assert len(truth.group) == 20
    assert all(g.shape == (7,) for g in truth.group)
    np.testing.assert_array_equal(data.links, data.links.T)
    # mirrored pair memberships
    assert truth.z_out[3, 5] == truth.z_in[5, 3]
    assert truth.z_in[3, 5] == truth.z_out[5, 3]


def test_generate_glad0_zero_activities_boundary():
    params = make_params()
    data, truth = generate_glad0(params, 6, 0, seed=4)
    assert data.feature_ids.size == 0
    np.testing.assert_array_equal(data.act_indptr, np.zeros(7, dtype=int))
    np.testing.assert_array_equal(data.feature_counts(), np.zeros((6, 2), dtype=int))


def test_generate_glad0_uniform_membership_frequencies():
    # large symmetric alpha: pair memberships approach the uniform law
    m = 2
    params = ModelParams(
        alpha=np.full(m, 500.0),
        block=np.full((m, m), 0.2),
        theta=np.full((m, 2), 0.5),
        beta=np.array([[0.9, 0.1], [0.1, 0.9]]),
    )
    data, truth = generate_glad0(params, 150, 0, seed=6)
    iu = np.triu_indices(150, k=1)  # > 10^4 independent draws per side
    freq_out = np.bincount(truth.z_out[iu], minlength=m) / iu[0].size
    freq_in = np.bincount(truth.z_in[iu], minlength=m) / iu[0].size
    assert np.all(np.abs(freq_out - 0.5) < 0.02)
    assert np.all(np.abs(freq_in - 0.5) < 0.02)


def test_generate_glad0_feature_counts_match_activities():
    params = make_params()
    data, truth = generate_glad0(params, 12, 9, seed=8)
    counts = data.feature_counts()
    np.testing.assert_array_equal(counts.sum(axis=1), np.full(12, 9))
    # with near-one-hot beta the feature ids track the roles most of the time
    agree = np.mean(data.feature_ids == np.concatenate(truth.role))
    assert agree > 0.75


def test_generate_glad0_deterministic():
    params = make_params()
    d1, t1 = generate_glad0(params, 15, 5, seed=21)
    d2, t2 = generate_glad0(params, 15, 5, seed=21)
    np.testing.assert_array_equal(d1.links, d2.links)
    np.testing.assert_array_equal(d1.feature_ids, d2.feature_ids)
    np.testing.assert_array_equal(t1.z_out, t2.z_out)


# ---------------------------------------------------------------------------
# link sampler
# ---------------------------------------------------------------------------

def _reference_links(rng, rates):
    # one draw over the whole upper triangle, row-major, as an edge list
    n = rates.shape[0]
    iu = np.triu_indices(n, k=1)
    linked = rng.random(n * (n - 1) // 2) < rates[iu]
    return iu[0][linked], iu[1][linked]


def _dense_oracle_edges(rng, block, left, right):
    # the dense sampler written out: one uniform per pair, row by row, into
    # an N x N matrix, mirrored, then its upper-triangle pairs, row-major
    n = left.shape[0]
    y = np.zeros((n, n), dtype=np.int8)
    for p in range(n):
        for q in range(p + 1, n):
            y[p, q] = y[q, p] = rng.random() < block[left[p, q], right[p, q]]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n) if y[p, q]]
    return [p for p, _ in pairs], [q for _, q in pairs]


@pytest.mark.parametrize("seed", range(5))
def test_sample_links_row_by_row_equals_one_triangle_draw(seed):
    rng = np.random.default_rng(100 + seed)
    m, n = 3, 20 + seed
    block = rng.uniform(0.05, 0.95, size=(m, m))
    group = rng.integers(0, m, size=n)
    z_out, z_in = rng.integers(0, m, size=(2, n, n))
    forms = (
        ((group[:, None], group), block[group][:, group]),  # static: per-person groups
        ((z_out, z_in), block[z_out, z_in]),  # glad0: per-pair memberships
    )
    for (left, right), rates in forms:
        rowwise, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            _sample_links(rowwise, block, left, right), _reference_links(reference, rates)
        )
        assert rowwise.random() == reference.random()  # the stream continues in step


@pytest.mark.parametrize("buffer", [1, 7, 1 << 16])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_sample_links_edges_equal_the_dense_oracle(n, buffer, monkeypatch):
    # the random stream of the dense sampler is pinned: the same uniforms
    # give the same edges, for per-person groups and per-pair memberships,
    # whether the rows' draws are read out one row at a time, a few rows at
    # a time or all at once
    monkeypatch.setattr(generator_module, "_LINK_BUFFER", buffer)
    rng = np.random.default_rng(7 + n)
    m = 3
    block = rng.uniform(0.05, 0.95, size=(m, m))
    group = rng.integers(0, m, size=n)
    z_out, z_in = rng.integers(0, m, size=(2, n, n))
    for left, right in ((np.tile(group[:, None], (1, n)), np.tile(group, (n, 1))),
                        (z_out, z_in)):
        sampled, oracle = np.random.default_rng(n), np.random.default_rng(n)
        u, v = _sample_links(sampled, block, left, right)
        want_u, want_v = _dense_oracle_edges(oracle, block, left, right)
        assert u.tolist() == want_u and v.tolist() == want_v
        assert u.dtype == v.dtype == np.int32
        assert sampled.random() == oracle.random()


# ---------------------------------------------------------------------------
# generate_dglad
# ---------------------------------------------------------------------------

def test_generate_dglad_shapes_and_path():
    params = make_params()
    theta0 = np.zeros((2, 2))
    data, truth, path = generate_dglad(params, theta0, 0.5, 30, horizon=4, trials=6, seed=3)
    assert data.horizon == 4 and data.n_nodes == 30
    assert path.shape == (5, 2, 2)
    np.testing.assert_array_equal(path[0], theta0)
    assert truth.group.shape == (4, 30)
    np.testing.assert_array_equal(truth.theta_path, path)


def test_generate_dglad_sigma_zero_freezes_path():
    params = make_params()
    theta0 = np.log(np.array([[0.3, 0.7], [0.6, 0.4]]))
    _, _, path = generate_dglad(params, theta0, 0.0, 10, horizon=5, trials=2, seed=1)
    for t in range(6):
        np.testing.assert_allclose(path[t], theta0, atol=0)


def test_generate_dglad_sigma_zero_matches_static_marginals():
    # with sigma = 0 and horizon 1 the snapshot law is the static sampler's
    # with theta = softmax(theta0); check role-given-group frequencies
    params = make_params()
    theta0 = np.log(np.array([[0.2, 0.8], [0.7, 0.3]]))
    data, truth, _ = generate_dglad(params, theta0, 0.0, 4000, horizon=1, trials=1, seed=2)
    rates = softmax(theta0)
    for g in range(2):
        sel = truth.group[0] == g
        freq = np.bincount(truth.role[0][sel], minlength=2) / sel.sum()
        assert np.all(np.abs(freq - rates[g]) < 0.03)


def test_generate_dglad_displacement_matches_sigma_squared_t():
    # mean squared coordinate displacement of the walk after T steps is
    # sigma^2 * T; average over seeds x groups x roles to within 10%
    params = make_params(m=5, k=4)
    # make_params special-cases k=2; build explicit simplices for k=4
    theta = np.full((5, 4), 0.25)
    beta = np.full((2, 4), 0.5)
    params = ModelParams(alpha=np.full(5, 0.1), block=params.block * 0 + 0.2, theta=theta, beta=beta)
    sigma, horizon = 0.5, 100
    theta0 = np.zeros((5, 4))
    sq = []
    for seed in range(100):
        _, _, path = generate_dglad(params, theta0, sigma, 2, horizon, 0, seed=seed)
        sq.append((path[-1] - path[0]) ** 2)
    msd = np.mean(sq)
    assert abs(msd - sigma**2 * horizon) < 0.10 * sigma**2 * horizon


# ---------------------------------------------------------------------------
# injection benchmarks
# ---------------------------------------------------------------------------

def test_inject_anomalies_counts_and_truth():
    cfg = InjectionConfig(n_nodes=500, n_groups=5, seed=0)
    data, truth = inject_anomalies(cfg)
    assert data.n_nodes == 500
    sizes = np.bincount(truth.group, minlength=5)
    np.testing.assert_array_equal(sizes, np.full(5, 100))
    assert len(truth.anomalous_groups) == 1  # ceil(0.2 * 5)
    np.testing.assert_array_equal(data.trials, np.full(500, 50))


def test_inject_anomalies_minimum_one_anomalous_group():
    cfg = InjectionConfig(n_nodes=40, n_groups=4, anomaly_fraction=0.01, seed=1)
    _, truth = inject_anomalies(cfg)
    assert len(truth.anomalous_groups) == 1


def test_inject_anomalies_rates_show_up_in_features():
    cfg = InjectionConfig(n_nodes=300, n_groups=3, seed=2)
    data, truth = inject_anomalies(cfg)
    anom = next(iter(truth.anomalous_groups))
    # anomalous groups use rate (0.9, 0.1): feature 0 dominates via beta
    for g in range(3):
        rows = data.features[truth.group == g]
        share0 = rows[:, 0].sum() / rows.sum()
        if g == anom:
            assert share0 > 0.6
        else:
            assert share0 < 0.4


def test_inject_anomalies_deterministic_and_remainder_split():
    cfg = InjectionConfig(n_nodes=103, n_groups=5, seed=3)
    d1, t1 = inject_anomalies(cfg)
    d2, t2 = inject_anomalies(cfg)
    np.testing.assert_array_equal(d1.features, d2.features)
    assert t1.anomalous_groups == t2.anomalous_groups
    sizes = np.bincount(t1.group, minlength=5)
    np.testing.assert_array_equal(sizes, [21, 21, 21, 20, 20])


def test_inject_activity_anomalies_shapes_and_tokens():
    cfg = InjectionConfig(n_nodes=60, n_groups=3, trials_per_person=40, seed=4)
    data, truth = inject_activity_anomalies(cfg)
    assert data.n_nodes == 60
    assert data.n_features == 2
    np.testing.assert_array_equal(data.activity_counts, np.full(60, 40))
    assert 0 <= data.feature_ids.min() and data.feature_ids.max() < 2
    np.testing.assert_array_equal(np.bincount(truth.group), np.full(3, 20))
    anom = next(iter(truth.anomalous_groups))
    # anomalous rate (0.9, 0.1) pushes token 0 through the 0.9-diagonal beta
    for g in range(3):
        ids = data.feature_ids.reshape(60, 40)[truth.group == g]
        share0 = (ids == 0).mean()
        assert share0 > 0.6 if g == anom else share0 < 0.4


def test_inject_activity_anomalies_activity_count_and_determinism():
    cfg = InjectionConfig(n_nodes=30, n_groups=3, seed=6)
    d1, t1 = inject_activity_anomalies(cfg, activities=7)
    d2, t2 = inject_activity_anomalies(cfg, activities=7)
    np.testing.assert_array_equal(d1.activity_counts, np.full(30, 7))
    np.testing.assert_array_equal(d1.feature_ids, d2.feature_ids)
    np.testing.assert_array_equal(d1.links, d2.links)
    assert t1.anomalous_groups == t2.anomalous_groups
    with pytest.raises(ValueError):
        inject_activity_anomalies(cfg, activities=-1)


def test_injection_params_validate():
    cfg = InjectionConfig(n_nodes=50, n_groups=5)
    params = injection_params(cfg, np.array([2]))
    from glad.model import validate_params

    assert validate_params(params) == []
    np.testing.assert_allclose(params.theta[2], [0.9, 0.1])
    np.testing.assert_allclose(params.theta[0], [0.1, 0.9])


def test_injection_config_validation():
    with pytest.raises(ValueError):
        InjectionConfig(n_nodes=3, n_groups=5)
    with pytest.raises(ValueError):
        InjectionConfig(anomaly_fraction=0.0)
    with pytest.raises(ValueError):
        InjectionConfig(normal_rate=(0.5, 0.3))
    with pytest.raises(ValueError):
        InjectionConfig(block_in=1.0)


def test_inject_dynamic_change_truth_and_jump():
    cfg = InjectionConfig(n_nodes=80, n_groups=4, seed=5)
    data, truth = inject_dynamic_change(cfg, horizon=5, change_time=4, changed_fraction=0.5)
    assert data.horizon == 5
    assert len(truth.anomalous_groups) == 2
    assert all(t == 4 for t in truth.change_times.values())
    path = truth.theta_path
    changed = sorted(truth.anomalous_groups)
    unchanged = [g for g in range(4) if g not in truth.anomalous_groups]
    # change time 4 = snapshot 4 first under the new rate = path step 4 -> 5
    jump_changed = np.linalg.norm(path[5] - path[4], axis=1)
    assert min(jump_changed[changed]) > max(jump_changed[unchanged])


def test_inject_dynamic_change_jump_dominates_across_seeds():
    # the step-4 jump of changed groups beats every unchanged group's step
    # in each of 20 seeded runs
    cfg = InjectionConfig(n_nodes=8, n_groups=4, seed=0)
    for seed in range(20):
        _, truth = inject_dynamic_change(
            replace(cfg, seed=seed), horizon=5, change_time=4, changed_fraction=0.5
        )
        path = truth.theta_path
        diffs = np.linalg.norm(path[5] - path[4], axis=1)
        changed = sorted(truth.anomalous_groups)
        unchanged = [g for g in range(4) if g not in truth.anomalous_groups]
        assert min(diffs[changed]) > max(diffs[unchanged])


def test_inject_dynamic_change_validates_change_time():
    cfg = InjectionConfig(n_nodes=20, n_groups=2)
    with pytest.raises(ValueError):
        inject_dynamic_change(cfg, horizon=5, change_time=0)
    with pytest.raises(ValueError):
        inject_dynamic_change(cfg, horizon=5, change_time=5)
