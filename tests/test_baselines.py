import numpy as np
import pytest
from scipy.special import gammaln

from glad.baselines import MixtureConfig, fit_group_lda, fit_mmsb
from glad.generator import InjectionConfig, inject_anomalies
from glad.glad_vem import FitConfig


def _two_cliques(n_half=10):
    n = 2 * n_half
    y = np.zeros((n, n), dtype=int)
    y[:n_half, :n_half] = 1
    y[n_half:, n_half:] = 1
    np.fill_diagonal(y, 0)
    return y


# ---------------------------------------------------------------------------
# stage one: links-only grouping
# ---------------------------------------------------------------------------

def test_mmsb_separates_disconnected_cliques():
    y = _two_cliques()
    res = fit_mmsb(y, 2, FitConfig(max_iters=50, seed=0))
    g = res.grouping
    assert len(set(g[:10])) == 1 and len(set(g[10:])) == 1
    assert g[0] != g[10]
    assert res.block.shape == (2, 2) and res.alpha.shape == (2,)


def test_mmsb_deterministic_without_signal():
    y = np.zeros((8, 8), dtype=int)
    a = fit_mmsb(y, 2, FitConfig(max_iters=10, seed=3))
    b = fit_mmsb(y, 2, FitConfig(max_iters=10, seed=3))
    np.testing.assert_array_equal(a.grouping, b.grouping)


def test_mmsb_node_permutation_equivariant():
    y = _two_cliques(6)
    rng = np.random.default_rng(1)
    perm = rng.permutation(12)
    base = fit_mmsb(y, 2, FitConfig(max_iters=50, seed=0)).grouping
    moved = fit_mmsb(y[np.ix_(perm, perm)], 2, FitConfig(max_iters=50, seed=0)).grouping
    # group labels may swap; co-membership must match exactly
    same_base = base[perm][:, None] == base[perm][None, :]
    same_moved = moved[:, None] == moved[None, :]
    np.testing.assert_array_equal(same_base, same_moved)


def test_mmsb_trace_monotone():
    cfg = InjectionConfig(n_nodes=120, n_groups=3, seed=5)
    data, _ = inject_anomalies(cfg)
    res = fit_mmsb(data.links, 3, FitConfig(max_iters=40, seed=2))
    assert np.all(np.diff(res.fit.trace) >= -1e-8)


def test_mmsb_passes_fit_warnings_to_the_caller():
    # the links-only fit warns only on a real fallback, and the caller sees it
    y = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.warns(UserWarning, match="more groups than people"):
        fit_mmsb(y, 4, FitConfig(max_iters=3, seed=0))


# ---------------------------------------------------------------------------
# stage two: per-group mixtures
# ---------------------------------------------------------------------------

def _mixture_rows(rng, rates, n_per_group, trials=40):
    # role draws per person, then feature counts concentrated on the role
    beta = np.array([[0.9, 0.1], [0.1, 0.9]])
    rows, grouping = [], []
    for g, rate in enumerate(rates):
        roles = rng.choice(2, size=n_per_group, p=rate)
        for r in roles:
            rows.append(rng.multinomial(trials, beta[:, r]))
            grouping.append(g)
    return np.array(rows), np.array(grouping)


def test_group_lda_identical_groups_score_equal():
    row = np.array([5, 3, 2])
    features = np.tile(row, (12, 1))
    grouping = np.repeat(np.arange(3), 4)
    res = fit_group_lda(features, grouping, 2, MixtureConfig(seed=0))
    assert res.scores.max() - res.scores.min() < 1e-6
    np.testing.assert_allclose(res.rates.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(res.global_rate.sum(), 1.0, atol=1e-12)


def test_group_lda_k1_is_plain_multinomial_nll():
    rng = np.random.default_rng(2)
    features = rng.integers(0, 6, size=(9, 4))
    grouping = np.repeat(np.arange(3), 3)
    res = fit_group_lda(features, grouping, 1, MixtureConfig(seed=0))
    # K=1: beta is the pooled frequency table, score the exact multinomial NLL
    pooled = features.sum(axis=0) / features.sum()
    np.testing.assert_allclose(res.beta[:, 0], pooled, atol=1e-12)
    want = np.zeros(3)
    for p, row in enumerate(features):
        ll = gammaln(row.sum() + 1) - gammaln(row + 1).sum() + row @ np.log(pooled)
        want[grouping[p]] -= ll
    np.testing.assert_allclose(res.scores, want, atol=1e-8)
    np.testing.assert_array_equal(res.rates, np.ones((3, 1)))


def test_group_lda_trace_nondecreasing_and_converges():
    rng = np.random.default_rng(3)
    features, grouping = _mixture_rows(rng, [(0.2, 0.8), (0.8, 0.2), (0.5, 0.5)], 30)
    res = fit_group_lda(features, grouping, 2, MixtureConfig(seed=1))
    assert np.all(np.diff(res.trace) >= -1e-8)
    assert res.converged
    # the stopping rule compares two log-likelihoods, so it cannot stop
    # the loop after its first iteration
    assert res.trace.size > 1


def test_group_lda_recovers_group_rates():
    rng = np.random.default_rng(4)
    features, grouping = _mixture_rows(rng, [(0.1, 0.9), (0.9, 0.1)], 120)
    res = fit_group_lda(features, grouping, 2, MixtureConfig(seed=0))
    # component labels are arbitrary: compare sorted rate entries
    np.testing.assert_allclose(np.sort(res.rates[0]), [0.1, 0.9], atol=0.08)
    np.testing.assert_allclose(np.sort(res.rates[1]), [0.1, 0.9], atol=0.08)
    # the two groups disagree about which component dominates
    assert res.rates[0].argmax() != res.rates[1].argmax()


def test_group_lda_small_group_gets_global_rate():
    rng = np.random.default_rng(5)
    features, grouping = _mixture_rows(rng, [(0.3, 0.7), (0.7, 0.3)], 20)
    features = np.vstack([features, features[:1]])
    grouping = np.concatenate([grouping, [2]])
    with pytest.warns(UserWarning, match="< 2 members"):
        res = fit_group_lda(features, grouping, 2, MixtureConfig(seed=0), n_groups=3)
    np.testing.assert_allclose(res.rates[2], res.global_rate, atol=1e-12)


def test_group_lda_ignores_links_entirely():
    rng = np.random.default_rng(6)
    features, grouping = _mixture_rows(rng, [(0.2, 0.8), (0.6, 0.4)], 15)
    a = fit_group_lda(features, grouping, 2, MixtureConfig(seed=7))
    b = fit_group_lda(features, grouping, 2, MixtureConfig(seed=7))
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.beta, b.beta)


def test_group_lda_input_validation():
    with pytest.raises(ValueError):
        fit_group_lda(np.zeros((4, 2), dtype=int), np.zeros(3, dtype=int), 2)
    with pytest.raises(ValueError):
        fit_group_lda(np.zeros((4, 2), dtype=int), np.array([0, 0, 1, 5]), 2, n_groups=2)
    with pytest.raises(ValueError):
        fit_group_lda(np.zeros((4, 2), dtype=int), np.zeros(4, dtype=int), 0)


def test_group_lda_pinned_trace_and_scores():
    # recorded while the mixture EM still ran its own loop: a reordered
    # M-step, a shifted trace entry or a changed stopping rule moves these
    # far beyond the 1e-10 tolerance
    data, truth = inject_anomalies(
        InjectionConfig(n_nodes=40, n_groups=3, trials_per_person=20, seed=2)
    )
    res = fit_group_lda(data.features, truth.group, 2, MixtureConfig(seed=5))
    want_trace = [
        -508.0430258203878, -233.44482207106046, -71.3410765089468,
        -71.27970169178838, -71.27970169177603,
    ]
    want_scores = [31.131925059023562, 27.936722759018448, 32.93195494251219]
    np.testing.assert_allclose(res.trace, want_trace, rtol=1e-10, atol=0)
    np.testing.assert_allclose(res.scores, want_scores, rtol=1e-10, atol=0)
    assert res.converged


# ---------------------------------------------------------------------------
# the full two-stage pipeline flags a planted anomaly
# ---------------------------------------------------------------------------

def test_two_stage_pipeline_scores_anomalous_group_highest():
    cfg = InjectionConfig(n_nodes=250, seed=0)
    data, truth = inject_anomalies(cfg)
    stage1 = fit_mmsb(data.links, cfg.n_groups, FitConfig(max_iters=60, seed=0))
    stage2 = fit_group_lda(data.features, stage1.grouping, cfg.n_roles, MixtureConfig(seed=0))
    # translate the top-scoring fitted group into true labels by overlap
    from glad.scoring import match_groups

    mapping = match_groups(stage1.grouping, truth.group, cfg.n_groups)
    assert int(mapping[stage2.scores.argmax()]) in truth.anomalous_groups
