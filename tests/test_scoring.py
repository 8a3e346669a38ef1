import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from glad.generator import InjectionConfig, inject_anomalies
from glad.glad_vem import FitConfig, fit
from glad.scoring import (
    AnomalyReport,
    _assign,
    dynamic_change_score,
    evaluate_dynamic,
    evaluate_static,
    make_report,
    match_groups,
    rank_groups,
    rate_distance_score,
    rate_reference,
    top_fraction,
)


# ---------------------------------------------------------------------------
# rate-distance and dynamic scores
# ---------------------------------------------------------------------------

def test_rate_distance_score_values():
    rates = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
    got = rate_distance_score(rates, np.array([0.1, 0.9]))
    np.testing.assert_allclose(got, [1.6, 0.0, 0.8], atol=1e-12)
    with pytest.raises(ValueError):
        rate_distance_score(rates, np.array([0.1, 0.2, 0.7]))


def test_pipeline_score_flags_a_permuted_mixture_whatever_the_role_labels():
    # four normal groups and one whose mixture permutes theirs; relabeling
    # the roles (a column swap) leaves every score unchanged
    rates = np.array([[0.1, 0.9]] * 4 + [[0.9, 0.1]])
    scores = rate_distance_score(rates, rate_reference(rates))
    np.testing.assert_allclose(scores, [0.0] * 4 + [1.6], atol=1e-12)
    swapped = rates[:, ::-1]
    np.testing.assert_array_equal(rate_distance_score(swapped, rate_reference(swapped)), scores)


def test_dynamic_change_score_constant_path_is_zero():
    path = np.tile(np.array([[0.3, -0.1], [1.0, 2.0]]), (4, 1, 1))
    np.testing.assert_array_equal(dynamic_change_score(path), np.zeros((3, 2)))


def test_dynamic_change_score_three_four_five():
    path = np.zeros((2, 1, 2))
    path[1, 0] = [3.0, 4.0]
    assert dynamic_change_score(path)[0, 0] == pytest.approx(5.0)


def test_dynamic_change_score_needs_two_snapshots():
    with pytest.raises(ValueError):
        dynamic_change_score(np.zeros((1, 2, 2)))


# ---------------------------------------------------------------------------
# ranking / flagging
# ---------------------------------------------------------------------------

def test_top_fraction_examples():
    np.testing.assert_array_equal(top_fraction(np.array([5.0, 1.0, 9.0]), 1 / 3), [2])
    np.testing.assert_array_equal(top_fraction(np.array([5.0, 1.0, 9.0]), 1.0), [0, 1, 2])
    np.testing.assert_array_equal(top_fraction(np.array([2.0, 2.0, 1.0]), 1 / 3), [0])


def test_top_fraction_rejects_bad_fraction():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            top_fraction(np.array([1.0]), bad)


def test_rank_groups_descending_with_index_ties():
    np.testing.assert_array_equal(rank_groups(np.array([2.0, 3.0, 2.0])), [1, 0, 2])


@settings(deadline=None)
@given(
    st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=12),
    st.floats(0.01, 1.0),
)
def test_top_fraction_size_property(scores, fraction):
    scores = np.asarray(scores)
    flagged = top_fraction(scores, fraction)
    assert flagged.shape[0] == math.ceil(fraction * scores.shape[0])
    assert set(flagged.tolist()) <= set(range(scores.shape[0]))
    assert np.all(np.diff(flagged) > 0)


# ---------------------------------------------------------------------------
# label matching
# ---------------------------------------------------------------------------

def test_match_groups_recovers_permutation():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 4, size=200)
    perm = np.array([3, 0, 2, 1])
    inferred = perm[true]
    mapping = match_groups(inferred, true, 4)
    np.testing.assert_array_equal(mapping[inferred], true)


def test_match_groups_tolerates_noise():
    rng = np.random.default_rng(1)
    true = np.repeat(np.arange(3), 40)
    inferred = np.array([2, 0, 1])[true]
    noisy = inferred.copy()
    flip = rng.choice(120, size=10, replace=False)
    noisy[flip] = rng.integers(0, 3, size=10)
    mapping = match_groups(noisy, true, 3)
    np.testing.assert_array_equal(mapping, [1, 2, 0])


def _oracle_cases(rng, n):
    # tie-heavy small integers, sparse co-occurrence counts (the overlap
    # tables match_groups negates), and continuous entries
    yield rng.integers(0, 3, size=(n, n)).astype(float)
    counts = np.bincount(rng.integers(0, n * n, size=rng.integers(0, 3 * n + 1)),
                         minlength=n * n)
    yield -counts.reshape(n, n).astype(float)
    yield rng.random((n, n))


def test_assign_matches_scipy_assignment_on_every_matrix():
    # the same columns, not just the same cost: group labels depend on how
    # ties are broken
    rng = np.random.default_rng(16)
    cases = [c for _ in range(3400) for c in _oracle_cases(rng, int(rng.integers(1, 9)))]
    cases += [c for _ in range(2) for c in _oracle_cases(rng, 40)]
    assert len(cases) >= 10_000
    for cost in cases:
        rows, cols = linear_sum_assignment(cost)
        np.testing.assert_array_equal(rows, np.arange(cost.shape[0]))
        np.testing.assert_array_equal(_assign(cost), cols, err_msg=repr(cost))


def test_match_groups_constant_overlap_is_the_identity():
    # every assignment ties; scipy's scan order gives the identity
    np.testing.assert_array_equal(match_groups(np.zeros(0), np.zeros(0), 4), np.arange(4))


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("label", [-1, 3])
def test_match_groups_rejects_labels_outside_the_groups(which, label):
    groupings = [np.array([0, 1, 2, 2]), np.array([2, 0, 1, 1])]
    groupings[which][1] = label
    with pytest.raises(ValueError, match=f"label {label},"):
        match_groups(*groupings, 3)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_static_perfect():
    m = evaluate_static({1, 3}, {1, 3}, n_groups=5)
    assert m["accuracy"] == 1.0 and m["f1"] == 1.0 and m["fpr"] == 0.0


def test_evaluate_static_disjoint():
    m = evaluate_static({0}, {4}, n_groups=5)
    assert m["accuracy"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0


def test_evaluate_static_confusion_arithmetic():
    # TP=3, FP=1, FN=1
    m = evaluate_static({0, 1, 2, 9}, {0, 1, 2, 3}, n_groups=10)
    assert m["precision"] == pytest.approx(0.75)
    assert m["recall"] == pytest.approx(0.75)
    assert m["f1"] == pytest.approx(0.75)
    assert m["accuracy"] == pytest.approx(0.75)


def test_evaluate_static_empty_truth_rejected():
    with pytest.raises(ValueError):
        evaluate_static({0}, set(), n_groups=3)


def test_evaluate_dynamic_manual():
    scores = np.array([[0.1, 0.2], [0.9, 0.1], [0.2, 0.3]])  # steps t=1..3, M=2
    out = evaluate_dynamic(scores, {0: 2}, thresholds=np.array([0.5, 0.05]))
    # tau=0.5: only (g0, t2) alarms -> recall 1, fpr 0
    assert out["recall"][0] == 1.0 and out["fpr"][0] == 0.0
    # tau=0.05: everything alarms -> recall 1, fpr 1
    assert out["recall"][1] == 1.0 and out["fpr"][1] == 1.0


def test_evaluate_dynamic_rejects_bad_inputs():
    scores = np.zeros((3, 2))
    with pytest.raises(ValueError):
        evaluate_dynamic(scores, {}, np.array([0.5]))
    with pytest.raises(ValueError):
        evaluate_dynamic(scores, {0: 4}, np.array([0.5]))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_evaluate_dynamic_fpr_nonincreasing(seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((4, 3))
    taus = np.sort(rng.random(6))
    out = evaluate_dynamic(scores, {1: 2}, taus)
    assert np.all(np.diff(out["fpr"]) <= 1e-12)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

def test_report_json_round_trip():
    rep = make_report(
        np.array([3.0, 1.0, 2.0]),
        2 / 3,
        change_scores=np.array([[0.1, 0.8, 0.0]]),
        threshold=0.5,
        anomalous={0},
        change_times={1: 1},
    )
    back = json.loads(rep.to_json())
    assert back["group_scores"] == rep.group_scores.tolist() == [3.0, 1.0, 2.0]
    assert back["ranking"] == rep.ranking.tolist() == [0, 2, 1]
    assert back["flagged"] == rep.flagged.tolist() == [0, 2]
    assert back["change_scores"] == rep.change_scores.tolist()
    assert back["alarms"] == [[1, 1]] and rep.alarms == ((1, 1),)
    assert back["metrics"] == rep.metrics
    assert back["metrics"]["accuracy"] == 1.0
    assert back["metrics"]["change_recall"] == 1.0


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        AnomalyReport(
            group_scores=np.array([1.0, 2.0]),
            ranking=np.array([0, 0]),
            flagged=np.array([0]),
        )
    with pytest.raises(ValueError):
        AnomalyReport(
            group_scores=np.array([1.0, 2.0]),
            ranking=np.array([1, 0]),
            flagged=np.array([5]),
        )
    with pytest.raises(ValueError):
        AnomalyReport(
            group_scores=np.array([1.0]),
            ranking=np.array([0]),
            flagged=np.array([0]),
            metrics={"recall": 1.5},
        )


def test_make_report_without_truth_has_no_metrics():
    rep = make_report(np.array([1.0, 4.0]), 0.5)
    assert rep.metrics == {} and rep.alarms == () and rep.change_scores is None
    np.testing.assert_array_equal(rep.flagged, [1])



@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_make_report_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="threshold must be finite"):
        make_report(np.array([1.0, 4.0]), 0.5, change_scores=np.ones((2, 2)),
                    threshold=threshold)

# ---------------------------------------------------------------------------
# pipeline: injected anomaly surfaces at the top of the rate-distance ranking
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_injection_pipeline_ranks_anomalous_group_first(seed):
    cfg = InjectionConfig(n_nodes=250, seed=seed)
    data, truth = inject_anomalies(cfg)
    res = fit(data, cfg.n_groups, cfg.n_roles, FitConfig(max_iters=60, seed=seed))
    mapping = match_groups(res.state.grouping(), truth.group, cfg.n_groups)
    theta = res.params.theta
    scores = rate_distance_score(theta, rate_reference(theta))
    flagged_true_labels = {int(mapping[g]) for g in top_fraction(scores, cfg.anomaly_fraction)}
    metrics = evaluate_static(flagged_true_labels, truth.anomalous_groups, cfg.n_groups)
    assert metrics["accuracy"] == 1.0, (flagged_true_labels, truth.anomalous_groups)
