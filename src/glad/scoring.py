"""Anomaly scores, ranking, alarms, and evaluation metrics.

A static fit is scored by its rate table theta (groups x roles): a group's
score is the L1 distance of its role mixture from the population norm,
``rate_distance_score(theta, rate_reference(theta))``, where the norm is the
element-wise median row.  The score needs no knowledge of the generating
rates and is unchanged by how the fit labels roles.  Dynamic scoring tracks
jumps of the rate path in unconstrained space.  Evaluation compares flagged
sets and alarm sets against generator ground truth; group labels from a fit
are aligned to true labels by maximum-overlap assignment before any set
comparison.  That assignment is Crouse's shortest augmenting path with dual
potentials (D. F. Crouse, "On implementing 2D rectangular assignment
algorithms", IEEE TAES 52(4), 2016), square case, with the tie rules of
scipy's ``linear_sum_assignment``, so it returns scipy's mapping while the
module needs only numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AnomalyReport",
    "rate_distance_score",
    "rate_reference",
    "dynamic_change_score",
    "top_fraction",
    "rank_groups",
    "match_groups",
    "evaluate_static",
    "evaluate_dynamic",
    "make_report",
]


def rate_distance_score(rates: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Static anomaly score: L1 distance of each group's rate profile
    (row of ``rates``) from a reference profile.

    With ``reference = rate_reference(rates)`` this is the score the
    pipeline ranks and flags groups by.  It compares rate profiles
    directly, so an anomalous mixture that only permutes the normal one
    (same entropy, e.g. (0.9, 0.1) against (0.1, 0.9)) still stands out.
    """
    rates = np.asarray(rates, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if rates.ndim != 2 or reference.shape != (rates.shape[1],):
        raise ValueError("rates must be (M, K) and reference (K,)")
    return np.abs(rates - reference[None, :]).sum(axis=1)


def rate_reference(rates: np.ndarray) -> np.ndarray:
    """Self-contained reference profile: the element-wise median row.

    When most groups are normal the median of the fitted rate table sits
    on the normal profile, so rate distances from it single out deviant
    groups without any knowledge of the generating configuration.  Note
    the median of simplex rows need not itself sum to one.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 2 or rates.shape[0] < 1:
        raise ValueError("rates must be a non-empty (M, K) table")
    return np.median(rates, axis=0)


def dynamic_change_score(theta_path: np.ndarray) -> np.ndarray:
    """Per-step, per-group Euclidean jump of the unconstrained rate path.

    ``theta_path`` is (T, M, K); the result is (T-1, M) where row t-1
    holds ||theta^(t) - theta^(t-1)|| for each group.
    """
    theta_path = np.asarray(theta_path, dtype=float)
    if theta_path.ndim != 3 or theta_path.shape[0] < 2:
        raise ValueError("need a (T, M, K) path with T >= 2")
    return np.linalg.norm(np.diff(theta_path, axis=0), axis=2)


def rank_groups(scores: np.ndarray) -> np.ndarray:
    """Group indices by descending score, ties broken by lower index."""
    scores = np.asarray(scores, dtype=float)
    return np.lexsort((np.arange(scores.shape[0]), -scores))


def top_fraction(scores: np.ndarray, fraction: float) -> np.ndarray:
    """The ceil(fraction * M) highest-scoring groups, ascending indices."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    scores = np.asarray(scores, dtype=float)
    n_top = math.ceil(fraction * scores.shape[0])
    return np.sort(rank_groups(scores)[:n_top])


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a least-total-cost assignment of the square ``cost``.

    Crouse's shortest augmenting path with dual potentials, one row at a
    time, with scipy's tie rules: the remaining columns are scanned in
    scipy's order (descending at first), on an equal path cost an unassigned
    column wins, and a reached column is swap-removed from the remaining
    list.  So each result is the one scipy's ``linear_sum_assignment``
    returns.
    """
    c = cost.tolist()
    n = len(c)
    u, v = [0.0] * n, [0.0] * n
    row4col, col4row, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        # Dijkstra over reduced costs from row cur to the nearest free column
        remaining = list(range(n - 1, -1, -1))
        short = [math.inf] * n
        rows, cols = [], []
        min_val, i = 0.0, cur
        while True:
            rows.append(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + c[i][j] - u[i] - v[j]
                if r < short[j]:
                    path[j], short[j] = i, r
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    index, lowest = it, short[j]
            min_val = lowest
            j = remaining[index]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        # dual update, then flip the path from row cur to the free column j
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - short[col4row[i]]
        for k in cols:
            v[k] -= min_val - short[k]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.int64)


def match_groups(inferred: np.ndarray, true_grouping: np.ndarray, n_groups: int) -> np.ndarray:
    """Map fitted group labels onto true labels by maximum overlap.

    Returns an array ``mapping`` with ``mapping[fitted_label] = true_label``
    from the optimal assignment on the label co-occurrence matrix, solved by
    ``_assign`` (Crouse's algorithm with scipy's tie rules, so the mapping is
    the one scipy's ``linear_sum_assignment`` gives).  Both groupings must
    hold labels in ``[0, n_groups)``; any other label raises ValueError.
    """
    inferred = np.asarray(inferred, dtype=np.int64)
    true_grouping = np.asarray(true_grouping, dtype=np.int64)
    if inferred.shape != true_grouping.shape:
        raise ValueError("groupings must cover the same people")
    for name, labels in (("fitted", inferred), ("true", true_grouping)):
        bad = labels[(labels < 0) | (labels >= n_groups)]
        if bad.size:
            raise ValueError(f"{name} grouping holds label {bad[0]}, outside 0..{n_groups - 1}")
    overlap = np.bincount(inferred * n_groups + true_grouping, minlength=n_groups * n_groups)
    return _assign(-overlap.reshape(n_groups, n_groups))


def evaluate_static(flagged, anomalous, n_groups: int) -> dict:
    """Detection metrics for a flagged set against the true anomalous set.

    accuracy is the detected share of true anomalous groups; fpr the
    flagged share of normal groups.
    """
    anomalous = {int(g) for g in anomalous}
    if not anomalous:
        raise ValueError("ground truth has no anomalous groups")
    flagged = {int(g) for g in flagged}
    tp = len(flagged & anomalous)
    fp = len(flagged - anomalous)
    fn = len(anomalous - flagged)
    precision = tp / (tp + fp) if flagged else 0.0
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    normal = n_groups - len(anomalous)
    return {
        "accuracy": tp / len(anomalous),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "fpr": fp / normal if normal else 0.0,
    }


def evaluate_dynamic(
    change_scores: np.ndarray,
    change_times: dict,
    thresholds: np.ndarray,
) -> dict:
    """Recall and false-positive rate across an alarm-threshold grid.

    ``change_scores[t-1, m]`` covers snapshot transition t (t = 1..T-1);
    a true change for group m at time ``change_times[m]`` counts as
    detected when its transition scores strictly above the threshold.
    """
    change_scores = np.asarray(change_scores, dtype=float)
    if not change_times:
        raise ValueError("ground truth has no change times")
    steps, m = change_scores.shape
    truth = np.zeros((steps, m), dtype=bool)
    for g, t in change_times.items():
        g, t = int(g), int(t)
        if not 1 <= t <= steps:
            raise ValueError(f"change time {t} outside 1..{steps}")
        truth[t - 1, g] = True
    thresholds = np.asarray(thresholds, dtype=float)
    fpr = np.empty(thresholds.shape[0])
    recall = np.empty(thresholds.shape[0])
    n_normal = (~truth).sum()
    for i, tau in enumerate(thresholds):
        alarm = change_scores > tau
        fpr[i] = (alarm & ~truth).sum() / n_normal if n_normal else 0.0
        recall[i] = (alarm & truth).sum() / truth.sum()
    return {"thresholds": thresholds, "fpr": fpr, "recall": recall}


@dataclass(frozen=True)
class AnomalyReport:
    """Scores, ranking, flagged set, optional alarms and metrics."""

    group_scores: np.ndarray
    ranking: np.ndarray
    flagged: np.ndarray
    change_scores: np.ndarray | None = None
    alarms: tuple = ()
    metrics: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.group_scores.shape[0]
        if sorted(self.ranking.tolist()) != list(range(m)):
            raise ValueError("ranking must be a permutation of the groups")
        if not set(self.flagged.tolist()) <= set(range(m)):
            raise ValueError("flagged groups out of range")
        for key, value in self.metrics.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"metric {key} outside [0, 1]")

    def to_json(self) -> str:
        payload = {
            "group_scores": self.group_scores.tolist(),
            "ranking": self.ranking.tolist(),
            "flagged": self.flagged.tolist(),
            "change_scores": None
            if self.change_scores is None
            else self.change_scores.tolist(),
            "alarms": [[int(g), int(t)] for g, t in self.alarms],
            "metrics": self.metrics,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def make_report(
    group_scores: np.ndarray,
    fraction: float,
    *,
    change_scores: np.ndarray | None = None,
    threshold: float | None = None,
    anomalous=None,
    change_times: dict | None = None,
) -> AnomalyReport:
    """Assemble a report: rank, flag the top fraction, raise alarms, score.

    Alarms are (group, t) pairs whose transition score exceeds
    ``threshold``, which must be finite: no score exceeds a NaN, so a NaN
    threshold would raise no alarm and read as zero recall.  Metrics appear
    only when ground truth is supplied.
    """
    if threshold is not None and not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, not {threshold}")
    group_scores = np.asarray(group_scores, dtype=float)
    ranking = rank_groups(group_scores)
    flagged = top_fraction(group_scores, fraction)
    alarms = ()
    if change_scores is not None and threshold is not None:
        hits = np.argwhere(np.asarray(change_scores) > threshold)
        alarms = tuple((int(m), int(t) + 1) for t, m in hits)
    metrics = {}
    if anomalous is not None:
        metrics.update(evaluate_static(flagged, anomalous, group_scores.shape[0]))
    if change_times and change_scores is not None and threshold is not None:
        curve = evaluate_dynamic(change_scores, change_times, np.array([threshold]))
        metrics["change_recall"] = float(curve["recall"][0])
        metrics["change_fpr"] = float(curve["fpr"][0])
    return AnomalyReport(
        group_scores=group_scores,
        ranking=ranking,
        flagged=flagged,
        change_scores=None if change_scores is None else np.asarray(change_scores, float),
        alarms=alarms,
        metrics=metrics,
    )
