"""Two-stage baseline: network-only grouping, then per-group role mixtures.

Stage one fits the links alone and hardens memberships to their argmax: a
mixed-membership blockmodel (Airoldi, Blei, Fienberg & Xing, JMLR 2008),
which is the joint fit on data with no point-wise information, one role and
one feature that every person shows once.  Stage two, given
that grouping, runs EM for a K-component multinomial mixture over the
activity rows — one shared emission table, one mixture weight vector per
group — in the joint fit's EM loop (``glad_vem.run_em``), and scores each
group by how badly the population-level mixture explains its members.
Comparing this pipeline against the joint fit is the point: the baseline
cannot let role structure inform the grouping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import glad_vem
from .model import Dataset, floored_log, gammaln, logsumexp

__all__ = [
    "MixtureConfig", "MmsbResult", "GroupMixtureResult", "stage_one", "fit_mmsb", "fit_group_lda",
]

# The mixture EM's iteration cap and relative log-likelihood tolerance.
MAX_ITERS = 200
TOL = 1e-6


@dataclass(frozen=True)
class MixtureConfig:
    seed: int = 0


@dataclass(frozen=True)
class MmsbResult:
    grouping: np.ndarray
    block: np.ndarray
    alpha: np.ndarray
    fit: glad_vem.FitResult


@dataclass(frozen=True)
class GroupMixtureResult:
    rates: np.ndarray          # (M, K) per-group mixture weights
    global_rate: np.ndarray    # (K,) member-weighted mean of group rates
    beta: np.ndarray           # (V, K) shared emission table
    scores: np.ndarray         # (M,) negative global-mixture log-likelihood
    trace: np.ndarray
    converged: bool


def _constant_feature(n_nodes: int) -> np.ndarray:
    return np.ones((n_nodes, 1), dtype=np.int64)


def fit_mmsb(
    links: np.ndarray,
    n_groups: int,
    config: glad_vem.FitConfig | None = None,
) -> MmsbResult:
    """Fit memberships from the link structure alone and harden them.

    Runs the joint fit with one role on a constant feature that every person
    shows once.  After every M-step theta = beta = 1, so each role and
    feature term of the sweep and the bound is exactly 0 (log 1 and
    gammaln(2)), and the membership update sees just the digamma and
    pairwise parts.  A zero feature would leave beta without mass.
    """
    links = np.asarray(links)
    data = Dataset(features=_constant_feature(links.shape[0]), links=links)
    result = glad_vem.fit(data, n_groups, 1, config)
    return MmsbResult(
        grouping=result.state.grouping(),
        block=result.params.block,
        alpha=result.params.alpha,
        fit=result,
    )


def stage_one(data: Dataset, config: glad_vem.FitConfig | None = None) -> glad_vem.Member:
    """Stage one on ``data``'s graph as a member of ``glad_vem.fit_members``,
    so that it can be fitted together with the joint fit on the same data.
    Its dataset shares the graph of ``data`` and holds one constant feature;
    see ``fit_mmsb``."""
    return glad_vem.Member(data.with_features(_constant_feature(data.n_nodes)), 1, config)


def _mixture_loglik_rows(features: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # (N, K) per-component multinomial log-likelihoods, coefficient included
    coef = gammaln(features.sum(axis=1) + 1.0) - gammaln(features + 1.0).sum(axis=1)
    return coef[:, None] + features @ floored_log(beta)


def fit_group_lda(
    features: np.ndarray,
    grouping: np.ndarray,
    n_roles: int,
    config: MixtureConfig | None = None,
    n_groups: int | None = None,
) -> GroupMixtureResult:
    """Per-group multinomial mixture rates with a shared emission table.

    EM over all activity rows at once: responsibilities use the owning
    group's mixture weights, the emission table pools every row.  Groups
    with fewer than two members keep the global rate (with a warning)
    since a private mixture weight would be meaningless.  Each group's
    score is the negative log-likelihood of its rows under the *global*
    rate — groups whose role composition deviates from the population
    score high.
    """
    config = config or MixtureConfig()
    features = np.asarray(features, dtype=np.int64)
    grouping = np.asarray(grouping, dtype=np.int64)
    if features.ndim != 2 or grouping.shape != (features.shape[0],):
        raise ValueError("features must be (N, V) with one group label per row")
    n, v = features.shape
    m = int(grouping.max()) + 1 if n_groups is None else n_groups
    if grouping.min() < 0 or grouping.max() >= m:
        raise ValueError("grouping labels out of range")
    k = n_roles
    if k < 1:
        raise ValueError("need at least one mixture component")

    sizes = np.bincount(grouping, minlength=m)
    small = np.flatnonzero(sizes < 2)
    if small.size:
        warnings.warn(f"groups {small.tolist()} have < 2 members; global rate used")

    rng = np.random.default_rng(config.seed)
    beta = rng.dirichlet(np.ones(v), size=k).T
    weights = np.full((m, k), 1.0 / k)

    def step():
        # the log-likelihood at the current parameters, then the M-step
        nonlocal weights, beta
        scored = _mixture_loglik_rows(features, beta) + floored_log(weights)[grouping]
        loglik = float(logsumexp(scored, axis=1).sum())
        resp = np.exp(scored - logsumexp(scored, axis=1, keepdims=True))

        group_resp = np.zeros((m, k))
        np.add.at(group_resp, grouping, resp)
        weights = np.where(
            (sizes >= 2)[:, None],
            group_resp / np.maximum(sizes, 1)[:, None],
            1.0 / k,
        )
        beta = glad_vem.normalize_or_uniform(features.T @ resp, 0, "beta column")
        return loglik

    trace, converged = glad_vem.run_em(step(), step, MAX_ITERS - 1, TOL)

    global_rate = (sizes @ weights) / max(1, n)
    rates = np.where((sizes >= 2)[:, None], weights, global_rate[None, :])

    row_ll = _mixture_loglik_rows(features, beta)
    member_nll = -logsumexp(row_ll + floored_log(global_rate)[None, :], axis=1)
    scores = np.zeros(m)
    np.add.at(scores, grouping, member_nll)

    return GroupMixtureResult(
        rates=rates,
        global_rate=global_rate,
        beta=beta,
        scores=scores,
        trace=trace,
        converged=converged,
    )
