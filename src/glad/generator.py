"""Forward samplers for the GLAD family and planted-anomaly benchmarks.

All samplers draw from an isolated ``numpy.random.Generator`` seeded per
call, in a fixed documented order (memberships, groups, links, roles,
features), so repeated calls with the same seed are byte-identical.  Links
are sampled on the upper triangle only and mirrored; the diagonal stays zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ActivityDataset,
    Dataset,
    DynamicDataset,
    ModelParams,
    PROB_EPS,
    softmax,
    validate_params,
)

__all__ = [
    "GroundTruth",
    "InjectionConfig",
    "generate_glad",
    "generate_glad0",
    "generate_dglad",
    "inject_activity_anomalies",
    "inject_anomalies",
    "inject_dynamic_change",
    "injection_params",
]


@dataclass(frozen=True)
class GroundTruth:
    """Latent state recorded while sampling, for evaluation only.

    ``group`` and ``role`` are (N,) arrays for the static model, (T, N) for
    the dynamic one and per-person ragged tuples for the activity-level
    variant.  ``change_times`` maps a group index to the snapshot at which
    its mixture rate was switched; ``theta_path`` carries the unconstrained
    mixture-rate walk of the dynamic samplers ((T+1, M, K), starting point
    first) when one exists.
    """

    pi: np.ndarray
    group: object
    role: object
    anomalous_groups: frozenset = frozenset()
    change_times: dict = field(default_factory=dict)
    theta_path: np.ndarray | None = None
    z_out: np.ndarray | None = None
    z_in: np.ndarray | None = None


def _categorical_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One categorical draw per row of ``probs`` via inverse CDF."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    idx = (u[:, None] > cdf).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def _require_valid(params: ModelParams) -> None:
    msgs = validate_params(params)
    if msgs:
        raise ValueError("invalid model parameters: " + "; ".join(msgs))


def _as_trials(trials, n_nodes: int) -> np.ndarray:
    arr = np.asarray(trials, dtype=np.int64)
    if arr.ndim == 0:
        arr = np.full(n_nodes, int(arr), dtype=np.int64)
    if arr.shape != (n_nodes,):
        raise ValueError("trials must be a scalar or one count per person")
    if np.any(arr < 0):
        raise ValueError("trials must be non-negative")
    return arr


def _sample_links(
    rng: np.random.Generator, block: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Symmetric 0/1 adjacency, upper triangle drawn and mirrored.

    Pair (p, q) links with rate ``block[left[p, q], right[p, q]]``, where
    ``left`` and ``right`` broadcast to (N, N): per-person groups
    (``group[:, None]``, ``group``) or per-pair memberships.  The triangle is
    drawn row by row, one uniform per pair in row-major order, so the random
    stream matches a single draw over the whole triangle while no N x N rate
    matrix is built.
    """
    left, right = np.broadcast_arrays(left, right)
    n = left.shape[0]
    y = np.zeros((n, n), dtype=np.int8)
    for p in range(n - 1):
        y[p, p + 1:] = rng.random(n - 1 - p) < block[left[p, p + 1:], right[p, p + 1:]]
    return y + y.T


def _snapshot(rng, block, rates, beta, group, trials) -> tuple:
    """One static snapshot under hard groups, in the documented order: links
    (``block[group_p, group_q]``), then a role per person from ``rates[group]``,
    then feature counts ``Multinomial(trials_p, beta[:, role_p])``.  Returns
    ``(Dataset, role)``."""
    links = _sample_links(rng, block, group[:, None], group)
    role = _categorical_rows(rng, rates[group])
    features = rng.multinomial(trials, beta.T[role])
    return Dataset(features=features, links=links), role


def generate_glad(params: ModelParams, n_nodes: int, trials, seed: int):
    """Sample a static dataset: one group, one role, one count row per person.

    Person p draws a membership ``pi_p ~ Dir(alpha)``, a single group
    ``G_p ~ Cat(pi_p)``, a single role ``R_p ~ Cat(theta[G_p])`` and an
    aggregate feature row ``X_p ~ Multinomial(trials_p, beta[:, R_p])``;
    links use ``Bernoulli(block[G_p, G_q])``.  Returns ``(Dataset, GroundTruth)``.
    """
    _require_valid(params)
    a = _as_trials(trials, n_nodes)
    rng = np.random.default_rng(seed)

    pi = rng.dirichlet(params.alpha, size=n_nodes)
    group = _categorical_rows(rng, pi)
    data, role = _snapshot(rng, params.block, params.theta, params.beta, group, a)
    return data, GroundTruth(pi=pi, group=group, role=role)


def generate_glad0(params: ModelParams, n_nodes: int, activities, seed: int):
    """Sample an activity-level dataset with per-pair link memberships.

    Each ordered pair (p, q) owns two membership draws, ``z_out ~ Cat(pi_p)``
    for the initiating side and ``z_in ~ Cat(pi_q)`` for the receiving side;
    the link is Bernoulli in ``block[z_out, z_in]`` (sampled once per
    unordered pair, on the upper triangle).  Every activity a of person p
    draws its own group ``G_pa ~ Cat(pi_p)``, role ``R_pa ~ Cat(theta[G_pa])``
    and a single feature ``~ Cat(beta[:, R_pa])``.

    Returns ``(ActivityDataset, GroundTruth)``; ``truth.group`` / ``truth.role``
    are per-person tuples of per-activity assignments and the pair
    memberships land in ``truth.z_out`` / ``truth.z_in`` ((N, N) index
    matrices, mirrored so ``z_out[q, p]`` is the side drawn from ``pi_q``).
    """
    _require_valid(params)
    counts = _as_trials(activities, n_nodes)
    rng = np.random.default_rng(seed)
    m = params.n_groups

    pi = rng.dirichlet(params.alpha, size=n_nodes)

    # pair memberships, upper triangle of ordered pairs; mirrored so that
    # z_out[q, p] is the side drawn from pi_q in the (p, q) interaction
    z_out = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    z_in = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    iu = np.triu_indices(n_nodes, k=1)
    z_out[iu] = _categorical_rows(rng, pi[iu[0]])
    z_in[iu] = _categorical_rows(rng, pi[iu[1]])
    z_out[(iu[1], iu[0])] = z_in[iu]
    z_in[(iu[1], iu[0])] = z_out[iu]

    links = _sample_links(rng, params.block, z_out, z_in)

    group_rows, role_rows, feature_rows = [], [], []
    beta_t = params.beta.T  # (K, V)
    for p in range(n_nodes):
        a_p = counts[p]
        if a_p == 0:
            group_rows.append(np.zeros(0, dtype=np.int64))
            role_rows.append(np.zeros(0, dtype=np.int64))
            feature_rows.append(np.zeros(0, dtype=np.int64))
            continue
        g = _categorical_rows(rng, np.broadcast_to(pi[p], (a_p, m)))
        r = _categorical_rows(rng, params.theta[g])
        d = _categorical_rows(rng, beta_t[r])
        group_rows.append(g)
        role_rows.append(r)
        feature_rows.append(d)

    data = ActivityDataset(
        feature_ids=tuple(feature_rows), links=links, n_features=params.n_features
    )
    truth = GroundTruth(
        pi=pi, group=tuple(group_rows), role=tuple(role_rows), z_out=z_out, z_in=z_in
    )
    return data, truth


def generate_dglad(
    params: ModelParams,
    theta0: np.ndarray,
    sigma: float,
    n_nodes: int,
    horizon: int,
    trials,
    seed: int,
):
    """Sample a dynamic dataset whose mixture rates follow a Gaussian walk.

    ``theta0`` is the (M, K) unconstrained starting point; each snapshot t
    draws ``theta_t ~ N(theta_{t-1}, sigma^2 I)`` per group and converts rows
    to role distributions with a soft-max.  Memberships ``pi_p`` are drawn
    once; the group of each person is redrawn per snapshot from the fixed
    ``pi_p``.  Features and links are sampled per snapshot exactly as in the
    static model.

    Returns ``(DynamicDataset, GroundTruth, theta_path)`` with ``theta_path``
    of shape (horizon + 1, M, K) including the starting point.
    """
    _require_valid(params)
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (params.n_groups, params.n_roles):
        raise ValueError("theta0 must be (n_groups, n_roles)")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    a = _as_trials(trials, n_nodes)
    rng = np.random.default_rng(seed)
    m, k = theta0.shape

    pi = rng.dirichlet(params.alpha, size=n_nodes)
    theta_path = np.empty((horizon + 1, m, k))
    theta_path[0] = theta0

    snapshots, groups, roles = [], [], []
    for t in range(1, horizon + 1):
        theta_path[t] = theta_path[t - 1] + sigma * rng.standard_normal((m, k))
        group = _categorical_rows(rng, pi)
        snapshot, role = _snapshot(
            rng, params.block, softmax(theta_path[t]), params.beta, group, a
        )
        snapshots.append(snapshot)
        groups.append(group)
        roles.append(role)

    data = DynamicDataset(snapshots=tuple(snapshots))
    truth = GroundTruth(
        pi=pi,
        group=np.array(groups),
        role=np.array(roles),
        theta_path=theta_path,
    )
    return data, truth, theta_path


# ---------------------------------------------------------------------------
# planted-anomaly benchmarks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InjectionConfig:
    """Settings for the planted-anomaly benchmark generator.

    People are split evenly into ``n_groups`` hard groups.  A fraction of
    groups (at least one) uses ``anomalous_rate`` as its role mixture, the
    rest use ``normal_rate``; links follow a planted partition with
    ``block_in`` on the diagonal and ``block_out`` elsewhere.  Role emission
    distributions are fixed and well separated: role k puts 0.9 on feature k
    and spreads the rest uniformly (the feature space has one feature per
    role).
    """

    n_nodes: int = 500
    n_groups: int = 5
    n_roles: int = 2
    anomaly_fraction: float = 0.2
    normal_rate: tuple = (0.1, 0.9)
    anomalous_rate: tuple = (0.9, 0.1)
    trials_per_person: int = 50
    block_in: float = 0.3
    block_out: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < self.n_groups or self.n_groups < 1:
            raise ValueError("need at least one person per group")
        if not 0.0 < self.anomaly_fraction <= 1.0:
            raise ValueError("anomaly_fraction must lie in (0, 1]")
        if len(self.normal_rate) != self.n_roles or len(self.anomalous_rate) != self.n_roles:
            raise ValueError("mixture rates must have one entry per role")
        for rate in (self.normal_rate, self.anomalous_rate):
            if abs(sum(rate) - 1.0) > 1e-9 or min(rate) < 0:
                raise ValueError("mixture rates must be probability vectors")
        for b in (self.block_in, self.block_out):
            if not PROB_EPS <= b <= 1.0 - PROB_EPS:
                raise ValueError("block probabilities must respect the clamp band")

    @property
    def n_anomalous(self) -> int:
        return max(1, math.ceil(self.anomaly_fraction * self.n_groups))


def _injection_beta(n_roles: int) -> np.ndarray:
    """Well-separated (V, K) emission matrix with V == K."""
    if n_roles == 1:
        return np.ones((1, 1))
    beta = np.full((n_roles, n_roles), 0.1 / (n_roles - 1))
    np.fill_diagonal(beta, 0.9)
    return beta


def injection_params(cfg: InjectionConfig, anomalous: np.ndarray) -> ModelParams:
    """The generative parameters implied by an injection configuration."""
    m, k = cfg.n_groups, cfg.n_roles
    theta = np.tile(np.asarray(cfg.normal_rate, dtype=float), (m, 1))
    theta[np.asarray(anomalous, dtype=int)] = np.asarray(cfg.anomalous_rate, dtype=float)
    block = np.full((m, m), cfg.block_out)
    np.fill_diagonal(block, cfg.block_in)
    return ModelParams(
        alpha=np.full(m, 0.1),
        block=block,
        theta=theta,
        beta=_injection_beta(k),
    )


def _planted(cfg: InjectionConfig, rng: np.random.Generator, n_marked: int) -> tuple:
    """``(marked, params, group, pi)`` of a planted benchmark: a seeded,
    sorted choice of ``n_marked`` groups that get the anomalous rate, the
    implied parameters, the contiguous as-even-as-possible hard grouping
    (first groups get the remainder) and its one-hot memberships."""
    marked = np.sort(rng.choice(cfg.n_groups, size=n_marked, replace=False))
    sizes = np.full(cfg.n_groups, cfg.n_nodes // cfg.n_groups)
    sizes[: cfg.n_nodes % cfg.n_groups] += 1
    group = np.repeat(np.arange(cfg.n_groups), sizes)
    pi = np.zeros((cfg.n_nodes, cfg.n_groups))
    pi[np.arange(cfg.n_nodes), group] = 1.0
    return marked, injection_params(cfg, marked), group, pi


def inject_anomalies(cfg: InjectionConfig):
    """Planted-partition benchmark with a known set of anomalous groups.

    Group assignment is the hard even split (memberships are one-hot);
    which groups are anomalous is drawn from the seed.  Roles and features
    follow the static sampler under the implied parameters.

    Returns ``(Dataset, GroundTruth)``.
    """
    rng = np.random.default_rng(cfg.seed)
    anomalous, params, group, pi = _planted(cfg, rng, cfg.n_anomalous)
    trials = np.full(cfg.n_nodes, cfg.trials_per_person)
    data, role = _snapshot(rng, params.block, params.theta, params.beta, group, trials)
    truth = GroundTruth(
        pi=pi, group=group, role=role, anomalous_groups=frozenset(int(g) for g in anomalous)
    )
    return data, truth


def inject_activity_anomalies(cfg: InjectionConfig, activities: int | None = None):
    """Activity-level twin of :func:`inject_anomalies`.

    Same hard even grouping and implied parameters, but every person emits
    ``activities`` (default ``cfg.trials_per_person``) single-feature
    activities: each draws a role from the group's rate, then one feature
    token from that role's emission column.  ``truth.role`` holds the
    per-person role index arrays; ``truth.group`` stays node-level since
    memberships are one-hot.

    Returns ``(ActivityDataset, GroundTruth)``.
    """
    n_acts = cfg.trials_per_person if activities is None else int(activities)
    if n_acts < 0:
        raise ValueError("activities must be non-negative")
    rng = np.random.default_rng(cfg.seed)
    anomalous, params, group, pi = _planted(cfg, rng, cfg.n_anomalous)
    links = _sample_links(rng, params.block, group[:, None], group)
    roles, tokens = [], []
    for p in range(cfg.n_nodes):
        r = _categorical_rows(rng, np.tile(params.theta[group[p]], (n_acts, 1)))
        roles.append(r)
        tokens.append(_categorical_rows(rng, params.beta.T[r]))

    data = ActivityDataset(
        feature_ids=tuple(tokens), links=links, n_features=params.beta.shape[0]
    )
    truth = GroundTruth(
        pi=pi,
        group=group,
        role=tuple(roles),
        anomalous_groups=frozenset(int(g) for g in anomalous),
    )
    return data, truth


def inject_dynamic_change(
    cfg: InjectionConfig,
    horizon: int,
    change_time: int,
    changed_fraction: float = 0.5,
    drift_sigma: float = 0.05,
):
    """Dynamic benchmark: some groups switch mixture rate at ``change_time``.

    Every group starts at the unconstrained image of ``cfg.normal_rate`` and
    follows a small Gaussian drift (``drift_sigma``); a seeded choice of
    ``ceil(changed_fraction * n_groups)`` groups jumps to
    ``cfg.anomalous_rate`` at snapshot ``change_time`` and stays there.
    Snapshots are numbered from 0, so ``change_time`` t means snapshot t is
    the first one emitted under the new rate and the jump sits on diff row
    t - 1 — the row ``evaluate_dynamic`` checks for that truth entry.
    Grouping is the hard even split, constant over time; links and features
    are resampled per snapshot.

    Returns ``(DynamicDataset, GroundTruth)`` with ``truth.change_times``
    mapping each changed group to ``change_time`` and ``truth.theta_path``
    holding the (horizon + 1, M, K) rate walk.
    """
    if not 1 <= change_time < horizon:
        raise ValueError("change_time must fall inside [1, horizon)")
    if not 0.0 < changed_fraction <= 1.0:
        raise ValueError("changed_fraction must lie in (0, 1]")
    rng = np.random.default_rng(cfg.seed)
    m, k = cfg.n_groups, cfg.n_roles
    n_changed = max(1, math.ceil(changed_fraction * m))
    changed, params, group, pi = _planted(cfg, rng, n_changed)

    log_normal = np.log(np.maximum(np.asarray(cfg.normal_rate, dtype=float), 1e-12))
    log_anomal = np.log(np.maximum(np.asarray(cfg.anomalous_rate, dtype=float), 1e-12))

    theta_path = np.empty((horizon + 1, m, k))
    theta_path[0] = np.tile(log_normal, (m, 1))
    trials = np.full(cfg.n_nodes, cfg.trials_per_person)

    snapshots, groups, roles = [], [], []
    for t in range(1, horizon + 1):
        theta_path[t] = theta_path[t - 1] + drift_sigma * rng.standard_normal((m, k))
        # snapshot s is emitted from theta_path[s + 1]
        if t == change_time + 1:
            theta_path[t, changed] = log_anomal
        snapshot, role = _snapshot(
            rng, params.block, softmax(theta_path[t]), params.beta, group, trials
        )
        snapshots.append(snapshot)
        groups.append(group.copy())
        roles.append(role)

    data = DynamicDataset(snapshots=tuple(snapshots))
    truth = GroundTruth(
        pi=pi,
        group=np.array(groups),
        role=np.array(roles),
        anomalous_groups=frozenset(int(g) for g in changed),
        change_times={int(g): change_time for g in changed},
        theta_path=theta_path,
    )
    return data, truth
