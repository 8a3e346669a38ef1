"""Sequential Monte Carlo inference for the drifting-rate dynamic model.

The generative story matches :func:`glad.generator.generate_dglad`: every
group owns an unconstrained rate vector that follows a Gaussian random walk
across snapshots, each person redraws a group per snapshot from a personal
membership vector, a role per snapshot from the soft-maxed group rate, links
follow the group-pair block matrix and features the role's emission column.

Inference interleaves two moves:

* Blocked Gibbs scans over the discrete assignments.  Every role of every
  snapshot is redrawn in one block, then each person's groups across all
  snapshots in one block (people in order); the membership vectors are then
  refreshed from their Dirichlet conditional.  Given the groups, roles are
  conditionally independent; given the memberships and the rate path,
  snapshots are too.  Each block's joint conditional is therefore the
  product of the one-at-a-time conditionals, so the blocked scan leaves the
  same posterior invariant as a scan over single person-snapshots.
* A bootstrap particle filter per group re-estimates the rate path given the
  current assignments; the filtered means feed the next Gibbs scan.

The first scan runs against the starting rates (``params.theta0`` copied to
every snapshot); every later scan sees the most recent filtered path.
``run_sampler`` averages the filtered paths over the post-burn-in sweeps,
which is what the change-detection scores should be computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .glad_vem import FitConfig, best_of_restarts, fit
from .model import (
    SIMPLEX_ATOL,
    DynamicDataset,
    GladNumericsError,
    floored_log,
    log_softmax,
)

__all__ = [
    "DGladConfig",
    "DGladParams",
    "DGladResult",
    "DGladTrace",
    "bootstrap_filter",
    "default_params",
    "effective_sample_size",
    "particle_filter_theta",
    "run_sampler",
    "sample_pi",
    "systematic_resample",
]


@dataclass(frozen=True)
class DGladParams:
    """Fixed quantities of the dynamic model.

    ``theta0`` is the unconstrained starting rate table (groups x roles);
    the walk lives in that space and rows only become role distributions
    through a soft-max.  ``block`` and ``beta`` are shared across snapshots;
    ``block`` must be symmetric, as links are undirected.
    """

    alpha: np.ndarray  # (M,) Dirichlet prior over memberships
    block: np.ndarray  # (M, M) link probabilities
    beta: np.ndarray  # (V, K) per-role feature distributions (columns)
    theta0: np.ndarray  # (M, K) unconstrained starting rates

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "block", np.asarray(self.block, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "theta0", np.asarray(self.theta0, dtype=float))
        m = self.alpha.shape[0]
        if self.alpha.ndim != 1 or np.any(self.alpha <= 0):
            raise ValueError("alpha must be a positive vector")
        if self.block.shape != (m, m):
            raise ValueError("block must be square over groups")
        if np.any(self.block <= 0.0) or np.any(self.block >= 1.0):
            raise ValueError("block entries must lie strictly inside (0, 1)")
        if not np.array_equal(self.block, self.block.T):
            # the scan scores each neighbour with block[g, G_q]; only a
            # symmetric block makes those the conditionals of one joint
            raise ValueError("block must be symmetric")
        if self.theta0.ndim != 2 or self.theta0.shape[0] != m:
            raise ValueError("theta0 must have one row per group")
        if not np.all(np.isfinite(self.theta0)):
            raise ValueError("theta0 must be finite")
        k = self.theta0.shape[1]
        if self.beta.ndim != 2 or self.beta.shape[1] != k:
            raise ValueError("beta must have one column per role")
        if np.any(self.beta < 0) or not np.allclose(
            self.beta.sum(axis=0), 1.0, atol=SIMPLEX_ATOL
        ):
            raise ValueError("beta columns must be distributions")

    @property
    def n_groups(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_roles(self) -> int:
        return self.theta0.shape[1]


@dataclass
class DGladTrace:
    """Mutable sampler state.

    ``G`` and ``R`` hold the per-snapshot assignments (snapshots x people),
    ``pi`` the membership vectors, ``theta_hat`` the latest filtered rate
    path, ``particles``/``weights`` the final per-group ensembles (weights
    row g belongs to particles[:, g]).  ``sweep`` counts completed scans.
    """

    G: np.ndarray  # (T, N) group assignments
    R: np.ndarray  # (T, N) role assignments
    pi: np.ndarray  # (N, M) membership vectors
    theta_hat: np.ndarray  # (T, M, K) filtered rate path
    particles: np.ndarray  # (P, M, K) final ensembles
    weights: np.ndarray  # (M, P) ensemble weights, rows normalized
    sweep: int = 0

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=np.int64)
        self.R = np.asarray(self.R, dtype=np.int64)
        self.pi = np.asarray(self.pi, dtype=float)
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)
        self.particles = np.asarray(self.particles, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        horizon, m, k = self.theta_hat.shape
        n = self.pi.shape[0]
        p = self.particles.shape[0]
        if self.G.shape != (horizon, n) or self.R.shape != (horizon, n):
            raise ValueError("assignment arrays must be snapshots x people")
        if self.pi.shape != (n, m):
            raise ValueError("pi must be people x groups")
        if self.particles.shape != (p, m, k) or self.weights.shape != (m, p):
            raise ValueError("particle arrays disagree on shapes")
        if np.any(self.G < 0) or np.any(self.G >= m):
            raise ValueError("group assignments out of range")
        if np.any(self.R < 0) or np.any(self.R >= k):
            raise ValueError("role assignments out of range")
        if np.any(self.pi < 0) or not np.allclose(
            self.pi.sum(axis=1), 1.0, atol=SIMPLEX_ATOL
        ):
            raise ValueError("pi rows must be distributions")
        if np.any(self.weights < 0) or not np.allclose(
            self.weights.sum(axis=1), 1.0, atol=1e-9
        ):
            raise ValueError("weight rows must be distributions")
        if self.sweep < 0:
            raise ValueError("sweep counter must be non-negative")

    @property
    def horizon(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def n_groups(self) -> int:
        return self.theta_hat.shape[1]

    def grouping(self) -> np.ndarray:
        """Per-person majority group across snapshots (ties to the lowest)."""
        m = self.n_groups
        counts = np.zeros((self.G.shape[1], m), dtype=np.int64)
        for row in self.G:
            counts[np.arange(row.shape[0]), row] += 1
        return counts.argmax(axis=1)


@dataclass(frozen=True)
class DGladConfig:
    """Sampler knobs.

    ``sweeps`` counts full Gibbs scans; sweeps after ``burn_in`` contribute
    to the averaged rate path.  ``sigma`` is the walk scale used by the
    particle filter (match the generator's), ``n_particles`` the ensemble
    size per group.  ``init_fit_iters`` and ``init_restarts`` govern the
    short static fit on the first snapshot that supplies default parameters
    and the starting grouping, copied to every snapshot so labels agree
    across time.  (A uniformly random start would let each snapshot
    crystallize its own labeling; a rate change could then be absorbed by
    relabeling people instead of moving the rate path.)
    """

    sweeps: int = 200
    burn_in: int = 100
    n_particles: int = 100
    sigma: float = 0.1
    seed: int = 0
    alpha0: float = 0.1
    init_fit_iters: int = 60
    init_restarts: int = 3

    def __post_init__(self):
        if self.sweeps < 0:
            raise ValueError("sweeps must be non-negative")
        if self.burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        if self.n_particles < 2:
            raise ValueError("need at least two particles")
        # written so that NaN fails the checks
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be non-negative and finite")
        if not 0 < self.alpha0 < np.inf:
            raise ValueError("alpha0 must be positive and finite")
        if self.init_fit_iters < 1:
            raise ValueError("init_fit_iters must be at least 1")
        if self.init_restarts < 1:
            raise ValueError("init_restarts must be at least 1")


@dataclass(frozen=True)
class DGladResult:
    """Sampler output.

    ``theta_mean`` is the post-burn-in average of the filtered rate paths —
    use it for change scores.  ``history`` stacks the filtered path of every
    sweep (sweeps x snapshots x groups x roles); ``trace`` is the final
    sampler state.
    """

    trace: DGladTrace
    theta_mean: np.ndarray  # (T, M, K)
    history: np.ndarray  # (sweeps, T, M, K)
    params: DGladParams
    config: DGladConfig = field(repr=False, default=DGladConfig())


def _draw_rows(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw along the last axis of unnormalized log probabilities,
    one uniform of ``u`` per row."""
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    cdf = np.cumsum(shifted, axis=-1)
    below = cdf <= (u * cdf[..., -1])[..., None]
    return np.minimum(below.sum(axis=-1), logits.shape[-1] - 1)


def _role_kernel(ls_theta, groups, feat_scores):
    """Unnormalized log conditional of roles, one row per (snapshot, person):
    the log-rate row of the person's current group plus the log likelihood
    of their features under each emission column.  ``ls_theta`` is
    (T, M, K), ``groups`` (T, N) and ``feat_scores`` (T, N, K)."""
    return ls_theta[np.arange(groups.shape[0])[:, None], groups] + feat_scores


def _group_kernel(logpi_p, ls_role, logb, log1mb, linked, group_counts, g_p):
    """Unnormalized log conditional of one person's group, one row per
    snapshot.  ``linked`` counts their neighbours per group, ``group_counts``
    everyone, the person included under their current group ``g_p`` (no one
    scores a link with themselves)."""
    total = group_counts.copy()
    total[np.arange(g_p.shape[0]), g_p] -= 1
    logits = logpi_p + ls_role + linked @ logb.T
    logits += (total - linked) @ log1mb.T
    return logits


def _draw_memberships(alpha: np.ndarray, groups: np.ndarray, rng: np.random.Generator):
    """Membership vectors of the people in the columns of ``groups`` (T, N).

    The Dirichlet prior is conjugate to the per-snapshot group draws, so each
    conditional is Dirichlet at ``alpha`` plus the person's group counts
    across the horizon.  The draw is numpy's ``dirichlet`` written for a
    block of rows: normalized gamma variates, bit for bit and on the same
    stream as one ``rng.dirichlet`` call per person.  Below a largest
    concentration of 0.1 numpy switches to stick-breaking, because the
    gamma variates can then all underflow to zero; such rows are rejected.
    """
    alpha = np.asarray(alpha, dtype=float)
    n, m = groups.shape[1], alpha.shape[0]
    counts = np.bincount((np.arange(n) * m + groups).ravel(), minlength=n * m)
    conc = alpha + counts.reshape(n, m)
    if np.any(conc.max(axis=1) < 0.1):
        raise ValueError("membership concentrations must reach 0.1 in every row")
    g = rng.standard_gamma(conc)
    return g * (1.0 / g.sum(axis=1, keepdims=True))


def sample_pi(
    p: int, alpha: np.ndarray, trace: DGladTrace, rng: np.random.Generator
) -> np.ndarray:
    """Draw person ``p``'s membership vector from its Dirichlet conditional
    (see ``_draw_memberships``); an empty history gives a plain prior draw."""
    return _draw_memberships(alpha, trace.G[:, p : p + 1], rng)[0]


def effective_sample_size(weights: np.ndarray) -> float:
    """Inverse sum of squared normalized weights; between 1 and len(weights)."""
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive mass")
    w = weights / total
    return float(1.0 / np.square(w).sum())


def systematic_resample(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Systematic resampling: one uniform, evenly spaced CDF probes."""
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0  # guard the top probe against round-off
    probes = (rng.random() + np.arange(n)) / n
    return np.searchsorted(cdf, probes, side="left").astype(np.int64)


def bootstrap_filter(
    loglik,
    start: np.ndarray,
    sigma: float,
    horizon: int,
    n_particles: int,
    rng: np.random.Generator,
):
    """Gaussian random-walk bootstrap filter with a pluggable data term.

    ``loglik(t, particles)`` maps the (P, K) ensemble to per-particle log
    likelihoods of snapshot ``t``.  The ensemble starts at
    ``N(start, sigma^2 I)`` — the walk's first move — and re-propagates
    before each later snapshot.  Weights accumulate across snapshots and
    reset to uniform after a systematic resample, which triggers whenever
    the effective sample size drops below half the ensemble.

    Returns ``(means, particles, weights)``: the per-snapshot posterior
    means (horizon, K) taken before any resampling, plus the final ensemble
    and its normalized weights.
    """
    if n_particles < 2:
        raise ValueError("need at least two particles")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    start = np.asarray(start, dtype=float)
    k = start.shape[0]
    particles = start + sigma * rng.standard_normal((n_particles, k))
    log_w = np.zeros(n_particles)
    means = np.empty((horizon, k))
    w = np.full(n_particles, 1.0 / n_particles)
    for t in range(horizon):
        if t > 0:
            particles = particles + sigma * rng.standard_normal(particles.shape)
        log_w = log_w + np.asarray(loglik(t, particles), dtype=float)
        top = log_w.max()
        if not np.isfinite(top):
            raise GladNumericsError(f"degenerate particle weights at snapshot {t}")
        shifted = np.exp(log_w - top)
        total = shifted.sum()
        if not np.isfinite(total) or total <= 0:
            raise GladNumericsError(f"degenerate particle weights at snapshot {t}")
        w = shifted / total
        means[t] = w @ particles
        if effective_sample_size(w) < n_particles / 2:
            keep = systematic_resample(w, rng)
            particles = particles[keep]
            log_w = np.zeros(n_particles)
            w = np.full(n_particles, 1.0 / n_particles)
        else:
            log_w = floored_log(w)
    return means, particles, w


def particle_filter_theta(
    data: DynamicDataset,
    params: DGladParams,
    trace: DGladTrace,
    sigma: float,
    n_particles: int,
    rng: np.random.Generator,
):
    """Re-estimate every group's rate path given the current assignments.

    One independent bootstrap filter per group; the data term of snapshot t
    is the product of soft-maxed particle rates over the group's members'
    current roles.  A group with no members in a snapshot keeps uniform
    weights there, so its path estimate is the prior walk's running mean.

    Returns ``(theta_hat, particles, weights)`` shaped (T, M, K),
    (P, M, K) and (M, P).
    """
    horizon = data.horizon
    m, k = params.theta0.shape
    counts = np.zeros((horizon, m, k))
    for t in range(horizon):
        np.add.at(counts[t], (trace.G[t], trace.R[t]), 1.0)

    theta_hat = np.empty((horizon, m, k))
    particles = np.empty((n_particles, m, k))
    weights = np.empty((m, n_particles))
    for g in range(m):
        role_counts = counts[:, g, :]

        def loglik(t, ensemble, _rc=role_counts):
            return log_softmax(ensemble) @ _rc[t]

        means, parts, w = bootstrap_filter(
            loglik, params.theta0[g], sigma, horizon, n_particles, rng
        )
        theta_hat[:, g, :] = means
        particles[:, g, :] = parts
        weights[g] = w
    return theta_hat, particles, weights


def _anchor_fit(data: DynamicDataset, n_groups: int, n_roles: int, config: DGladConfig):
    """Short static fit on the first snapshot, the best bound of
    ``config.init_restarts`` seeded runs: a cheap and deterministic escape
    from a start that merged two groups.  Its warnings reach the caller."""

    def run(seed):
        static = FitConfig(max_iters=config.init_fit_iters, seed=seed, alpha0=config.alpha0)
        return fit(data.snapshots[0], n_groups, n_roles, static)

    return best_of_restarts(run, config.seed, config.init_restarts)


def default_params(
    data: DynamicDataset, n_groups: int, n_roles: int, config: DGladConfig
) -> DGladParams:
    """Anchor the dynamic model with a short static fit on the first snapshot.

    The block matrix, emission columns and membership prior come straight
    from the fit; the starting rates are the log of the fitted rate table,
    so the walk starts where the static model thinks the first snapshot
    sits.
    """
    return _anchor_params(_anchor_fit(data, n_groups, n_roles, config))


def _anchor_params(anchor) -> DGladParams:
    params = anchor.params
    return DGladParams(
        alpha=params.alpha,
        block=params.block,
        beta=params.beta,
        theta0=floored_log(params.theta),
    )


def _scan_assignments(
    trace: DGladTrace,
    rng: np.random.Generator,
    feat_scores: np.ndarray,
    links: np.ndarray,
    logb: np.ndarray,
    log1mb: np.ndarray,
) -> None:
    """One blocked Gibbs scan, in place: every role of every snapshot in one
    draw, then each person's groups across all snapshots in one draw, people
    ascending.  ``feat_scores`` is the (T, N, K) feature log likelihood per
    role and ``links`` the stacked (T, N, N) adjacency."""
    horizon, n = trace.G.shape
    steps = np.arange(horizon)
    ls_theta = log_softmax(trace.theta_hat)
    role_logits = _role_kernel(ls_theta, trace.G, feat_scores)
    trace.R[:] = _draw_rows(role_logits, rng.random((horizon, n)))
    ls_role = ls_theta[steps[:, None], :, trace.R]  # (T, N, M)

    # neighbours of each person per group, and everyone per group; kept up
    # to date as people move, one snapshot's link row at a time
    member = (trace.G[:, :, None] == np.arange(trace.n_groups)).astype(float)
    counts = np.stack([links[t] @ member[t] for t in range(horizon)])
    totals = member.sum(axis=1)
    logpi = floored_log(trace.pi)
    for p in range(n):
        g_p = trace.G[:, p]
        logits = _group_kernel(
            logpi[p], ls_role[:, p], logb, log1mb, counts[:, p], totals, g_p
        )
        g_new = _draw_rows(logits, rng.random(horizon))
        moved = np.flatnonzero(g_new != g_p)
        if moved.size:
            # move the person's link row from the old group's column to the new
            old, new = g_p[moved], g_new[moved]
            row = links[moved, p]
            counts[moved, :, old] -= row
            counts[moved, :, new] += row
            totals[moved, old] -= 1
            totals[moved, new] += 1
            g_p[moved] = new


def run_sampler(
    data: DynamicDataset,
    n_groups: int,
    n_roles: int,
    config: DGladConfig = DGladConfig(),
    params: DGladParams | None = None,
) -> DGladResult:
    """Fit the dynamic model by Gibbs-within-SMC sweeps.

    Memberships start at a prior draw and roles uniform at random; group
    assignments start from the anchor fit's grouping copied across
    snapshots.
    Each sweep draws all roles in one block, then each person's groups in
    every snapshot in one block (people ascending), refreshes memberships,
    then refilters the rate paths.  Both blocks are exact joint draws
    because roles are conditionally independent given the groups and
    snapshots are conditionally independent given the memberships and the
    rate path, so the order targets the same posterior as one draw per
    person-snapshot.
    ``sweeps=0`` returns the untouched initialization.  The run is fully
    determined by ``config.seed``; non-finite filtered rates abort with a
    diagnostic rather than poisoning later sweeps.  The anchor fit draws
    from its own seed sequence, never from the sampler's stream, and runs
    even with explicit ``params``, purely for its grouping.
    """
    if not isinstance(data, DynamicDataset):
        raise TypeError("run_sampler expects a DynamicDataset")
    if n_groups < 1 or n_roles < 1:
        raise ValueError("need at least one group and one role")
    rng = np.random.default_rng(config.seed)
    if params is not None and (params.n_groups, params.n_roles) != (n_groups, n_roles):
        raise ValueError("params disagree with the requested sizes")
    anchor = _anchor_fit(data, n_groups, n_roles, config)
    if params is None:
        params = _anchor_params(anchor)
    horizon, n = data.horizon, data.n_nodes

    trace = DGladTrace(
        G=np.tile(anchor.state.grouping(), (horizon, 1)),
        R=rng.integers(0, n_roles, size=(horizon, n)),
        pi=rng.dirichlet(params.alpha, size=n),
        theta_hat=np.tile(params.theta0, (horizon, 1, 1)),
        particles=np.tile(params.theta0, (config.n_particles, 1, 1)),
        weights=np.full((n_groups, config.n_particles), 1.0 / config.n_particles),
        sweep=0,
    )

    features = np.stack([snap.features for snap in data.snapshots])
    feat_scores = features @ floored_log(params.beta)
    links = np.stack([snap.links for snap in data.snapshots])
    logb = np.log(params.block)
    log1mb = np.log1p(-params.block)
    history = np.empty((config.sweeps, horizon, n_groups, n_roles))
    for s in range(config.sweeps):
        _scan_assignments(trace, rng, feat_scores, links, logb, log1mb)
        trace.pi = _draw_memberships(params.alpha, trace.G, rng)
        theta_hat, particles, weights = particle_filter_theta(
            data, params, trace, config.sigma, config.n_particles, rng
        )
        if not np.all(np.isfinite(theta_hat)):
            bad = sorted(set(np.argwhere(~np.isfinite(theta_hat))[:, 1].tolist()))
            raise GladNumericsError(
                f"non-finite filtered rates at sweep {s + 1} for groups {bad}"
            )
        trace.theta_hat = theta_hat
        trace.particles = particles
        trace.weights = weights
        trace.sweep = s + 1
        history[s] = theta_hat

    if config.sweeps > config.burn_in:
        theta_mean = history[config.burn_in :].mean(axis=0)
    elif config.sweeps:
        theta_mean = history[-1].copy()
    else:
        theta_mean = trace.theta_hat.copy()
    return DGladResult(
        trace=trace,
        theta_mean=theta_mean,
        history=history,
        params=params,
        config=config,
    )
