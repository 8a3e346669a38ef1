"""Variational EM for the static model.

Mean-field family: q(pi_p) Dirichlet(gamma_p), q(G_p) categorical(lambda_p),
q(R_p) categorical(mu_p).  The E-step is a Gauss-Seidel sweep over people in
index order, updating gamma_p, lambda_p, mu_p in that order, each written back
in place; every update is the exact coordinate maximizer of the evidence
lower bound, so the per-iteration trace is non-decreasing.  Each update is
written once, as the kernel the sweep runs: gamma = alpha + lambda,
``_lambda_logits`` for one person and ``_mu_logits`` for a block of rows.
The bound counts each unordered pair once (the adjacency matrix is
symmetric; both endpoints still see every partner in their lambda update,
which is the exact gradient of the once-counted term for a symmetric block
matrix).  Self-pairs are excluded throughout.

The graph is read through the dataset's edge index (``Dataset.edges`` and
``Dataset.neighbours``), never as a dense N x N matrix, so one EM iteration
costs O(E*M + N*M^2) for E edges and M groups (plus the role and feature
terms).  Linked mass is gathered over the edges.  The non-link mass
sum_{p<q} lambda_p lambda_q^T is lambda^T S with S_p = sum_{q>p} lambda_q, a
reverse cumulative sum; the once-counted link mass is then subtracted from it.

The M-step re-estimates beta (per-role feature distributions), theta
(per-group role mixtures) and the block matrix in closed form; the Dirichlet
prior alpha stays fixed at its starting value.

Static fits on graphs of one size run in lockstep (``fit_members``): the
joint fit and the baseline's stage one on the same data, restarts from
other seeds, or those of several datasets, such as the study grid's seeds.
The members share the number of people and the group count; each has its
own graph, features, role count and config.  The sweep stacks their
lambdas along a member axis, so each person costs one neighbour gather,
one softmax and one column-sum update for all members.  The gather is one
segment sum per graph over that graph's neighbour rows; a lone fit is the
case of one graph.  The M-step, the bound and the stopping rule stay per
member, so a member stops where it would stop alone, and a non-finite bound
fails it alone.  ``fit`` is the one-member case.  A member's arithmetic is
its lone fit's, each sum taken in the same order, so its trace, state and
parameters equal its lone fit's bit for bit, whichever other members and
graphs share the fit and whenever they stop.

The pieces the per-activity variant (``glad0_vem``) and the baselines share
live here once: E[log pi], the Dirichlet and per-row bound terms, the
normalise-with-uniform-fallback and block-ratio M-step kernels,
``best_of_restarts`` with its tie rule (``pick_best``) and the EM loop
itself, ``run_em``: it records the trace, aborts on a non-finite entry and
stops on relative change.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    ActivityDataset,
    Dataset,
    GladNumericsError,
    GladVariational,
    ModelParams,
    PROB_EPS,
    digamma,
    floored_log,
    gammaln,
    softmax,
    validate_params,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "Member",
    "init_state",
    "m_step",
    "compute_elbo",
    "infer_state",
    "fit",
    "fit_members",
]


# Multiplicative symmetry-breaking noise on the uniform starting state.
INIT_NOISE = 0.01
# Edges per block in the linked-mass sum, and pair columns per block in
# glad0's bound.  The two gathered (EDGE_CHUNK, M) blocks stay in cache, and
# no (E, M) copy is ever held: at 2e5 edges this is about 3x faster than one
# gather of every edge and keeps 15 MB off the peak memory of a fit.
EDGE_CHUNK = 8192
# Relative margin by which a restart's final bound must beat an earlier
# one's to replace it (``best_of_restarts``).
RESTART_TIE = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the variational EM loop.

    ``tol`` is relative ELBO change between iterations; ``tol=inf`` stops
    after exactly one iteration.  ``alpha0`` is the Dirichlet prior, which
    the fit keeps fixed.  The E-step is always the Gauss-Seidel sweep that
    carries the ascent guarantee.  Every field is a ``glad fit`` flag.
    """

    max_iters: int = 200
    tol: float = 1e-6
    seed: int = 0
    alpha0: float = 0.1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        # written so that NaN fails the checks
        if not self.tol >= 0:
            raise ValueError("tol must be >= 0")
        if not 0 < self.alpha0 < np.inf:
            raise ValueError("alpha0 must be positive and finite")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters, final variational state and the ELBO trace of
    ``fit`` and of glad0's ``fit0``.

    ``trace[0]`` is the bound at initialization; one entry follows per EM
    iteration.  ``converged`` is False when the loop ran out of iterations
    before the relative ELBO change fell below ``tol``.
    """

    params: ModelParams
    state: GladVariational  # a Glad0Variational from fit0
    trace: np.ndarray
    converged: bool

    @property
    def n_iters(self) -> int:
        return len(self.trace) - 1


def init_state(n_nodes: int, n_groups: int, n_roles: int) -> GladVariational:
    """Uniform variational state: gamma = lambda = 1/M, mu = 1/K."""
    if min(n_nodes, n_groups, n_roles) < 1:
        raise ValueError("n_nodes, n_groups and n_roles must be positive")
    return GladVariational(
        gamma=np.full((n_nodes, n_groups), 1.0 / n_groups),
        lam=np.full((n_nodes, n_groups), 1.0 / n_groups),
        mu=np.full((n_nodes, n_roles), 1.0 / n_roles),
    )


# ---------------------------------------------------------------------------
# update kernels (the sweep runs them; the tests pin each against a
# straight-line transcription)
# ---------------------------------------------------------------------------

def _expected_log_pi(gamma: np.ndarray) -> np.ndarray:
    """E[log pi] under Dirichlet(gamma), along the last axis."""
    # one digamma call for the entries and their sums: the sweeps make many
    # calls on small arrays, where the call itself is most of the cost
    dig = digamma(np.concatenate([gamma, gamma.sum(axis=-1, keepdims=True)], axis=-1))
    return dig[..., :-1] - dig[..., -1:]


def _linked_mass(data: Dataset, lam: np.ndarray) -> np.ndarray:
    """sum_{u<v linked} lambda_u lambda_v^T, each linked pair counted once,
    summed over chunks of ``EDGE_CHUNK`` edges."""
    u, v = data.edges
    mass = np.zeros((lam.shape[1], lam.shape[1]))
    for start in range(0, u.size, EDGE_CHUNK):
        chunk = slice(start, start + EDGE_CHUNK)
        mass += lam.take(u[chunk], axis=0).T @ lam.take(v[chunk], axis=0)
    return mass


def _lambda_logits(p, elogpi_p, rows, starts, table, lam, col, log_b, log_1mb, role_logits):
    """Unnormalized log lambda_p of fits on G graphs of N people, up to W
    fits each: ``elogpi_p`` = E[log pi_p], plus sum_{q != p} sum_n
    lambda_{q,n} * f(Y_pq, B_mn), plus ``role_logits`` = sum_k mu_pk log
    theta_mk, one row per fit.

    ``table`` is the (N*G + 1, W*M) member table of ``_sequential_sweep``
    and ``lam`` its (N, G*W, M) view, whose column sum ``col`` includes row
    p; ``log_b`` and ``log_1mb`` are (G*W, M, M).  ``rows`` are the table
    rows of p's neighbours (self excluded), graph by graph
    (``_cross_index``), and each graph's segment starts at ``starts``.  One
    segment sum per graph gives every fit's linked mass; each sums its own
    graph's rows in one order, whatever else shares the table."""
    linked = np.add.reduceat(table.take(rows, axis=0), starts, axis=0).reshape(col.shape)
    # the linked mass of p's neighbours, and the rest of the column sum
    # but p itself, each through its link log-likelihood
    notlinked = col - lam[p] - linked
    return elogpi_p + _matvec(log_b, linked) + _matvec(log_1mb, notlinked) + role_logits


def _matvec(a, x):
    """``a @ x`` over the last axis, one product per leading index of a
    stack: each is the product a single (M, M) @ (M,) call computes."""
    return (a @ x[..., None])[..., 0]


def _mu_logits(lam, log_theta, log_beta):
    """Unnormalized log role posterior: the expected log-rate under the
    group posterior ``lam`` plus the feature log-likelihood of each role,
    ``log_beta``; one row per person."""
    return lam @ log_theta + log_beta


def normalize_or_uniform(counts: np.ndarray, axis: int, what: str) -> np.ndarray:
    """``counts`` normalized along ``axis``; a ``what`` (row or column) with
    no mass becomes uniform, with a warning."""
    den = counts.sum(axis=axis, keepdims=True)
    if np.any(den <= 0):
        warnings.warn(f"{what} with no mass; substituting uniform")
        counts = np.where(den > 0, counts, 1.0)
        den = counts.sum(axis=axis, keepdims=True)
    return counts / den


def block_ratio(linked: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Expected link frequency per group pair: linked over total pair mass,
    1/2 (with a warning) where the pair mass vanished."""
    bad = total <= 0
    if np.any(bad):
        warnings.warn("no pair mass for some group pairs; substituting 1/2")
    return np.where(bad, 0.5, linked / np.where(bad, 1.0, total))


def m_step(
    data: Dataset,
    state: GladVariational,
    alpha: np.ndarray,
    *,
    prev: ModelParams | None = None,
) -> ModelParams:
    """Closed-form parameter re-estimation from the current responsibilities.

    beta columns are expected-count feature distributions per role, theta rows
    expected role mixtures per group, and the block matrix the expected link
    frequency between group pairs over all ordered non-self pairs
    (symmetrized to kill round-off skew, then clamped to the Bernoulli band).
    Degenerate denominators fall back to uniform entries with a warning.  The
    prior ``alpha`` passes through unchanged.  ``prev`` is accepted and
    ignored: every parameter is re-estimated from ``state``, but the
    benchmark's traced pass still passes the previous parameters.
    """
    if state.lam.shape[0] != data.n_nodes:
        raise ValueError("state and data disagree on the number of people")
    return _m_step(data, state, alpha, _linked_mass(data, state.lam))


def _m_step(data, state, alpha, once) -> ModelParams:
    """``m_step`` given ``once`` = ``_linked_mass(data, state.lam)``, which
    the bound at the same state shares."""
    lam, mu = state.lam, state.mu
    theta = normalize_or_uniform(lam.T @ mu, 1, "theta row")
    beta = normalize_or_uniform(data.features.T @ mu, 0, "beta column")

    col = lam.sum(axis=0)
    block = block_ratio(once + once.T, np.outer(col, col) - lam.T @ lam)
    block = np.clip(0.5 * (block + block.T), PROB_EPS, 1.0 - PROB_EPS)
    return ModelParams(alpha=alpha, block=block, theta=theta, beta=beta)


def prior_norm(alpha: np.ndarray) -> float:
    """log of the Dirichlet(alpha) normaliser, Gamma(sum alpha) / prod Gamma(alpha)."""
    return float(gammaln(alpha.sum()) - gammaln(alpha).sum())


def dirichlet_terms(alpha: np.ndarray, gamma: np.ndarray, elogpi: np.ndarray,
                    norm: float) -> float:
    """The membership part of the bound: E[log p(pi | alpha)] - E[log q(pi | gamma)],
    summed over people, with ``elogpi`` = E[log pi] under q and ``norm`` =
    ``prior_norm(alpha)``."""
    log_p = elogpi.shape[0] * norm + float((alpha - 1.0) @ elogpi.sum(axis=0))
    # one gammaln call for the entries and their row sums, as in E[log pi]
    lg = gammaln(np.concatenate([gamma, gamma.sum(axis=1, keepdims=True)], axis=1))
    log_q = lg[:, -1] - lg[:, :-1].sum(axis=1) + ((gamma - 1.0) * elogpi).sum(axis=1)
    return log_p - float(log_q.sum())


def row_terms(lam, elogpi, mu, log_theta, feature_loglik) -> float:
    """The per-row part of the bound, one row per person here and per
    activity in glad0: E[log p(G | pi)] + E[log p(R | G)] + E[log p(x | R)]
    plus the entropies of q(G) and q(R).  ``elogpi`` is E[log pi] of each
    row's owner and ``feature_loglik`` each row's feature log-likelihood per
    role."""
    total = float((lam * elogpi).sum()) - float((lam * floored_log(lam)).sum())
    total += float(np.einsum("ag,gk,ak->", lam, log_theta, mu))
    total += float((mu * feature_loglik).sum()) - float((mu * floored_log(mu)).sum())
    return total


def compute_elbo(data: Dataset, params: ModelParams, state: GladVariational) -> float:
    """Evidence lower bound at the given parameters and variational state.

    Terms: expected feature likelihood (multinomial, coefficient included),
    expected role-given-group and group-given-membership likelihoods, the
    link likelihood over unordered non-self pairs, the Dirichlet prior, minus
    the Dirichlet, group and role entropies of q.  With one role and one
    feature shown once per person every role and feature term is exactly 0,
    which leaves the bound of a mixed-membership blockmodel.
    """
    return _elbo(data, params, state, _linked_mass(data, state.lam),
                 _expected_log_pi(state.gamma), prior_norm(params.alpha),
                 data.features @ floored_log(params.beta))


def _elbo(data, params, state, linked, elogpi, norm, xlogbeta) -> float:
    """``compute_elbo`` from the pieces a fit already holds: ``linked`` =
    ``_linked_mass(data, state.lam)``, ``elogpi`` = E[log pi] under
    ``state.gamma``, ``norm`` = ``prior_norm(params.alpha)`` and
    ``xlogbeta`` = features @ log beta."""
    lam = state.lam

    # once-counted pair masses: linked over the edges; all pairs p < q
    # through later[p] = sum_{q > p} lambda_q
    later = np.zeros_like(lam)
    later[:-1] = np.cumsum(lam[:0:-1], axis=0)[::-1]
    total = lam.T @ later
    log_b = np.log(params.block)
    log_1mb = np.log1p(-params.block)
    pair_term = float((linked * log_b + (total - linked) * log_1mb).sum())

    bound = pair_term + dirichlet_terms(params.alpha, state.gamma, elogpi, norm)
    return bound + data.log_multinomial_coef + row_terms(
        lam, elogpi, state.mu, floored_log(params.theta), xlogbeta
    )


# ---------------------------------------------------------------------------
# sweeps and the fit loop
# ---------------------------------------------------------------------------

class _Run:
    """One fit's EM state: its dataset and config, the current parameters,
    the variational arrays the sweep updates in place, and the bound trace.
    It also holds the bound's pieces that the fit computes anyway: E[log pi]
    of the current gamma, the fixed prior's normaliser and ``xlogbeta``.
    ``outcome`` is None while the fit runs, then whether it converged, or
    the GladNumericsError that stopped it."""

    def __init__(self, data, config, params, gamma, lam, mu):
        self.data, self.config = data, config
        self.gamma, self.lam, self.mu = gamma, lam, mu
        self.norm = prior_norm(params.alpha)
        self.set_params(params)
        self.elogpi = _expected_log_pi(gamma)
        self.trace = []
        self.outcome = None

    def set_params(self, params):
        self.params = params
        self.xlogbeta = self.data.features @ floored_log(params.beta)

    def state(self):
        return GladVariational(self.gamma, self.lam, self.mu)

    def bound(self, state: GladVariational, linked: np.ndarray) -> float:
        """``compute_elbo`` at the current parameters and ``state``, this
        run's current state, whose ``_linked_mass`` is ``linked``."""
        return _elbo(self.data, self.params, state, linked, self.elogpi, self.norm,
                     self.xlogbeta)


def _cross_index(graphs):
    """Per person p, the rows of the member table (see ``_sequential_sweep``)
    that hold p's neighbours on each of ``graphs`` (CSR, N people each), and
    where each graph's segment starts.  Row q*G + g holds person q on graph
    g; each segment is led by the zero row N*G, so that no segment is empty."""
    n_graphs, n = len(graphs), graphs[0][0].size - 1
    degree = np.stack([np.diff(indptr) for indptr, _ in graphs], axis=1)
    ends = np.cumsum(degree.ravel() + 1)
    # where each (person, graph) segment starts
    first = (ends - degree.ravel() - 1).reshape(n, n_graphs)
    # int32, filled 256 people at a time: a fit holds the index to its end,
    # and the temporaries of a whole-graph fill raised the peak memory of a
    # lone fit at N = 2000 by a fifth
    rows = np.full(ends[-1], n * n_graphs, dtype=np.int32)
    for g, (indptr, indices) in enumerate(graphs):
        for lo in range(0, n, 256):
            hi = min(lo + 256, n)
            start, stop = indptr[lo], indptr[hi]
            at = np.repeat(first[lo:hi, g] + 1 - indptr[lo:hi], degree[lo:hi, g])
            # the ids are int32: the row arithmetic runs in int64
            ids = np.multiply(indices[start:stop], n_graphs, dtype=np.int64)
            rows[at + np.arange(start, stop)] = ids + g
    bounds = first[:, 0].tolist() + [rows.size]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])], list(first - first[:, :1])


def _sequential_sweep(by_graph, across):
    """In-place Gauss-Seidel pass over people: gamma_p, lambda_p, mu_p, for
    each run of ``by_graph``, a list of run lists, one per graph; every
    graph has the same N people, and ``across`` is the ``_cross_index`` of
    the graphs in that order.

    gamma_p and p's role logits read only p's own pre-sweep state, and no one
    else reads mu_p, so gamma, E[log pi] and the role logits are computed as
    blocks before the pass and mu after it; only lambda is swept person by
    person.  The result is the same sequence of updates.  The runs' lambdas
    are stacked along a member axis for the pass, so each person costs one
    gather, one softmax and one column-sum update for all of them.  The
    stack is the (N*G + 1, W*M) member table of G graphs with up to W runs
    each: row p*G + g holds person p on graph g, and the last row is zero.
    A graph with fewer runs repeats its last one, whose copies are dropped.
    Each run keeps the E[log pi] of its new gamma for its bound.
    """
    width = max(len(runs) for runs in by_graph)
    padded = [run for runs in by_graph for run in runs + runs[-1:] * (width - len(runs))]
    for runs in by_graph:
        for run in runs:
            np.add(run.params.alpha, run.lam, out=run.gamma)
            run.elogpi = _expected_log_pi(run.gamma)
    n, m = padded[0].lam.shape
    table = np.zeros((n * len(by_graph) + 1, width * m))
    lam = table[:-1].reshape(n, len(padded), m)
    lam[:] = np.stack([run.lam for run in padded], axis=1)
    elogpi = np.stack([run.elogpi for run in padded], axis=1)
    log_theta = [floored_log(run.params.theta) for run in padded]
    role_logits = np.stack([run.mu @ lt.T for run, lt in zip(padded, log_theta)], axis=1)
    log_b = np.stack([np.log(run.params.block) for run in padded])
    log_1mb = np.stack([np.log1p(-run.params.block) for run in padded])
    col = lam.sum(axis=0)
    rows, starts = across
    for p in range(n):
        new_lam = softmax(_lambda_logits(p, elogpi[p], rows[p], starts[p], table, lam, col,
                                         log_b, log_1mb, role_logits[p]))
        col += new_lam - lam[p]
        lam[p] = new_lam
    for g, runs in enumerate(by_graph):
        for s, run in enumerate(runs, start=g * width):
            run.lam[:] = lam[:, s]
            run.mu[:] = softmax(_mu_logits(run.lam, log_theta[s], run.xlogbeta))


def infer_state(
    data: Dataset,
    params: ModelParams,
    config: FitConfig | None = None,
) -> tuple:
    """Posterior inference at fixed parameters (E-steps only).

    Sweeps until the largest state change falls below ``config.tol`` or
    ``config.max_iters`` sweeps have run.  Returns ``(state, trace)`` with one
    ELBO entry per sweep.
    """
    config = config or FitConfig()
    msgs = validate_params(params)
    if msgs:
        raise ValueError("invalid model parameters: " + "; ".join(msgs))
    state = init_state(data.n_nodes, params.n_groups, params.n_roles)
    run = _Run(
        data, config, params, np.array(state.gamma), np.array(state.lam), np.array(state.mu)
    )

    across = _cross_index([data.neighbours])
    trace = []
    for _ in range(config.max_iters):
        before = (run.gamma.copy(), run.lam.copy(), run.mu.copy())
        _sequential_sweep([[run]], across)
        trace.append(compute_elbo(data, params, run.state()))
        delta = max(
            np.max(np.abs(run.gamma - before[0])),
            np.max(np.abs(run.lam - before[1])),
            np.max(np.abs(run.mu - before[2])),
        )
        if delta < config.tol:
            break
    return run.state(), np.array(trace)


def seed_params(
    data: Dataset | ActivityDataset,
    n_groups: int,
    n_roles: int,
    rng: np.random.Generator,
    alpha0: float = 0.1,
) -> ModelParams:
    """Seeded starting parameters for any of the fitters, on a static or
    activity-level dataset.

    The block matrix starts assortative with the diagonal and off-diagonal
    scaled so their membership-weighted mean matches the observed link
    density.  A fully random start makes the first sweep sort people by
    degree alone, which erases the +-1% membership noise and collapses
    everyone into one group; an assortative start lets the sweeps amplify
    neighbourhood structure instead.  Rates and feature profiles are
    random draws; a symmetric jitter keeps block starts seed-dependent.
    """
    n = data.n_nodes
    if n_groups > n:
        warnings.warn("more groups than people; expect degenerate groups")
    theta = rng.dirichlet(np.ones(n_roles), size=n_groups)
    beta = rng.dirichlet(np.ones(data.n_features), size=n_roles).T
    pairs = n * (n - 1) // 2
    density = float(data.edges[0].size) / pairs if pairs else 0.0
    block = np.full((n_groups, n_groups), 0.5 * density)
    np.fill_diagonal(block, 0.5 * (n_groups + 1) * density)
    jitter = rng.uniform(0.9, 1.1, size=(n_groups, n_groups))
    block = np.clip(block * 0.5 * (jitter + jitter.T), PROB_EPS, 1.0 - PROB_EPS)
    return ModelParams(
        alpha=np.full(n_groups, alpha0), block=block, theta=theta, beta=beta
    )


def jitter_rows(arr: np.ndarray, rng: np.random.Generator) -> None:
    """Break symmetry in place: +-INIT_NOISE multiplicative noise on every
    entry, then re-normalize the last axis."""
    arr *= 1.0 + INIT_NOISE * (2.0 * rng.random(arr.shape) - 1.0)
    arr /= arr.sum(axis=-1, keepdims=True)


def _em_stop(trace: list, max_iters: int, tol: float):
    """Whether the EM loop of every fit ends at the newest entry of ``trace``:
    None while it goes on, True once converged, False at ``max_iters``
    iterations.

    ``trace[0]`` is the bound (or log-likelihood) at the start and each
    iteration appends one entry.  A non-finite entry raises
    :class:`GladNumericsError` naming its iteration (0 is the start).  The
    loop converges once the last entry moved by at most ``tol`` relative to
    the one before (absolute below 1).
    """
    iteration = len(trace) - 1
    if not np.isfinite(trace[-1]):
        when = f"at iteration {iteration}" if iteration else "at initialization"
        raise GladNumericsError(f"lower bound is non-finite {when}; aborting")
    if iteration and abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
        return True
    return False if iteration == max_iters else None


def run_em(first: float, step, max_iters: int, tol: float) -> tuple:
    """The EM loop of one fit: ``(trace, converged)``.  ``trace[0]`` is
    ``first``; each further entry is ``step()``, which runs one E-step and
    M-step and returns the new value, until ``_em_stop`` ends the loop."""
    trace = [first]
    while (converged := _em_stop(trace, max_iters, tol)) is None:
        trace.append(step())
    return np.array(trace), converged


def restart_seeds(seed: int, n: int) -> list:
    """The ``n`` child seeds spawned from ``seed`` that restarts start from."""
    return [int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(n)]


def pick_best(results):
    """The result with the best final bound.  Mean-field starts
    occasionally merge groups, and the merged basin scores visibly worse.
    Ties keep the earlier result: a later one wins only with a final bound
    higher by more than ``RESTART_TIE`` of the earlier's magnitude, so two
    label-permuted copies of one optimum, whose bounds differ by rounding,
    do not let the last bits of the kernels pick the winner."""
    best = None
    for attempt in results:
        if best is None or (
            attempt.trace[-1] - best.trace[-1] > RESTART_TIE * abs(best.trace[-1])
        ):
            best = attempt
    return best


def best_of_restarts(run, seed: int, n: int):
    """``pick_best`` of ``run(child_seed)`` over the ``restart_seeds``,
    run one after another."""
    return pick_best(run(child) for child in restart_seeds(seed, n))


class Member(NamedTuple):
    """One fit of ``fit_members``: its dataset, role count and config."""

    data: Dataset
    n_roles: int
    config: FitConfig | None = None


def _start(member: Member, n_groups: int) -> _Run:
    """A member's seeded run (see ``fit``), its starting bound recorded."""
    data, n_roles = member.data, member.n_roles
    config = member.config or FitConfig()
    if n_roles > data.n_features:
        warnings.warn("more roles than features; expect redundant roles")
    rng = np.random.default_rng(config.seed)
    params = seed_params(data, n_groups, n_roles, rng, config.alpha0)
    state = init_state(data.n_nodes, n_groups, n_roles)
    lam = np.array(state.lam)
    mu = np.array(state.mu)
    jitter_rows(lam, rng)
    jitter_rows(mu, rng)
    run = _Run(data, config, params, np.array(state.gamma), lam, mu)
    state = run.state()
    _record(run, run.bound(state, _linked_mass(data, state.lam)))
    return run


def _record(run: _Run, bound: float) -> None:
    run.trace.append(bound)
    try:
        run.outcome = _em_stop(run.trace, run.config.max_iters, run.config.tol)
    except GladNumericsError as exc:
        run.outcome = exc


def fit_members(members, n_groups: int) -> list:
    """Static fits on graphs of one size, run in lockstep.

    Each :class:`Member` is the fit ``fit(member.data, n_groups,
    member.n_roles, member.config)``; the members' datasets hold the same
    number of people, and may differ in links, features, role count and
    config.  Members whose datasets hold equal edge lists share one graph.
    Each iteration sweeps every running member in one pass over people
    (``_sequential_sweep``), then runs each one's M-step and bound.  A
    member stops where ``fit`` would stop it: at ``tol``, at ``max_iters``,
    or at a non-finite bound, which stops that member only.  Returns one
    entry per member, in order: its :class:`FitResult`, equal to ``fit``'s
    bit for bit, or the :class:`GladNumericsError` that ``fit`` would raise.
    """
    members = list(members)
    if not members:
        return []
    if len({m.data.n_nodes for m in members}) > 1:
        raise ValueError("the members of a fit must have graphs of one size")
    graphs, graph_of = [], []
    for member in members:
        edges = member.data.edges
        for g, other in enumerate(graphs):
            if other.edges is edges or all(map(np.array_equal, other.edges, edges)):
                break
        else:
            g = len(graphs)
            graphs.append(member.data)
        graph_of.append(g)
    runs = [_start(member, n_groups) for member in members]
    # each graph's linked mass is summed by segments in its lone fit's
    # order, so a member's bits do not depend on what is swept with it
    across = {}  # the _cross_index of each set of graphs swept together
    while True:
        by_graph = {}
        for run, g in zip(runs, graph_of):
            if run.outcome is None:
                by_graph.setdefault(g, []).append(run)
        if not by_graph:
            break
        key = tuple(by_graph)
        if key not in across:
            across[key] = _cross_index([graphs[g].neighbours for g in key])
        _sequential_sweep(list(by_graph.values()), across[key])
        for active in by_graph.values():
            for run in active:
                state = run.state()
                linked = _linked_mass(run.data, state.lam)
                run.set_params(_m_step(run.data, state, run.params.alpha, linked))
                _record(run, run.bound(state, linked))
    return [
        run.outcome if isinstance(run.outcome, GladNumericsError) else FitResult(
            params=run.params, state=run.state(), trace=np.array(run.trace),
            converged=run.outcome,
        )
        for run in runs
    ]


def raise_failures(results: list) -> list:
    """``results`` of ``fit_members``; the first member's error, if any
    failed, is raised instead."""
    for result in results:
        if isinstance(result, GladNumericsError):
            raise result
    return results


def fit(
    data: Dataset,
    n_groups: int,
    n_roles: int,
    config: FitConfig | None = None,
) -> FitResult:
    """Variational EM: alternate full E-sweeps with closed-form M-steps.

    Initialization is seeded: rates and feature profiles are drawn at
    random, the block matrix starts assortative at the observed density,
    and the uniform state gets +-1% multiplicative symmetry-breaking
    noise (re-normalized).
    The ELBO is recorded at initialization and after every iteration; the
    fit stops when its relative change drops below ``config.tol`` (see
    ``_em_stop``).  A non-finite bound, the initial one included, aborts with
    :class:`GladNumericsError`.  This is ``fit_members`` with one member.
    """
    return raise_failures(fit_members([Member(data, n_roles, config)], n_groups))[0]
