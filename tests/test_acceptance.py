"""Release-gate battery: one test per headline promise of the package.

Each test prints a single ``[acceptance] <name>: PASS|FAIL -- <detail>``
line before asserting, so ``pytest -v -s tests/test_acceptance.py``
doubles as a readable scorecard.  The heavy scenarios enforce their own
wall-clock budgets on top of the statistical checks.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path

import numpy as np
import scipy.stats

import test_glad0_vem as tg0
import test_glad_vem as tgv

from glad import cli
from glad.baselines import MixtureConfig, fit_group_lda, fit_mmsb
from glad.dglad_mc import DGladConfig, bootstrap_filter, run_sampler
from glad.generator import (
    InjectionConfig,
    generate_dglad,
    generate_glad,
    inject_activity_anomalies,
    inject_anomalies,
    inject_dynamic_change,
)
from glad.glad0_vem import (
    Fit0Config,
    fit0,
    m_step0,
    update_gamma0,
    update_lambda0,
    update_mu0,
    update_phi_in,
    update_phi_out,
)
from glad.glad_vem import (
    FitConfig,
    compute_elbo,
    fit,
    infer_state,
    m_step,
    update_gamma,
    update_lambda,
    update_mu,
)
from glad.model import ModelParams
from glad.scoring import (
    dynamic_change_score,
    evaluate_dynamic,
    evaluate_static,
    match_groups,
    rate_distance_score,
    rate_reference,
    top_fraction,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    """One scorecard line per check, then the real assertion."""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. the variational bound never decreases, on either model
# ---------------------------------------------------------------------------

def test_elbo_never_decreases_across_random_fits():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)

    worst = np.inf
    for _ in range(50):
        n = int(rng.integers(30, 201))
        m = int(rng.integers(2, 6))
        trials = int(rng.integers(5, 31))
        seed = int(rng.integers(0, 2**31))
        data, _ = inject_anomalies(
            InjectionConfig(n_nodes=n, n_groups=m, trials_per_person=trials, seed=seed)
        )
        result = fit(data, m, 2, FitConfig(max_iters=25, seed=seed))
        worst = min(worst, float(np.diff(result.trace).min()))

    worst0 = np.inf
    for _ in range(50):
        n = int(rng.integers(12, 41))
        m = int(rng.integers(2, 4))
        acts = int(rng.integers(2, 7))
        seed = int(rng.integers(0, 2**31))
        data, _ = inject_activity_anomalies(
            InjectionConfig(n_nodes=n, n_groups=m, seed=seed), activities=acts
        )
        result = fit0(data, m, 2, Fit0Config(max_iters=6, seed=seed))
        worst0 = min(worst0, float(np.diff(result.trace).min()))

    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-8 and worst0 >= -1e-8 and elapsed < 120.0
    verdict(
        "elbo-monotonicity",
        ok,
        f"min step {worst:.3e} (node-level), {worst0:.3e} (activity-level), "
        f"50+50 fits in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. every update kernel matches an independently written straight-line
#    evaluation on 100 random small instances
# ---------------------------------------------------------------------------

def test_update_kernels_match_straightline_oracles():
    worst_abs = 0.0
    worst_rel = 0.0

    for seed in range(100):
        n = 3 + seed % 3
        m = 2 + seed % 2
        k = 2 + (seed // 2) % 2
        v = 2 + seed % 3
        data, params, state = tgv.random_instance(seed, n=n, m=m, k=k, v=v)
        for p in range(n):
            got = update_lambda(p, data, params, state)
            want = tgv.oracle_lambda(
                p, data.features, data.links, params.alpha, params.block,
                params.theta, params.beta, state.gamma, state.lam, state.mu,
            )
            worst_abs = max(worst_abs, float(np.abs(got - want).max()))
            got = update_mu(p, data, params, state)
            want = tgv.oracle_mu(p, data.features, params.theta, params.beta, state.lam)
            worst_abs = max(worst_abs, float(np.abs(got - want).max()))
            got = update_gamma(p, params, state)
            worst_abs = max(
                worst_abs, float(np.abs(got - (params.alpha + state.lam[p])).max())
            )
        fitted = m_step(data, state, params.alpha)
        blk, th, be = tgv.oracle_m_step(data.features, data.links, state.lam, state.mu)
        for got, want in ((fitted.block, blk), (fitted.theta, th), (fitted.beta, be)):
            worst_abs = max(worst_abs, float(np.abs(got - want).max()))
        got_bound = compute_elbo(data, params, state)
        want_bound = tgv.oracle_elbo(
            data.features, data.links, params.alpha, params.block,
            params.theta, params.beta, state.gamma, state.lam, state.mu,
        )
        worst_rel = max(
            worst_rel, abs(got_bound - want_bound) / max(1.0, abs(want_bound))
        )

    for seed in range(100):
        n = 3 + seed % 3
        m = 2 + seed % 2
        k = 2 + (seed // 2) % 2
        v = 2 + seed % 3
        data, params, state = tg0.random_instance0(
            seed, n=n, m=m, k=k, v=v, max_acts=2 + seed % 3
        )
        for p in range(n):
            got = update_gamma0(p, params.alpha, state.phi_out, state.phi_in, state.lam_act)
            want = tg0.oracle_gamma0(
                p, params.alpha, state.phi_out, state.phi_in, state.lam_act
            )
            worst_abs = max(worst_abs, float(np.abs(got - want).max()))
            for q in range(n):
                if q == p:
                    continue
                got = update_phi_out(p, q, data, params, state)
                want = tg0.oracle_phi_out(
                    p, q, data.links, params.block, state.gamma, state.phi_in
                )
                worst_abs = max(worst_abs, float(np.abs(got - want).max()))
                got = update_phi_in(p, q, data, params, state)
                want = tg0.oracle_phi_in(
                    p, q, data.links, params.block, state.gamma, state.phi_out
                )
                worst_abs = max(worst_abs, float(np.abs(got - want).max()))
            for a in range(data.activity_counts[p]):
                got = update_lambda0(p, a, params, state)
                want = tg0.oracle_lambda0(p, a, state.gamma, params.theta, state.mu_act)
                worst_abs = max(worst_abs, float(np.abs(got - want).max()))
                got = update_mu0(p, a, data, params, state)
                want = tg0.oracle_mu0(
                    p, a, data.feature_ids, params.theta, params.beta, state.lam_act
                )
                worst_abs = max(worst_abs, float(np.abs(got - want).max()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fitted = m_step0(data, state, params.alpha)
        want_block = tg0.oracle_m_step0_block(data.links, state.phi_out, state.phi_in)
        worst_abs = max(worst_abs, float(np.abs(fitted.block - want_block).max()))
        if sum(data.activity_counts) > 0:
            theta = np.zeros((m, k))
            beta = np.zeros((v, k))
            for p in range(n):
                for a in range(data.activity_counts[p]):
                    for g in range(m):
                        for r in range(k):
                            theta[g, r] += state.lam_act[p][a, g] * state.mu_act[p][a, r]
                    for r in range(k):
                        beta[data.feature_ids[p][a], r] += state.mu_act[p][a, r]
            theta /= theta.sum(axis=1, keepdims=True)
            beta /= beta.sum(axis=0, keepdims=True)
            worst_abs = max(worst_abs, float(np.abs(fitted.theta - theta).max()))
            worst_abs = max(worst_abs, float(np.abs(fitted.beta - beta).max()))

    ok = worst_abs <= 1e-10 and worst_rel <= 1e-10
    verdict(
        "update-formula transcription",
        ok,
        f"max abs dev {worst_abs:.2e}, max rel bound dev {worst_rel:.2e} "
        f"over 100+100 instances",
    )


# ---------------------------------------------------------------------------
# 3. on tiny well-separated instances the mean-field argmax agrees with the
#    exact posterior from enumerating every configuration
# ---------------------------------------------------------------------------

def test_mean_field_argmax_matches_exhaustive_posterior():
    params = ModelParams(
        alpha=np.array([0.5, 0.5]),
        block=np.array([[0.85, 0.05], [0.05, 0.85]]),
        theta=np.array([[0.95, 0.05], [0.05, 0.95]]),
        beta=np.array([[0.9, 0.1], [0.1, 0.9]]),
    )
    hits = 0
    for seed in range(20):
        data, _ = generate_glad(params, 3, 8, seed=seed)
        state, _ = infer_state(data, params, FitConfig(max_iters=300, tol=1e-12))
        post_g = np.zeros((3, 2))
        post_r = np.zeros((3, 2))
        for gs in np.ndindex(2, 2, 2):
            for rs in np.ndindex(2, 2, 2):
                w = 1.0
                for p in range(3):
                    w *= params.alpha[gs[p]] / params.alpha.sum()
                    w *= params.theta[gs[p], rs[p]]
                    for v in range(2):
                        w *= params.beta[v, rs[p]] ** data.features[p, v]
                for p in range(3):
                    for q in range(p + 1, 3):
                        b = params.block[gs[p], gs[q]]
                        w *= b if data.links[p, q] else (1 - b)
                for p in range(3):
                    post_g[p, gs[p]] += w
                    post_r[p, rs[p]] += w
        if np.array_equal(state.grouping(), post_g.argmax(axis=1)) and np.array_equal(
            state.roles(), post_r.argmax(axis=1)
        ):
            hits += 1
    verdict(
        "exhaustive-posterior agreement", hits >= 19, f"{hits}/20 tiny instances agree"
    )


# ---------------------------------------------------------------------------
# 4. planted anomalous groups are found, at least as well as the two-stage
#    pipeline that fits the graph first and the features second
# ---------------------------------------------------------------------------

def _flag_accuracy(grouping, scores, truth, n_groups, fraction=0.2):
    flagged = top_fraction(scores, fraction)
    mapping = match_groups(grouping, truth.group, n_groups)
    metrics = evaluate_static(np.sort(mapping[flagged]), truth.anomalous_groups, n_groups)
    return metrics["accuracy"]


def test_planted_anomaly_detection_beats_two_stage_baseline():
    t0 = time.perf_counter()
    joint_acc, staged_acc = [], []
    for seed in range(10):
        data, truth = inject_anomalies(
            InjectionConfig(n_nodes=500, n_groups=5, seed=seed)
        )
        config = FitConfig(max_iters=120, seed=seed)
        result = fit(data, 5, 2, config)
        scores = rate_distance_score(
            result.params.theta, rate_reference(result.params.theta)
        )
        joint_acc.append(_flag_accuracy(result.state.grouping(), scores, truth, 5))
        stage1 = fit_mmsb(data.links, 5, config)
        stage2 = fit_group_lda(
            data.features, stage1.grouping, 2, MixtureConfig(seed=seed), n_groups=5
        )
        staged_acc.append(_flag_accuracy(stage1.grouping, stage2.scores, truth, 5))
    elapsed = time.perf_counter() - t0
    joint, staged = float(np.mean(joint_acc)), float(np.mean(staged_acc))
    ok = joint >= 0.8 and joint >= staged and elapsed < 600.0
    verdict(
        "planted-anomaly detection",
        ok,
        f"joint model mean accuracy {joint:.3f} vs two-stage {staged:.3f} "
        f"over 10 seeds in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. a planted rate change late in a dynamic run is flagged with few false
#    alarms, and the false-positive curve behaves like one
# ---------------------------------------------------------------------------

def test_rate_change_detected_with_bounded_false_alarms():
    t0 = time.perf_counter()
    horizon, change_time, n_groups = 5, 4, 4
    passes = 0
    monotone = True
    for seed in range(10):
        data, truth = inject_dynamic_change(
            InjectionConfig(n_nodes=200, n_groups=n_groups, seed=seed),
            horizon=horizon,
            change_time=change_time,
        )
        config = DGladConfig(sweeps=30, burn_in=15, n_particles=100, sigma=0.4, seed=seed)
        result = run_sampler(data, n_groups, 2, config)
        change = dynamic_change_score(result.theta_mean)
        mapping = match_groups(
            result.trace.grouping(), np.asarray(truth.group)[0], n_groups
        )
        aligned = np.empty_like(change)
        aligned[:, mapping] = change
        # thresholds just below every observed score: an increasing grid that
        # includes the operating point with perfect recall
        grid = np.unique(np.concatenate(([0.0], aligned.ravel()))) - 1e-9
        curve = evaluate_dynamic(aligned, truth.change_times, grid)
        monotone = monotone and bool(np.all(np.diff(curve["fpr"]) <= 0.0))
        if np.any((curve["recall"] >= 1.0) & (curve["fpr"] <= 0.2)):
            passes += 1
    elapsed = time.perf_counter() - t0
    ok = monotone and passes >= 8 and elapsed < 600.0
    verdict(
        "change-point detection",
        ok,
        f"{passes}/10 seeds reach recall 1.0 at FPR <= 0.2, "
        f"FPR curves non-increasing: {monotone}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. the samplers draw from the laws they claim to draw from
# ---------------------------------------------------------------------------

def test_samplers_match_their_distributional_contract():
    params = ModelParams(
        alpha=np.array([0.5, 0.5]),
        block=np.array([[0.3, 0.05], [0.05, 0.2]]),
        theta=np.array([[0.8, 0.2], [0.3, 0.7]]),
        beta=np.array([[0.9, 0.2], [0.1, 0.8]]),
    )
    # one token per person: group-wise token counts are exactly multinomial
    # with cell probabilities beta @ theta[g], so a plain GOF test applies
    data, truth = generate_glad(params, 2000, 1, seed=11)
    pvals = []
    for g in range(2):
        for h in range(g, 2):
            gi = np.flatnonzero(truth.group == g)
            hi = np.flatnonzero(truth.group == h)
            if g == h:
                n_pairs = len(gi) * (len(gi) - 1) // 2
                n_links = int(np.triu(data.links[np.ix_(gi, gi)], k=1).sum())
            else:
                n_pairs = len(gi) * len(hi)
                n_links = int(data.links[np.ix_(gi, hi)].sum())
            expected = n_pairs * params.block[g, h]
            gof = scipy.stats.chisquare(
                [n_links, n_pairs - n_links], [expected, n_pairs - expected]
            )
            pvals.append(float(gof.pvalue))
    for g in range(2):
        counts = data.features[truth.group == g].sum(axis=0)
        mixture = params.beta @ params.theta[g]
        gof = scipy.stats.chisquare(counts, counts.sum() * mixture)
        pvals.append(float(gof.pvalue))

    walk_params = ModelParams(
        alpha=np.full(5, 0.1),
        block=np.full((5, 5), 0.2),
        theta=np.full((5, 4), 0.25),
        beta=np.full((2, 4), 0.5),
    )
    sigma, horizon = 0.5, 60
    sq = []
    for seed in range(150):
        _, _, path = generate_dglad(
            walk_params, np.zeros((5, 4)), sigma, 2, horizon, 0, seed=seed
        )
        sq.append((path[-1] - path[0]) ** 2)
    msd = float(np.mean(sq))
    target = sigma**2 * horizon

    ok = min(pvals) >= 0.01 and abs(msd - target) <= 0.10 * target
    verdict(
        "generator fidelity",
        ok,
        f"min GOF p-value {min(pvals):.3f} across {len(pvals)} tests, "
        f"walk MSD {msd:.2f} vs {target:.2f}",
    )


# ---------------------------------------------------------------------------
# 7. the particle filter tracks the exact filter on a linear-Gaussian stub
# ---------------------------------------------------------------------------

def test_particle_filter_tracks_linear_gaussian_oracle():
    horizon, n_particles, sigma, obs_sd = 20, 1000, 0.3, 0.5
    start = np.array([0.4, -0.2])
    rng = np.random.default_rng(5)
    x = start.copy()
    obs = np.empty((horizon, 2))
    for t in range(horizon):
        x = x + sigma * rng.standard_normal(2)
        obs[t] = x + obs_sd * rng.standard_normal(2)

    means, _, _ = bootstrap_filter(
        lambda t, e: -np.square(e - obs[t]).sum(axis=1) / (2.0 * obs_sd**2),
        start, sigma, horizon, n_particles, np.random.default_rng(8),
    )

    kalman = np.empty((horizon, 2))
    for c in range(2):
        mean, var = start[c], sigma**2
        for t in range(horizon):
            if t > 0:
                var += sigma**2
            gain = var / (var + obs_sd**2)
            mean = mean + gain * (obs[t, c] - mean)
            var = (1.0 - gain) * var
            kalman[t, c] = mean
    err = float(np.max(np.abs(means - kalman)))
    bound = 3.0 / np.sqrt(n_particles)
    verdict(
        "particle-filter oracle",
        err <= bound,
        f"max |posterior mean error| {err:.4f} <= {bound:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. every command is byte-identical when rerun under the same seed
# ---------------------------------------------------------------------------

def _tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_seeded_commands_rerun_byte_identical(tmp_path):
    outcomes = []

    def rerun(name, argv, out_dir):
        rc_first = cli.main(argv)
        first = _tree(Path(out_dir))
        rc_second = cli.main(argv)
        ok = (
            rc_first == rc_second
            and rc_first in (0, 2)
            and len(first) > 0
            and first == _tree(Path(out_dir))
        )
        outcomes.append((name, ok))

    cfg = tmp_path / "static.cfg"
    cfg.write_text("kind=static\nn_nodes=40\nn_groups=3\ntrials_per_person=10\nseed=3\n")
    static_dir = tmp_path / "static"
    rerun("generate static",
          ["generate", "--config", str(cfg), "--out", str(static_dir)], static_dir)

    cfg = tmp_path / "activity.cfg"
    cfg.write_text("kind=activity\nn_nodes=24\nn_groups=2\ntrials_per_person=5\nseed=4\n")
    act_dir = tmp_path / "activity"
    rerun("generate activity",
          ["generate", "--config", str(cfg), "--out", str(act_dir)], act_dir)

    cfg = tmp_path / "dynamic.cfg"
    cfg.write_text(
        "kind=dynamic\nn_nodes=30\nn_groups=3\ntrials_per_person=8\n"
        "horizon=4\nchange_time=3\nseed=5\n"
    )
    dyn_dir = tmp_path / "dynamic"
    rerun("generate dynamic",
          ["generate", "--config", str(cfg), "--out", str(dyn_dir)], dyn_dir)

    fit_dir = tmp_path / "fit-glad"
    rerun("fit glad",
          ["fit", "--model", "glad", "--data", str(static_dir), "--out", str(fit_dir),
           "--groups", "3", "--max-iters", "15", "--seed", "1"], fit_dir)

    fit0_dir = tmp_path / "fit-glad0"
    rerun("fit glad0",
          ["fit", "--model", "glad0", "--data", str(act_dir), "--out", str(fit0_dir),
           "--groups", "2", "--max-iters", "4", "--seed", "1"], fit0_dir)

    fitd_dir = tmp_path / "fit-dglad"
    rerun("fit dglad",
          ["fit", "--model", "dglad", "--data", str(dyn_dir), "--out", str(fitd_dir),
           "--groups", "3", "--sweeps", "4", "--burn-in", "2", "--particles", "30",
           "--sigma", "0.4", "--seed", "2"], fitd_dir)

    score_dir = tmp_path / "score"
    rerun("score",
          ["score", "--fit", str(fit_dir), "--out", str(score_dir),
           "--truth", str(static_dir / "truth.json")], score_dir)

    eval_dir = tmp_path / "evaluate"
    rerun("evaluate",
          ["evaluate", "--fit", str(fit_dir), "--out", str(eval_dir),
           "--truth", str(static_dir / "truth.json")], eval_dir)

    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "group_counts=3\nn_seeds=2\nn_nodes=60\nmax_iters=12\ndynamic=false\nseed=1\n"
    )
    bench_dir = tmp_path / "bench"
    rerun("benchmark",
          ["benchmark", "--config", str(cfg), "--out", str(bench_dir)], bench_dir)

    bad = [name for name, ok in outcomes if not ok]
    verdict(
        "seeded determinism",
        not bad,
        f"{len(outcomes)} command reruns byte-identical"
        if not bad
        else "differs: " + ", ".join(bad),
    )
