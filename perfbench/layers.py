"""Traced in-process pass of a workload: one span per call into a glad module.

The spans are recorded here, around public functions of ``glad``; nothing
inside the package is instrumented.  Span names are ``<module>.<call>``, so
the layer of a span is the text before the first dot.  ``cli.*`` spans group
the calls one CLI stage (or one study cell) makes; ``probe`` groups the calls
made on a small control input for a layer the workload's own pipeline never
reaches, so that every layer is measured on every workload.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from glad import io as gio
from glad.baselines import MixtureConfig, fit_group_lda, fit_mmsb
from glad.dglad_mc import (
    DGladConfig,
    default_params,
    effective_sample_size,
    particle_filter_theta,
    run_sampler,
    sample_pi,
)
from glad.generator import (
    InjectionConfig,
    inject_activity_anomalies,
    inject_anomalies,
    inject_dynamic_change,
)
from glad.glad0_vem import Fit0Config, compute_elbo0, fit0, m_step0
from glad.glad_vem import FitConfig, compute_elbo, fit, infer_state, m_step
from glad.model import Dataset, digamma
from glad.scoring import (
    dynamic_change_score,
    evaluate_dynamic,
    evaluate_static,
    make_report,
    match_groups,
    rate_distance_score,
    rate_reference,
    top_fraction,
)

LAYERS = ("generator", "io", "model", "glad_vem", "glad0_vem", "dglad_mc", "scoring",
          "baselines", "cli")
DIGAMMA_PEOPLE = 1000  # per-person digamma call pairs timed
GLAD0_EXTRA_SWEEPS = 4  # the two short fit0 calls differ by this many inner sweeps


class Recorder:
    """Spans kept in memory: [name, start, end, parent index]; a no-op when disabled."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def total_under(self, prefix: str) -> float:
        """Total time of top-level spans whose name starts with ``prefix``."""
        return sum(end - start for n, start, end, parent in self.spans
                   if parent is None and n.startswith(prefix))

    def self_times(self) -> dict:
        """Per layer: span time not covered by the span's children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), value in zip(self.spans, own):
            layer = name.split(".")[0]
            if layer in out:
                out[layer] += value
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - origin, "end": e - origin, "parent": p}
                for n, s, e, p in self.spans]
        path.write_text(json.dumps(rows))


# ---------------------------------------------------------------------------
# inputs and configs, mirroring what the CLI builds from the same options
# ---------------------------------------------------------------------------

def injection(options: dict, seed: int) -> InjectionConfig:
    keys = ("n_nodes", "n_groups", "n_roles", "trials_per_person", "anomaly_fraction",
            "block_in", "block_out")
    return InjectionConfig(seed=seed, **{k: options[k] for k in keys if k in options})


def node_grouping(truth) -> np.ndarray:
    group = np.asarray(truth.group)
    return group[0] if group.ndim == 2 else group


MODEL_CONFIGS = {"glad": FitConfig, "glad0": Fit0Config, "dglad": DGladConfig}


def model_config(options: dict, seed: int):
    """The fit flags of a workload as the model's config; unset knobs keep the
    dataclass defaults, which are also the CLI's."""
    kwargs = {("n_particles" if k == "particles" else k): v
              for k, v in options.items() if k not in ("model", "groups")}
    return MODEL_CONFIGS[options["model"]](seed=seed, **kwargs)


def report(rec, truth, grouping, n_groups, fraction, theta=None, theta_mean=None,
           threshold=None) -> dict:
    """Scores aligned to the true labels and evaluated, as `glad evaluate` does."""
    with rec.span("scoring.report"):
        change = None
        if theta_mean is not None:
            change = dynamic_change_score(theta_mean)
            scores = change.max(axis=0)
        else:
            scores = rate_distance_score(theta, rate_reference(theta))
        mapping = match_groups(grouping, node_grouping(truth), n_groups)
        aligned = np.empty_like(scores)
        aligned[mapping] = scores
        aligned_change = None
        if change is not None:
            aligned_change = np.empty_like(change)
            aligned_change[:, mapping] = change
        out = make_report(aligned, fraction, change_scores=aligned_change, threshold=threshold,
                          anomalous=truth.anomalous_groups,
                          change_times=truth.change_times or None)
    return out.metrics


# ---------------------------------------------------------------------------
# per-layer measurements
# ---------------------------------------------------------------------------

def dataset_counts(directory: Path, counts: dict) -> None:
    with open(directory / "edges.tsv") as edges:
        counts["io.edges"] = sum(1 for _ in edges)
    counts["io.dataset_mb"] = sum(p.stat().st_size for p in directory.iterdir()) / 1e6


def measure_io(rec, data, truth, directory: Path, counts: dict) -> None:
    with rec.span("io.write_dataset"):
        gio.write_dataset(directory, data, truth)
    dataset_counts(directory, counts)
    with rec.span("io.read_dataset"):
        gio.read_dataset(directory)


def measure_glad_vem(rec, data, result, counts: dict) -> None:
    """One sweep (infer_state at one iteration minus its bound), bound, M-step, digamma."""
    params = result.params
    counts["glad_vem.iters"] = int(result.trace.size - 1)
    with rec.span("glad_vem.infer_state"):
        state, _ = infer_state(data, params, FitConfig(max_iters=1))
    with rec.span("glad_vem.compute_elbo"):
        compute_elbo(data, params, state)
    with rec.span("glad_vem.m_step"):
        m_step(data, state, params.alpha, prev=params)
    gamma = np.asarray(result.state.gamma)[:DIGAMMA_PEOPLE]
    counts["model.digamma_pairs"] = gamma.shape[0]
    with rec.span("model.digamma"):
        for row in gamma:
            digamma(row)
            digamma(row.sum())


def measure_glad0(rec, data, result, config: Fit0Config, counts: dict) -> None:
    """Bound and M-step once; a sweep from two short fits that differ in sweeps."""
    counts["glad0_vem.outer_iters"] = int(result.n_iters)
    with rec.span("glad0_vem.compute_elbo0"):
        compute_elbo0(data, result.params, result.state)
    with rec.span("glad0_vem.m_step0"):
        m_step0(data, result.state, result.params.alpha)
    for name, sweeps in (("short", 1), ("long", 1 + GLAD0_EXTRA_SWEEPS)):
        short = Fit0Config(max_iters=1, inner_max=sweeps, inner_tol=0.0, seed=config.seed)
        with rec.span(f"glad0_vem.fit0_{name}"):
            fit0(data, result.params.alpha.size, result.params.theta.shape[1], short)


def measure_dglad(rec, data, result, config: DGladConfig, counts: dict) -> None:
    """Anchor fit, one particle-filter pass and one membership refresh, at the final state."""
    params, trace = result.params, result.trace
    m, k = params.theta0.shape
    counts["dglad_mc.sweeps"] = config.sweeps
    counts["dglad_mc.ess_frac"] = float(np.mean(
        [effective_sample_size(w) for w in trace.weights])) / config.n_particles
    with rec.span("dglad_mc.default_params"):
        default_params(data, m, k, config)
    rng = np.random.default_rng(config.seed)
    with rec.span("dglad_mc.particle_filter_theta"):
        particle_filter_theta(data, params, trace, config.sigma, config.n_particles, rng)
    with rec.span("dglad_mc.sample_pi"):
        for p in range(data.n_nodes):
            sample_pi(p, params.alpha, trace, rng)


def measure_baselines(rec, data, n_groups, n_roles, max_iters, seed):
    with rec.span("baselines.fit_mmsb"):
        stage1 = fit_mmsb(data.links, n_groups, FitConfig(max_iters=max_iters, seed=seed))
    with rec.span("baselines.fit_group_lda"):
        stage2 = fit_group_lda(data.features, stage1.grouping, n_roles, MixtureConfig(seed=seed),
                               n_groups=n_groups)
    return stage1.grouping, stage2.scores


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_pipeline(spec, seed, rec, work: Path, counts: dict) -> dict:
    """generate -> fit -> evaluate through the public functions; returns the families called."""
    gen, opts, model = spec["generate"], spec["fit"], spec["fit"]["model"]
    inj = injection(gen, seed)
    groups = opts["groups"]
    with rec.span("cli.generate"):
        with rec.span("generator.inject"):
            if model == "glad":
                data, truth = inject_anomalies(inj)
            elif model == "glad0":
                data, truth = inject_activity_anomalies(inj)
            else:
                data, truth = inject_dynamic_change(inj, horizon=gen["horizon"],
                                                    change_time=gen["change_time"])
        with rec.span("io.write_dataset"):
            gio.write_dataset(work / "data", data, truth)
    dataset_counts(work / "data", counts)
    evaluate = spec["evaluate"]
    fraction = evaluate.get("fraction", 0.2)
    with rec.span("cli.fit"):
        with rec.span("io.read_dataset"):
            data = gio.read_dataset(work / "data")
        config = model_config(opts, seed)
        if model == "glad":
            with rec.span("glad_vem.fit"):
                result = fit(data, groups, 2, config)
        elif model == "glad0":
            with rec.span("glad0_vem.fit0"):
                result = fit0(data, groups, 2, config)
        else:
            with rec.span("dglad_mc.run_sampler"):
                result = run_sampler(data, groups, 2, config)
    with rec.span("cli.evaluate"):
        if model == "dglad":
            report(rec, truth, result.trace.grouping(), groups, fraction,
                   theta_mean=result.theta_mean, threshold=evaluate.get("threshold"))
        else:
            report(rec, truth, result.state.grouping(), groups, fraction,
                   theta=result.params.theta)

    if model == "glad":
        measure_glad_vem(rec, data, result, counts)
    else:
        # the static model on the same people: the aggregated activity counts, or snapshot 0
        if model == "glad0":
            static = Dataset(features=data.feature_counts(), links=data.links)
            measure_glad0(rec, data, result, config, counts)
        else:
            static = data.snapshots[0]
            measure_dglad(rec, data, result, config, counts)
        control_iters = config.init_fit_iters if model == "dglad" else 4
        with rec.span("glad_vem.fit"):
            control = fit(static, groups, 2, FitConfig(max_iters=control_iters, seed=seed))
        measure_glad_vem(rec, static, control, counts)
    return {"glad0": model == "glad0", "dglad": model == "dglad", "baselines": False}


def run_grid(spec, seed, rec, work: Path, counts: dict) -> dict:
    """Every `glad benchmark` cell, serially, each inside one ``cli.cell`` span."""
    g = spec["grid"]
    n_roles, first_glad, first_dyn = g["n_roles"], None, None
    for gc in (int(x) for x in str(g["group_counts"]).split(",")):
        for method in ("glad", "mmsb-lda"):
            for s in range(g["n_seeds"]):
                cell_seed = seed + s
                with rec.span("cli.cell"):
                    with rec.span("generator.inject"):
                        data, truth = inject_anomalies(injection({**g, "n_groups": gc},
                                                                 cell_seed))
                    if method == "glad":
                        with rec.span("glad_vem.fit"):
                            result = fit(data, gc, n_roles,
                                         FitConfig(max_iters=g["max_iters"], seed=cell_seed))
                        grouping = result.state.grouping()
                        with rec.span("scoring.rate_distance_score"):
                            theta = result.params.theta
                            scores = rate_distance_score(theta, rate_reference(theta))
                        first_glad = first_glad or (data, truth, result)
                    else:
                        grouping, scores = measure_baselines(rec, data, gc, n_roles,
                                                             g["max_iters"], cell_seed)
                    with rec.span("scoring.report"):
                        flagged = top_fraction(scores, g["fraction"])
                        mapping = match_groups(grouping, truth.group, gc)
                        evaluate_static(np.sort(mapping[flagged]), truth.anomalous_groups, gc)
    if g["dynamic"] == "true":
        for s in range(g["dyn_seeds"]):
            cell_seed = seed + s
            with rec.span("cli.cell"):
                inj = injection({**g, "n_nodes": g["dyn_nodes"], "n_groups": g["dyn_groups"]},
                                cell_seed)
                with rec.span("generator.inject"):
                    data, truth = inject_dynamic_change(
                        inj, horizon=g["horizon"], change_time=g["change_time"],
                        changed_fraction=g["changed_fraction"], drift_sigma=g["drift_sigma"])
                config = DGladConfig(sweeps=g["sweeps"], burn_in=g["burn_in"],
                                     n_particles=g["particles"], sigma=g["sigma"], seed=cell_seed)
                with rec.span("dglad_mc.run_sampler"):
                    result = run_sampler(data, g["dyn_groups"], n_roles, config)
                with rec.span("scoring.report"):
                    change = dynamic_change_score(result.theta_mean)
                    mapping = match_groups(result.trace.grouping(), node_grouping(truth),
                                           g["dyn_groups"])
                    aligned = np.empty_like(change)
                    aligned[:, mapping] = change
                    evaluate_dynamic(aligned, truth.change_times,
                                     np.linspace(0.0, g["grid_max"], g["thresholds"]))
                first_dyn = first_dyn or (data, result, config)
    data, truth, result = first_glad
    measure_io(rec, data, truth, work / "cell", counts)
    measure_glad_vem(rec, data, result, counts)
    if first_dyn:
        measure_dglad(rec, *first_dyn, counts)
    return {"glad0": False, "dglad": first_dyn is not None, "baselines": True}


def run_probes(rec, seed, covered: dict, counts: dict) -> None:
    """Small control inputs for the layers the workload's pipeline does not call."""
    with rec.span("probe"):
        if not covered["glad0"]:
            data, _ = inject_activity_anomalies(
                InjectionConfig(n_nodes=20, n_groups=3, seed=seed), activities=4)
            config = Fit0Config(max_iters=2, inner_max=3, inner_tol=0.0, seed=seed)
            with rec.span("glad0_vem.fit0"):
                result = fit0(data, 3, 2, config)
            measure_glad0(rec, data, result, config, counts)
        if not covered["dglad"]:
            data, _ = inject_dynamic_change(InjectionConfig(n_nodes=24, n_groups=3, seed=seed),
                                            horizon=3, change_time=2)
            config = DGladConfig(sweeps=3, burn_in=1, n_particles=20, init_fit_iters=3,
                                 init_restarts=1, seed=seed)
            with rec.span("dglad_mc.run_sampler"):
                result = run_sampler(data, 3, 2, config)
            measure_dglad(rec, data, result, config, counts)
        if not covered["baselines"]:
            data, _ = inject_anomalies(InjectionConfig(n_nodes=60, n_groups=3, seed=seed))
            measure_baselines(rec, data, 3, 2, 20, seed)


def run_workload(spec, seed, rec, work: Path) -> dict:
    """The workload's calls through the public API; returns counts taken on the way."""
    work.mkdir(parents=True, exist_ok=True)
    counts = {}
    try:
        if spec["name"] == "study-grid":
            covered = run_grid(spec, seed, rec, work, counts)
        else:
            covered = run_pipeline(spec, seed, rec, work, counts)
        run_probes(rec, seed, covered, counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return counts


def layer_metrics(rec, counts) -> dict:
    """name -> (value, unit) for every per-layer metric but the CLI ones."""
    med = rec.median
    run = rec.durations("dglad_mc.run_sampler")[0]  # the run measure_dglad broke down
    anchor = med("dglad_mc.default_params")
    pf, pi = med("dglad_mc.particle_filter_theta"), med("dglad_mc.sample_pi")
    out = {
        "generator.inject_s": (med("generator.inject"), "s"),
        "io.write_dataset_s": (med("io.write_dataset"), "s"),
        "io.read_dataset_s": (med("io.read_dataset"), "s"),
        "io.edges": (counts["io.edges"], "count"),
        "io.dataset_mb": (counts["io.dataset_mb"], "MB"),
        "glad_vem.fit_s": (med("glad_vem.fit"), "s"),
        "glad_vem.iters": (counts["glad_vem.iters"], "count"),
        "glad_vem.sweep_s": (med("glad_vem.infer_state") - med("glad_vem.compute_elbo"), "s"),
        "glad_vem.elbo_s": (med("glad_vem.compute_elbo"), "s"),
        "glad_vem.m_step_s": (med("glad_vem.m_step"), "s"),
        "model.digamma_us": (1e6 * med("model.digamma") / counts["model.digamma_pairs"], "us"),
        "glad0_vem.fit_s": (med("glad0_vem.fit0"), "s"),
        "glad0_vem.outer_iters": (counts["glad0_vem.outer_iters"], "count"),
        "glad0_vem.sweep_s": ((med("glad0_vem.fit0_long") - med("glad0_vem.fit0_short"))
                              / GLAD0_EXTRA_SWEEPS, "s"),
        "glad0_vem.elbo_s": (med("glad0_vem.compute_elbo0"), "s"),
        "glad0_vem.m_step_s": (med("glad0_vem.m_step0"), "s"),
        "dglad_mc.run_s": (med("dglad_mc.run_sampler"), "s"),
        "dglad_mc.anchor_s": (anchor, "s"),
        "dglad_mc.scan_s": ((run - anchor) / counts["dglad_mc.sweeps"] - pf - pi, "s"),
        "dglad_mc.pf_s": (pf, "s"),
        "dglad_mc.pi_s": (pi, "s"),
        "dglad_mc.ess_frac": (counts["dglad_mc.ess_frac"], "ratio"),
        "scoring.report_s": (med("scoring.report"), "s"),
        "baselines.fit_mmsb_s": (med("baselines.fit_mmsb"), "s"),
        "baselines.fit_group_lda_s": (med("baselines.fit_group_lda"), "s"),
    }
    for layer, value in rec.self_times().items():
        out[f"{layer}.self_s"] = (value, "s")
    return out
