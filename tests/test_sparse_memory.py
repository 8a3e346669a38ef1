"""No N x N allocation from generate to fit: a graph is held as its edges.

Each case runs the pipeline the command line runs, generate -> write ->
read -> a 2-iteration fit, at N = 6000 on a sparse planted graph (about 6
links per person), under tracemalloc.  One dense int8 adjacency matrix
alone is N^2 = 36 MB there; the cases allow a traced peak of N^2 / 4 bytes
(9 MB), so any N x N array fails them.

The fits use 2 groups: their own memory is linear in N but not small, for
example ``model.digamma`` expands an (N, M + 1) argument into ten copies,
and 2 groups keep it well inside the budget.  The activity case gives each
person 2 activities for the same reason: glad0 holds several (M, A) and
(K, A) float arrays over the A activities, which at 50 activities a person
would fill the budget alone.

The dynamic case runs the d-GLAD sampler on three such snapshots, with 2
sweeps of 4 particles after a 2-iteration anchor fit: a stacked (T, N, N)
adjacency would be T times 36 MB.

The activity file case checks the activity files themselves at 50
activities a person (A = 300000): writing and reading them back each peak
below 64 bytes per activity, about what the stacked ids and the parsed
fields need.  One Python object per activity costs several times that.

The last case checks that the graph's ids are int32 in every copy a fit
holds, whether the graph was read from a file or drawn by the generator.
"""

import tracemalloc

import numpy as np
import pytest

from glad import io as gio
from glad.dglad_mc import DGladConfig, run_sampler
from glad.generator import (
    InjectionConfig,
    inject_activity_anomalies,
    inject_anomalies,
    inject_dynamic_change,
)
from glad.glad0_vem import Fit0Config, fit0
from glad.glad_vem import FitConfig, _cross_index, fit

N = 6000


def _static(cfg):
    return inject_anomalies(cfg), lambda data: fit(data, 2, 2, FitConfig(max_iters=2, seed=0))


def _activity(cfg):
    return inject_activity_anomalies(cfg, activities=2), lambda data: fit0(
        data, 2, 2, Fit0Config(max_iters=2, seed=0)
    )


def _dynamic(cfg):
    return inject_dynamic_change(cfg, horizon=3, change_time=2), lambda data: run_sampler(
        data, 2, 2, DGladConfig(sweeps=2, burn_in=0, n_particles=4, init_fit_iters=2,
                                init_restarts=1)
    )


def _graphs(data):
    return data.snapshots if hasattr(data, "snapshots") else [data]


@pytest.mark.parametrize("pipeline", [_static, _activity, _dynamic],
                         ids=["static", "activity", "dynamic"])
def test_generate_to_fit_holds_no_dense_graph(tmp_path, pipeline):
    cfg = InjectionConfig(n_nodes=N, block_in=0.003, block_out=0.0005, seed=0)
    tracemalloc.start()
    try:
        (data, truth), run_fit = pipeline(cfg)
        gio.write_dataset(tmp_path, data, truth)
        del data, truth
        data = gio.read_dataset(tmp_path)
        run_fit(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the graph is sparse, as the budget assumes
    for graph in _graphs(data):
        assert 4 * N < 2 * graph.edges[0].size < 8 * N
    assert peak < N * N / 4, f"traced peak {peak / 1e6:.1f} MB"


def test_activity_files_hold_memory_proportional_to_the_activities(tmp_path):
    cfg = InjectionConfig(n_nodes=N, block_in=0.003, block_out=0.0005, seed=0)
    data, truth = inject_activity_anomalies(cfg, activities=50)
    acts = data.feature_ids.size
    tracemalloc.start()
    try:
        gio.write_dataset(tmp_path, data, truth)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = gio.read_dataset(tmp_path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert acts == 50 * N
    for stage, peak in (("write", write_peak), ("read", read_peak)):
        assert peak < 64 * acts, f"{stage}: traced peak {peak / 1e6:.1f} MB"
    np.testing.assert_array_equal(back.feature_ids, data.feature_ids)
    np.testing.assert_array_equal(back.act_indptr, data.act_indptr)


@pytest.mark.parametrize("make", [inject_anomalies, inject_activity_anomalies,
                                  lambda cfg: inject_dynamic_change(cfg, 2, 1)],
                         ids=["static", "activity", "dynamic"])
def test_graph_ids_are_int32_from_the_reader_and_the_generator(tmp_path, make):
    data, truth = make(InjectionConfig(n_nodes=60, block_in=0.2, block_out=0.05, seed=0))
    gio.write_dataset(tmp_path, data, truth)
    for source in (data, gio.read_dataset(tmp_path)):
        for graph in _graphs(source):
            indptr, indices = graph.neighbours
            rows, _ = _cross_index([graph.neighbours])
            assert indices.size and indptr.dtype == np.int64
            for ids in (*graph.edges, indices, *rows):
                assert ids.dtype == np.int32
