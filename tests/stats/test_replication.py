"""Tests for the NRMSE sweep engine and percentile edges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.generators import planted_category_graph
from repro.graph import true_category_graph
from repro.runtime import ProcessSweepExecutor
from repro.sampling import (
    NodeSample,
    RandomWalkSampler,
    Sampler,
    UniformIndependenceSampler,
)
from repro.stats import (
    percentile_edge,
    positive_weight_pairs,
    run_nrmse_sweep,
    run_nrmse_sweep_from_samples,
)


@pytest.fixture(scope="module")
def model():
    graph, partition = planted_category_graph(k=8, scale=60, rng=0)
    return graph, partition


class TestPercentileEdges:
    def test_low_below_high(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        lo = percentile_edge(truth, 25)
        hi = percentile_edge(truth, 75)
        assert truth.weights[lo] <= truth.weights[hi]

    def test_extremes(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        pairs = positive_weight_pairs(truth)
        weights = truth.weights[pairs[:, 0], pairs[:, 1]]
        assert truth.weights[percentile_edge(truth, 0)] == weights.min()
        assert truth.weights[percentile_edge(truth, 100)] == weights.max()

    def test_invalid_percentile(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        with pytest.raises(EstimationError):
            percentile_edge(truth, 150)

    def test_positive_pairs_all_positive(self, model):
        graph, partition = model
        truth = true_category_graph(graph, partition)
        pairs = positive_weight_pairs(truth)
        assert np.all(truth.weights[pairs[:, 0], pairs[:, 1]] > 0)


class TestSweep:
    def test_nrmse_decreases_with_sample_size(self, model):
        graph, partition = model
        sweep = run_nrmse_sweep(
            graph,
            partition,
            lambda: UniformIndependenceSampler(graph),
            (200, 2000, 20_000),
            replications=6,
            rng=0,
        )
        largest = int(np.argmax(sweep.truth.sizes))
        for kind in ("induced", "star"):
            curve = sweep.size_nrmse[kind][:, largest]
            assert curve[-1] < curve[0]

    def test_shapes(self, model):
        graph, partition = model
        sweep = run_nrmse_sweep(
            graph,
            partition,
            lambda: UniformIndependenceSampler(graph),
            (100, 500),
            replications=3,
            rng=1,
        )
        c = partition.num_categories
        assert sweep.size_nrmse["star"].shape == (2, c)
        assert sweep.weight_nrmse["induced"].shape == (2, c, c)
        assert sweep.size_coverage["induced"].shape == (2, c)

    def test_medians(self, model):
        graph, partition = model
        sweep = run_nrmse_sweep(
            graph,
            partition,
            lambda: UniformIndependenceSampler(graph),
            (500,),
            replications=3,
            rng=2,
        )
        med = sweep.median_size_nrmse("star")
        assert med.shape == (1,)
        assert np.isfinite(med[0])
        med_w = sweep.median_weight_nrmse("induced")
        assert med_w.shape == (1,)

    def test_from_walk_samples(self, model):
        graph, partition = model
        walks = [
            RandomWalkSampler(graph).sample(2000, rng=seed) for seed in range(4)
        ]
        sweep = run_nrmse_sweep_from_samples(
            graph, partition, walks, (200, 2000)
        )
        assert np.all(np.isfinite(sweep.median_size_nrmse("induced")))

    def test_short_samples_rejected(self, model):
        graph, partition = model
        walks = [RandomWalkSampler(graph).sample(100, rng=0)]
        with pytest.raises(EstimationError, match="at least"):
            run_nrmse_sweep_from_samples(graph, partition, walks, (200,))

    def test_empty_samples_rejected(self, model):
        graph, partition = model
        with pytest.raises(EstimationError):
            run_nrmse_sweep_from_samples(graph, partition, [], (100,))

    def test_bad_plugin_rejected(self, model):
        graph, partition = model
        walks = [UniformIndependenceSampler(graph).sample(200, rng=0)]
        with pytest.raises(EstimationError, match="plugin"):
            run_nrmse_sweep_from_samples(
                graph, partition, walks, (100,), weight_size_plugin="banana"
            )

    def test_true_plugin_beats_estimated(self, model):
        """Oracle sizes in Eq. (9) should not do worse than estimated."""
        graph, partition = model
        walks = [
            UniformIndependenceSampler(graph).sample(3000, rng=seed)
            for seed in range(6)
        ]
        with_truth = run_nrmse_sweep_from_samples(
            graph, partition, walks, (3000,), weight_size_plugin="true"
        )
        with_star = run_nrmse_sweep_from_samples(
            graph, partition, walks, (3000,), weight_size_plugin="star"
        )
        med_truth = with_truth.median_weight_nrmse("star")[0]
        med_star = with_star.median_weight_nrmse("star")[0]
        assert med_truth <= med_star * 1.35  # allow noise, forbid blowup

    def test_bad_sizes_rejected(self, model):
        graph, partition = model
        with pytest.raises(EstimationError):
            run_nrmse_sweep(
                graph,
                partition,
                lambda: UniformIndependenceSampler(graph),
                (),
                replications=2,
            )


BAD_ARGUMENTS = {
    "replications": {"replications": 0},
    "plugin": {"weight_size_plugin": "banana"},
    "mean-degree": {"mean_degree_model": "banana"},
}


@pytest.mark.parametrize("bad", sorted(BAD_ARGUMENTS))
def test_bad_sweep_arguments_raise_before_any_draw(model, monkeypatch, bad):
    """Both executors reject the same bad arguments with the same error
    class, and neither draws a sample first."""
    graph, partition = model
    draws = []
    monkeypatch.setattr(
        Sampler, "sample_many", lambda *args, **kwargs: draws.append(args)
    )
    sampler = RandomWalkSampler(graph)
    arguments = {"replications": 2, **BAD_ARGUMENTS[bad]}
    for executor in ("serial", ProcessSweepExecutor(workers=1)):
        with pytest.raises(EstimationError):
            run_nrmse_sweep(
                graph, partition, sampler, (100,), rng=0,
                executor=executor, **arguments,
            )
    with pytest.raises(EstimationError):
        ProcessSweepExecutor(workers=1).run(
            graph, partition, sampler, np.array([100]), rng=0, **arguments
        )
    assert draws == []


@pytest.mark.parametrize(
    "bad",
    [
        {"samples": []},
        {"weight_size_plugin": "banana"},
        {"mean_degree_model": "banana"},
        {"truth_mode": "banana"},
    ],
    ids=["empty", "plugin", "mean-degree", "truth-mode"],
)
def test_bad_predrawn_sweep_arguments_raise_on_both_executors(model, bad):
    graph, partition = model
    walks = [UniformIndependenceSampler(graph).sample(200, rng=0)]
    arguments = {"samples": walks, **bad}
    for executor in ("serial", ProcessSweepExecutor(workers=1)):
        with pytest.raises(EstimationError):
            run_nrmse_sweep_from_samples(
                graph, partition, sample_sizes=(100,),
                executor=executor, **arguments,
            )
    with pytest.raises(EstimationError):
        ProcessSweepExecutor(workers=1).run_from_samples(
            graph, partition, sizes=np.array([100]), **arguments
        )


def test_serial_sweep_holds_at_most_one_ladder(model, monkeypatch):
    """The serial loop frees each replicate's ladder before the next.

    Holding every replicate's ladder at once multiplies the sweep's
    peak memory by R; the serial path must keep one alive at a time.
    """
    import weakref

    from repro.stats.prefix import IncrementalPrefixLadder

    live = weakref.WeakSet()
    peaks = []
    original = IncrementalPrefixLadder.__init__

    def tracking_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        live.add(self)
        peaks.append(len(live))

    monkeypatch.setattr(IncrementalPrefixLadder, "__init__", tracking_init)
    graph, partition = model
    run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        [50, 100],
        replications=5,
        rng=1,
        executor="serial",
    )
    assert peaks == [1] * 5
