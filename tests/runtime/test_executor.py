"""Shard-count invariance and error handling of the process executor.

The determinism contract of :mod:`repro.runtime`: a sweep routed
through ``executor="process"`` is **bit-identical** to the serial
engine for any worker count, for every design family — batched frontier
kernels, the alias next-hop, the union-CSR multigraph walk, and the
sequential-fallback designs alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError, SamplingError
from repro.generators import gnm, planted_category_graph
from repro.runtime import ProcessSweepExecutor, runtime_options
from repro.sampling import (
    BreadthFirstSampler,
    ForestFireSampler,
    MultigraphRandomWalkSampler,
    RandomWalkSampler,
    StratifiedWeightedWalkSampler,
    UniformIndependenceSampler,
)
from repro.sampling.base import Sampler
from repro.stats import run_nrmse_sweep

from tests.oracles import reference_sweep

LADDER = (40, 120, 360)
REPLICATIONS = 6
SEED = 1234

DESIGNS = {
    "rw": lambda g, p, rel: RandomWalkSampler(g),
    "swrw-alias": lambda g, p, rel: StratifiedWeightedWalkSampler(
        g, p, next_hop="alias"
    ),
    "multigraph": lambda g, p, rel: MultigraphRandomWalkSampler([g, rel]),
    # no batch kernel: exercises the executor's sequential fallback
    "uis": lambda g, p, rel: UniformIndependenceSampler(g),
    # without-replacement traversal kernels (set-semantics frontier)
    "bfs": lambda g, p, rel: BreadthFirstSampler(g),
    "forest_fire": lambda g, p, rel: ForestFireSampler(g),
}


@pytest.fixture(scope="module")
def world():
    graph, partition = planted_category_graph(k=6, scale=60, rng=7)
    relation = gnm(graph.num_nodes, max(graph.num_edges // 3, 1), rng=11)
    return graph, partition, relation


@pytest.fixture(scope="module")
def serial_sweeps(world):
    graph, partition, relation = world
    return {
        name: run_nrmse_sweep(
            graph,
            partition,
            factory(graph, partition, relation),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor="serial",
        )
        for name, factory in DESIGNS.items()
    }


def assert_sweeps_equal(a, b, context=""):
    assert np.array_equal(a.sample_sizes, b.sample_sizes)
    for kind in ("induced", "star"):
        for attr in (
            "size_nrmse",
            "weight_nrmse",
            "size_coverage",
            "weight_coverage",
        ):
            assert np.array_equal(
                getattr(a, attr)[kind], getattr(b, attr)[kind], equal_nan=True
            ), f"{context}: {attr}[{kind}] diverged"


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_process_executor_bit_identical_for_any_worker_count(
    name, workers, world, serial_sweeps
):
    graph, partition, relation = world
    parallel = run_nrmse_sweep(
        graph,
        partition,
        DESIGNS[name](graph, partition, relation),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="process",
        workers=workers,
    )
    assert_sweeps_equal(
        serial_sweeps[name], parallel, f"{name} workers={workers}"
    )


def test_reference_engine_and_ladder_also_shard_exactly(world):
    """A sharded sweep equals the per-stream, re-subset reference oracle."""
    graph, partition, relation = world
    kwargs = dict(sample_sizes=LADDER, replications=REPLICATIONS, rng=SEED)
    reference = reference_sweep(
        graph, partition, RandomWalkSampler(graph), **kwargs
    )
    parallel = run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        executor="process",
        workers=3,
        **kwargs,
    )
    assert_sweeps_equal(reference, parallel, "sequential+subset")


def test_workers_beyond_replications_are_clamped(world, serial_sweeps):
    graph, partition, relation = world
    parallel = run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="process",
        workers=REPLICATIONS + 5,
    )
    assert_sweeps_equal(serial_sweeps["rw"], parallel, "over-sharded")


def test_runtime_options_route_sweeps_through_the_executor(
    world, serial_sweeps
):
    graph, partition, relation = world
    with runtime_options(executor="process", workers=2):
        ambient = run_nrmse_sweep(
            graph,
            partition,
            RandomWalkSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
        )
    assert_sweeps_equal(serial_sweeps["rw"], ambient, "ambient options")


def test_environment_routes_sweeps_through_the_executor(
    world, serial_sweeps, monkeypatch
):
    graph, partition, relation = world
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_WORKERS", "2")
    from_env = run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
    )
    assert_sweeps_equal(serial_sweeps["rw"], from_env, "env routing")


class _ExplodingSampler(Sampler):
    """Fallback-path sampler that fails inside the worker process."""

    @property
    def design(self) -> str:
        return "exploding"

    @property
    def uniform(self) -> bool:
        return True

    def sample(self, n, rng=None):
        raise SamplingError("boom inside the worker")


def test_worker_failures_surface_with_their_traceback(world):
    graph, partition, relation = world
    with pytest.raises(EstimationError, match="boom inside the worker"):
        run_nrmse_sweep(
            graph,
            partition,
            _ExplodingSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor="process",
            workers=2,
        )


def test_invalid_executor_arguments_rejected(world):
    graph, partition, relation = world
    with pytest.raises(EstimationError, match="unknown executor"):
        run_nrmse_sweep(
            graph,
            partition,
            RandomWalkSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor="threads",
        )
    with pytest.raises(EstimationError, match="workers must be >= 1"):
        ProcessSweepExecutor(workers=0)


def test_executor_instance_rejects_conflicting_knobs(world):
    graph, partition, relation = world
    with pytest.raises(EstimationError, match="not both"):
        run_nrmse_sweep(
            graph,
            partition,
            RandomWalkSampler(graph),
            LADDER,
            replications=REPLICATIONS,
            rng=SEED,
            executor=ProcessSweepExecutor(workers=2),
            workers=4,
        )


def test_inner_scope_can_switch_resume_off(monkeypatch):
    from repro.runtime import active_options

    monkeypatch.setenv("REPRO_RESUME", "1")
    assert active_options().resume is True
    with runtime_options(resume=False):
        assert active_options().resume is False
    assert active_options().resume is True


def test_cli_resume_requires_checkpoint(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["run", "fig3a", "--resume"])
    assert "--resume requires --checkpoint" in capsys.readouterr().err


def test_bare_process_knobs_imply_the_process_executor(world, serial_sweeps):
    """workers=/checkpoint= without executor= must not silently run serial."""
    graph, partition, relation = world
    parallel = run_nrmse_sweep(
        graph,
        partition,
        RandomWalkSampler(graph),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        workers=2,
    )
    assert_sweeps_equal(serial_sweeps["rw"], parallel, "implied process")


def test_malformed_workers_env_names_the_variable(monkeypatch):
    from repro.runtime.config import active_options

    monkeypatch.setenv("REPRO_WORKERS", "two")
    with pytest.raises(EstimationError, match="REPRO_WORKERS"):
        active_options()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_non_positive_workers_env_rejected(monkeypatch, value):
    """REPRO_WORKERS=0/-2 must raise, not be silently accepted."""
    from repro.runtime.config import active_options

    monkeypatch.setenv("REPRO_WORKERS", value)
    with pytest.raises(EstimationError, match="REPRO_WORKERS must be >= 1"):
        active_options()
