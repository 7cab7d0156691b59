"""Reference sweeps the production sweep path is compared against.

The sweep runs one fast path per layer: batched frontier kernels
(:meth:`~repro.sampling.base.Sampler.sample_many`) and the incremental
prefix ladder (:class:`~repro.stats.prefix.IncrementalPrefixLadder`).
The oracle here rebuilds the same sweep from the plain pieces:

* one :meth:`~repro.sampling.base.Sampler.sample` call per spawned
  replicate stream;
* ``observe_star``/``observe_induced`` on each full sample, then
  ``subset_draws(np.arange(size))`` at every rung;
* the public :mod:`repro.core` estimators on those observations;
* the sweep's own plug-in resolution and reduction
  (``replication._rung_rows`` / ``replication._reduce_stacks``).

The fast path must match it bit for bit.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.core.category_size import estimate_sizes_induced, estimate_sizes_star
from repro.core.edge_weight import estimate_weights_induced, estimate_weights_star
from repro.graph.category_graph import true_category_graph
from repro.rng import ensure_rng, spawn_rngs
from repro.sampling.observation import observe_induced, observe_star
from repro.stats.prefix import RungEstimates
from repro.stats.replication import KINDS, _reduce_stacks, _rung_rows


def reference_samples(sampler, n, replications, rng):
    """Replicate samples drawn one spawned stream at a time."""
    streams = spawn_rngs(ensure_rng(rng), replications)
    return [sampler.sample(n, rng=stream) for stream in streams]


def reference_sweep(
    graph,
    partition,
    sampler,
    sample_sizes,
    replications,
    rng,
    weight_size_plugin="star",
    mean_degree_model="per-category",
):
    """The reference twin of ``run_nrmse_sweep``."""
    sizes = sorted(set(int(s) for s in sample_sizes))
    samples = reference_samples(sampler, sizes[-1], replications, rng)
    return reference_sweep_from_samples(
        graph,
        partition,
        samples,
        sizes,
        weight_size_plugin=weight_size_plugin,
        mean_degree_model=mean_degree_model,
    )


def reference_sweep_from_samples(
    graph,
    partition,
    samples,
    sample_sizes,
    weight_size_plugin="star",
    mean_degree_model="per-category",
    truth_mode="exact",
):
    """The reference twin of ``run_nrmse_sweep_from_samples``."""
    sizes = np.asarray(sorted(set(int(s) for s in sample_sizes)), dtype=np.int64)
    truth = true_category_graph(graph, partition)
    n_pop = graph.num_nodes
    r, k, c = len(samples), len(sizes), partition.num_categories
    size_stacks = {kind: np.full((r, k, c), np.nan) for kind in KINDS}
    weight_stacks = {kind: np.full((r, k, c, c), np.nan) for kind in KINDS}
    for rep, sample in enumerate(samples):
        star_full = observe_star(graph, partition, sample)
        induced_full = observe_induced(graph, partition, sample)
        for si, size in enumerate(sizes):
            prefix = np.arange(int(size))
            star_obs = star_full.subset_draws(prefix)
            induced_obs = induced_full.subset_draws(prefix)
            rung = RungEstimates(
                sizes_induced=estimate_sizes_induced(induced_obs, n_pop),
                sizes_star=estimate_sizes_star(
                    star_obs, n_pop, mean_degree_model=mean_degree_model
                ),
                weights_induced=estimate_weights_induced(induced_obs),
                weights_star=partial(estimate_weights_star, star_obs),
            )
            rows = _rung_rows(rung, weight_size_plugin, truth.sizes)
            size_stacks["induced"][rep, si] = rows[0]
            size_stacks["star"][rep, si] = rows[1]
            weight_stacks["induced"][rep, si] = rows[2]
            weight_stacks["star"][rep, si] = rows[3]
    return _reduce_stacks(sizes, size_stacks, weight_stacks, truth, truth_mode)
