"""Execute compiled experiment plans on the parallel sweep runtime.

:func:`run_plan` is the single execution path behind every experiment
driver and the ``repro experiment`` CLI. It routes each
:class:`~repro.experiments.plan.SweepCell` through
:func:`repro.stats.replication.run_nrmse_sweep` (fresh draws) or
:func:`~repro.stats.replication.run_nrmse_sweep_from_samples`
(pre-drawn crawls) — and therefore through whatever executor the
ambient runtime configuration selects — and runs
:class:`~repro.experiments.plan.ComputeCell` steps in-process.

The schedule follows from the resolved executor; it is not a knob:

* **process executor** — the DAG scheduler
  (:mod:`repro.runtime.scheduler`): resources build concurrently ahead
  of the cell frontier, ready cells overlap on one persistent worker
  pool, and a resumed plan replays recorded fully-cached cells without
  rebuilding their substrates;
* **serial executor** — a plain in-order cell loop (in this module).
  Resources build lazily, when the first cell that reads them runs, so
  a serial run does no work ahead of its first sweep; there is no
  worker pool to overlap cells on, no shared memory to publish into,
  and no checkpoint (serial sweeps ignore checkpoint roots).

The process schedule adds the first two runtime services below; the
third holds for both schedules:

* **One shared-memory pool per plan run**
  (:func:`repro.runtime.sharedmem.shared_pool`): executors publish
  substrate arrays into the ambient pool, which deduplicates by object
  identity — so the Facebook world behind five Table 2 crawl cells, or
  a dataset stand-in behind three Fig. 4 design cells, crosses the
  process boundary exactly once for the whole plan.
* **Plan-keyed checkpoints**
  (:class:`repro.runtime.checkpoint.PlanCheckpoint`): with a checkpoint
  root configured, every sweep cell checkpoints into its own
  subdirectory of a directory keyed by the plan manifest. A killed
  ``repro experiment fig6 --workers W --resume`` therefore replays
  completed cells from their rung files and resumes computing at the
  first missing cell/rung — to the same bytes as an uninterrupted run.
* **Determinism by construction**: cells derive their RNG streams from
  the master seed by fixed integer keys (:func:`repro.rng.derive_rng`),
  and each sweep inherits the executor's bit-identical-for-any-worker-
  count contract, so a plan's finalized
  :class:`~repro.experiments.base.ExperimentResult` outputs are
  identical for serial, 1-worker, and N-worker runs alike.
"""

from __future__ import annotations

from repro.log import get_logger
from repro.runtime import sharedmem, telemetry
from repro.runtime.checkpoint import PlanCheckpoint
from repro.runtime.config import active_options, resolve_executor
from repro.runtime.executor import ProcessSweepExecutor

__all__ = ["run_cell", "run_plan"]

_LOG = get_logger(__name__)


def run_plan(plan):
    """Run every cell of ``plan`` and return its finalized results.

    Parameters
    ----------
    plan:
        A compiled :class:`~repro.experiments.plan.SweepPlan`. Its sweep
        cells run on the executor the ambient runtime configuration
        selects (:func:`repro.runtime.runtime_options`, then the
        ``REPRO_*`` environment), exactly like the per-sweep entry
        points; a configured checkpoint root gets a plan-keyed
        directory with one sweep-checkpoint subdirectory per cell.

    Returns
    -------
    dict[str, ExperimentResult]
        Whatever the plan's ``finalize`` assembles from the cell
        outputs.
    """
    from repro.experiments.plan import PlanResources

    ambient = active_options()
    checkpoint_root = ambient.checkpoint
    resume_flag = bool(ambient.resume)

    # Executor resolution is uniform across cells (jobs carry no
    # executor knobs), so probe it once with the arguments a sweep call
    # would receive. Plans with sweep cells bound for the process
    # executor get the DAG schedule, a plan checkpoint and an ambient
    # pool (named resources pre-published once, cells chain off it).
    # Serial and compute-only plans must skip opening (or clearing!) a
    # plan checkpoint, because their cells ignore checkpoint roots
    # entirely and a fresh-mode clear would destroy a prior parallel
    # run's files while writing nothing.
    probe = (
        resolve_executor(
            None,
            None,
            checkpoint_root,
            resume_flag if checkpoint_root is not None else None,
        )
        if plan.sweep_cells
        else None
    )
    resources = PlanResources(
        {
            name: _published_on_build(name, factory)
            for name, factory in plan.resources.items()
        }
    )
    if probe is None:
        outputs: dict[str, object] = {}
        with telemetry.span(
            "plan", cat="plan", plan=plan.name,
            scheduler="serial", cells=len(plan.cells),
        ):
            for cell in plan.cells:
                outputs[cell.key] = run_cell(cell, resources)
        return plan.finalize_outputs(outputs, resources)

    plan_checkpoint = (
        PlanCheckpoint(
            checkpoint_root,
            {
                "plan": plan.name,
                "cells": [cell.key for cell in plan.cells],
                # Compile context (scale preset, master seed, ...): keeps
                # e.g. small- and paper-scale runs of one experiment in
                # separate plan directories, so a fresh run of one can
                # never clear the other's checkpoints.
                "context": {str(k): repr(v) for k, v in plan.context.items()},
            },
            resume_flag,
        )
        if checkpoint_root is not None
        else None
    )
    from repro.runtime.scheduler import run_plan_dag

    outputs = run_plan_dag(
        plan,
        resources,
        workers=probe.workers,
        plan_checkpoint=plan_checkpoint,
        resume=resume_flag if plan_checkpoint is not None else False,
    )
    return plan.finalize_outputs(outputs, resources)


def _published_on_build(name, factory):
    """Publish a resource's arrays to the plan's ambient pool on build.

    Cell executors then resolve these arrays to already-published
    tokens (:class:`~repro.runtime.sharedmem.PoolChain`), while their
    cell-local arrays go through per-run pools that are unlinked when
    the cell finishes — the named resources are exactly the arrays
    worth pinning for the whole plan. Serial plans never publish: only
    the DAG schedule opens an ambient pool, and without one this
    wrapper is a pass-through (the resource object is returned
    unchanged either way).
    """

    def build():
        with telemetry.span("resource", cat="plan", resource=name):
            value = factory()
            pool = sharedmem.active_pool()
            if pool is not None:
                try:
                    sharedmem.dumps(value, pool)
                except Exception:
                    # Publication is purely an optimization; a resource
                    # the pickler cannot handle ships per cell instead.
                    pass
            return value

    return build


def run_cell(cell, resources, executor="serial", plan_checkpoint=None):
    """Run one cell and return its output.

    Compute cells run in-process. Sweep cells build their job and run
    it on ``executor`` — ``"serial"``, or the per-cell
    :class:`~repro.runtime.executor.ProcessSweepExecutor` the DAG
    schedule (:mod:`repro.runtime.scheduler`) passes. With a
    ``plan_checkpoint``, a finished sweep cell records its sweep
    manifest key there for substrate-free resume.
    """
    from repro.experiments.plan import SweepCell

    if not isinstance(cell, SweepCell):
        with telemetry.span("cell", cat="plan", key=cell.key, kind="compute"):
            return cell.compute(resources)
    from repro.stats.replication import (
        run_nrmse_sweep,
        run_nrmse_sweep_from_samples,
    )

    with telemetry.span("cell", cat="plan", key=cell.key, kind="sweep"):
        job = cell.build(resources)
        if job.mode == "fresh":
            result = run_nrmse_sweep(
                job.graph,
                job.partition,
                job.sampler,
                job.sizes,
                replications=job.replications,
                rng=job.rng,
                weight_size_plugin=job.weight_size_plugin,
                mean_degree_model=job.mean_degree_model,
                executor=executor,
            )
        else:
            result = run_nrmse_sweep_from_samples(
                job.graph,
                job.partition,
                job.samples,
                job.sizes,
                weight_size_plugin=job.weight_size_plugin,
                mean_degree_model=job.mean_degree_model,
                truth_mode=job.truth_mode,
                executor=executor,
            )
    if not isinstance(executor, ProcessSweepExecutor):
        return result
    if executor.failover_log:
        # Recovery events already reached the telemetry plane (and the
        # log) from inside the driver; this summary line keeps per-cell
        # attribution visible even with telemetry disabled.
        _LOG.warning(
            "cell %s recovered from %d worker failure(s)",
            cell.key, len(executor.failover_log),
        )
    if plan_checkpoint is not None and executor.last_checkpoint is not None:
        # Recorded only now — after every rung landed — so a recorded
        # key always names a complete, replayable sweep directory.
        plan_checkpoint.record_cell(cell.key, executor.last_checkpoint.key)
    return result
