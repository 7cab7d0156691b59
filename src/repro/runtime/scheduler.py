"""Dependency-aware DAG execution of compiled experiment plans.

A compiled :class:`~repro.experiments.plan.SweepPlan` is a dependency
graph, not a list: resource builds feed the cells that declared them
(``needs=``), cells feed the finalize step, and nothing else orders
them — every cell derives its RNG streams by fixed integer keys, so
cell *order* can never touch an output. :func:`repro.runtime.run_plan`
runs every plan bound for the process executor here (serial plans take
its in-order loop, which has no workers to overlap); both drive each
cell through :func:`~repro.runtime.plan.run_cell`. This module closes
the scheduling slack a cell-at-a-time loop leaves on a worker pool:

* **One persistent worker pool for the whole plan**
  (:mod:`repro.runtime.pool`): workers spawn once, before the first
  cell, and serve every cell's shard tasks. No per-cell spin-up, and —
  because a pool worker runs its tasks in separate threads — cell
  ``k+1``'s sampling phase overlaps cell ``k``'s ladder drain on the
  same workers.
* **Resources build ahead of the cell frontier**: every resource some
  pending cell (or the finalize step) declared starts building
  immediately, concurrently — fig4's four dataset stand-ins no longer
  build serially in the parent before any sweep starts.
* **Ready cells overlap**: up to :data:`DEFAULT_INFLIGHT` cells (two
  — enough to hide phase transitions without multiplying peak memory)
  run concurrently, each driven by its own parent thread through the
  shared pool.
* **Substrate-free resume**: a resumed plan first replays every cell
  whose sweep manifest key was recorded in the plan checkpoint
  (:meth:`~repro.runtime.checkpoint.PlanCheckpoint.record_cell`) and
  whose rung files are complete — via
  :func:`~repro.runtime.executor.replay_sweep`, touching neither the
  cell's ``build`` nor the resources only it needed. At paper scale
  that is a world rebuild saved per resume.

Determinism is inherited, not re-proven: rows are keyed by
(cell, absolute replicate), each cell's reduction is the serial code
path, and no floating-point value ever depends on which worker or in
what order anything ran — so DAG output is **bit-identical** to the
serial run for any worker count and any interleaving
(``tests/runtime/test_scheduler.py`` pins fig4 and fig6 at 1/2/3
workers, plus mid-plan kill/resume).
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro.exceptions import EstimationError
from repro.log import get_logger
from repro.runtime import faults, sharedmem, telemetry
from repro.runtime.executor import ProcessSweepExecutor, replay_sweep
from repro.runtime.plan import run_cell
from repro.runtime.pool import default_pool

__all__ = ["run_plan_dag"]

_LOG = get_logger(__name__)

#: Default bound on concurrently running cells. Two is the sweet spot
#: for pipelining: the next cell samples while the previous drains its
#: ladder, without holding many substrates in memory at once.
DEFAULT_INFLIGHT = 2


def run_plan_dag(plan, resources, *, workers, plan_checkpoint, resume):
    """Execute ``plan``'s cells as a DAG on the persistent worker pool.

    Parameters
    ----------
    plan / resources:
        The compiled plan and its (thread-safe) resource view, exactly
        as ``run_plan`` assembled them — including the publish-on-build
        wrapping that feeds the ambient shared-memory pool.
    workers:
        Resolved worker count for the sweep executor (the caller has
        already merged explicit, ambient, and default layers).
    plan_checkpoint / resume:
        The open :class:`~repro.runtime.checkpoint.PlanCheckpoint` (or
        ``None``) and whether this run resumes it.

    Returns
    -------
    dict
        Cell outputs keyed by cell key, in plan order — the caller
        applies ``finalize``.
    """
    # The whole plan run is one fault-injection scope: a CI chaos job
    # exporting REPRO_FAULTS exercises pool growth, every cell's drive
    # loop, and every checkpoint write — while unit tests touching the
    # checkpoint layer directly stay undisturbed.
    with faults.env_scope(), telemetry.span(
        "plan", cat="plan", plan=plan.name,
        scheduler="dag", cells=len(plan.cells), workers=int(workers),
    ):
        return _run_plan_dag(
            plan,
            resources,
            workers=workers,
            plan_checkpoint=plan_checkpoint,
            resume=resume,
        )


def _run_plan_dag(plan, resources, *, workers, plan_checkpoint, resume):
    from repro.experiments.plan import SweepCell

    inflight = DEFAULT_INFLIGHT
    outputs: dict[str, object] = {}

    # Phase 0 — substrate-free replay of recorded, fully-cached cells.
    if plan_checkpoint is not None and resume:
        recorded = plan_checkpoint.recorded_cells()
        for cell in plan.sweep_cells:
            sweep_key = recorded.get(cell.key)
            if sweep_key is None:
                continue
            result = replay_sweep(
                plan_checkpoint.cell_root(cell.key), sweep_key
            )
            if result is not None:
                outputs[cell.key] = result
                _LOG.debug("cell %s replayed from checkpoint", cell.key)
                telemetry.counter("plan.cells_replayed", 1)
                telemetry.instant(
                    "cell.replay", cat="plan", key=cell.key
                )

    pending = [cell for cell in plan.cells if cell.key not in outputs]
    sweeps_pending = any(isinstance(cell, SweepCell) for cell in pending)

    # Only resources someone still needs get built: the declared needs
    # of the cells that were not replayed, plus whatever finalize
    # declared. (Undeclared access remains correct — PlanResources
    # builds lazily under its own lock — it just cannot be prefetched.)
    demanded = sorted(
        {name for cell in pending for name in cell.needs}
        | set(plan.finalize_needs)
    )

    pool = None
    if sweeps_pending:
        pool = default_pool()
        # Grow the pool before any driver thread exists: forking with
        # the plan's threads already running is where fork-vs-threads
        # hazards live, so we don't. A pool that cannot grow is not
        # fatal — each cell's executor degrades on its own (fewer
        # workers, ultimately in-process serial) with identical output.
        try:
            pool.ensure(max(int(workers), 1))
        except (EstimationError, OSError) as error:
            message = (
                f"plan scheduler could not grow the worker pool ({error}); "
                "cells will degrade to whatever workers can be leased"
            )
            _LOG.warning(message)
            telemetry.instant("degrade", cat="failover", message=message)
            warnings.warn(message, RuntimeWarning, stacklevel=2)

    # Sized so every resource prefetch and every in-flight cell gets a
    # thread at once — a cell must never wait behind the very resource
    # build it is blocked on.
    max_threads = max(len(demanded) + min(inflight, max(len(pending), 1)), 1)
    ambient = sharedmem.shared_pool() if sweeps_pending else None
    ambient_pool = None
    try:
        if ambient is not None:
            ambient_pool = ambient.__enter__()
        with ThreadPoolExecutor(
            max_workers=max_threads, thread_name_prefix="repro-plan"
        ) as threads:
            resource_futures = {
                name: threads.submit(resources.__getitem__, name)
                for name in demanded
            }

            def ready(cell) -> bool:
                for name in cell.needs:
                    future = resource_futures.get(name)
                    if future is None:
                        continue
                    if not future.done():
                        return False
                    future.result()  # re-raise a failed resource build
                return True

            waiting = list(pending)
            running: dict = {}
            try:
                while waiting or running:
                    for cell in list(waiting):
                        if len(running) >= inflight:
                            break
                        if ready(cell):
                            waiting.remove(cell)
                            # A fresh executor instance per cell: the
                            # instance form is what carries a per-cell
                            # checkpoint root, while the resolved worker
                            # count stays uniform across the plan.
                            executor = ProcessSweepExecutor(
                                workers=workers,
                                checkpoint=(
                                    plan_checkpoint.cell_root(cell.key)
                                    if plan_checkpoint is not None
                                    else None
                                ),
                                resume=bool(resume),
                                label=cell.label,
                            )
                            running[
                                threads.submit(
                                    run_cell,
                                    cell,
                                    resources,
                                    executor,
                                    plan_checkpoint,
                                )
                            ] = cell
                    blockers = list(running) + [
                        future
                        for future in resource_futures.values()
                        if not future.done()
                    ]
                    if not blockers:
                        continue  # frontier advanced purely by ready()
                    done, _ = wait(blockers, return_when=FIRST_COMPLETED)
                    for future in done:
                        cell = running.pop(future, None)
                        if cell is not None:
                            outputs[cell.key] = future.result()
                        else:
                            future.result()
            except BaseException:
                # First failure wins; in-flight cells run to completion
                # (their checkpoints stay valid for --resume), queued
                # work is dropped.
                for future in running:
                    future.cancel()
                for future in resource_futures.values():
                    future.cancel()
                raise
    finally:
        if ambient is not None:
            # Every cell's tasks are closed by now: retire the plan's
            # resource blocks from the persistent workers before the
            # parent unlinks them, or each worker would pin one dead
            # copy of the plan substrate per plan run.
            if pool is not None and ambient_pool is not None:
                pool.retire_all(ambient_pool.block_names)
            ambient.__exit__(None, None, None)

    return {cell.key: outputs[cell.key] for cell in plan.cells}
