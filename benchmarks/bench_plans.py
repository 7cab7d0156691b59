"""Bench: plan-level wall clock — DAG scheduler vs the serial run.

Times whole experiment *plans* (the grids behind Figs. 4/6) end to end
under the two execution modes ``run_plan`` has:

* ``serial`` — the in-process serial executor, cells in plan order;
* ``dag@process-wN`` — the process executor on the DAG scheduler:
  resources build concurrently ahead of the cell frontier and
  independent cells overlap on the one persistent worker pool.

Both modes must produce byte-identical results (always asserted — this
is the determinism contract at the plan grain); the wall-clock rows are
written to ``BENCH_plans.json`` at the repo root under a per-scale key,
like ``BENCH_walks.json``, so ``REPRO_SCALE=paper`` runs extend the
same trajectory file. Each record self-describes its worker count, the
scheduler's in-flight bound, and the runner's core count.

Timing assertions arm only where parallel hardware exists: on >=2-core
runners at medium+ scale the DAG schedule must not lose to the serial
run. Single-core runners record honest rows — the scheduler cannot
manufacture cores — and skip the bar.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.experiments import run_experiment
from repro.runtime import runtime_options
from repro.runtime.pool import reset_default_pools
from repro.runtime.scheduler import DEFAULT_INFLIGHT

#: Plans benched: the two experiments whose grids have real DAG width
#: (fig4: four dataset resources x three designs; fig6: five pre-drawn
#: crawl cells over one shared world).
EXPERIMENTS = ("fig4", "fig6")
WORKERS = 2

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_plans.json"


def _results_equal(a, b) -> bool:
    if list(a) != list(b):
        return False
    for rid in a:
        if list(a[rid].series) != list(b[rid].series):
            return False
        for label, (xs, ys) in a[rid].series.items():
            bx, by = b[rid].series[label]
            if not np.array_equal(np.asarray(xs), np.asarray(bx), equal_nan=True):
                return False
            if not np.array_equal(np.asarray(ys), np.asarray(by), equal_nan=True):
                return False
        if a[rid].table != b[rid].table:
            return False
    return True


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _merge_record(scale_name: str, record: dict) -> dict:
    scales: dict = {}
    if _JSON_PATH.exists():
        try:
            existing = json.loads(_JSON_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
        scales = existing.get("scales", {})
    scales[scale_name] = record
    return {
        "description": (
            "plan-level wall clock: DAG scheduler on the process "
            "executor vs the serial run (byte-identical outputs asserted "
            "for every row)"
        ),
        "scales": scales,
    }


def test_plan_scheduler_wall_clock(preset, timing_asserts):
    cores = os.cpu_count() or 1
    record = {
        "workload": {
            "experiments": list(EXPERIMENTS),
            "scale": preset.name,
            "workers": WORKERS,
            "cpu_cores": cores,
            "inflight": DEFAULT_INFLIGHT,
        },
        "plans": {},
    }
    print()
    for experiment in EXPERIMENTS:
        serial_time, serial = _timed(
            lambda: run_experiment(experiment, rng=0, preset=preset)
        )

        def dag_run():
            with runtime_options(executor="process", workers=WORKERS):
                return run_experiment(experiment, rng=0, preset=preset)

        # Fresh workers, so the timed row pays the pool spawn a new
        # ``repro experiment --workers N`` process pays.
        reset_default_pools()
        dag_time, dag = _timed(dag_run)

        assert _results_equal(serial, dag), (
            f"{experiment}: DAG output diverged from serial"
        )

        # One extra untimed instrumented DAG run: the per-phase
        # breakdown plus peak-RSS / shared-memory gauges, kept out of
        # the timed rows so recording can never skew wall clock.
        from benchmarks.bench_walks import _telemetry_breakdown

        record["plans"][experiment] = {
            "serial_seconds": round(serial_time, 4),
            f"dag@process-w{WORKERS}_seconds": round(dag_time, 4),
            "dag_speedup_vs_serial": round(serial_time / dag_time, 2),
            "telemetry": _telemetry_breakdown(dag_run),
        }
        print(
            f"  {experiment:>6}: serial {serial_time:6.3f}s  "
            f"dag x{WORKERS} {dag_time:6.3f}s  "
            f"({serial_time / dag_time:.2f}x dag vs serial)"
        )

    _JSON_PATH.write_text(
        json.dumps(_merge_record(preset.name, record), indent=2) + "\n"
    )
    print(f"  -> {_JSON_PATH.name} written ({preset.name} scale)")

    if timing_asserts and cores >= 2 and preset.name != "small":
        for experiment, row in record["plans"].items():
            assert row["dag_speedup_vs_serial"] >= 1.0, (experiment, row)
