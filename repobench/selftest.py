"""Self-test of the benchmark, at small scale.

Run from the root of a checkout (about four minutes on two cores)::

    python3 repobench/selftest.py

It checks that

* every workload prints, as its last line, a result with exactly the
  keys ``correct``/``attempted``/``failed``/``metrics``, every metric
  ``BENCHMARK.json`` names for the mode (``--trace 0``: end-to-end,
  ``--trace 1``: per-layer) with its unit, and passing checks;
* the traced ledger closes: the layer self times, ``repro.import_s``
  and a non-negative ``trace.remainder_s`` sum to ``trace.wall_s``;
* one perturbed estimate in an output (``--corrupt``) is reported as a
  failed iteration, never as correct;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the benchmark exits non-zero without printing a result.

Exit status 0 means every check held; each failure is printed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path.cwd()
SCRATCH = ROOT / ".bench_selftest"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "repobench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done.returncode, done.stdout.splitlines()


def check_result(lines: list[str], expected: list[dict], label: str) -> list[str]:
    if not lines:
        return [f"{label}: printed nothing"]
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: checks failed: {lines[-1][:300]}")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if list(metrics) != names:
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(names))} "
                        "differ from BENCHMARK.json")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{label}: {m['name']} printed as {got}")
    stamp = json.loads(lines[-2])["stamp"]
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "commit", "scale"):
        if key not in stamp:
            problems.append(f"{label}: stamp lacks {key}")
    return problems


def ledger_closes(lines: list[str], label: str) -> list[str]:
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    total = metrics["repro.import_s"] + metrics["trace.remainder_s"] + sum(
        metrics[key] for key in run.LEDGER_KEYS)
    designs = sum(metrics[f"sampling.sample_s.{d}"] for d in run.DESIGNS)
    problems = []
    if metrics["trace.remainder_s"] < 0:
        problems.append(f"{label}: negative remainder {metrics['trace.remainder_s']}")
    if abs(total - metrics["trace.wall_s"]) > 1e-6:
        problems.append(f"{label}: ledger sums to {total}, wall {metrics['trace.wall_s']}")
    if abs(designs - metrics["sampling.sample_s"]) > 1e-9:
        problems.append(f"{label}: per-design sampling does not sum")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in run.WORKLOADS:
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            status, lines = bench("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", trace,
                                  "--scale", "small")
            if status != 0:
                problems.append(f"{label}: exit status {status}")
                continue
            problems += check_result(lines, expected, label)
            if trace == "1":
                problems += ledger_closes(lines, label)
            print(f"ran {label}", flush=True)

    for workload in run.WORKLOADS:
        status, lines = bench("--workload", workload, "--seed", "3",
                              "--seconds", "1", "--trace", "0",
                              "--scale", "small", "--corrupt")
        result = json.loads(lines[-1]) if status == 0 and lines else None
        if result is None or result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: a corrupted output was not reported")
        print(f"ran {workload} --corrupt", flush=True)

    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir()
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, SCRATCH / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        status, lines = bench("--workload", "fig4-serial", "--seed", "3",
                              "--seconds", "1", "--trace", "0", cwd=SCRATCH)
        if status == 0 or lines:
            problems.append("without the sources the benchmark did not fail "
                            f"cleanly (status {status}, stdout {lines[-1:]})")
        print("ran without sources", flush=True)
    finally:
        shutil.rmtree(SCRATCH)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
