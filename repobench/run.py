"""The repository benchmark: one named workload, checked and measured.

Run from the root of a checkout::

    python3 repobench/run.py --workload fig4-serial --seed 7 --seconds 12 --trace 0

Every iteration runs the program in a fresh interpreter
(``launch.py``) through its public entry points only: the ``repro``
CLI, or ``repro.stats.run_nrmse_sweep`` for ``sweep-ladder``. The
workload seed is the program's master seed, so the substrate and every
sample are generated from it; all iterations of one run use it, except
on ``fig4-serial``, whose iterations take turns over four master seeds
derived from it (``4 * seed + j``), so that its accuracy metrics
average over four substrates. Load comes from this one process, one
iteration at a time, with at most two pool workers.

Before timing, the run computes, for each of its seeds, a reference
output of the same code along the other execution path (serial vs two
workers), which the determinism contract says must be identical. Every iteration is
checked against it and against seed-independent accuracy rules
(``checks.py``). A failed check counts in ``failed``; it does not stop
the run.

With ``--trace 0`` the run prints the end-to-end metrics, medians over
its iterations. With ``--trace 1`` traced iterations alternate with
untraced ones, and the run prints the per-layer ledger of the traced
iteration with the median wall clock. The last line of standard output
is the result object; the line before it stamps the machine and the
sources measured.

``--scale`` and ``--corrupt`` serve ``selftest.py``: the first runs a
workload at another scale preset, the second perturbs one estimate of
the first iteration's output so that its check must fail.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
LAUNCH = HERE / "launch.py"
#: A whole run, set-up included, ends within this many seconds: a child
#: still running at the deadline is killed and its iteration fails.
RUN_BUDGET_S = 160.0
#: Iterations per run, at least; more while ``--seconds`` lasts.
MIN_ITERATIONS = 3
WORKERS = 2
#: Replicates of each ``sweep-ladder`` sweep.
SWEEP_REPLICATIONS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str | None  # CLI experiment id; None = sweep-ladder
    scale: str
    parallel: bool  # --workers 2 on memmap storage with a checkpoint
    resume: bool  # resume a checkpoint prepared before timing
    substrates: int = 1  # master seeds the iterations take turns over


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig4-serial", "fig4", "small", parallel=False, resume=False,
                 substrates=4),
        Workload("sweep-ladder", None, "medium", parallel=False, resume=False),
        Workload("fig6-parallel", "fig6", "medium", parallel=True, resume=False),
        Workload("fig6-resume", "fig6", "medium", parallel=True, resume=True),
    )
}

#: End-to-end metrics and their units.
END_TO_END = {"wall_s": "s", "setup_s": "s", "draws_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MB", "disk_mb": "MB",
              "size_nrmse": "ratio", "weight_nrmse": "ratio",
              "pass_frac": "ratio"}

#: Per-layer metrics and their units, in the order they are printed.
#: The ``_s`` ledger entries, ``repro.import_s`` and
#: ``trace.remainder_s`` sum to ``trace.wall_s``; ``sampling.sample_s``
#: is the sum of its per-design entries.
LEDGER_KEYS = (
    "experiments.compile_s", "experiments.finalize_s", "generators.build_s",
    "datasets.load_s", "community.detect_s", "facebook.world_s",
    "facebook.crawl_s", "graph.truth_s", "sampling.sample_s",
    "observation.observe_s", "prefix.init_s", "prefix.estimates_s",
    "stats.reduce_s", "stats.sweep_s", "runtime.plan_s",
)
DESIGNS = ("uis", "rw", "mhrw", "swrw", "other")
PER_LAYER = {
    "repro.import_s": "s",
    **{key: "s" for key in LEDGER_KEYS},
    **{f"sampling.sample_s.{d}": "s" for d in DESIGNS},
    "sampling.draws": "count", "sampling.draws_per_s": "1/s",
    "observation.calls": "count", "prefix.rungs": "count",
    "graph.planes_built": "count", "graph.planes_hit": "count",
    "graph.planes_mb": "MB",
    "runtime.spawn_s": "s", "runtime.dispatch_s": "s",
    "runtime.worker_busy_s": "s", "runtime.worker_util": "ratio",
    "runtime.worker.observe_s": "s", "runtime.worker.rung_s": "s",
    "runtime.shm_mb": "MB", "runtime.ckpt_saves": "count",
    "runtime.ckpt_save_s": "s", "runtime.ckpt_mb": "MB",
    "runtime.ckpt_rungs_loaded": "count", "runtime.cells_replayed": "count",
    "accuracy.size_star_median": "ratio",
    "accuracy.weight_star_median": "ratio",
    "trace.wall_s": "s", "trace.remainder_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Iteration:
    traced: bool
    seed: int
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    disk_mb: float = 0.0
    draws: int = 0
    size_nrmse: float = 0.0
    weight_nrmse: float = 0.0
    size_star_median: float = 0.0
    weight_star_median: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)


class Runner:
    """Runs one workload; work files go to ``.bench_work`` in the checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int, scale: str):
        self.root = root
        self.workload = workload
        k = workload.substrates
        self.seeds = [k * seed + j for j in range(k)]
        self.scale = scale
        self.work = root / ".bench_work"
        self.references: dict[int, Path] = {}
        self.deadline = time.monotonic() + RUN_BUDGET_S

    @property
    def library(self) -> bool:
        return self.workload.experiment is None

    def env(self, storage: Path | None = None, planes: Path | None = None) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.work / "tmp")
        if storage is not None:
            env["REPRO_GRAPH_STORAGE"] = "memmap"
            env["REPRO_STORAGE_DIR"] = str(storage)
            env["REPRO_PLANE_CACHE"] = str(planes)
        return env

    def launch(self, spec: dict, env: dict, directory: Path):
        """Run ``launch.py`` on ``spec`` in a new session.

        Returns ``(exit code, start, wall seconds, rusage, report)``;
        the rusage covers the child and every pool worker it reaped.
        """
        directory.mkdir(parents=True, exist_ok=True)
        spec = {**spec, "report": str(directory / "report.json")}
        spec_path = directory / "spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(directory / "stdout.txt", "wb") as out, open(
            directory / "stderr.txt", "wb"
        ) as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(spec_path)],
                cwd=self.root, env=env, stdout=out, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(max(self.deadline - started, 0.0),
                                    _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.monotonic() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # strays of a crashed child, if any
        _reap_orphans()
        report = None
        if proc.returncode == 0:
            report = json.loads((directory / "report.json").read_text())
        return proc.returncode, started, wall, usage, report

    def spec(self, out: Path, seed: int, *, workers: bool,
             checkpoint: Path | None = None, resume: bool = False,
             metrics: Path | None = None, trace: bool = False) -> dict:
        common = {"scale": self.scale, "trace": trace,
                  "metrics": str(metrics) if metrics else None}
        if self.library:
            return {**common, "mode": "sweep", "seed": seed,
                    "replications": SWEEP_REPLICATIONS, "out": str(out),
                    "executor": "process" if workers else "serial",
                    "workers": WORKERS if workers else None}
        argv = ["experiment" if workers else "run", self.workload.experiment,
                "--scale", self.scale, "--seed", str(seed),
                "--out", str(out)]
        if workers:
            argv += ["--workers", str(WORKERS)]
        if checkpoint is not None:
            argv += ["--checkpoint", str(checkpoint)]
        if resume:
            argv.append("--resume")
        if metrics is not None:
            argv += ["--metrics", str(metrics)]
        return {**common, "mode": "cli", "argv": argv}

    def home(self, seed: int) -> Path:
        """Where the reference and resume state of ``seed`` live."""
        return self.work / f"seed{seed}"

    def prepare(self) -> list[str]:
        """Untimed set-up: per seed, the reference output and the resume
        state."""
        if self.work.exists():
            shutil.rmtree(self.work)
        (self.work / "tmp").mkdir(parents=True)
        problems = []
        w = self.workload
        for seed in self.seeds:
            home = self.home(seed)
            if w.resume:
                # A full checkpoint and a warm plane cache to resume from.
                run = home / "prepared"
                status, *_ = self.launch(
                    self.spec(run / "out", seed, workers=True,
                              checkpoint=home / "checkpoint"),
                    self.env(run / "storage", home / "planes"),
                    run,
                )
                if status != 0:
                    problems.append(
                        f"preparing the checkpoint of seed {seed} failed ({status})")
                shutil.rmtree(run)
            ref = home / "reference"
            status, *_ = self.launch(
                self.spec(ref / "out", seed, workers=not w.parallel),
                self.env(), ref)
            if status != 0:
                problems.append(f"the reference run of seed {seed} failed ({status})")
            else:
                self.references[seed] = ref
        return problems

    def iterate(self, index: int, traced: bool, corrupt: bool) -> Iteration:
        w = self.workload
        it = Iteration(traced=traced, seed=self.seeds[index % len(self.seeds)])
        directory = self.work / f"iter{index}"
        out = directory / "out"
        metrics = directory / "metrics.json" if traced else None
        storage = planes = checkpoint = None
        if w.parallel:
            storage = directory / "storage"
            home = self.home(it.seed) if w.resume else directory
            planes, checkpoint = home / "planes", home / "checkpoint"
        status, started, wall, usage, report = self.launch(
            self.spec(out, it.seed, workers=w.parallel, checkpoint=checkpoint,
                      resume=w.resume, metrics=metrics, trace=traced),
            self.env(storage, planes),
            directory,
        )
        it.wall_s = wall
        it.cpu_s = usage.ru_utime + usage.ru_stime
        it.peak_rss_mb = usage.ru_maxrss / 1024.0
        it.disk_mb = sum(
            _tree_bytes(p) for p in (out, storage, planes, checkpoint) if p
        ) / 1e6
        if status != 0:
            it.problems.append(f"the iteration exited with status {status}")
            return it
        if report["first_sweep"] is None:
            it.problems.append("the sweep engine was never called")
        else:
            it.setup_s = report["first_sweep"] - started
        if corrupt:
            checks.corrupt(out, self.library)
        try:
            self.check(it, out, directory, report)
        except Exception as error:  # a broken output must not stop the run
            it.problems.append(f"checking the output raised {error!r}")
        if traced:
            it.layers = layer_metrics(report, metrics, wall, planes, checkpoint)
            it.layers["accuracy.size_star_median"] = it.size_star_median
            it.layers["accuracy.weight_star_median"] = it.weight_star_median
        return it

    def check(self, it: Iteration, out: Path, directory: Path,
              report: dict) -> None:
        """Check the iteration's output; derive the accuracy metrics."""
        ref = self.references.get(it.seed)
        it.problems += checks.compare(
            self.library, out, ref / "out" if ref else None,
            directory / "stdout.txt", ref / "stdout.txt" if ref else None)
        found = checks.curves(out, self.library)
        it.problems += checks.accuracy(self.workload.experiment or "sweep",
                                       self.scale, found, out, self.library)
        if it.problems:
            return
        it.size_nrmse = checks.level(found, "size", out, self.library)
        it.weight_nrmse = checks.level(found, "weight", out, self.library)
        it.size_star_median = checks.star_median(found, "size")
        it.weight_star_median = checks.star_median(found, "weight")
        it.draws = checks.draws(found, self.library, report["preset"],
                                SWEEP_REPLICATIONS)

    def cleanup(self, index: int) -> None:
        shutil.rmtree(self.work / f"iter{index}", ignore_errors=True)


def layer_metrics(report: dict, metrics_path: Path, wall: float,
                  planes: Path | None, checkpoint: Path | None) -> dict:
    """The per-layer ledger of one traced iteration."""
    self_s = report["self_s"]
    counts = report["counts"]
    layers = {"repro.import_s": report["import_s"]}
    for key in LEDGER_KEYS:
        if key == "sampling.sample_s":
            continue
        layers[key] = self_s.get(key, 0.0)
    for design in DESIGNS:
        layers[f"sampling.sample_s.{design}"] = self_s.get(
            f"sampling.sample_s.{design}", 0.0)
    layers["sampling.sample_s"] = sum(
        layers[f"sampling.sample_s.{d}"] for d in DESIGNS)
    layers["sampling.draws"] = counts.get("sampling.draws", 0)
    layers["sampling.draws_per_s"] = (
        layers["sampling.draws"] / layers["sampling.sample_s"]
        if layers["sampling.sample_s"] else 0.0)
    for name in ("observation.calls", "prefix.rungs"):
        layers[name] = counts.get(name, 0)

    doc = json.loads(metrics_path.read_text())
    phases, counters = doc["phases"], doc["counters"]

    def phase(cat: str, name: str) -> float:
        return phases.get(cat, {}).get(name, {}).get("seconds", 0.0)

    workers = doc["workers"].values()
    layers.update({
        "graph.planes_built": counters.get("planes.built", 0),
        "graph.planes_hit": counters.get("planes.hit", 0),
        "graph.planes_mb": _tree_bytes(planes) / 1e6 if planes else 0.0,
        "runtime.spawn_s": phase("pool", "spawn"),
        "runtime.dispatch_s": phase("driver", "dispatch"),
        "runtime.worker_busy_s": sum(w["busy_seconds"] for w in workers),
        "runtime.worker_util": (
            statistics.fmean(w["utilization"] for w in workers)
            if workers else 0.0),
        "runtime.worker.observe_s": phase("worker", "observe"),
        "runtime.worker.rung_s": phase("worker", "rung"),
        "runtime.shm_mb": counters.get("shm.published_bytes", 0) / 1e6,
        "runtime.ckpt_saves": counters.get("checkpoint.saves", 0),
        "runtime.ckpt_save_s": phase("checkpoint", "checkpoint.save"),
        "runtime.ckpt_mb": _tree_bytes(checkpoint) / 1e6 if checkpoint else 0.0,
        "runtime.ckpt_rungs_loaded": counters.get("checkpoint.rungs_loaded", 0),
        "runtime.cells_replayed": counters.get("plan.cells_replayed", 0),
    })
    traced = layers["repro.import_s"] + sum(
        layers[key] for key in LEDGER_KEYS)
    layers["trace.wall_s"] = wall
    layers["trace.remainder_s"] = wall - traced
    return layers


def measure(runner: Runner, seconds: float, trace: bool, corrupt: bool):
    """Set up, then run iterations for ``seconds`` (at least three and
    one per seed, and none that would overrun the run's deadline)."""
    problems = runner.prepare()
    iterations: list[Iteration] = []
    began = time.monotonic()
    index = 0
    longest = 0.0
    least = max(MIN_ITERATIONS, len(runner.seeds))
    while (index < least or time.monotonic() - began < seconds) and (
        not iterations or time.monotonic() + longest < runner.deadline
    ):
        # Under --trace 1, odd iterations are traced: the untraced ones
        # between them give the overhead of tracing.
        it = runner.iterate(index, trace and index % 2 == 1,
                            corrupt and index == 0)
        it.problems = problems + it.problems
        for problem in it.problems:
            print(f"iteration {index}: {problem}", file=sys.stderr)
        iterations.append(it)
        longest = max(longest, it.wall_s)
        runner.cleanup(index)
        index += 1
    return iterations


def summarize(iterations: list[Iteration], trace: bool) -> dict:
    plain = [it for it in iterations if not it.traced]
    failed = sum(1 for it in iterations if it.problems)
    if trace:
        traced = sorted((it for it in iterations if it.traced),
                        key=lambda it: it.wall_s)
        chosen = traced[(len(traced) - 1) // 2] if traced else None
        values = {name: 0.0 for name in PER_LAYER}
        if chosen is not None and chosen.layers:
            values.update(chosen.layers)
            values["trace.overhead_s"] = (
                statistics.median(it.wall_s for it in traced)
                - statistics.median(it.wall_s for it in plain))
        units = PER_LAYER
    else:
        good = [it for it in plain if not it.problems] or plain

        def median(attribute):
            return statistics.median(getattr(it, attribute) for it in good)

        values = {name: median(name) for name in
                  ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "disk_mb")}
        for name in ("size_nrmse", "weight_nrmse"):
            # Deterministic per seed: each seed counts once.
            per_seed = {it.seed: getattr(it, name) for it in good
                        if getattr(it, name) > 0}
            values[name] = math.exp(statistics.fmean(
                math.log(v) for v in per_seed.values())) if per_seed else 0.0
        values["draws_per_s"] = statistics.median(
            it.draws / (it.wall_s - it.setup_s) for it in good)
        values["pass_frac"] = (len(iterations) - failed) / len(iterations)
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def stamp(root: Path, workload: Workload, scale: str, seed: int,
          seeds: list[int]) -> dict:
    """Machine and source identity printed with every result."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "master_seeds": seeds,
        "scale": scale,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_head(root), "src_sha256": digest.hexdigest(),
    }


def _git_head(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _tree_bytes(path: Path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(folder, name)).st_size
            except OSError:
                pass
    return total


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_orphans() -> None:
    """Wait for descendants re-parented to this process, if any."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _become_subreaper() -> None:
    """Adopt orphaned pool workers so that they can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def preflight(root: Path) -> str | None:
    """Why the program cannot run from ``root``, or None."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return f"no repro sources under {root / 'src'}"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    probe = subprocess.run(
        [sys.executable, "-c", "import repro.cli, numpy, scipy"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        return f"repro does not import: {probe.stderr.strip()[-500:]}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default=None,
                        help="run at this scale preset instead (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb one estimate of the first iteration")
    args = parser.parse_args(argv)
    root = Path.cwd()
    reason = preflight(root)
    if reason is not None:
        print(f"error: cannot run the benchmark: {reason}", file=sys.stderr)
        return 2
    _become_subreaper()
    workload = WORKLOADS[args.workload]
    scale = args.scale or workload.scale
    runner = Runner(root, workload, args.seed, scale)
    try:
        iterations = measure(runner, args.seconds, bool(args.trace), args.corrupt)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        _reap_orphans()
    print(json.dumps({"stamp": stamp(root, workload, scale, args.seed,
                                        runner.seeds)}))
    print(json.dumps(summarize(iterations, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
