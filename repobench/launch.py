"""One benchmark iteration, run in a fresh interpreter.

``python3 launch.py SPEC.json`` imports ``repro``, installs hooks and
runs either the ``repro`` CLI (``spec["mode"] == "cli"``) or the
``sweep-ladder`` library workload (``"sweep"``). It writes a JSON
report to ``spec["report"]``:

* ``import_s``: seconds spent importing ``repro``;
* ``first_sweep``: ``time.monotonic()`` of the first call into the
  sweep engine (``run_nrmse_sweep``, ``run_nrmse_sweep_from_samples``
  or ``replay_sweep``), which ends the set-up phase;
* with ``spec["trace"]``: the layer ledger (self seconds per layer
  metric) and the layer counts.

Every hook wraps a public function from the outside; nothing under
``src/`` knows it is being measured. Hooks only record in the process
that installed them, so forked pool workers run the plain functions.
"""

from __future__ import annotations

import time

_START = time.monotonic()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import repro.cli  # noqa: E402
import repro.experiments  # noqa: E402
import repro.runtime  # noqa: E402
import repro.stats  # noqa: E402

_IMPORTED = time.monotonic()
_PID = os.getpid()

#: Ledger metric -> (module, public names). ``"*"`` means every public
#: function in the module's ``__all__``. A layer's self time is the
#: wall time during which one of its functions is the innermost
#: wrapped frame of a thread (shared equally among threads that are
#: inside wrapped frames at the same moment, so the ledger sums to at
#: most the wall clock even when the DAG scheduler overlaps cells).
LEDGER = (
    ("experiments.compile_s", "repro.experiments", ("compile_experiment",)),
    ("experiments.finalize_s", "repro.experiments.plan",
     ("SweepPlan.finalize_outputs",)),
    ("generators.build_s", "repro.generators", "*"),
    ("datasets.load_s", "repro.datasets",
     ("load_dataset", "worst_case_categories")),
    ("community.detect_s", "repro.community", "*"),
    ("facebook.world_s", "repro.facebook", ("build_facebook_world",)),
    ("facebook.crawl_s", "repro.facebook", ("simulate_crawl_datasets",)),
    ("graph.truth_s", "repro.graph", ("true_category_graph",)),
    ("sampling.sample_s", "repro.sampling", ("Sampler.sample_many",)),
    ("observation.observe_s", "repro.sampling.observation", "*"),
    ("prefix.init_s", "repro.stats", ("IncrementalPrefixLadder.__init__",)),
    ("prefix.estimates_s", "repro.stats",
     ("IncrementalPrefixLadder.estimates",)),
    ("stats.reduce_s", "repro.stats.errors", ("nrmse_stack", "nanmean_rows")),
    ("stats.sweep_s", "repro.stats",
     ("run_nrmse_sweep", "run_nrmse_sweep_from_samples")),
    ("runtime.plan_s", "repro.runtime",
     ("run_plan", "replay_sweep", "ProcessSweepExecutor.run",
      "ProcessSweepExecutor.run_from_samples")),
)

#: The orchestration layer, charged only while no other layer runs.
WAITING = "runtime.plan_s"

#: Sampler class -> design label of ``sampling.sample_s.<design>``.
DESIGNS = {
    "UniformIndependenceSampler": "uis",
    "RandomWalkSampler": "rw",
    "MetropolisHastingsSampler": "mhrw",
    "StratifiedWeightedWalkSampler": "swrw",
}

#: Functions whose first call ends the set-up phase.
SWEEP_ENTRIES = (
    ("repro.stats.replication", "run_nrmse_sweep"),
    ("repro.stats.replication", "run_nrmse_sweep_from_samples"),
    ("repro.runtime.executor", "replay_sweep"),
)


def _replace_everywhere(original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every loaded repro module.

    ``from x import f`` copies the binding, so patching only the
    defining module would miss callers that imported the name.
    """
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, replacement)


def _resolve(module_name: str, dotted: str):
    """``(owner, attribute, function)`` for ``Class.method`` or ``func``."""
    module = sys.modules.get(module_name) or __import__(
        module_name, fromlist=["_"]
    )
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class FirstCall:
    """Records the monotonic time of the first sweep-engine call."""

    def __init__(self) -> None:
        self.at: float | None = None

    def install(self) -> None:
        for module_name, attr in SWEEP_ENTRIES:
            _, _, function = _resolve(module_name, attr)
            _replace_everywhere(function, self._wrap(function))

    def _wrap(self, function):
        @functools.wraps(function)
        def first_call(*args, **kwargs):
            if self.at is None:
                self.at = time.monotonic()
            return function(*args, **kwargs)

        return first_call


class Ledger:
    """Outside-in layer tracer: push/pop events per wrapped call."""

    def __init__(self) -> None:
        self.events: list[tuple[float, int, str | None]] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, function, metric: str):
        ledger = self
        sampling = metric == "sampling.sample_s"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if os.getpid() != _PID:
                return function(*args, **kwargs)
            key = metric
            stack = ledger._stack()
            if sampling:
                key = f"{metric}.{DESIGNS.get(type(args[0]).__name__, 'other')}"
                if not any(k.startswith("sampling.") for k in stack):
                    draws = args[1] if len(args) > 1 else kwargs["n"]
                    if function.__name__ == "sample_many":
                        reps = args[2] if len(args) > 2 else kwargs["replications"]
                        draws *= reps
                    ledger._count("sampling.draws", int(draws))
            elif metric == "observation.observe_s":
                if "observation.observe_s" not in stack:
                    ledger._count("observation.calls", 1)
            elif metric == "prefix.estimates_s":
                ledger._count("prefix.rungs", 1)
            tid = threading.get_ident()
            stack.append(key)
            ledger.events.append((time.monotonic(), tid, key))
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                ledger.events.append(
                    (time.monotonic(), tid, stack[-1] if stack else None)
                )

        return traced

    def install(self) -> None:
        import repro.sampling

        for metric, module_name, names in LEDGER:
            if names == "*":
                module = __import__(module_name, fromlist=["_"])
                names = tuple(
                    name for name in module.__all__
                    if inspect.isfunction(getattr(module, name))
                    and not inspect.isgeneratorfunction(getattr(module, name))
                )
            for dotted in names:
                owner, attr, function = _resolve(module_name, dotted)
                wrapped = self.wrap(function, metric)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                else:
                    _replace_everywhere(function, wrapped)
        # Each design's own ``sample`` (the sequential path that
        # ``sample_many`` falls back to for independence designs).
        pending = [repro.sampling.Sampler]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            own = cls.__dict__.get("sample")
            if inspect.isfunction(own) and not getattr(own, "__isabstractmethod__", False):
                setattr(cls, "sample", self.wrap(own, "sampling.sample_s"))

    def self_seconds(self) -> dict[str, float]:
        """Per-key self time from the events (sweep line over threads).

        Each event sets a thread's innermost key (``None`` = outside any
        wrapped frame). Between two events, the elapsed time is split
        equally among the threads inside a wrapped frame, except that a
        thread inside ``runtime.plan_s`` (the plan runner and sweep
        executor, which mostly wait on other threads and on pool
        workers) only gets time while no other layer is running.
        """
        current: dict[int, str] = {}
        totals: dict[str, float] = {}
        last = None
        for moment, tid, key in sorted(self.events, key=lambda e: e[0]):
            working = [k for k in current.values() if k != WAITING] or list(
                current.values())
            if last is not None and working:
                share = (moment - last) / len(working)
                for active in working:
                    totals[active] = totals.get(active, 0.0) + share
            last = moment
            if key is None:
                current.pop(tid, None)
            else:
                current[tid] = key
        return totals


def sweep_ladder(spec: dict) -> None:
    """The ``sweep-ladder`` workload: UIS and RW sweeps on the Fig. 3
    base planted substrate, saved as arrays for the parent's checks."""
    import numpy as np

    from repro.experiments import SCALE_PRESETS
    from repro.generators import PlantedModelConfig, planted_category_graph
    from repro.rng import derive_rng
    from repro.sampling import RandomWalkSampler, UniformIndependenceSampler

    seed = spec["seed"]
    preset = SCALE_PRESETS[spec["scale"]]
    # Fig. 3's "base" configuration (k=20, alpha=0.5), seeded as its
    # plan cell derives it from the master seed.
    graph, partition = planted_category_graph(
        PlantedModelConfig(k=20, alpha=0.5, scale=preset.planted_scale),
        rng=derive_rng(seed, 3, 4),
    )
    sizes = [s for s in preset.fig3_sample_sizes if s <= 3 * graph.num_nodes]
    arrays = {}
    for index, (name, design) in enumerate(
        (("uis", UniformIndependenceSampler), ("rw", RandomWalkSampler))
    ):
        result = repro.stats.run_nrmse_sweep(
            graph,
            partition,
            design(graph),
            sizes,
            replications=spec["replications"],
            rng=derive_rng(seed, 90, index),
            executor=spec["executor"],
            workers=spec.get("workers"),
        )
        arrays[f"{name}.sample_sizes"] = result.sample_sizes
        for kind in ("induced", "star"):
            arrays[f"{name}.{kind}.size_nrmse"] = result.size_nrmse[kind]
            arrays[f"{name}.{kind}.weight_nrmse"] = result.weight_nrmse[kind]
            arrays[f"{name}.{kind}.size_coverage"] = result.size_coverage[kind]
            arrays[f"{name}.{kind}.weight_coverage"] = result.weight_coverage[kind]
    arrays["truth.sizes"] = result.truth.sizes
    arrays["truth.weights"] = result.truth.weights
    os.makedirs(spec["out"], exist_ok=True)
    np.savez(os.path.join(spec["out"], "sweeps.npz"), **arrays)


def main(path: str) -> int:
    with open(path) as handle:
        spec = json.load(handle)
    first = FirstCall()
    first.install()
    ledger = Ledger() if spec["trace"] else None
    if ledger is not None:
        ledger.install()
    status = 0
    if spec["mode"] == "cli":
        status = repro.cli.main(spec["argv"])
    elif spec.get("metrics"):
        with repro.runtime.telemetry_scope(metrics=spec["metrics"]):
            sweep_ladder(spec)
    else:
        sweep_ladder(spec)
    preset = repro.experiments.SCALE_PRESETS[spec["scale"]]
    report = {
        "import_s": _IMPORTED - _START,
        "first_sweep": first.at,
        "preset": {
            "replications": preset.replications,
            "walks_2009": preset.walks_2009,
            "walks_2010": preset.walks_2010,
        },
    }
    if ledger is not None:
        report["self_s"] = ledger.self_seconds()
        report["counts"] = ledger.counts
    with open(spec["report"], "w") as handle:
        json.dump(report, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
