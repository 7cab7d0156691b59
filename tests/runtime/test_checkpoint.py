"""Checkpoint/resume: a killed sweep resumes bit-identically.

The scenario the subsystem exists for: a paper-scale run dies after
rung ``k``; re-running with ``resume=True`` must (a) reuse the
persisted samples and completed rungs rather than recomputing them and
(b) finish with output bit-identical to the uninterrupted run — even
with a different worker count.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.generators import planted_category_graph
from repro.runtime.checkpoint import SweepCheckpoint
from repro.sampling import StratifiedWeightedWalkSampler
from repro.stats import run_nrmse_sweep

from tests.runtime.test_executor import assert_sweeps_equal

LADDER = (40, 120, 360)
REPLICATIONS = 6
SEED = 5


@pytest.fixture(scope="module")
def world():
    graph, partition = planted_category_graph(k=6, scale=60, rng=7)
    return graph, partition


@pytest.fixture(scope="module")
def serial(world):
    graph, partition = world
    return run_nrmse_sweep(
        graph,
        partition,
        StratifiedWeightedWalkSampler(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=SEED,
        executor="serial",
    )


def _run(world, root, *, workers=2, resume=False, rng=SEED):
    graph, partition = world
    return run_nrmse_sweep(
        graph,
        partition,
        StratifiedWeightedWalkSampler(graph, partition),
        LADDER,
        replications=REPLICATIONS,
        rng=rng,
        executor="process",
        workers=workers,
        checkpoint=root,
        resume=resume,
    )


def test_checkpointed_run_writes_manifest_samples_and_rung_files(
    world, serial, tmp_path
):
    result = _run(world, tmp_path)
    assert_sweeps_equal(serial, result, "checkpointed run")
    sweep_dir = next(tmp_path.glob("sweep-*"))
    names = sorted(path.name for path in sweep_dir.iterdir())
    assert names == [
        "manifest.json",
        "observations.npz",
        "rung_000.npz",
        "rung_001.npz",
        "rung_002.npz",
        "samples.npz",
        "truth.npz",
    ]
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    assert manifest["design"] == "swrw"
    assert manifest["sizes"] == list(LADDER)
    assert len(manifest["seeds"]) == REPLICATIONS


def test_killed_after_rung_k_resumes_bit_identically(world, serial, tmp_path):
    _run(world, tmp_path)
    sweep_dir = next(tmp_path.glob("sweep-*"))
    # Simulate a kill after rung 0 completed: later rungs never landed.
    (sweep_dir / "rung_001.npz").unlink()
    (sweep_dir / "rung_002.npz").unlink()
    resumed = _run(world, tmp_path, workers=3, resume=True)
    assert_sweeps_equal(serial, resumed, "resume after rung 0")
    assert (sweep_dir / "rung_002.npz").exists()


def test_resume_really_reads_the_checkpoint(world, serial, tmp_path):
    """Tampered rung rows (with a valid checksum) surface on resume.

    The tamper re-stamps the payload checksum, modeling rows that were
    *computed* differently rather than corrupted on disk — the one case
    the integrity layer must NOT mask, or this test could pass with a
    resume path that silently recomputes everything.
    """
    from repro.runtime.checkpoint import _payload_checksum

    _run(world, tmp_path)
    sweep_dir = next(tmp_path.glob("sweep-*"))
    path = sweep_dir / "rung_000.npz"
    data = dict(np.load(path))
    data.pop("checksum")
    data["sizes_induced"] = data["sizes_induced"] + 1.0
    data["checksum"] = np.asarray(_payload_checksum(data))
    np.savez(path, **data)
    tampered = _run(world, tmp_path, resume=True)
    assert not np.array_equal(
        serial.size_nrmse["induced"],
        tampered.size_nrmse["induced"],
        equal_nan=True,
    ), "resume ignored the persisted rung rows"
    # A fresh (resume=False) run clears the directory and recomputes.
    fresh = _run(world, tmp_path, resume=False)
    assert_sweeps_equal(serial, fresh, "fresh run after tampering")


def test_checksumless_rewrite_is_quarantined_and_recomputed(
    world, serial, tmp_path
):
    """A rung file failing checksum verification degrades, not poisons.

    Rewriting the rung without a checksum models on-disk corruption
    (torn write, bit rot): the resumed run must quarantine the file as
    ``*.corrupt``, recompute the rung, and still match serial exactly.
    """
    _run(world, tmp_path)
    sweep_dir = next(tmp_path.glob("sweep-*"))
    path = sweep_dir / "rung_000.npz"
    data = dict(np.load(path))
    data.pop("checksum")
    data["sizes_induced"] = data["sizes_induced"] + 1.0
    np.savez(path, **data)
    resumed = _run(world, tmp_path, resume=True)
    assert_sweeps_equal(serial, resumed, "resume past quarantined rung")
    assert (sweep_dir / "rung_000.npz.corrupt").exists()
    assert (sweep_dir / "rung_000.npz").exists(), "rung was not rewritten"


def test_different_seeds_use_different_manifest_directories(world, tmp_path):
    _run(world, tmp_path, rng=SEED)
    _run(world, tmp_path, rng=SEED + 1, resume=True)
    assert len(list(tmp_path.glob("sweep-*"))) == 2


def test_checkpoint_rejects_size_mismatched_rungs(tmp_path):
    checkpoint = SweepCheckpoint(tmp_path, {"probe": 1}, resume=False)
    rows = (
        np.ones((2, 3)),
        np.ones((2, 3)),
        np.ones((2, 3, 3)),
        np.ones((2, 3, 3)),
    )
    checkpoint.save_rung(0, size=40, rows=rows)
    assert checkpoint.load_rung(0, size=40) is not None
    assert checkpoint.load_rung(0, size=99) is None
    assert checkpoint.load_rung(1, size=40) is None


def test_fresh_checkpoint_clears_stale_files(tmp_path):
    first = SweepCheckpoint(tmp_path, {"probe": 2}, resume=False)
    first.save_samples(np.zeros((2, 4), dtype=np.int64), np.ones((2, 4)))
    assert first.samples_path.exists()
    reopened = SweepCheckpoint(tmp_path, {"probe": 2}, resume=True)
    assert reopened.load_samples() is not None
    cleared = SweepCheckpoint(tmp_path, {"probe": 2}, resume=False)
    assert cleared.load_samples() is None


def test_resume_skips_the_observation_rebuild(world, serial, tmp_path, monkeypatch):
    """A resumed fresh-draw sweep seeds ladders from observations.npz.

    ``observe_both`` is monkeypatched to explode; fork-context workers
    inherit the patch, so bit-identical resumed output proves the
    per-replicate observation pass never re-ran. The persistent pool
    is reset after patching so the resumed run forks *fresh* workers
    that carry the tripwire (pooled workers pre-date the patch).
    """
    from repro.runtime.pool import reset_default_pools

    _run(world, tmp_path)
    sweep_dir = next(tmp_path.glob("sweep-*"))
    assert (sweep_dir / "observations.npz").exists()
    (sweep_dir / "rung_001.npz").unlink()
    (sweep_dir / "rung_002.npz").unlink()

    import repro.stats.prefix as prefix_module

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("resume rebuilt observe_both")

    monkeypatch.setattr(prefix_module, "observe_both", explode)
    reset_default_pools()
    try:
        resumed = _run(world, tmp_path, workers=2, resume=True)
    finally:
        reset_default_pools()
    assert_sweeps_equal(serial, resumed, "observation-seeded resume")


def test_observation_round_trip_is_exact(world, tmp_path):
    from repro.runtime.checkpoint import (
        observation_fields,
        restore_observations,
    )
    from repro.sampling.observation import observe_both

    graph, partition = world
    sample = StratifiedWeightedWalkSampler(graph, partition).sample(300, rng=1)
    induced, star = observe_both(graph, partition, sample)
    checkpoint = SweepCheckpoint(tmp_path, {"probe": 3}, resume=False)
    checkpoint.save_observations([observation_fields(induced, star)])
    assert checkpoint.load_observations(expected=2) is None  # count guard
    restored = checkpoint.load_observations(expected=1)
    induced2, star2 = restore_observations(
        tuple(partition.names), restored[0]
    )
    assert star2.design == star.design and star2.uniform == star.uniform
    assert star2.num_draws == star.num_draws
    for field in (
        "draw_to_distinct",
        "distinct_nodes",
        "distinct_categories",
        "distinct_multiplicities",
        "distinct_weights",
    ):
        before = getattr(star, field)
        after = getattr(star2, field)
        assert before.dtype == after.dtype
        np.testing.assert_array_equal(before, after)
    np.testing.assert_array_equal(induced2.induced_edges, induced.induced_edges)
    for field in (
        "distinct_degrees",
        "neighbor_indptr",
        "neighbor_categories",
        "neighbor_counts",
    ):
        np.testing.assert_array_equal(getattr(star2, field), getattr(star, field))


def test_fully_checkpointed_sweep_replays_without_resampling(
    world, serial, tmp_path
):
    """Resuming a *finished* sweep is a pure replay from the rung files.

    Observable: the early-return path never runs the sampling phase, so
    a deleted samples.npz is not recreated (the old behavior re-walked
    all R replicates just to throw the draws away).
    """
    _run(world, tmp_path)
    sweep_dir = next(tmp_path.glob("sweep-*"))
    (sweep_dir / "samples.npz").unlink()
    replayed = _run(world, tmp_path, resume=True)
    assert_sweeps_equal(serial, replayed, "pure replay")
    assert not (sweep_dir / "samples.npz").exists(), (
        "a fully-checkpointed resume should not resample"
    )


def test_manifest_keys_are_stable_across_versions(world, tmp_path):
    """Checkpoints written by earlier versions must still be found.

    The keys (and manifest bytes) below were computed before the fresh
    and pre-drawn manifest builders were merged; a drift here would
    silently orphan every existing checkpoint directory.
    """
    import hashlib

    from repro.runtime.checkpoint import PlanCheckpoint
    from repro.runtime.executor import ProcessSweepExecutor
    from repro.sampling import RandomWalkSampler

    graph, partition = world
    ladder = np.asarray(LADDER)
    fresh = ProcessSweepExecutor(workers=1, checkpoint=tmp_path)
    fresh.run(
        graph,
        partition,
        StratifiedWeightedWalkSampler(graph, partition),
        ladder,
        REPLICATIONS,
        SEED,
    )
    samples = list(RandomWalkSampler(graph).sample_many(360, 3, rng=SEED))
    predrawn = ProcessSweepExecutor(workers=1, checkpoint=tmp_path)
    predrawn.run_from_samples(
        graph, partition, samples, ladder, truth_mode="cross-sample"
    )
    plan = PlanCheckpoint(
        tmp_path, {"plan": "probe", "cells": ["a"]}, resume=False
    )

    def manifest_digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    assert fresh.last_checkpoint.key == "3f5ded1d551cda2f"
    assert predrawn.last_checkpoint.key == "e8190d6286d7d63d"
    assert plan.key == "1d050b9bfd900016"
    directory = fresh.last_checkpoint.directory
    assert manifest_digest(directory / "manifest.json") == "04ea3260033721ea"
    directory = predrawn.last_checkpoint.directory
    assert manifest_digest(directory / "manifest.json") == "e47c7cd61438e3fd"
    assert manifest_digest(plan.directory / "plan.json") == "ba3e8877361fb808"
