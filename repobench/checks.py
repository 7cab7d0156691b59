"""Correctness checks of one iteration's outputs, valid for any seed.

Three rules, none of which needs a stored per-seed answer:

1. **Determinism.** The output equals the reference that ``run.py``
   computed before timing from the same code and seed along the other
   execution path (serial vs two workers): the same files byte for
   byte and the same printed text for the CLI workloads, the same
   arrays bit for bit for ``sweep-ladder``.
2. **Shape.** Every NRMSE curve is finite (for ``sweep-ladder``:
   wherever every replicate produced an estimate), and the median over
   the star curves falls from the first rung to the last, for category
   sizes and for weights.
3. **Accuracy.** NRMSE is measured against the exact category graph of
   the fully known substrate, so at the last rung every curve sits
   under the bound in ``BOUNDS`` for its workload, quantity and
   measurement kind, and the NRMSE level (``level``: the geometric
   mean over every unit, star and induced) under ``LEVEL_BOUNDS``.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import numpy as np

#: (experiment, scale) -> (quantity, kind) -> the largest NRMSE any
#: curve may show at its last rung: 1.5x the largest value seen over
#: the calibration seeds (1000-1019 and 5000-5199 for fig4, 1000-1019
#: and 5000-5079 otherwise), rounded up to two decimals. README.md has
#: the calibration. "sweep" is the sweep-ladder workload.
BOUNDS = {
    ("fig4", "small"): {
        ("size", "induced"): 1.09, ("size", "star"): 0.45,
        ("weight", "induced"): 3.07, ("weight", "star"): 0.71,
    },
    ("sweep", "medium"): {
        ("size", "induced"): 0.14, ("size", "star"): 0.09,
        ("weight", "induced"): 0.36, ("weight", "star"): 0.18,
    },
    ("sweep", "small"): {
        ("size", "induced"): 0.24, ("size", "star"): 0.15,
        ("weight", "induced"): 0.46, ("weight", "star"): 0.25,
    },
    ("fig6", "small"): {
        ("size", "induced"): 2.35, ("size", "star"): 1.22,
        ("weight", "induced"): 5.62, ("weight", "star"): 5.09,
    },
    ("fig6", "medium"): {
        ("size", "induced"): 1.88, ("size", "star"): 1.16,
        ("weight", "induced"): 5.23, ("weight", "star"): 2.43,
    },
}

#: (experiment, scale) -> quantity -> the largest ``level`` an output
#: may show: 1.1x the largest value over the same seeds, rounded up to
#: three decimals; 1.25x for fig4, whose small stand-in graphs give a
#: heavy tail (its largest level is 1.6-1.7x its median). The level
#: varies far less between seeds than a single curve does, so this
#: bound sits 18-27% above the median seed for sweep and fig6 (twice
#: the median for fig4) and catches a loss of accuracy that every
#: curve shares.
LEVEL_BOUNDS = {
    ("fig4", "small"): {"size": 0.134, "weight": 0.294},
    ("sweep", "medium"): {"size": 0.044, "weight": 0.143},
    ("sweep", "small"): {"size": 0.064, "weight": 0.183},
    ("fig6", "small"): {"size": 0.736, "weight": 1.308},
    ("fig6", "medium"): {"size": 0.596, "weight": 1.331},
}

QUANTITIES = ("size", "weight")
KINDS = ("induced", "star")


def compare(library: bool, out: Path, ref: Path | None,
            stdout: Path, ref_stdout: Path | None) -> list[str]:
    """Rule 1: the output equals the reference of the other path."""
    if ref is None:
        return ["no reference output to compare with"]
    if library:
        return _compare_arrays(out / "sweeps.npz", ref / "sweeps.npz")
    problems = []
    names = sorted(p.name for p in out.iterdir())
    ref_names = sorted(p.name for p in ref.iterdir())
    if names != ref_names:
        problems.append(f"output files {names} differ from {ref_names}")
    for name in set(names) & set(ref_names):
        if (out / name).read_bytes() != (ref / name).read_bytes():
            problems.append(f"{name} differs from the reference")
    text = stdout.read_text().replace(str(out), "<out>")
    ref_text = ref_stdout.read_text().replace(str(ref), "<out>")
    if text != ref_text:
        problems.append("printed output differs from the reference")
    return problems


def _compare_arrays(path: Path, ref_path: Path) -> list[str]:
    with np.load(path) as got, np.load(ref_path) as want:
        if sorted(got.files) != sorted(want.files):
            return ["sweep arrays differ in their names"]
        return [
            f"{name} differs from the reference"
            for name in want.files
            if got[name].dtype != want[name].dtype
            or got[name].shape != want[name].shape
            or got[name].tobytes() != want[name].tobytes()
        ]


def curves(out: Path, library: bool) -> dict:
    """``{quantity: {kind: {label: (x, y)}}}`` from the iteration output."""
    found = {q: {k: {} for k in KINDS} for q in QUANTITIES}
    if library:
        with np.load(out / "sweeps.npz") as arrays:
            for design in ("uis", "rw"):
                x = arrays[f"{design}.sample_sizes"].tolist()
                for kind in KINDS:
                    sizes = arrays[f"{design}.{kind}.size_nrmse"]
                    weights = arrays[f"{design}.{kind}.weight_nrmse"]
                    upper = np.triu_indices(weights.shape[1], k=1)
                    found["size"][kind][f"{design}/{kind}"] = (
                        x, _nanmedian_rows(sizes).tolist())
                    found["weight"][kind][f"{design}/{kind}"] = (
                        x, _nanmedian_rows(weights[:, upper[0], upper[1]]).tolist())
        return found
    for path in sorted(out.glob("*.json")):
        document = json.loads(path.read_text())
        title = document["metadata"]["title"]
        quantity = "size" if "NRMSE(|A|)" in title else "weight"
        for label, series in document["series"].items():
            kind = label.rsplit("/", 1)[1]
            found[quantity][kind][f"{path.stem}:{label}"] = (
                series["x"], series["y"])
    return found


def _nanmedian_rows(values: np.ndarray) -> np.ndarray:
    """Row medians ignoring NaN; NaN for an all-NaN row (no warning)."""
    flat = values.reshape(values.shape[0], -1)
    return np.array([
        np.median(row[~np.isnan(row)]) if (~np.isnan(row)).any() else np.nan
        for row in flat
    ])


def star_median(found: dict, quantity: str, rung: int = -1) -> float:
    """Median over the star curves of NRMSE at ``rung`` (-1 = last)."""
    return statistics.median(y[rung] for _, y in found[quantity]["star"].values())


def level(found: dict, quantity: str, out: Path, library: bool) -> float:
    """Geometric mean of NRMSE at the last rung, star and induced.

    The mean runs over the finest units the output reports: each
    category (sizes) or category pair (weights) of both
    ``sweep-ladder`` sweeps, and each curve of the CLI figures. Any
    estimate that gets worse raises it.
    """
    if library:
        logs = []
        with np.load(out / "sweeps.npz") as arrays:
            for design in ("uis", "rw"):
                for kind in KINDS:
                    last = arrays[f"{design}.{kind}.{quantity}_nrmse"][-1]
                    if quantity == "weight":
                        last = last[np.triu_indices(last.shape[0], k=1)]
                    usable = last[np.isfinite(last) & (last > 0)]
                    logs += np.log(usable).tolist()
    else:
        logs = [math.log(y[-1]) for kind in KINDS
                for _, y in found[quantity][kind].values()]
    return math.exp(statistics.fmean(logs))


def accuracy(family: str, scale: str, found: dict, out: Path,
             library: bool) -> list[str]:
    """Rules 2 and 3 for experiment ``family`` ("sweep" or an id)."""
    bounds = BOUNDS.get((family, scale))
    levels = LEVEL_BOUNDS.get((family, scale))
    if bounds is None or levels is None:
        return [f"no accuracy bounds for {family} at scale {scale}"]
    problems = []
    if library:
        problems += _covered_finite(out / "sweeps.npz")
    for quantity in QUANTITIES:
        if not found[quantity]["star"]:
            problems.append(f"no star {quantity} curves in the output")
            continue
        for kind in KINDS:
            bound = bounds[(quantity, kind)]
            for label, (_, y) in found[quantity][kind].items():
                if not library and not all(math.isfinite(v) for v in y):
                    problems.append(f"{quantity} curve {label} is not finite")
                elif y[-1] > bound:
                    problems.append(
                        f"{quantity} curve {label} ends at {y[-1]:.4f} > {bound}")
        first, last = star_median(found, quantity, 0), star_median(found, quantity)
        if not last < first:
            problems.append(
                f"star {quantity} NRMSE does not fall: {first:.4f} -> {last:.4f}")
        if not problems:
            value = level(found, quantity, out, library)
            if not value <= levels[quantity]:
                problems.append(f"{quantity} NRMSE level {value:.4f} > "
                                f"{levels[quantity]}")
    return problems


def _covered_finite(path: Path) -> list[str]:
    """Sweep NRMSE is finite wherever every replicate gave an estimate
    of a quantity whose truth is finite and non-zero (Eq. 17 divides by
    the truth)."""
    problems = []
    with np.load(path) as arrays:
        for name in arrays.files:
            if not name.endswith("_nrmse"):
                continue
            truth = arrays["truth.sizes" if "size" in name else "truth.weights"]
            defined = np.isfinite(truth) & (truth != 0)
            full = arrays[name.replace("_nrmse", "_coverage")] == 1.0
            if not np.isfinite(arrays[name][full & defined]).all():
                problems.append(f"{name} is not finite where coverage is full")
    return problems


def draws(found: dict, library: bool, preset: dict, replications: int) -> int:
    """Replicate draws the output's ladders resolved.

    One star size curve per sweep: a sweep of R replicates whose
    ladder ends at |S| resolved R x |S| draws. Fig. 6 crawls have
    ``walks_2009``/``walks_2010`` replicate walks per dataset.
    """
    total = 0
    for label, (x, _) in found["size"]["star"].items():
        if library:
            reps = replications
        elif label.split(":", 1)[0].startswith("fig6"):
            reps = preset["walks_2009" if "09/" in label else "walks_2010"]
        else:
            reps = preset["replications"]
        total += reps * int(x[-1])
    return total


def corrupt(out: Path, library: bool) -> None:
    """Perturb one estimate of the output (for the self-test)."""
    if library:
        path = out / "sweeps.npz"
        with np.load(path) as loaded:
            arrays = dict(loaded)
        arrays["uis.star.size_nrmse"][-1, 0] *= 1.0 + 1e-9
        np.savez(path, **arrays)
        return
    path = sorted(out.glob("*.json"))[0]
    document = json.loads(path.read_text())
    series = next(iter(document["series"].values()))
    series["y"][-1] *= 1.0 + 1e-9
    path.write_text(json.dumps(document, indent=2))
