"""Category-size estimators ``|A|`` (Sections 4.1 and 5.2 of the paper).

Two families, each in a uniform and a weight-corrected variant:

* **Induced** — Eq. (4) uniform, Eq. (11) weighted: scale the
  (reweighted) fraction of draws landing in ``A`` by the population
  size ``N``. Under a uniform design the weights are all 1 and Eq. (11)
  reduces exactly to Eq. (4), so one implementation covers both.

* **Star** — Eq. (5) uniform, Eq. (12) weighted:
  ``|A| = N * f_vol(A) * k_V / k_A``, built from the relative-volume
  estimator of Eq. (7)/(13) and the mean-degree estimators of
  Eq. (6)/(14). The star variant exploits the neighbor categories of
  sampled nodes, which the paper shows is a large win in dense graphs.

The paper's footnote 4 suggests a model-based variant that substitutes
``k_A := k_V`` to tame the variance of ``k_A`` under skewed degrees (at
the price of bias); exposed here as ``mean_degree_model="global"``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EstimationError
from repro.sampling.observation import StarObservation, _ObservationBase

__all__ = [
    "estimate_sizes_induced",
    "estimate_sizes_star",
    "induced_sizes",
    "star_sizes",
]


def estimate_sizes_induced(
    observation: _ObservationBase, population_size: float
) -> np.ndarray:
    """Eq. (4)/(11): ``|A| = N * w^{-1}(S_A) / w^{-1}(S)``.

    Works on induced *and* star observations (star reveals a superset of
    the needed information). Returns one estimate per category; a
    category with no draws estimates 0 (consistently with the paper's
    counting estimator).
    """
    _check_population(population_size)
    return induced_sizes(observation.reweighted_sizes(), population_size)


def estimate_sizes_star(
    observation: StarObservation,
    population_size: float,
    mean_degree_model: str = "per-category",
) -> np.ndarray:
    """Eq. (5)/(12): ``|A| = N * f_vol(A) * k_V / k_A``.

    Parameters
    ----------
    observation:
        A star observation (the estimator needs neighbor categories and
        degrees; passing an induced observation raises).
    population_size:
        ``N`` (known or separately estimated; see
        :func:`repro.core.population.estimate_population_size`).
    mean_degree_model:
        ``"per-category"`` (paper default) estimates ``k_A`` from the
        draws in ``A`` (Eq. 6/14); ``"global"`` is the footnote-4
        variant ``k_A := k_V``, which has lower variance under skewed
        degrees — and can even estimate categories with *zero* draws —
        at the cost of bias when category mean degrees differ.

    Returns
    -------
    One estimate per category. ``nan`` where the estimator is undefined
    (no draws in ``A`` under the per-category model).
    """
    if not isinstance(observation, StarObservation):
        raise EstimationError(
            "the star size estimator (Eq. 5/12) requires a StarObservation; "
            "use estimate_sizes_induced for induced measurements"
        )
    _check_population(population_size)
    return star_sizes(
        observation.reweighted_sizes(),
        observation.degree_totals(weighted=True),
        observation.neighbor_category_matrix(weighted=True),
        population_size,
        mean_degree_model,
    )


def induced_sizes(
    reweighted: np.ndarray, population_size: float
) -> np.ndarray:
    """Eq. (4)/(11) from the reweighted per-category draw counts.

    ``reweighted[A]`` is ``w^{-1}(S_A)``, the (Hansen-Hurwitz
    reweighted) number of draws in category ``A``.
    """
    total = reweighted.sum()
    if total <= 0:
        raise EstimationError("sample has no usable draws")
    return population_size * reweighted / total


def star_sizes(
    reweighted: np.ndarray,
    degree_totals: np.ndarray,
    neighbor_matrix: np.ndarray,
    population_size: float,
    mean_degree_model: str = "per-category",
) -> np.ndarray:
    """Eq. (5)/(12) from the reweighted sample aggregates.

    Parameters
    ----------
    reweighted:
        ``w^{-1}(S_A)`` per category.
    degree_totals:
        ``sum_{v in S_A} deg(v) / w(v)`` per category (the numerators
        of Eq. 14).
    neighbor_matrix:
        ``(C, C)`` reweighted neighbor-category histogram: entry
        ``[A, B]`` sums ``count_B(s) / w(s)`` over sampled ``s`` in
        ``A``.
    population_size / mean_degree_model:
        As in :func:`estimate_sizes_star`.
    """
    total_degree = degree_totals.sum()
    total_reweighted = reweighted.sum()
    if total_reweighted <= 0:
        raise EstimationError("sample has no usable draws")
    if total_degree <= 0:
        # Every sampled node is isolated: the volume-based estimator is
        # undefined (vol(S) = 0). Signal with nan rather than raising —
        # a real crawl cannot even reach this state.
        return np.full(reweighted.shape[0], np.nan)

    # Eq. (14): k_V and per-category k_A.
    k_global = total_degree / total_reweighted
    with np.errstate(invalid="ignore", divide="ignore"):
        k_per_category = np.where(
            reweighted > 0, degree_totals / reweighted, np.nan
        )

    # Eq. (13): f_vol(A) = [sum_s count_A(s)/w(s)] / [sum_s deg(s)/w(s)].
    f_vol = neighbor_matrix.sum(axis=0) / total_degree

    if mean_degree_model == "per-category":
        k_a = k_per_category
    elif mean_degree_model == "global":
        k_a = np.full(reweighted.shape[0], k_global)
    else:
        raise EstimationError(
            f"unknown mean_degree_model {mean_degree_model!r}; "
            "use 'per-category' or 'global'"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        return population_size * f_vol * k_global / k_a


def _check_population(population_size: float) -> None:
    if not np.isfinite(population_size) or population_size <= 0:
        raise EstimationError(
            f"population_size must be a positive number, got {population_size}"
        )
