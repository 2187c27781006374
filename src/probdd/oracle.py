"""Brute-force ground truth for models, weighted distributions, and sample checks.

Everything here enumerates the full assignment space directly from the
clause list, on purpose sharing nothing with the compilation pipeline,
so it can serve as an independent referee for the sampler and counter.
Enumeration is vectorized over assignment bitmasks and guarded at 24
variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .cnf import CnfFormula, WeightFunction
from .errors import GuardError, SoundnessError, ZeroProbabilityError
from .sampler import SampleBatch

MAX_ORACLE_VARS = 24
MIN_EXPECTED = 5.0  # chi-square cells expecting fewer counts are pooled into one


def model_masks(formula: CnfFormula) -> np.ndarray:
    """Sorted bitmasks of all models; bit v-1 = variable v."""
    n = formula.num_vars
    if n > MAX_ORACLE_VARS:
        raise GuardError(f"{n} variables exceed the oracle guard ({MAX_ORACLE_VARS})")
    masks = np.arange(1 << n, dtype=np.uint64)
    return masks[satisfies_masks(formula, masks)]


def _log_weight(w: float) -> float:
    return math.log(w) if w > 0 else -math.inf


def _model_log_weights(models: np.ndarray, num_vars: int, weights: WeightFunction) -> np.ndarray:
    """Each model's log weight, the sum of its literals' log weights; -inf for weight zero.

    Summing logs keeps weights far from 1, such as 1e300 or 1e-300 on
    every literal, from over- or underflowing a product of doubles.
    """
    logw = np.zeros(len(models), dtype=np.float64)
    one = np.uint64(1)
    for var in range(1, num_vars + 1):
        bit = (models >> np.uint64(var - 1)) & one
        logw += np.where(bit == one, _log_weight(weights[var]), _log_weight(weights[-var]))
    return logw


@dataclass
class ExactDistribution:
    """Exact weighted distribution over the models.

    Only models with positive probability are kept in the support;
    masks are sorted ascending and probs aligned with them.
    """

    masks: np.ndarray
    probs: np.ndarray
    normalization: float
    num_vars: int

    def __len__(self) -> int:
        return len(self.masks)


def exact_distribution(formula: CnfFormula, weights: WeightFunction) -> ExactDistribution:
    """Pr[model] = product of its literal weights, normalized by their sum N.

    Sums log weights and divides by the heaviest model's weight before
    adding up, so the probabilities stay accurate even where N itself
    lies outside a double's range; normalization is then 0.0 or inf.
    """
    models = model_masks(formula)
    logw = _model_log_weights(models, formula.num_vars, weights)
    top = float(logw.max(initial=-math.inf))
    if top == -math.inf:
        raise ZeroProbabilityError("every satisfying assignment has weight zero")
    positive = logw > -math.inf
    scaled = np.exp(logw[positive] - top)  # the heaviest model scales to 1
    total = float(scaled.sum())
    try:
        normalization = math.exp(top + math.log(total))  # 0.0 or inf where a double cannot hold it
    except OverflowError:
        normalization = math.inf
    return ExactDistribution(models[positive], scaled / total, normalization, formula.num_vars)


def satisfies_masks(formula: CnfFormula, masks: np.ndarray) -> np.ndarray:
    """Vectorized clause check of packed masks, shape (k, words) or (k,)."""
    if masks.ndim == 1:
        masks = masks[:, None]
    k = masks.shape[0]
    ok = np.ones(k, dtype=bool)
    one = np.uint64(1)
    for clause in formula.clauses:
        satisfied = np.zeros(k, dtype=bool)
        for lit in clause:
            word, bit = divmod(abs(lit) - 1, 64)
            value = (masks[:, word] >> np.uint64(bit)) & one
            satisfied |= value == (one if lit > 0 else 0)
        ok &= satisfied
    return ok


def _pooled_chi_square(observed: np.ndarray, expected: np.ndarray):
    """Pearson chi-square after pooling low-expectation cells into one bin."""
    small = expected < MIN_EXPECTED
    obs = list(observed[~small])
    exp = list(expected[~small])
    if small.any():
        obs.append(observed[small].sum())
        exp.append(expected[small].sum())
    obs_arr = np.asarray(obs, dtype=np.float64)
    exp_arr = np.asarray(exp, dtype=np.float64)
    usable = exp_arr > 0
    obs_arr, exp_arr = obs_arr[usable], exp_arr[usable]
    if len(exp_arr) < 2:
        return 0.0, 0, 1.0
    stat = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = len(exp_arr) - 1
    return stat, dof, float(stats.chi2.sf(stat, dof))


@dataclass
class ComparisonReport:
    """Statistical comparison of a sample batch against the exact distribution."""

    tv_distance: float
    chi_square: float
    chi_square_dof: int
    chi_square_p: float
    counts: np.ndarray                      # sampled count per support model
    histogram: list[tuple[int, int]]        # (occurrences, number of unique solutions)

    def histogram_csv(self) -> str:
        return occurrence_histogram_csv(self.histogram)


def occurrence_histogram(counts: np.ndarray) -> list[tuple[int, int]]:
    """How many support models were sampled exactly x times, for each seen x."""
    values, freqs = np.unique(counts, return_counts=True)
    return [(int(v), int(f)) for v, f in zip(values, freqs)]


def occurrence_histogram_csv(histogram: list[tuple[int, int]]) -> str:
    """The occurrence histogram as CSV with a header row."""
    lines = ["occurrences,num_unique_solutions"]
    lines.extend(f"{occ},{num}" for occ, num in histogram)
    return "\n".join(lines) + "\n"


def compare(batch: SampleBatch, exact: ExactDistribution) -> ComparisonReport:
    """Total-variation distance, pooled chi-square, and the occurrence histogram.

    A sampled assignment outside the support is a soundness failure and
    raises instead of being scored.
    """
    if len(batch) == 0:
        raise ValueError("empty sample batch")
    if len(exact) == 0:
        raise ValueError("empty support")
    if batch.words != 1:
        raise GuardError("comparison supports at most 64 variables")
    uniq, cnt = np.unique(batch.masks[:, 0], return_counts=True)
    pos = np.searchsorted(exact.masks, uniq)
    inside = pos < len(exact.masks)
    inside[inside] &= exact.masks[pos[inside]] == uniq[inside]
    if not inside.all():
        offender = int(uniq[~inside][0])
        raise SoundnessError(f"sampled assignment {offender:#x} is outside the satisfying set")
    counts = np.zeros(len(exact), dtype=np.int64)
    counts[pos] = cnt
    k = len(batch)
    empirical = counts / k
    tv = 0.5 * float(np.abs(empirical - exact.probs).sum())
    stat, dof, p_value = _pooled_chi_square(counts.astype(np.float64), exact.probs * k)
    return ComparisonReport(
        tv_distance=tv,
        chi_square=stat,
        chi_square_dof=dof,
        chi_square_p=p_value,
        counts=counts,
        histogram=occurrence_histogram(counts),
    )


def expected_occurrence_histogram(exact: ExactDistribution, k: int, max_occurrence: int) -> np.ndarray:
    """Expected number of unique solutions sampled x times, x = 0..max_occurrence.

    Each model's occurrence count is Binomial(k, p); entry x sums the
    probability mass every model puts on occurrence x.
    """
    occ = np.arange(max_occurrence + 1)
    return stats.binom.pmf(occ[:, None], k, exact.probs[None, :]).sum(axis=1)


def occurrence_chi_square(exact: ExactDistribution, counts: np.ndarray, k: int):
    """Chi-square of the observed occurrence histogram against its prediction.

    The open tail beyond the largest observed occurrence is folded into a
    final cell so expected masses sum to the support size.
    """
    max_occ = int(counts.max())
    expected = expected_occurrence_histogram(exact, k, max_occ)
    observed = np.zeros(max_occ + 2, dtype=np.float64)
    values, freqs = np.unique(counts, return_counts=True)
    observed[values] = freqs
    tail = len(exact) - expected.sum()
    expected = np.append(expected, max(tail, 0.0))
    return _pooled_chi_square(observed, expected)
