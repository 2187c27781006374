import math
import random
from fractions import Fraction

import numpy as np
import pytest

from probdd import (
    CnfFormula,
    WeightFunction,
    compare,
    exact_distribution,
    model_masks,
    parse_dimacs,
    parse_weights,
)
from probdd.errors import GuardError, SoundnessError, ZeroProbabilityError
from probdd.oracle import (
    expected_occurrence_histogram,
    occurrence_chi_square,
    occurrence_histogram,
    satisfies_masks,
)
from probdd.sampler import SampleBatch

from helpers import (
    EXAMPLE_DIMACS,
    EXAMPLE_MODELS,
    EXAMPLE_WEIGHTS,
    naive_satisfies,
    random_mixed_cnf,
    random_weights,
    rational_distribution,
)


def batch_from_masks(masks, num_vars):
    return SampleBatch(masks=np.array(masks, dtype=np.uint64)[:, None], num_vars=num_vars)


class TestEnumerateModels:
    def test_worked_example(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        assert {int(m) for m in model_masks(formula)} == EXAMPLE_MODELS

    def test_unsatisfiable(self):
        assert len(model_masks(CnfFormula(2, ((),)))) == 0

    def test_zero_clause_formula(self):
        assert model_masks(CnfFormula(3, ())).tolist() == list(range(8))

    def test_guard(self):
        with pytest.raises(GuardError):
            model_masks(CnfFormula(25, ()))

    def test_matches_evaluate_exhaustively(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 10)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            expected = {
                mask
                for mask in range(1 << n)
                if naive_satisfies(formula.clauses, {v: bool((mask >> (v - 1)) & 1) for v in range(1, n + 1)})
            }
            assert set(int(m) for m in model_masks(formula)) == expected


class TestExactDistribution:
    def test_weighted_example(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, parse_weights(EXAMPLE_WEIGHTS, formula))
        assert math.isclose(dist.normalization, 0.375, rel_tol=1e-12)
        by_mask = {int(m): p for m, p in zip(dist.masks, dist.probs)}
        assert by_mask == pytest.approx({3: 0.375, 1: 0.125, 6: 0.375, 2: 0.125})

    def test_unit_weights_uniform(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction.uniform())
        assert np.allclose(dist.probs, 0.25)

    def test_zero_weight_shrinks_support(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction({2: 0.0, -2: 1.0}))
        assert [int(m) for m in dist.masks] == [1]
        assert dist.probs.tolist() == [1.0]

    def test_probabilities_sum_to_one(self):
        rng = random.Random(37)
        checked = 0
        while checked < 30:
            n = rng.randint(1, 10)
            formula = random_mixed_cnf(rng, n, rng.randint(0, n))
            if len(model_masks(formula)) == 0:
                continue
            dist = exact_distribution(formula, random_weights(rng, n))
            assert abs(dist.probs.sum() - 1.0) <= 1e-12
            checked += 1

    def test_rational_mode_is_exact(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = rational_distribution(formula, parse_weights(EXAMPLE_WEIGHTS, formula))
        assert dist.normalization == Fraction(3, 8)

    def test_all_models_killed_raises(self):
        formula = parse_dimacs("p cnf 1 1\n1 0\n")
        with pytest.raises(ZeroProbabilityError):
            exact_distribution(formula, WeightFunction({1: 0.0, -1: 1.0}))

    @pytest.mark.parametrize("levels", [(1e300,), (1e-300,), (1e-300, 1.0, 1e300), (0.0, 1e-200, 1e200)])
    def test_extreme_weights_match_rational(self, levels):
        # products of these weights leave a double's range; their logs do not
        rng = random.Random(len(levels))
        for _ in range(10):
            n = rng.randint(1, 6)
            formula = random_mixed_cnf(rng, n, rng.randint(0, n))
            table = {}
            for v in range(1, n + 1):
                table[v] = rng.choice(levels)
                table[-v] = rng.choice([w for w in levels if w or table[v]])  # never both zero
            weights = WeightFunction(table)
            try:
                exact = rational_distribution(formula, weights)
            except ZeroProbabilityError:
                with pytest.raises(ZeroProbabilityError):
                    exact_distribution(formula, weights)
                continue
            dist = exact_distribution(formula, weights)
            assert np.array_equal(dist.masks, exact.masks)
            assert np.allclose(dist.probs, exact.probs, rtol=1e-12, atol=0)
            try:
                expected = float(exact.normalization)
            except OverflowError:
                expected = math.inf
            assert dist.normalization == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_scaling_invariance_per_variable(self):
        rng = random.Random(41)
        formula = random_mixed_cnf(rng, 6, 8)
        weights = random_weights(rng, 6)
        scaled = WeightFunction(
            {lit: weights[lit] * (2.5 if v % 2 else 0.3) for v in range(1, 7) for lit in (v, -v)}
        )
        base = exact_distribution(formula, weights)
        other = exact_distribution(formula, scaled)
        assert np.array_equal(base.masks, other.masks)
        assert np.allclose(base.probs, other.probs, rtol=1e-12)


class TestCompare:
    def test_exact_match_has_zero_tv(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction.uniform())
        batch = batch_from_masks(sorted(EXAMPLE_MODELS) * 2, 3)
        report = compare(batch, dist)
        assert report.tv_distance == 0.0

    def test_non_model_is_hard_failure(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction.uniform())
        batch = batch_from_masks([1, 2, 7], 3)  # 7 = xyz falsifies the second clause
        with pytest.raises(SoundnessError):
            compare(batch, dist)

    def test_histogram_counts_unique_solutions(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction.uniform())
        batch = batch_from_masks([1, 1, 1, 2, 2, 3], 3)
        report = compare(batch, dist)
        assert report.histogram == [(0, 1), (1, 1), (2, 1), (3, 1)]
        csv = report.histogram_csv().splitlines()
        assert csv[0] == "occurrences,num_unique_solutions"
        assert len(csv) == 5

    def test_empty_batch_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction.uniform())
        with pytest.raises(ValueError):
            compare(batch_from_masks([], 3), dist)


class TestSatisfiesMasks:
    def test_agrees_with_evaluate(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 12)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            masks = np.array([rng.randrange(1 << n) for _ in range(64)], dtype=np.uint64)
            got = satisfies_masks(formula, masks)
            for mask, ok in zip(masks, got):
                values = {v: bool((int(mask) >> (v - 1)) & 1) for v in range(1, n + 1)}
                assert ok == naive_satisfies(formula.clauses, values)


class TestOccurrenceStatistics:
    def test_expected_histogram_mass(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction.uniform())
        expected = expected_occurrence_histogram(dist, k=100, max_occurrence=100)
        assert math.isclose(expected.sum(), len(dist), rel_tol=1e-9)

    def test_chi_square_accepts_faithful_counts(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        dist = exact_distribution(formula, WeightFunction.uniform())
        counts = np.array([25, 25, 25, 25])
        _, _, p_value = occurrence_chi_square(dist, counts, k=100)
        assert p_value > 0.5

    def test_occurrence_histogram_shape(self):
        assert occurrence_histogram(np.array([3, 3, 1, 0])) == [(0, 1), (1, 1), (3, 2)]
