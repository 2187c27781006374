"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single `criterion N (...): PASS|FAIL` line so the
whole gate can be read off a `pytest -s` run.
"""

import math
import random
import time

import numpy as np
import pytest

from probdd import (
    CnfFormula,
    Prob,
    WeightFunction,
    annotate,
    annotate_rational,
    choose_ordering,
    compare,
    compile_cnf,
    diagram_models,
    exact_distribution,
    export_prob,
    find_violations,
    log_sum_exp,
    model_masks,
    parameterize,
    parse_dimacs,
    sample,
    smooth,
    update_weights,
    weighted_model_count,
    run_incremental,
)
from probdd.oracle import occurrence_chi_square, satisfies_masks
from probdd.prob import FALSE_ID, TRUE_ID
from probdd.sampler import round_seed

from helpers import (
    EXAMPLE_DIMACS,
    EXAMPLE_MODELS,
    guarded_pigeonhole,
    histogram_benchmark_formula,
    constrained_instances,
    random_mixed_cnf,
    random_weights,
    violated,
)

NEG_INF = float("-inf")


class criterion:
    def __init__(self, number: int, name: str, budget_s: float | None = None):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        over_budget = exc_type is None and self.budget_s is not None and elapsed > self.budget_s
        status = "PASS" if exc_type is None and not over_budget else "FAIL"
        print(f"criterion {self.number:2d} ({self.name}): {status} [{elapsed:.1f}s]")
        if over_budget:
            raise AssertionError(f"criterion {self.number} exceeded its {self.budget_s:.0f}s budget: {elapsed:.1f}s")
        return False


def satisfiable_instances(seed: int, count: int, max_vars: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_vars)
        formula = random_mixed_cnf(rng, n, rng.randint(1, min(40, 3 * n)))
        if len(model_masks(formula)):
            out.append(formula)
    return out


def test_criterion_01_worked_example_fidelity():
    with criterion(1, "worked-example fidelity", budget_s=1.0):
        t0 = time.perf_counter()
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))

        offenders = [v for v in find_violations(prob) if v.property_name == "smoothness"]
        assert len(offenders) == 1
        assert prob.nodes[offenders[0].node_id].var == 1  # fails at the x decision
        assert "smoothness" in violated(prob)

        smooth(prob)
        assert prob.node_count == 9
        assert set(int(m) for m in diagram_models(prob)) == EXAMPLE_MODELS
        assert violated(prob) == set()

        root = prob.nodes[prob.root]
        assert root.kind == "D" and root.var == 1
        for conj_id, dc_var in ((root.lo, 3), (root.hi, 2)):
            conj = prob.nodes[conj_id]
            assert conj.kind == "A" and len(conj.children) == 2
            dc = [c for c in conj.children if prob.nodes[c].lo == TRUE_ID and prob.nodes[c].hi == TRUE_ID]
            assert [prob.nodes[c].var for c in dc] == [dc_var]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_soundness_and_completeness():
    with criterion(2, "sampling soundness and completeness", budget_s=120.0):
        formulas = satisfiable_instances(seed=202, count=500, max_vars=16)
        per_formula = 200  # 500 * 200 = 1e5 samples in total
        total = 0
        for index, formula in enumerate(formulas):
            prob = smooth(compile_cnf(formula))
            parameterize(prob, random_weights(random.Random(index), formula.num_vars))
            batch = sample(prob, per_formula, seed=index)
            assert satisfies_masks(formula, batch.masks).all()
            assert batch.num_vars == formula.num_vars
            assert batch.masks.shape == (per_formula, 1)
            assert (batch.masks >> np.uint64(formula.num_vars) == 0).all()
            total += len(batch)
        assert total == 100_000


def test_criterion_03_distribution_correctness():
    with criterion(3, "distribution correctness", budget_s=600.0):
        # 24 to 48 models each: the support the TV bound is argued for, not the one-model formulas
        # that denser random clauses mostly give.
        formulas = constrained_instances(seed=31, count=50, max_vars=12, max_models=48, min_models=24, clauses=(1, 2))
        worst = 0.0
        for index, formula in enumerate(formulas):
            rng = random.Random(1000 + index)
            weights = random_weights(rng, formula.num_vars, 0.1, 10.0)
            prob = smooth(compile_cnf(formula))
            parameterize(prob, weights)
            batch = sample(prob, 10**6, seed=500 + index)
            report = compare(batch, exact_distribution(formula, weights))
            worst = max(worst, report.tv_distance)
            assert report.tv_distance < 0.005
        print(f"max tv over 50 formulas at k=1e6: {worst:.5f}", end=" ")


def test_criterion_04_occurrence_histogram():
    with criterion(4, "occurrence-histogram fidelity", budget_s=120.0):
        formula = histogram_benchmark_formula()
        assert formula.num_vars <= 24
        weights = WeightFunction(
            {lit: (0.75 if lit > 0 else 0.25) for v in formula.variables() for lit in (v, -v)}
        )
        prob = smooth(compile_cnf(formula))
        parameterize(prob, weights)
        k = 10**6
        batch = sample(prob, k, seed=20260809)
        exact = exact_distribution(formula, weights)
        report = compare(batch, exact)
        csv_lines = report.histogram_csv().splitlines()
        assert csv_lines[0] == "occurrences,num_unique_solutions"
        assert len(csv_lines) > 2
        stat, dof, p_value = occurrence_chi_square(exact, report.counts, k)
        print(f"support={len(exact)} chi2={stat:.1f} dof={dof} p={p_value:.4f}", end=" ")
        assert p_value > 0.001


def test_criterion_05_counting_agreement():
    with criterion(5, "counting agreement", budget_s=60.0):
        rng = random.Random(505)
        unit = WeightFunction.uniform()
        for _ in range(500):
            n = rng.randint(1, 16)
            formula = random_mixed_cnf(rng, n, rng.randint(0, min(40, 3 * n)))
            prob = smooth(compile_cnf(formula))
            count = len(model_masks(formula))
            assert weighted_model_count(prob, unit, "rational") == count
            if count:
                assert math.isclose(weighted_model_count(prob, unit, "log"), count, rel_tol=1e-9)
            else:
                assert weighted_model_count(prob, unit, "log") == 0.0


def test_criterion_06_incremental_equivalence():
    with criterion(6, "incremental equivalence", budget_s=300.0):
        formulas = constrained_instances(seed=66, count=20, max_vars=12, max_models=24, min_models=12, clauses=(1, 2))
        k = 10**5
        for index, formula in enumerate(formulas):
            ordering = choose_ordering(formula)
            prob = smooth(compile_cnf(formula, ordering))
            weights = random_weights(random.Random(index), formula.num_vars, 0.5, 2.0)
            for rnd in range(1, 6):
                if rnd == 1:
                    parameterize(prob, weights)
                else:
                    weights = random_weights(random.Random(100 * index + rnd), formula.num_vars, 0.1, 10.0)
                    update_weights(prob, weights)
                fresh = smooth(compile_cnf(formula, ordering))
                parameterize(fresh, weights)
                assert export_prob(fresh) == export_prob(prob)  # same structure, same parameters

                exact = exact_distribution(formula, weights)
                tv_inc = compare(sample(prob, k, seed=round_seed(index, rnd)), exact).tv_distance
                tv_fresh = compare(sample(fresh, k, seed=round_seed(7_000 + index, rnd)), exact).tv_distance
                assert tv_inc < 0.01
                assert tv_fresh < 0.01


def test_criterion_07_amortization():
    with criterion(7, "amortization of compilation"):
        # refuting 7 pigeons in 6 holes under its guard is the whole compile
        formula = guarded_pigeonhole(6)
        reports = run_incremental(formula, WeightFunction.uniform(), rounds=10, k=100, seed=3,
                                  max_vars=formula.num_vars)
        first = reports[0]
        assert first.compile_s >= 10 * first.sample_s, "instance must be compile-dominated"
        later = [rep.total_s for rep in reports[1:]]
        assert sum(later) / len(later) < 0.5 * first.total_s
        print(
            f"round1={first.total_s * 1000:.0f}ms mean(rounds 2-10)={1000 * sum(later) / len(later):.1f}ms"
            f" compile/sample={first.compile_s / first.sample_s:.0f}x",
            end=" ",
        )


def test_criterion_08_log_vs_rational_ablation():
    with criterion(8, "log vs rational ablation"):
        from helpers import random_k_cnf

        instances = []
        for seed in range(10):
            rng = random.Random(100 + seed)
            n = rng.randint(16, 20)
            formula = random_k_cnf(rng, n, int(2.6 * n))
            prob = compile_cnf(formula)
            if prob.root == FALSE_ID:
                continue
            smooth(prob)
            parameterize(prob, random_weights(rng, n, 0.1, 10.0))
            instances.append(prob)
        assert len(instances) >= 8

        k = 20_000
        # Each timing spans several calls at the same k, so it lasts well
        # over 10 ms on a fast machine; a larger k would instead shift the
        # comparison towards the draws both modes share.
        calls_per_timing = 4
        wins = 0
        measurable = 0
        for index, prob in enumerate(instances):
            phi_log = annotate(prob)
            phi_rat = annotate_rational(prob)
            assert set(phi_log) == set(phi_rat)
            for nid, value in phi_log.items():
                assert math.isclose(math.exp(value), float(phi_rat[nid]), rel_tol=1e-9)

            def best_of(mode):
                times = []
                for _ in range(3):
                    t0 = time.perf_counter()
                    for _ in range(calls_per_timing):
                        sample(prob, k, seed=index, mode=mode)
                    times.append(time.perf_counter() - t0)
                return min(times)

            t_log, t_rational = best_of("log"), best_of("rational")
            if max(t_log, t_rational) >= 0.010:
                measurable += 1
                wins += t_log <= t_rational
        assert measurable >= 8
        print(f"log wins {wins}/{measurable}", end=" ")
        assert wins / measurable >= 0.7


def test_criterion_09_log_sum_exp_stability():
    with criterion(9, "log-sum-exp numerical stability"):
        got = log_sum_exp(-1000.0, -1001.0)
        closed_form = -1000.0 + math.log1p(math.exp(-1.0))
        assert math.isfinite(got)
        assert abs(got - closed_form) <= 1e-12
        rng = random.Random(9)
        for _ in range(1000):
            a = rng.uniform(-700, 700)
            assert log_sum_exp(a, NEG_INF) == a
            assert log_sum_exp(NEG_INF, a) == a


def _decision_chain(prob: Prob, first_lo: int, first_hi: int, last_var: int) -> int:
    """D(1, first_lo, first_hi) wrapped in don't-care decisions on 2..last_var."""
    node = prob.add_decision(1, first_lo, first_hi)
    for var in range(2, last_var + 1):
        node = prob.add_decision(var, node, node)
    return node


def _determinism_violation(variant: int) -> Prob:
    """Variable 1 re-decided below its own decision; smooth and decomposable."""
    n = 2 + variant  # distinct depth per variant
    prob = Prob(n)
    chain = _decision_chain(prob, FALSE_ID, TRUE_ID, n)
    prob.root = prob.add_decision(1, chain, chain)
    return prob


def _decomposability_violation(variant: int) -> Prob:
    """Conjunction children overlapping on one variable; decisions stay clean."""
    n = 1 + variant
    prob = Prob(n)
    left = _decision_chain(prob, FALSE_ID, TRUE_ID, n)
    if n == 1:
        other = prob.add_decision(1, TRUE_ID, FALSE_ID)
    else:
        other = prob.add_decision(n, TRUE_ID, TRUE_ID)  # overlaps left on variable n
    prob.root = prob.add_conj([left, other])
    return prob


def _smoothness_violation(variant: int) -> Prob:
    """Branches with unequal variable sets, or a variable missing entirely."""
    if variant < 4:
        prob = Prob(2)
        deeper = (
            prob.add_decision(2, TRUE_ID, TRUE_ID)
            if variant < 2
            else prob.add_decision(2, FALSE_ID, TRUE_ID)
        )
        lo, hi = (TRUE_ID, deeper) if variant % 2 else (deeper, TRUE_ID)
        prob.root = prob.add_decision(1, lo, hi)
    elif variant == 4:
        prob = Prob(2)
        prob.root = prob.add_decision(1, FALSE_ID, TRUE_ID)  # variable 2 never mentioned
    else:
        prob = Prob(3)
        a = prob.add_decision(2, TRUE_ID, TRUE_ID)
        b = prob.add_decision(3, TRUE_ID, TRUE_ID)
        prob.root = prob.add_decision(1, a, b)  # {2} on one side, {3} on the other
    return prob


def test_criterion_10_property_checkers():
    with criterion(10, "property checkers"):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randint(1, 14)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            prob = smooth(compile_cnf(formula))
            assert violated(prob) == set()

        cases = []
        cases.extend(("determinism", _determinism_violation(i)) for i in range(7))
        cases.extend(("decomposability", _decomposability_violation(i)) for i in range(7))
        cases.extend(("smoothness", _smoothness_violation(i)) for i in range(6))
        assert len(cases) == 20
        for expected, prob in cases:
            assert violated(prob) == {expected}
