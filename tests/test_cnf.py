import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probdd import (
    Assignment,
    CnfFormula,
    WeightFunction,
    evaluate,
    parse_dimacs,
    parse_weights,
    render_dimacs,
    render_weights,
)
from probdd.cnf import normalize_clause
from probdd.errors import ParseError, WeightError

from helpers import EXAMPLE_DIMACS, naive_satisfies, random_mixed_cnf


class TestParseDimacs:
    def test_worked_example(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        assert formula.num_vars == 3
        assert formula.clauses == ((1, 2), (-1, -3))

    def test_zero_clause_formula(self):
        formula = parse_dimacs("p cnf 1 0\n")
        assert formula.num_vars == 1
        assert formula.clauses == ()

    def test_tautology_dropped_and_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="probdd.cnf"):
            formula = parse_dimacs("p cnf 2 1\n1 -1 0\n")
        assert formula.clauses == ()
        assert any("tautolog" in rec.message for rec in caplog.records)

    def test_comments_and_multiline_clauses(self):
        text = "c a comment\np cnf 4 2\n1 2\n3 0 -2\n-4 0\n"
        formula = parse_dimacs(text)
        assert formula.clauses == ((1, 2, 3), (-2, -4))

    def test_duplicate_literals_collapse(self):
        formula = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
        assert formula.clauses == ((1, 2),)

    def test_empty_clause_is_kept(self):
        formula = parse_dimacs("p cnf 2 1\n0\n")
        assert formula.clauses == ((),)

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf x 2\n",
            "p dnf 2 1\n1 0\n",
            "p cnf 2\n",
            "1 2 0\n",
            "p cnf 2 1\n3 0\n",
            "p cnf 2 1\n1 2\n",
            "p cnf 2 2\n1 0\n",
            "p cnf 2 1\n1 0\n2 0\n",
            "p cnf 2 1\np cnf 2 1\n1 0\n",
            "c only a comment\n",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            parse_dimacs(text)


@st.composite
def formulas(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 20))
    clauses = []
    for _ in range(m):
        pairs = draw(st.sets(st.tuples(st.integers(1, n), st.booleans()), min_size=1, max_size=4))
        clause = normalize_clause([v if pos else -v for v, pos in pairs])
        if clause:
            clauses.append(clause)
    return CnfFormula(n, tuple(clauses))


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=200, deadline=None)
    def test_parse_render_round_trip(self, formula):
        assert parse_dimacs(render_dimacs(formula)) == formula

    def test_weights_round_trip(self):
        weights = WeightFunction({1: 0.75, -1: 0.25, 3: 2.5})
        assert parse_weights(render_weights(weights), CnfFormula(3, ())) == weights


class TestEvaluate:
    def test_satisfying_assignment(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        tau = Assignment.from_values({1: True, 2: True, 3: False}, 3)
        assert evaluate(formula, tau) is True

    def test_falsifying_assignment(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        tau = Assignment.from_values({1: True, 2: True, 3: True}, 3)
        assert evaluate(formula, tau) is False

    def test_zero_clause_formula_always_true(self):
        formula = CnfFormula(2, ())
        assert evaluate(formula, {1: False, 2: False}) is True

    def test_incomplete_assignment_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        with pytest.raises(ValueError):
            evaluate(formula, {1: True})

    def test_agrees_with_naive_check(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(1, 20)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 30))
            values = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            assert evaluate(formula, values) == naive_satisfies(formula.clauses, values)


class TestWeights:
    def test_worked_example(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        weights = parse_weights("w 1 0.75\nw -1 0.25\n", formula)
        assert weights[1] == 0.75
        assert weights[-1] == 0.25

    def test_unspecified_literals_default_to_one(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        weights = parse_weights("w 2 0.4\n", formula)
        assert weights[-2] == 1.0
        assert weights[3] == 1.0

    def test_empty_text_is_uniform(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        weights = parse_weights("", formula)
        assert weights == WeightFunction.uniform()
        assert weights[2] == 1.0

    def test_zero_sum_pair_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        with pytest.raises(WeightError):
            parse_weights("w 2 0\nw -2 0\n", formula)

    def test_negative_weight_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        with pytest.raises(WeightError):
            parse_weights("w 1 -0.5\n", formula)

    def test_out_of_range_literal_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        with pytest.raises(ParseError):
            parse_weights("w 9 0.5\n", formula)

    def test_non_numeric_weight_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        with pytest.raises(ParseError, match="bad weight 'abc'"):
            parse_weights("w 1 abc\n", formula)

    def test_comments_allowed(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        weights = parse_weights("# header\nw 1 2.0  # trailing\n", formula)
        assert weights[1] == 2.0

    def test_one_polarity_zero_is_fine(self):
        weights = WeightFunction({1: 0.0})
        assert weights[1] == 0.0
        assert weights[-1] == 1.0


class TestAssignment:
    def test_mask_round_trip(self):
        tau = Assignment.from_mask(0b101, 3)
        assert tau.values == {1: True, 2: False, 3: True}
        assert tau.complete
        assert tau.to_mask() == 0b101

    def test_literals_sorted(self):
        tau = Assignment.from_mask(0b010, 3)
        assert tau.literals() == [-1, 2, -3]

    def test_incomplete_flag(self):
        tau = Assignment.from_values({1: True}, 3)
        assert not tau.complete
