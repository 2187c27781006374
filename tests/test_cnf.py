import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probdd import CnfFormula, WeightFunction, parse_dimacs, parse_weights
from probdd.cnf import normalize_clause
from probdd.errors import ParseError, WeightError

from helpers import EXAMPLE_DIMACS, dimacs_text


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
        assert parse_dimacs(dimacs_text(formula)) == formula

    def test_weights_round_trip(self):
        table = {1: 0.75, -1: 0.25, 3: 2.5}
        text = "".join(f"w {lit} {weight!r}\n" for lit, weight in table.items())
        assert parse_weights(text, CnfFormula(3, ())) == WeightFunction(table)


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
