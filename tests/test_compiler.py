import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probdd import (
    CnfFormula,
    VariableOrdering,
    choose_ordering,
    compile_cnf,
    diagram_models,
    export_prob,
    find_violations,
    import_prob,
    model_masks,
    parameterize,
    parse_dimacs,
    smooth,
)
from probdd.errors import GuardError, ParseError, StructureError
from probdd.prob import FALSE_ID, TRUE_ID

from helpers import (
    EXAMPLE_DIMACS,
    EXAMPLE_MODELS,
    compile_heavy_formula,
    mutated_exports,
    random_k_cnf,
    random_mixed_cnf,
    random_weights,
    violated,
    wide_ancestors_prob,
)

# One decision whose branch parameters sum to 0 instead of 1.
UNNORMALIZED_PROB = "prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 D 1 0 1 0 0\nroot 2\n"


def pinned_digests(probs) -> tuple[str, str]:
    """SHA-256 over the diagrams' arenas and exports, and SHA-256 over their exports alone.

    The first hashes each root, every arena slot in creation order, and
    the export, so it also pins nodes that no root reaches. The second
    pins only what the diagrams represent: the exports.
    """
    arena, export = hashlib.sha256(), hashlib.sha256()
    for prob in probs:
        text = export_prob(prob).encode()
        arena.update(f"root {prob.root}\n".encode())
        for node in prob.nodes:
            arena.update(f"{node.kind} {node.var} {node.lo} {node.hi} {node.children}\n".encode())
        arena.update(text)
        export.update(text)
    return arena.hexdigest(), export.hexdigest()


@st.composite
def raw_formulas(draw):
    """Formulas over 0-10 variables, clauses as drawn: literals may repeat,
    a clause may be a tautology, and now and then one is empty. Each clause
    takes its variables from one of two blocks, so several components are
    common, and variables no clause draws stay unused."""
    n = draw(st.integers(0, 10))
    split = draw(st.integers(0, n))
    clauses = []
    for _ in range(draw(st.integers(0, 8))):
        low, high = draw(st.sampled_from([(1, split), (split + 1, n)]))
        if low > high or draw(st.integers(0, 15)) == 0:
            clauses.append(())
            continue
        var = st.integers(low, high)
        clauses.append(tuple(draw(st.lists(st.one_of(var, var.map(lambda v: -v)), min_size=1, max_size=5))))
    return CnfFormula(n, tuple(clauses))


@st.composite
def unit_heavy_formulas(draw):
    """Dense formulas over 8-14 variables: 10-40 clauses of 1-3 distinct
    variables each, so that unit clauses are common and many residuals
    are refuted by their units before they are expanded."""
    n = draw(st.integers(8, 14))
    var = st.integers(1, n)
    lit = st.one_of(var, var.map(lambda v: -v))
    clause = st.lists(lit, min_size=1, max_size=3, unique_by=abs).map(tuple)
    return CnfFormula(n, tuple(draw(st.lists(clause, min_size=10, max_size=40))))


class TestChooseOrdering:
    def test_natural(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        assert choose_ordering(formula, "natural").order == (1, 2, 3)

    def test_occurrence_desc_counts_by_hand(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        # x appears twice, y and z once each; ties break by index
        assert choose_ordering(formula, "occ").order == (1, 2, 3)

    def test_occurrence_desc_reorders(self):
        formula = parse_dimacs("p cnf 3 3\n3 0\n3 1 0\n2 0\n")
        assert choose_ordering(formula, "occ").order == (3, 1, 2)

    def test_zero_clause_tie_break(self):
        formula = CnfFormula(2, ())
        assert choose_ordering(formula, "occ").order == (1, 2)

    def test_bad_heuristic(self):
        with pytest.raises(ValueError):
            choose_ordering(CnfFormula(1, ()), "random")

    def test_ordering_must_be_permutation(self):
        with pytest.raises(ValueError):
            VariableOrdering((1, 3))


class TestCompile:
    def test_worked_example_structure(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        root = prob.nodes[prob.root]
        assert root.kind == "D" and root.var == 1
        lo, hi = prob.nodes[root.lo], prob.nodes[root.hi]
        assert (lo.var, lo.lo, lo.hi) == (2, FALSE_ID, TRUE_ID)
        assert (hi.var, hi.lo, hi.hi) == (3, TRUE_ID, FALSE_ID)
        assert prob.node_count == 5
        assert set(int(m) for m in diagram_models(prob)) == EXAMPLE_MODELS

    def test_zero_clauses_is_true_terminal(self):
        prob = compile_cnf(CnfFormula(2, ()))
        assert prob.root == TRUE_ID
        assert prob.node_count == 1

    def test_empty_clause_is_false_terminal(self):
        prob = compile_cnf(CnfFormula(2, ((), (1, 2))))
        assert prob.root == FALSE_ID
        assert prob.node_count == 1
        assert len(prob.nodes) == 2  # the other clause is never expanded

    def test_variable_guard(self):
        with pytest.raises(GuardError):
            compile_cnf(CnfFormula(31, ()))
        compile_cnf(CnfFormula(31, ()), max_vars=40)

    def test_unique_table_shares_duplicate_clauses(self):
        single = compile_cnf(parse_dimacs("p cnf 2 1\n1 2 0\n"))
        doubled = compile_cnf(parse_dimacs("p cnf 2 2\n1 2 0\n1 2 0\n"))
        assert single.node_count == doubled.node_count

    def test_conjunction_from_disjoint_components(self):
        formula = parse_dimacs("p cnf 4 2\n1 2 0\n3 4 0\n")
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        assert prob.nodes[prob.root].kind == "A"
        assert "decomposability" not in violated(prob)
        assert set(int(m) for m in diagram_models(prob)) == {
            int(m) for m in model_masks(formula)
        }

    def test_model_sets_match_oracle(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(1, 16)
            formula = random_mixed_cnf(rng, n, rng.randint(0, min(40, 3 * n)))
            prob = compile_cnf(formula)
            assert np.array_equal(diagram_models(prob), model_masks(formula))
            assert violated(prob) <= {"smoothness"}

    def test_repeated_literals_and_tautologies_match_oracle(self):
        # CnfFormula does not normalize its clauses: a tautology and a
        # repeated literal must neither change the models nor let the
        # compiler decide a variable twice on one path.
        formula = CnfFormula(3, ((1, -1), (2, 2, -3), (-2, 3, 1)))
        for heuristic in ("natural", "occ"):
            prob = compile_cnf(formula, choose_ordering(formula, heuristic))
            assert np.array_equal(diagram_models(prob), model_masks(formula))
            assert "determinism" not in violated(prob)

    @given(raw_formulas(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_smoothed_models_match_oracle(self, formula, data):
        expected = model_masks(formula)
        permutation = VariableOrdering(data.draw(st.permutations(range(1, formula.num_vars + 1))))
        orderings = [choose_ordering(formula, heuristic) for heuristic in ("natural", "occ")]
        for ordering in orderings + [permutation]:
            prob = smooth(compile_cnf(formula, ordering))
            assert np.array_equal(diagram_models(prob), expected)

    @given(unit_heavy_formulas())
    @settings(max_examples=150, deadline=None)
    def test_unit_heavy_models_match_oracle(self, formula):
        expected = model_masks(formula)
        for heuristic in ("natural", "occ"):
            prob = compile_cnf(formula, choose_ordering(formula, heuristic))
            assert (prob.root == FALSE_ID) == (len(expected) == 0)
            assert np.array_equal(diagram_models(smooth(prob)), expected)

    def test_long_clause_interns_without_recursion(self):
        # one clause of 1,500 literals has 1,500 suffixes to intern and
        # compiles to a chain of one decision per variable
        n = 1500
        formula = CnfFormula(n, (tuple(v if v % 2 else -v for v in range(1, n + 1)),))
        ordering = VariableOrdering(range(n, 0, -1))
        prob = compile_cnf(formula, ordering, max_vars=n)
        assert sum(node.kind == "D" for node in prob.nodes) == n
        root = prob.nodes[prob.root]
        assert root.kind == "D" and root.var == ordering.order[0]

    def test_deterministic_export(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 12)
            formula = random_mixed_cnf(rng, n, rng.randint(1, 2 * n))
            ordering = choose_ordering(formula)
            first = export_prob(compile_cnf(formula, ordering))
            second = export_prob(compile_cnf(formula, ordering))
            assert first == second

    def test_node_creation_order_is_pinned(self):
        # SHA-256 over the arena (node ids in creation order) and the export
        # of compile_heavy_formula under both orderings. The export digest
        # was recorded before the unit-conflict check was added and the
        # arena digest with it: the check only leaves out the unreachable
        # nodes that satisfiable parts of refuted residuals used to build.
        formula = compile_heavy_formula()
        arena, export = pinned_digests(compile_cnf(formula, choose_ordering(formula, heuristic))
                                       for heuristic in ("natural", "occ"))
        assert arena == "aa22ca1d862a22b5a25de39c654e28fc55b68d2ae52cd2aba3677c8c62acfe54"
        assert export == "d4efa9ac307ad6bef0853f21982a695d13c6053d5c2fac026302ab73062c78a0"

    def test_random_formula_arenas_are_pinned(self):
        # SHA-256 over the arenas (creation order) and exports of 60 seeded
        # formulas under both orderings, the exports recorded before the
        # unit-conflict check and the arenas with it (see the test above).
        # The set covers unsatisfiable, zero-clause, free-variable and
        # multi-component formulas over 1-20 variables.
        rng = random.Random(31)
        formulas = []
        for i in range(60):
            n = rng.randint(1, 20)
            shape = i % 4
            if shape == 0:  # sparse: free variables and several components
                formula = random_mixed_cnf(rng, n, rng.randint(0, n // 2))
            elif shape == 1:  # dense: often unsatisfiable
                formula = random_mixed_cnf(rng, n, rng.randint(n, 2 * n))
            elif shape == 2:  # two blocks over disjoint variables
                a = max(1, n // 2)
                b = max(1, n - a)
                left = random_mixed_cnf(rng, a, rng.randint(1, 2 * a))
                right = random_mixed_cnf(rng, b, rng.randint(1, 2 * b))
                shifted = tuple(tuple(l + a if l > 0 else l - a for l in cl) for cl in right.clauses)
                formula = CnfFormula(a + b, left.clauses + shifted)
            else:
                formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            formulas.append(formula)
        kinds = {"unsat": 0, "empty": 0, "free": 0, "split": 0}
        probs = []
        for formula in formulas:
            kinds["empty"] += not formula.clauses
            kinds["free"] += len(set(formula.variables()) - {abs(l) for cl in formula.clauses for l in cl}) > 0
            for heuristic in ("natural", "occ"):
                prob = compile_cnf(formula, choose_ordering(formula, heuristic))
                kinds["unsat"] += prob.root == FALSE_ID
                kinds["split"] += prob.nodes[prob.root].kind == "A"
                probs.append(prob)
        assert all(kinds.values()), kinds
        arena, export = pinned_digests(probs)
        assert arena == "1b85216aed3bc6926903bc49f536fc4500a6eb725627833a1c11034d6e5b1f7d"
        assert export == "c9debef9c6a74006065e46ad21257226c4a37c14a4629536c65c97046f64d802"

    def test_arenas_past_one_machine_word_are_pinned(self):
        # SHA-256 over the arenas (creation order) and exports of formulas
        # with more than 64 variables and more than 64 clause suffixes, the
        # exports recorded before the unit-conflict check and the arenas
        # with it (see test_node_creation_order_is_pinned). They are a
        # 200-variable chain and a 100-variable ladder under both orderings,
        # a 30-variable random 3-CNF under the default one (natural takes
        # seconds), and one clause of 1,500 literals, natural and reversed.
        chain = CnfFormula(200, tuple((v, v + 1) for v in range(1, 200)))
        ladder = CnfFormula(100, tuple((-v, v + 1) for v in range(1, 100))
                            + tuple((v, -v - 1, v + 2) for v in range(1, 99)))
        random_3cnf = random_k_cnf(random.Random(1), 30, 60)
        long_clause = CnfFormula(1500, (tuple(v if v % 2 else -v for v in range(1, 1501)),))
        cases = [(formula, choose_ordering(formula, heuristic))
                 for formula in (chain, ladder) for heuristic in ("natural", "occ")]
        cases += [(random_3cnf, choose_ordering(random_3cnf)),
                  (long_clause, choose_ordering(long_clause, "natural")),
                  (long_clause, VariableOrdering(range(1500, 0, -1)))]
        arena, export = pinned_digests(compile_cnf(formula, ordering, max_vars=formula.num_vars)
                                       for formula, ordering in cases)
        assert arena == "9bed75bdf2e807d5c8a40edc476bef055ebd849a9b0521889ee478be82ae678c"
        assert export == "bf36cd955bcc3c9390ddc00b34c95fe5205a0a179d971b4f406cbf4b01f1e8c9"

    def test_parts_are_ordered_by_lowest_variable(self):
        # The passes that grow a part walk the pending clauses up and down
        # in turn, so a part can be seeded above its lowest variable. Here
        # the decisions on variables 6 and 7 are two parts of the root that
        # only come out in this order, as recorded at the frozenset
        # compiler, when the parts are sorted by lowest variable.
        formula = CnfFormula(10, ((1,), (-9,), (2, 4, -9), (4, 8, 9), (4,), (7,), (-2,), (-5, 9, 10),
                                  (3,), (8,), (6,)))
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        listing = [(node.kind, node.var, node.lo, node.hi, node.children) for node in prob.nodes]
        assert prob.root == 14
        assert listing == [
            ("F", 0, 0, 0, ()), ("T", 0, 0, 0, ()),
            ("D", 1, 0, 1, ()), ("D", 9, 1, 0, ()), ("D", 10, 0, 1, ()), ("D", 9, 4, 0, ()),
            ("D", 5, 3, 5, ()), ("D", 8, 0, 1, ()), ("A", 0, 0, 0, (6, 7)), ("D", 4, 0, 8, ()),
            ("D", 2, 9, 0, ()), ("D", 3, 0, 1, ()), ("D", 6, 0, 1, ()), ("D", 7, 0, 1, ()),
            ("A", 0, 0, 0, (2, 10, 11, 12, 13)),
        ]

    def test_refuted_residual_builds_no_nodes(self):
        # Under 1=1 the units (5) and (-5) clash beside a satisfiable part
        # over {2, 3, 4}. Expanded, the residual would split and compile
        # that part into five decisions before its other part came out
        # FALSE; refuted, it builds nothing, so every arena slot is
        # reachable. Without variable 1 in the last two clauses the root
        # would split first, and the clash would have no part beside it.
        formula = CnfFormula(5, ((-1, 5), (-1, -5), (-1, 2, -3, 4), (-1, -2, 3, -4)))
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        listing = [(node.kind, node.var, node.lo, node.hi, node.children) for node in prob.nodes]
        assert listing == [("F", 0, 0, 0, ()), ("T", 0, 0, 0, ()), ("D", 1, 1, 0, ())]
        assert prob.root == 2
        assert len(prob.topo_order()) == len(prob.nodes)
        assert np.array_equal(diagram_models(prob), model_masks(formula))


class TestTextFormat:
    def test_example_pre_smooth_listing(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        text = export_prob(prob)
        lines = text.splitlines()
        assert lines[0] == "prob 1.0"
        assert lines[1] == "nvars 3"
        assert lines[2] == "nnodes 5"  # two terminals plus three decisions
        assert lines[3] == "0 F"
        assert lines[4] == "1 T"
        assert lines[-1].startswith("root ")

    def test_round_trip_smooth_example(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = smooth(compile_cnf(formula, choose_ordering(formula, "natural")))
        text = export_prob(prob)
        back = import_prob(text)
        assert back.node_count == 9
        assert back.smooth
        assert export_prob(back) == text

    def test_smoothing_an_import_equals_smoothing_the_compile(self):
        # `probdd compile --smooth` smooths the compiled diagram, `probdd
        # smooth` the diagram that `probdd compile` wrote: both must write
        # the same text.
        rng = random.Random(29)
        formulas = [compile_heavy_formula()]
        for _ in range(500):
            n = rng.randint(1, 14)
            formulas.append(random_mixed_cnf(rng, n, rng.randint(0, 3 * n)))
        for formula in formulas:
            for heuristic in ("natural", "occ"):
                prob = compile_cnf(formula, choose_ordering(formula, heuristic))
                text = export_prob(prob)
                assert export_prob(smooth(prob)) == export_prob(smooth(import_prob(text)))

    def test_round_trip_with_parameters(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 10)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            prob = smooth(compile_cnf(formula))
            parameterize(prob, random_weights(rng, n))
            text = export_prob(prob)
            back = import_prob(text)
            assert back.parameterized
            assert export_prob(back) == text
            assert np.array_equal(diagram_models(back), diagram_models(prob))

    def test_import_rejects_overlapping_conjunction(self):
        text = (
            "prob 1.0\nnvars 2\nnnodes 5\n0 F\n1 T\n"
            "2 D 2 0 1\n3 D 1 2 1\n4 A 2 2 3\nroot 4\n"
        )
        with pytest.raises(StructureError) as err:
            import_prob(text)
        assert err.value.property_name == "decomposability"
        assert err.value.node_id == 4

    def test_import_rejects_duplicated_variable_on_path(self):
        text = "prob 1.0\nnvars 1\nnnodes 4\n0 F\n1 T\n2 D 1 0 1\n3 D 1 2 1\nroot 3\n"
        with pytest.raises(StructureError) as err:
            import_prob(text)
        assert err.value.property_name == "determinism"

    def test_import_rejects_forward_reference(self):
        text = "prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 D 1 3 1\nroot 2\n"
        with pytest.raises(ParseError):
            import_prob(text)

    def test_import_rejects_bad_header(self):
        with pytest.raises(ParseError):
            import_prob("nvars 1\nnnodes 2\n0 F\n1 T\nroot 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("prob 2.0\nnvars 0\nnnodes 2\n0 F\n1 T\nroot 1\n", "unsupported format version"),
            ("prob 1.0\nnvars 1\n", "missing 'nnodes' line"),
            ("prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 A\nroot 2\n", "conjunction lines are"),
            ("prob 1.0\nnvars 0\nnnodes 2\n0 F\n1 T\nroot 5\n", "root id 5 does not exist"),
            ("prob 1.0\nnvars 0\nnnodes 2\n0 F\n1 T\nroot x\n", "expected 'root <int>', got 'root x'"),
            ("prob 1.0\nnvars 0\nnnodes 2\n0 F\n1 T\nroot\n", "expected 'root <int>', got 'root'"),
            ("prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 D 1 0 1 x 0.5\nroot 2\n", "node 2: bad parameter field"),
            ("prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 D 1 0 1 0.5 nan\nroot 2\n", "node 2: parameters must be finite"),
            ("prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 D 1 0 1 -0.5 1.5\nroot 2\n", "node 2: parameters must be non-negative"),
            ("prob 1.0\nnvars 2\nnnodes 5\n0 F\n1 T\n2 D 1 0 1\n3 D 2 0 1\n4 D 2 1 0 0.5 0.5\nroot 4\n",
             "node 4: branch parameters must appear on all decision lines or none"),
            ("prob 1.0\nnvars 0\nnnodes 5\n0 F\n1 T\n# comments and blank lines do not count\n\nroot 1\nroot 1\n",
             "expected 5 node lines plus a root line, found 4 lines after nnodes"),
            ("prob 1.0\nnvars 0\nnnodes 2\n0 F\n1 T\nroot 1\nroot 1\n",
             "expected 2 node lines plus a root line, found 4 lines after nnodes"),
            # the count is reported ahead of the faulty node line 2
            ("prob 1.0\nnvars 1\nnnodes 4\n0 F\n1 T\n2 Q\nroot 2\n",
             "expected 4 node lines plus a root line, found 4 lines after nnodes"),
        ],
    )
    def test_import_rejects_malformed_lines(self, text, message):
        with pytest.raises(ParseError, match=message):
            import_prob(text)

    def test_import_rejects_partial_parameters(self):
        text = (
            "prob 1.0\nnvars 2\nnnodes 4\n0 F\n1 T\n"
            "2 D 1 0 1 0.5 0.5\n3 D 2 2 1\nroot 3\n"
        )
        with pytest.raises(ParseError):
            import_prob(text)

    def test_import_rejects_single_child_conjunction(self):
        text = "prob 1.0\nnvars 1\nnnodes 4\n0 F\n1 T\n2 D 1 0 1\n3 A 1 2\nroot 3\n"
        with pytest.raises(ParseError):
            import_prob(text)

    def test_import_checks_only_reachable_nodes(self):
        # node 3 decides variable 1 twice, but no path from the root reaches it
        text = "prob 1.0\nnvars 1\nnnodes 5\n0 F\n1 T\n2 D 1 0 1\n3 D 1 2 1\n4 D 1 0 1\nroot 4\n"
        prob = import_prob(text)
        assert prob.smooth
        assert export_prob(prob) == "prob 1.0\nnvars 1\nnnodes 3\n0 F\n1 T\n2 D 1 0 1\nroot 2\n"

    @given(mutated_exports())
    @settings(max_examples=600, deadline=None)
    def test_import_of_mutated_exports_raises_only_input_errors(self, text):
        try:
            import_prob(text)
        except (ParseError, StructureError):
            pass

    def test_import_records_smoothness(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        skeleton = compile_cnf(formula, choose_ordering(formula, "natural"))
        assert not import_prob(export_prob(skeleton)).smooth
        assert import_prob(export_prob(smooth(skeleton))).smooth

    def test_import_rejects_bad_arity(self):
        text = "prob 1.0\nnvars 2\nnnodes 5\n0 F\n1 T\n2 D 1 0 1\n3 D 2 0 1\n4 A 3 2 3\nroot 4\n"
        with pytest.raises(ParseError):
            import_prob(text)

    def test_export_rejects_cycles(self):
        formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        root = prob.nodes[prob.root]
        prob.nodes[root.lo].lo = prob.root  # wire a back edge by hand
        with pytest.raises(StructureError):
            export_prob(prob)
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        prob.nodes[prob.root].hi = prob.root  # and a self-loop
        with pytest.raises(StructureError) as err:
            export_prob(prob)
        assert err.value.node_id == prob.root

    def test_import_rejects_parameters_not_summing_to_one(self):
        with pytest.raises(StructureError) as err:
            import_prob(UNNORMALIZED_PROB)
        assert err.value.property_name == "parameters"
        assert err.value.node_id == 2

    def test_import_memory_does_not_grow_with_nvars(self):
        text = "prob 1.0\nnvars 100000000\nnnodes 3\n0 F\n1 T\n2 D 1 0 1\nroot 2\n"
        tracemalloc.start()
        try:
            prob = import_prob(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not prob.smooth
        (violation,) = find_violations(prob)
        assert violation.detail == "diagram never mentions 99999999 variables, first [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"

    def test_import_memory_of_a_high_numbered_variable(self):
        # A var_sets mask is as wide as its highest variable: deciding variable 10**8
        # costs a 12.5 MB mask per node above it. Naming the root's first ten gaps or a
        # branch difference adds only a few mask-wide ints, and no digit string that wide.
        mask_bytes = 100000000 // 8
        head = "prob 1.0\nnvars 100000000\n"
        cases = [
            ("nnodes 3\n0 F\n1 T\n2 D 100000000 0 1\nroot 2\n", 3,
             ["diagram never mentions 99999999 variables, first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"]),
            ("nnodes 4\n0 F\n1 T\n2 D 100000000 0 1\n3 D 1 1 2\nroot 3\n", 5,
             ["branches of node 3 differ on variables [100000000]",
              "diagram never mentions 99999998 variables, first [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"]),
        ]
        for body, masks, details in cases:
            tracemalloc.start()
            try:
                prob = import_prob(head + body)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < masks * mask_bytes
            assert [violation.detail for violation in find_violations(prob)] == details

    def test_import_refuses_masks_past_the_bound(self):
        # 203 nodes of 10**8-bit masks would ask for about 2.5 GB; the file is refused
        # before any mask is built.
        text = wide_ancestors_prob(200)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="203 nodes deciding variables up to 100000000"):
                import_prob(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_import_of_a_wide_chain_is_not_refused(self):
        # About 4,000 nodes over 2,000 variables before smoothing and 8,000 after: far below the bound.
        formula = CnfFormula(2000, tuple((v, v + 1) for v in range(1, 2000)))
        prob = compile_cnf(formula, choose_ordering(formula, "natural"), max_vars=2000)
        for text in (export_prob(prob), export_prob(smooth(prob))):
            assert export_prob(import_prob(text)) == text
