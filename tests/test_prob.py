import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probdd import (
    CnfFormula,
    Prob,
    WeightFunction,
    annotate,
    annotate_rational,
    choose_ordering,
    compile_cnf,
    diagram_models,
    export_prob,
    find_violations,
    import_prob,
    log_sum_exp,
    model_masks,
    parse_dimacs,
    parameterize,
    sample,
    smooth,
    var_sets,
    weighted_model_count,
)
from probdd.errors import GuardError, StructureError, WeightError
from probdd.oracle import satisfies_masks
from probdd.prob import FALSE_ID, MAX_ENUM_VARS, MAX_ROOT_DONT_CARES, TRUE_ID, Node, Violation, mask_variables

from helpers import (
    EXAMPLE_DIMACS,
    EXAMPLE_MODELS,
    compile_heavy_formula,
    mask_set,
    naive_var_sets,
    random_mixed_cnf,
    random_weights,
    violated,
)

NEG_INF = float("-inf")


@pytest.fixture
def example_pre_smooth():
    formula = parse_dimacs(EXAMPLE_DIMACS)
    return formula, compile_cnf(formula, choose_ordering(formula, "natural"))


@pytest.fixture
def example_smooth(example_pre_smooth):
    formula, prob = example_pre_smooth
    return formula, smooth(prob)


@st.composite
def covered_variables(draw):
    """(n, S): a variable count n and a sorted S of 1..n, a prefix of 1..n plus scattered variables.

    n is drawn up to a few hundred or near 10**4 or 10**6, so that masks
    pass 4096 bits and the first gaps may lie past a long covered prefix.
    """
    n = draw(st.one_of(st.integers(1, 300), st.integers(9_000, 11_000), st.integers(990_000, 1_000_000)))
    prefix = draw(st.integers(0, min(n, 5000)))
    scattered = draw(st.sets(st.integers(1, n), max_size=40))
    return n, sorted(scattered.union(range(1, prefix + 1)))


def weights_75():
    return WeightFunction({lit: (0.75 if lit > 0 else 0.25) for v in (1, 2, 3) for lit in (v, -v)})


class TestVarSets:
    def test_worked_example(self, example_smooth):
        _, prob = example_smooth
        kappa = var_sets(prob)
        root = prob.nodes[prob.root]
        assert mask_set(kappa[prob.root]) == {1, 2, 3}
        lo_conj, hi_conj = prob.nodes[root.lo], prob.nodes[root.hi]
        assert lo_conj.kind == "A" and hi_conj.kind == "A"
        assert {kappa[c] for c in lo_conj.children} == {1 << 2, 1 << 3}
        assert kappa[root.lo] == kappa[root.hi]
        assert mask_set(kappa[root.lo]) == {2, 3}

    def test_terminals_are_empty(self, example_smooth):
        _, prob = example_smooth
        kappa = var_sets(prob)
        assert kappa[TRUE_ID] == 0

    def test_pre_smooth_root_covers_all(self, example_pre_smooth):
        _, prob = example_pre_smooth
        assert mask_set(var_sets(prob)[prob.root]) == {1, 2, 3}

    def test_matches_frozenset_reference(self):
        rng = random.Random(29)
        formulas = [random_mixed_cnf(rng, n, rng.randint(0, 2 * n)) for n in (rng.randint(1, 16) for _ in range(40))]
        formulas.append(compile_heavy_formula())
        formulas += [CnfFormula(n, tuple((-v, v + 1) for v in range(1, n))) for n in (70, 200)]  # implication chains
        for formula in formulas:
            prob = compile_cnf(formula, max_vars=formula.num_vars)
            for _ in ("compiled", "smoothed"):
                kappa = var_sets(prob)
                assert list(kappa) == prob.topo_order()
                assert {nid: frozenset(mask_set(mask)) for nid, mask in kappa.items()} == naive_var_sets(prob)
                smooth(prob)

    def test_mask_variables_matches_digits(self):
        rng = random.Random(31)
        for width in (0, 1, 64, 4096, 4097, 8193, 30000):  # either side of the digit-string cap
            for density in (0.0005, 0.05, 0.5, 1.0):
                mask = sum(1 << v for v in range(width) if rng.random() < density)
                assert mask_variables(mask) == sorted(mask_set(mask))
        assert mask_variables(1 << 100000000 | 1 << 5) == [5, 100000000]


class TestParameterize:
    def test_worked_weights(self, example_smooth):
        _, prob = example_smooth
        parameterize(prob, weights_75())
        for node in prob.nodes:
            if node.kind == "D":
                assert node.theta_hi == 0.75
                assert node.theta_lo == 0.25

    def test_uniform_weights(self, example_smooth):
        _, prob = example_smooth
        parameterize(prob, WeightFunction.uniform())
        root = prob.nodes[prob.root]
        assert root.theta_lo == root.theta_hi == 0.5

    def test_only_ratio_matters(self, example_smooth):
        _, prob = example_smooth
        parameterize(prob, WeightFunction({1: 3.0, -1: 1.0}))
        root = prob.nodes[prob.root]
        assert root.theta_hi == 0.75
        assert root.theta_lo == 0.25

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.01, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, w_pos, w_neg, scale):
        formula = parse_dimacs("p cnf 1 1\n1 0\n")
        prob = smooth(compile_cnf(formula))
        parameterize(prob, WeightFunction({1: w_pos, -1: w_neg}))
        base = [(n.theta_lo, n.theta_hi) for n in prob.nodes if n.kind == "D"]
        parameterize(prob, WeightFunction({1: w_pos * scale, -1: w_neg * scale}))
        scaled = [(n.theta_lo, n.theta_hi) for n in prob.nodes if n.kind == "D"]
        for (a, b), (c, d) in zip(base, scaled):
            assert math.isclose(a, c, rel_tol=1e-12)
            assert math.isclose(b, d, rel_tol=1e-12)

    def test_zero_sum_rejected(self, example_smooth):
        _, prob = example_smooth
        with pytest.raises(WeightError):
            parameterize(prob, WeightFunction({2: 0.0, -2: 0.0}))

    def test_overflowing_pair_sum_is_rescaled(self, example_smooth):
        formula, prob = example_smooth
        parameterize(prob, WeightFunction({lit: 1e308 for v in (1, 2, 3) for lit in (v, -v)}))
        assert {(n.theta_lo, n.theta_hi) for n in prob.nodes if n.kind == "D"} == {(0.5, 0.5)}
        batch = sample(prob, 50, seed=1)
        assert satisfies_masks(formula, batch.masks).all()
        parameterize(prob, WeightFunction({1: 1.5e308, -1: 0.5e308}))
        root = prob.nodes[prob.root]
        assert math.isclose(root.theta_hi, 0.75) and math.isclose(root.theta_lo, 0.25)

    def test_theta_pair_sums_to_one(self, example_smooth):
        _, prob = example_smooth
        rng = random.Random(3)
        parameterize(prob, random_weights(rng, 3, 1e-3, 1e3))
        for node in prob.nodes:
            if node.kind == "D":
                assert abs(node.theta_lo + node.theta_hi - 1.0) <= 1e-12


class TestSmooth:
    def test_example_structure(self, example_pre_smooth):
        formula, prob = example_pre_smooth
        assert "smoothness" in violated(prob)
        smooth(prob)
        assert prob.node_count == 9
        assert "smoothness" not in violated(prob)
        root = prob.nodes[prob.root]
        assert root.kind == "D" and root.var == 1
        for conj_id, dc_var in ((root.lo, 3), (root.hi, 2)):
            conj = prob.nodes[conj_id]
            assert conj.kind == "A" and len(conj.children) == 2
            dont_cares = [
                c for c in conj.children
                if prob.nodes[c].kind == "D"
                and prob.nodes[c].lo == TRUE_ID
                and prob.nodes[c].hi == TRUE_ID
            ]
            assert [prob.nodes[c].var for c in dont_cares] == [dc_var]

    def test_model_set_unchanged(self, example_pre_smooth):
        formula, prob = example_pre_smooth
        before = set(int(m) for m in diagram_models(prob))
        smooth(prob)
        after = set(int(m) for m in diagram_models(prob))
        assert before == after == EXAMPLE_MODELS

    def test_already_smooth_unchanged(self, example_smooth):
        _, prob = example_smooth
        count = prob.node_count
        again = smooth(prob)
        assert again is prob
        assert prob.node_count == count == 9

    def test_imported_smooth_diagram_is_not_walked_again(self, example_smooth, monkeypatch):
        _, prob = example_smooth
        back = import_prob(export_prob(prob))
        assert back.smooth
        calls = []
        monkeypatch.setattr("probdd.prob.var_sets", lambda diagram: calls.append(diagram) or {})
        assert smooth(back) is back
        assert calls == []

    def test_single_variable_dont_care_shape(self):
        formula = CnfFormula(1, ((1,),))
        prob = compile_cnf(formula)
        count = prob.node_count
        smooth(prob)
        assert prob.node_count == count  # both branches already cover {} each

    def test_trivial_dont_care_diagram_unchanged(self):
        prob = Prob(1)
        prob.root = prob.add_decision(1, TRUE_ID, TRUE_ID)
        before = prob.node_count
        smooth(prob)
        assert prob.node_count == before == 2  # root and the true terminal
        assert "smoothness" not in violated(prob)

    def test_false_branch_wrapped_for_coverage(self):
        # x forced true, y constrained only on the hi side; the dead lo
        # branch still gets wrapped so both branches cover {y}
        formula = parse_dimacs("p cnf 2 2\n1 0\n-1 2 0\n")
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        smooth(prob)
        assert "smoothness" not in violated(prob)
        root = prob.nodes[prob.root]
        wrapped = prob.nodes[root.lo]
        assert wrapped.kind == "A"
        assert FALSE_ID in wrapped.children
        assert set(int(m) for m in diagram_models(prob)) == {0b11}
        parameterize(prob, WeightFunction.uniform())
        phi = annotate(prob)
        assert math.isclose(math.exp(phi[prob.root]), 0.25, rel_tol=1e-12)
        assert root.lo not in phi  # conjunction over the false node has mass zero

    def test_free_variable_wrapped_at_root(self):
        formula = parse_dimacs("p cnf 3 1\n1 2 0\n")  # variable 3 unconstrained
        prob = compile_cnf(formula, choose_ordering(formula, "natural"))
        assert 3 not in mask_set(var_sets(prob)[prob.root])
        smooth(prob)
        assert mask_set(var_sets(prob)[prob.root]) == {1, 2, 3}
        assert "smoothness" not in violated(prob)

    def test_zero_clause_formula_covers_all_vars(self):
        formula = CnfFormula(3, ())
        prob = smooth(compile_cnf(formula))
        assert mask_set(var_sets(prob)[prob.root]) == {1, 2, 3}
        assert set(int(m) for m in diagram_models(prob)) == set(range(8))

    def test_unsat_diagram_untouched(self):
        formula = CnfFormula(2, ((),))
        prob = smooth(compile_cnf(formula))
        assert prob.root == FALSE_ID
        assert prob.node_count == 1

    def test_huge_declared_variable_count_is_refused_unchanged(self):
        text = "prob 1.0\nnvars 1000000000\nnnodes 2\n0 F\n1 T\nroot 1\n"
        prob = import_prob(text)
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="never mentions 1000000000 of its 1000000000 variables"):
                smooth(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert export_prob(prob) == text and not prob.smooth

    def test_root_dont_care_guard_boundary(self):
        mentioned = "nnodes 3\n0 F\n1 T\n2 D 1 0 1\nroot 2\n"  # variable 1 only
        with pytest.raises(GuardError):
            smooth(import_prob(f"prob 1.0\nnvars {MAX_ROOT_DONT_CARES + 2}\n{mentioned}"))
        prob = smooth(import_prob(f"prob 1.0\nnvars {MAX_ROOT_DONT_CARES + 1}\n{mentioned}"))
        assert prob.smooth and len(mask_set(var_sets(prob)[prob.root])) == MAX_ROOT_DONT_CARES + 1

    def test_preserves_models_on_random_formulas(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 16)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n + 4))
            prob = compile_cnf(formula)
            before = diagram_models(prob)
            smooth(prob)
            after = diagram_models(prob)
            assert np.array_equal(before, after)
            assert np.array_equal(after, model_masks(formula))
            assert violated(prob) == set()

    def test_dont_care_growth_bounded(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 14)
            formula = random_mixed_cnf(rng, n, rng.randint(1, n))
            prob = compile_cnf(formula)

            def dc_count():
                return sum(
                    1
                    for nid in prob.topo_order()
                    if prob.nodes[nid].kind == "D"
                    and prob.nodes[nid].lo == TRUE_ID
                    and prob.nodes[nid].hi == TRUE_ID
                )

            before = dc_count()
            smooth(prob)
            assert dc_count() - before <= n

    def test_dont_care_nodes_get_weights(self, example_pre_smooth):
        _, prob = example_pre_smooth
        smooth(prob)
        parameterize(prob, weights_75())
        for nid in prob.topo_order():
            node = prob.nodes[nid]
            if node.kind == "D" and node.lo == TRUE_ID and node.hi == TRUE_ID:
                assert node.theta_hi == 0.75

    def test_smoothing_invalidates_parameters_when_nodes_added(self, example_pre_smooth):
        _, prob = example_pre_smooth
        parameterize(prob, weights_75())
        smooth(prob)
        assert not prob.parameterized

    def test_smoothing_keeps_parameters_when_only_conjunctions_added(self):
        # variable 2's don't-care decision exists already, so smoothing only
        # joins it to the root with a conjunction, which has no parameters
        prob = import_prob("prob 1.0\nnvars 2\nnnodes 4\n0 F\n1 T\n2 D 1 0 1 0.25 0.75\n3 D 2 1 1 0.4 0.6\nroot 2\n")
        assert prob.parameterized and not prob.smooth
        smooth(prob)
        assert prob.nodes[prob.root].kind == "A" and prob.nodes[prob.root].children == (2, 3)
        assert prob.parameterized
        assert "smoothness" not in violated(prob)

    def test_moving_the_root_after_smoothing_clears_smoothness(self):
        prob = Prob(2)
        prob.root = prob.add_decision(1, TRUE_ID, TRUE_ID)
        smooth(prob)
        x2 = prob.add_decision(2, TRUE_ID, FALSE_ID)
        prob.root = prob.add_decision(1, x2, TRUE_ID)  # models -x1 -x2, x1 -x2, x1 x2
        parameterize(prob, WeightFunction.uniform())
        assert not prob.smooth
        with pytest.raises(StructureError):
            sample(prob, 10, 1)
        smooth(prob)
        parameterize(prob, WeightFunction.uniform())
        masks, counts = np.unique(sample(prob, 30_000, 1).masks[:, 0], return_counts=True)
        assert masks.tolist() == [0, 1, 3]
        assert np.allclose(counts / 30_000, 1 / 3, atol=0.02)

    def test_root_moved_back_below_the_smoothed_root_is_not_smooth(self):
        prob = Prob(2)
        inner = prob.add_decision(1, TRUE_ID, TRUE_ID)
        prob.root = inner
        smooth(prob)  # wraps inner with a don't-care on variable 2
        prob.root = inner  # which never mentions variable 2
        parameterize(prob, WeightFunction.uniform())
        assert not prob.smooth and "smoothness" in violated(prob)
        with pytest.raises(StructureError) as err:
            sample(prob, 1000, 1)
        assert err.value.property_name == "smoothness"

    def test_unreachable_node_keeps_smoothness_and_masks(self):
        prob = smooth(compile_cnf(parse_dimacs(EXAMPLE_DIMACS)))
        parameterize(prob, weights_75())
        root, before = prob.root, sample(prob, 1000, 5).masks
        prob.add_conj([root, TRUE_ID])
        assert prob.root == root and prob.smooth and prob.parameterized
        assert sample(prob, 1000, 5).masks.tobytes() == before.tobytes()


class TestCheckers:
    def test_example_smooth_passes_all(self, example_smooth):
        _, prob = example_smooth
        assert violated(prob) == set()

    def test_example_pre_smooth_fails_at_root(self, example_pre_smooth):
        _, prob = example_pre_smooth
        offenders = [v for v in find_violations(prob) if v.property_name == "smoothness"]
        assert len(offenders) == 1
        assert offenders[0].node_id == prob.root
        assert prob.nodes[offenders[0].node_id].var == 1

    def test_overlapping_conjunction_children(self):
        prob = Prob(2)
        a = prob.add_decision(1, FALSE_ID, TRUE_ID)
        b = prob.add_decision(2, FALSE_ID, TRUE_ID)
        prob.nodes.append(Node("D", var=1, lo=b, hi=TRUE_ID))
        c = len(prob.nodes) - 1
        prob.root = prob.add_conj([a, c])
        assert "decomposability" in violated(prob)

    def test_duplicated_variable_on_path(self):
        prob = Prob(2)
        inner = prob.add_decision(1, FALSE_ID, TRUE_ID)
        prob.root = prob.add_decision(1, inner, TRUE_ID)
        assert "determinism" in violated(prob)

    def test_violations_past_one_machine_word(self):
        # Variables 64, 65 and 128 up sit past the first 64-bit word of a mask.
        prob = Prob(140)
        inner = prob.add_decision(64, FALSE_ID, TRUE_ID)
        twice = prob.add_decision(64, inner, inner)
        shared = prob.add_conj([prob.add_decision(65, FALSE_ID, TRUE_ID), prob.add_decision(65, TRUE_ID, FALSE_ID)])
        uneven = prob.add_decision(1, prob.add_decision(128, FALSE_ID, TRUE_ID), prob.add_decision(130, FALSE_ID, TRUE_ID))
        fillers = [prob.add_decision(v, FALSE_ID, TRUE_ID) for v in [*range(2, 64), *range(68, 127)]]
        prob.root = prob.add_conj([twice, shared, uneven, *fillers])
        assert set(find_violations(prob)) == {
            Violation("determinism", twice, f"variable 64 decided again below node {twice}"),
            Violation("decomposability", shared, f"children of node {shared} share variables [65]"),
            Violation("smoothness", uneven, f"branches of node {uneven} differ on variables [128, 130]"),
            Violation("smoothness", prob.root,
                      "diagram never mentions 14 variables, first [66, 67, 127, 129, 131, 132, 133, 134, 135, 136]"),
        }
        assert {nid: frozenset(mask_set(mask)) for nid, mask in var_sets(prob).items()} == naive_var_sets(prob)

    @given(covered_variables())
    @example((300, list(range(1, 301))))
    @example((1, []))
    @settings(max_examples=150, deadline=None)
    def test_root_names_its_first_ten_missing_variables(self, case):
        # A chain deciding each variable of S once, lowest at the bottom, so only the
        # decisions above a high variable hold wide masks.
        n, covered = case
        prob = Prob(n)
        node = TRUE_ID
        for var in covered:
            node = prob.add_decision(var, node, node)
        prob.root = node
        present = set(covered)
        first = list(islice((v for v in range(1, n + 1) if v not in present), 10))
        expected = [Violation("smoothness", prob.root, f"diagram never mentions {n - len(covered)} variables, first {first}")]
        assert find_violations(prob) == (expected if first else [])

    def test_checkers_are_pure(self, example_pre_smooth):
        _, prob = example_pre_smooth
        count = prob.node_count
        find_violations(prob)
        assert prob.node_count == count


def smooth_again(prob):
    prob.smoothed_root = None  # so that smooth walks the diagram instead of returning at once
    return smooth(prob)


class TestWalks:
    @pytest.mark.parametrize(
        "walk",
        [
            var_sets,
            find_violations,
            smooth_again,
            annotate,
            annotate_rational,
            pytest.param(lambda prob: sample(prob, 3, 1), id="sample"),
            Prob.count_kinds,
            diagram_models,
            export_prob,
        ],
    )
    def test_every_pass_rejects_a_cycle(self, walk):
        formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")
        prob = smooth(compile_cnf(formula, choose_ordering(formula, "natural")))
        parameterize(prob, WeightFunction.uniform())
        prob.nodes[prob.nodes[prob.root].lo].lo = prob.root  # a back edge wired by hand
        with pytest.raises(StructureError) as err:
            walk(prob)
        assert err.value.node_id == prob.root

    def test_topo_order_is_a_depth_first_post_order(self):
        # Random arenas, half of them with one edge rewired to a node at or
        # above its own slot, against a recursive post-order that raises at
        # the first child it finds on its own path.
        def reference(prob):
            order, path, done = [], set(), set()

            def visit(nid):
                if nid in path:
                    raise StructureError(f"cycle through node {nid}", node_id=nid)
                if nid in done:
                    return
                path.add(nid)
                for child in prob.children_of(nid):
                    visit(child)
                path.remove(nid)
                done.add(nid)
                order.append(nid)

            visit(prob.root)
            return order

        def outcome(walk, prob):
            try:
                return walk(prob)
            except StructureError as err:
                return err.node_id

        rng = random.Random(5)
        cycles = 0
        for i in range(400):
            prob = Prob(8)
            for _ in range(rng.randint(1, 40)):
                m = len(prob.nodes)
                if rng.random() < 0.7:
                    prob.add_decision(rng.randint(1, 8), rng.randrange(m), rng.randrange(m))
                else:
                    prob.add_conj(rng.sample(range(m), min(m, rng.randint(2, 4))))
            prob.root = rng.randrange(len(prob.nodes))
            if i % 2:
                slot = rng.randrange(2, len(prob.nodes))
                node, back = prob.nodes[slot], rng.randrange(slot, len(prob.nodes))
                if node.kind == "D":
                    node.lo = back
                else:
                    node.children = (back,) + node.children[1:]
            expected = outcome(reference, prob)
            assert outcome(Prob.topo_order, prob) == expected
            cycles += isinstance(expected, int)
        assert cycles > 20

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda prob, text: import_prob(text), id="import_prob"),
            pytest.param(lambda prob, text: export_prob(prob), id="export_prob"),
            pytest.param(lambda prob, text: find_violations(prob), id="find_violations"),
            pytest.param(lambda prob, text: diagram_models(prob), id="diagram_models"),
        ],
    )
    def test_each_pass_walks_once(self, example_smooth, run, monkeypatch):
        _, prob = example_smooth
        text = export_prob(prob)
        calls: list[Prob] = []
        topo_order = Prob.topo_order
        monkeypatch.setattr(Prob, "topo_order", lambda diagram: calls.append(diagram) or topo_order(diagram))
        run(prob, text)
        assert len(calls) == 1


class TestLogSumExp:
    def test_zero_branch(self):
        assert log_sum_exp(math.log(0.25), NEG_INF) == math.log(0.25)

    def test_symmetric_halves(self):
        assert abs(log_sum_exp(math.log(0.5), math.log(0.5))) < 1e-15

    def test_deep_negative_values(self):
        expected = -1000 + math.log1p(math.exp(-1.0))
        got = log_sum_exp(-1000.0, -1001.0)
        assert math.isfinite(got)
        assert abs(got - expected) <= 1e-12
        with mpmath.workdps(60):
            reference = float(mpmath.log(mpmath.exp(-1000) + mpmath.exp(-1001)))
        assert abs(got - reference) <= 1e-12

    def test_both_zero(self):
        assert log_sum_exp(NEG_INF, NEG_INF) == NEG_INF

    @given(st.floats(-700, 700))
    @settings(max_examples=200, deadline=None)
    def test_neg_inf_identity_is_exact(self, a):
        assert log_sum_exp(a, NEG_INF) == a
        assert log_sum_exp(NEG_INF, a) == a

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_evaluation(self, a, b):
        direct = math.log(math.exp(a) + math.exp(b))
        assert math.isclose(log_sum_exp(a, b), direct, rel_tol=1e-12, abs_tol=1e-12)

    @given(st.floats(-300, 300), st.floats(-300, 300))
    @settings(max_examples=200, deadline=None)
    def test_commutative_and_dominates_max(self, a, b):
        assert log_sum_exp(a, b) == log_sum_exp(b, a)
        assert log_sum_exp(a, b) >= max(a, b)


class TestAnnotate:
    def test_uniform_mass(self, example_smooth):
        _, prob = example_smooth
        parameterize(prob, WeightFunction.uniform())
        phi = annotate(prob)
        assert math.isclose(math.exp(phi[prob.root]), 0.5, rel_tol=1e-12)

    def test_weighted_mass(self, example_smooth):
        _, prob = example_smooth
        parameterize(prob, weights_75())
        phi = annotate(prob)
        assert math.isclose(math.exp(phi[prob.root]), 0.375, rel_tol=1e-12)

    def test_single_dont_care_has_mass_one(self):
        prob = Prob(1)
        prob.root = prob.add_decision(1, TRUE_ID, TRUE_ID)
        smooth(prob)
        parameterize(prob, WeightFunction({1: 0.3, -1: 0.7}))
        phi = annotate(prob)
        assert abs(phi[prob.root]) < 1e-12

    def test_false_node_excluded(self, example_smooth):
        _, prob = example_smooth
        parameterize(prob, WeightFunction.uniform())
        phi = annotate(prob)
        assert FALSE_ID not in phi

    def test_unparameterized_rejected(self, example_smooth):
        _, prob = example_smooth
        with pytest.raises(StructureError):
            annotate(prob)

    def test_decision_added_after_parameterize_is_rejected(self):
        # the new decision has no parameters, though the diagram is valid and
        # smooth, so smoothing adds nothing that could clear the flag
        prob = compile_cnf(parse_dimacs("p cnf 2 1\n1 0\n"))
        parameterize(prob, WeightFunction.uniform())
        prob.root = prob.add_decision(2, prob.root, prob.root)
        smooth(prob)
        assert find_violations(prob) == []
        for draw in (annotate, lambda p: sample(p, 2, 1)):
            with pytest.raises(StructureError) as err:
                draw(prob)
            assert err.value.property_name == "parameters"
            assert err.value.node_id == prob.root
        text = export_prob(prob)
        assert "None" not in text
        back = import_prob(text)
        assert back.smooth and not back.parameterized
        assert export_prob(back) == text

    def test_root_mass_in_unit_interval(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 12)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            prob = smooth(compile_cnf(formula))
            parameterize(prob, random_weights(rng, n))
            phi = annotate(prob)
            mass = math.exp(phi[prob.root]) if prob.root in phi else 0.0
            assert 0.0 <= mass <= 1.0 + 1e-12
            expects_one = len(model_masks(formula)) == (1 << n)
            assert (abs(mass - 1.0) < 1e-9) == expects_one

    def test_log_matches_rational_everywhere(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(1, 16)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            prob = smooth(compile_cnf(formula))
            parameterize(prob, random_weights(rng, n, 1e-3, 1e3))
            phi_log = annotate(prob)
            phi_rat = annotate_rational(prob)
            assert set(phi_log) == set(phi_rat)
            for nid, value in phi_log.items():
                exact = phi_rat[nid]
                assert math.isclose(math.exp(value), float(exact), rel_tol=1e-9)


class TestWeightedModelCount:
    def test_unit_weights_count_models(self, example_smooth):
        _, prob = example_smooth
        assert weighted_model_count(prob, WeightFunction.uniform(), "rational") == 4

    def test_weighted_count(self, example_smooth):
        _, prob = example_smooth
        w = weights_75()
        assert weighted_model_count(prob, w, "rational") == Fraction(3, 8)
        assert math.isclose(weighted_model_count(prob, w, "log"), 0.375, rel_tol=1e-12)

    def test_log_count_of_many_variables_is_finite(self):
        # P(root) alone underflows and the product of the 1,100 pair sums
        # alone overflows, though the count is 1
        n = 1100
        prob = smooth(compile_cnf(CnfFormula(n, tuple((v,) for v in range(1, n + 1))), max_vars=n))
        assert math.isclose(weighted_model_count(prob, WeightFunction.uniform(), "log"), 1.0, rel_tol=1e-9)

    def test_count_beyond_the_largest_double(self):
        # 11**400 exceeds the largest double: log mode returns inf, rational
        # mode the count up to the rounding of the double parameters
        n = 400
        prob = smooth(compile_cnf(CnfFormula(n, ()), max_vars=n))
        weights = WeightFunction({v: 10.0 for v in range(1, n + 1)})
        assert weighted_model_count(prob, weights, "log") == math.inf
        assert abs(weighted_model_count(prob, weights, "rational") / Fraction(11) ** n - 1) < 1e-12

    def test_unsatisfiable_counts_zero(self):
        prob = smooth(compile_cnf(CnfFormula(2, ((),))))
        assert weighted_model_count(prob, WeightFunction.uniform(), "rational") == 0
        assert weighted_model_count(prob, WeightFunction.uniform(), "log") == 0.0

    def test_unknown_mode_leaves_parameters_untouched(self, example_smooth):
        _, prob = example_smooth
        parameterize(prob, WeightFunction.uniform())
        before = [(node.theta_lo, node.theta_hi) for node in prob.nodes]
        with pytest.raises(ValueError, match="unknown mode"):
            weighted_model_count(prob, weights_75(), mode="bogus")
        assert [(node.theta_lo, node.theta_hi) for node in prob.nodes] == before

    def test_matches_oracle_on_random_formulas(self):
        rng = random.Random(41)
        for _ in range(50):
            n = rng.randint(1, 14)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            prob = smooth(compile_cnf(formula))
            count = len(model_masks(formula))
            assert weighted_model_count(prob, WeightFunction.uniform(), "rational") == count
            if count:
                log_value = weighted_model_count(prob, WeightFunction.uniform(), "log")
                assert math.isclose(log_value, count, rel_tol=1e-9)


class TestArguments:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            pytest.param(lambda: Prob(-1), ValueError, "num_vars must be non-negative", id="negative-num-vars"),
            pytest.param(lambda: weighted_model_count(compile_cnf(parse_dimacs(EXAMPLE_DIMACS)), WeightFunction.uniform()),
                         StructureError, "requires a smoothed diagram", id="count-not-smooth"),
            pytest.param(lambda: diagram_models(Prob(MAX_ENUM_VARS + 1)), GuardError,
                         f"{MAX_ENUM_VARS + 1} variables exceed the enumeration guard", id="enumeration-guard"),
        ],
    )
    def test_bad_arguments_are_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
