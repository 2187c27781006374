import functools
import hashlib
import math
import random
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probdd import (
    CnfFormula,
    WeightFunction,
    annotate,
    annotate_rational,
    choose_ordering,
    compile_cnf,
    default_update_rule,
    exact_distribution,
    export_prob,
    compare,
    find_violations,
    import_prob,
    model_masks,
    parameterize,
    parse_dimacs,
    parse_weights,
    run_incremental,
    sample,
    smooth,
    update_weights,
    weighted_model_count,
)
from probdd.errors import StructureError, ZeroProbabilityError
from probdd.oracle import satisfies_masks
from probdd.prob import ARITHMETICS, FALSE_ID, LOG, TRUE_ID, Prob, annotate_branches
from probdd.sampler import VISITS_PER_WORKER, SampleBatch, _Coins, round_reports_csv, round_seed

from helpers import (
    EXAMPLE_DIMACS,
    EXAMPLE_WEIGHTS,
    compile_heavy_formula,
    constrained_instances,
    force_split,
    fresh_uniforms,
    naive_satisfies,
    random_mixed_cnf,
    random_weights,
    record_pools,
)


def example_prob(weights_text=EXAMPLE_WEIGHTS):
    formula = parse_dimacs(EXAMPLE_DIMACS)
    prob = smooth(compile_cnf(formula, choose_ordering(formula, "natural")))
    parameterize(prob, parse_weights(weights_text, formula))
    return formula, prob


class TestSample:
    def test_deterministic_given_seed(self):
        _, prob = example_prob()
        first = sample(prob, 500, seed=99)
        second = sample(prob, 500, seed=99)
        assert np.array_equal(first.masks, second.masks)
        assert not np.array_equal(first.masks, sample(prob, 500, seed=100).masks)

    def test_threads_do_not_change_results(self, monkeypatch):
        _, prob = example_prob()
        base = sample(prob, 1001, seed=5)
        for cpus in (2, 3, 7):
            force_split(monkeypatch, cpus)
            split = sample(prob, 1001, seed=5)
            assert np.array_equal(base.masks, split.masks)

    def test_rational_mode_threads_equivalence(self, monkeypatch):
        _, prob = example_prob()
        base = sample(prob, 500, seed=5, mode="rational")
        force_split(monkeypatch, 3)
        split = sample(prob, 500, seed=5, mode="rational")
        assert np.array_equal(base.masks, split.masks)

    def test_all_samples_satisfy(self):
        formula, prob = example_prob()
        batch = sample(prob, 2000, seed=1)
        assert satisfies_masks(formula, batch.masks).all()
        assert batch.masks.shape == (2000, 1) and (batch.masks >> np.uint64(3) == 0).all()
        for mask in batch.masks[:50, 0].tolist():
            assert naive_satisfies(formula.clauses, {v: bool(mask >> (v - 1) & 1) for v in (1, 2, 3)})

    def test_degenerate_weights_force_literal(self):
        formula = CnfFormula(1, ())
        prob = smooth(compile_cnf(formula))
        parameterize(prob, WeightFunction({1: 1.0, -1: 0.0}))
        batch = sample(prob, 64, seed=0)
        assert (batch.masks[:, 0] == 1).all()

    def test_free_variable_follows_weights(self):
        # variable 2 appears in no clause; only the don't-care node decides it
        formula = parse_dimacs("p cnf 2 1\n1 0\n")
        prob = smooth(compile_cnf(formula, choose_ordering(formula, "natural")))
        parameterize(prob, WeightFunction({2: 0.0, -2: 1.0}))
        batch = sample(prob, 128, seed=3)
        assert (batch.masks[:, 0] == 1).all()  # x true, y forced false

    def test_empirical_distribution_matches_exact(self):
        formula, prob = example_prob()
        exact = exact_distribution(formula, parse_weights(EXAMPLE_WEIGHTS, formula))
        expected = {int(m): p for m, p in zip(exact.masks, exact.probs)}
        assert expected == pytest.approx({3: 0.375, 1: 0.125, 6: 0.375, 2: 0.125})
        report = compare(sample(prob, 200_000, seed=12), exact)
        assert report.tv_distance < 0.01

    def test_uniform_weights_frequencies(self):
        formula, prob = example_prob(weights_text="")
        batch = sample(prob, 1_000_000, seed=77)
        exact = exact_distribution(formula, WeightFunction.uniform())
        report = compare(batch, exact)
        empirical = report.counts / len(batch)
        assert np.all(np.abs(empirical - 0.25) < 0.002)  # 3 sigma at k = 1e6

    def test_unsmoothed_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = compile_cnf(formula)
        parameterize(prob, WeightFunction.uniform())
        with pytest.raises(StructureError):
            sample(prob, 1, seed=0)

    def test_unparameterized_rejected(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        prob = smooth(compile_cnf(formula))
        with pytest.raises(StructureError):
            sample(prob, 1, seed=0)

    def test_unsatisfiable_rejected(self):
        prob = smooth(compile_cnf(CnfFormula(2, ((),))))
        parameterize(prob, WeightFunction.uniform())
        with pytest.raises(ZeroProbabilityError):
            sample(prob, 1, seed=0)

    def test_diagram_without_variables_samples_empty_models(self):
        prob = smooth(compile_cnf(CnfFormula(0, ())))
        parameterize(prob, WeightFunction.uniform())
        assert prob.root == TRUE_ID
        batch = sample(prob, 3, seed=0)
        assert batch.masks.shape == (3, 1) and not batch.masks.any()
        assert batch.model_lines() == "0\n" * 3

    def test_zero_probability_under_weights_rejected(self):
        formula = parse_dimacs("p cnf 1 1\n1 0\n")
        prob = smooth(compile_cnf(formula))
        parameterize(prob, WeightFunction({1: 0.0, -1: 1.0}))
        with pytest.raises(ZeroProbabilityError):
            sample(prob, 1, seed=0)

    def test_model_lines_format(self):
        _, prob = example_prob()
        lines = sample(prob, 5, seed=4).model_lines().splitlines()
        assert len(lines) == 5
        for line in lines:
            parts = line.split()
            assert parts[-1] == "0"
            assert [abs(int(p)) for p in parts[:-1]] == [1, 2, 3]

    def test_rational_mode_distribution(self):
        formula, prob = example_prob()
        exact = exact_distribution(formula, parse_weights(EXAMPLE_WEIGHTS, formula))
        report = compare(sample(prob, 100_000, seed=8, mode="rational"), exact)
        assert report.tv_distance < 0.01

    def test_rational_root_mass_below_smallest_double(self):
        n = 4
        prob = smooth(compile_cnf(CnfFormula(n, tuple((v,) for v in range(1, n + 1)))))
        parameterize(prob, WeightFunction({v: 1e-100 for v in range(1, n + 1)}))  # root mass 1e-400
        log_batch = sample(prob, 8, seed=3)
        rational_batch = sample(prob, 8, seed=3, mode="rational")
        assert np.array_equal(log_batch.masks, rational_batch.masks)
        assert math.isclose(rational_batch.root_log_prob, n * math.log(1e-100), rel_tol=1e-12)
        assert math.isclose(log_batch.root_log_prob, rational_batch.root_log_prob, rel_tol=1e-12)

    def test_masks_span_multiple_words_beyond_64_vars(self):
        n = 70
        formula = CnfFormula(n, tuple((v,) for v in range(1, n + 1)))
        prob = smooth(compile_cnf(formula, max_vars=n))
        parameterize(prob, WeightFunction.uniform())
        batch = sample(prob, 17, seed=2)
        assert batch.masks.shape == (17, 2)
        assert satisfies_masks(formula, batch.masks).all()
        assert batch.masks[0].tolist() == [2**64 - 1, 2**6 - 1]
        first_line = batch.model_lines().splitlines()[0].split()
        assert first_line == [str(v) for v in range(1, n + 1)] + ["0"]

    def test_disjoint_blocks_past_the_oracle_follow_their_exact_distributions(self):
        # The oracle enumerates at most 24 variables, but a disjoint union of
        # small formulas has a known distribution: each block's projection
        # follows the block's own, and blocks are drawn independently. The
        # blocks are renamed apart and shuffled over more than 128 variables,
        # so masks span three words, and each has at least four models, so
        # that it has a distribution to check. TV < 0.005 for at most 48
        # models at k = 1e6 is criterion 3's bound; the two largest supports
        # over at most 12 variables each are also checked jointly against the
        # product of their distributions, which tests their independence.
        rng = random.Random(52)
        blocks = [block for block in constrained_instances(seed=52, count=80, max_vars=14, max_models=48)
                  if len(model_masks(block)) >= 4]
        n = sum(block.num_vars for block in blocks)
        assert n > 128
        names = rng.sample(range(1, n + 1), n)
        scopes, clauses = [], []
        for block in blocks:
            scope, names = names[:block.num_vars], names[block.num_vars:]
            scopes.append(scope)
            clauses += [tuple(scope[lit - 1] if lit > 0 else -scope[-lit - 1] for lit in c) for c in block.clauses]
        rng.shuffle(clauses)
        weights = random_weights(rng, n)
        prob = smooth(compile_cnf(CnfFormula(n, tuple(clauses)), max_vars=n))
        parameterize(prob, weights)
        masks = sample(prob, 10**6, seed=9).masks
        assert masks.shape == (10**6, 3)
        columns = [np.ascontiguousarray(masks[:, word]) for word in range(3)]

        def check(scope):
            """The samples projected onto scope, compared with the distribution of the clauses over scope."""
            local = {var: j for j, var in enumerate(scope, 1)}
            projected = np.zeros(len(masks), dtype=np.uint64)
            for var, j in local.items():
                word, bit = divmod(var - 1, 64)
                projected |= ((columns[word] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(j - 1)

            def rename(lit):
                return local[lit] if lit > 0 else -local[-lit]

            formula = CnfFormula(len(scope), tuple(tuple(map(rename, c)) for c in clauses if abs(c[0]) in local))
            local_weights = WeightFunction({rename(lit): weights[lit] for var in scope for lit in (var, -var)})
            exact = exact_distribution(formula, local_weights)
            return compare(SampleBatch(masks=projected[:, None], num_vars=len(scope)), exact)  # raises outside the support

        for scope in scopes:
            assert check(scope).tv_distance < 0.005
        a, b = sorted((i for i, block in enumerate(blocks) if block.num_vars <= 12),
                      key=lambda i: -len(model_masks(blocks[i])))[:2]
        assert check(scopes[a] + scopes[b]).chi_square_p >= 1e-3


class TestDynamicAnnotation:
    """annotate_branches is the one annotation sample draws from."""

    @staticmethod
    def instances(seed, count, max_vars):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, max_vars)
            formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
            prob = smooth(compile_cnf(formula))
            weights = random_weights(rng, n)
            if rng.random() < 0.5:  # zero-probability branches
                weights = WeightFunction({lit: weights[lit] for v in range(1, n + 1) for lit in (v, -v)}
                                         | {rng.randint(1, n): 0.0})
            parameterize(prob, weights)
            yield prob

    def check(self, prob, mode, reference_phi, edge, cond):
        arith = ARITHMETICS[mode]
        phi, p_hi = annotate_branches(prob, arith)
        assert phi == reference_phi  # bit-for-bit
        if prob.root in phi:
            assert sample(prob, 4, seed=1, mode=mode).root_log_prob == arith.log(phi[prob.root])
        decisions = [nid for nid in phi if prob.nodes[nid].kind == "D"]
        assert sorted(p_hi) == sorted(decisions)
        for nid in decisions:
            node = prob.nodes[nid]
            lo = edge(node.theta_lo, phi.get(node.lo))
            hi = edge(node.theta_hi, phi.get(node.hi))
            if lo is None:
                assert (p_hi[nid], phi[nid]) == (1.0, hi)
            elif hi is None:
                assert (p_hi[nid], phi[nid]) == (0.0, lo)
            else:
                assert phi[nid] == arith.add(lo, hi)
                assert p_hi[nid] == cond(hi, phi[nid])

    def test_log_phi_identical_to_annotate(self):
        def edge(theta, child):
            return None if child is None or theta == 0 else math.log(theta) + child

        for prob in self.instances(51, 20, 12):
            self.check(prob, "log", annotate(prob), edge, lambda hi, total: math.exp(hi - total))

    def test_rational_phi_identical_to_annotate(self):
        def edge(theta, child):
            return None if child is None or theta == 0 else Fraction(theta) * child

        for prob in self.instances(52, 10, 10):
            self.check(prob, "rational", annotate_rational(prob), edge, lambda hi, total: float(hi / total))


def reference_pass(prob, order, phi, p_hi, start, stop, seed):
    """The bottom-up pass the top-down router replaced; the reference it must match.

    It builds the partial masks of samples [start, stop) for every node
    of positive probability, children first: empty at the true terminal,
    the OR of the children's at a conjunction, and at a decision the hi
    or lo child's per coin, with the variable's bit set on the hi side.
    Sample i's coin at a decision is draw i of its variable's stream.
    """
    nodes = prob.nodes
    words = max(1, (prob.num_vars + 63) // 64)
    count = stop - start
    store = {}
    for nid in order:
        if nid not in phi:
            continue
        node = nodes[nid]
        if node.kind == "T":
            store[nid] = np.zeros((count, words), dtype=np.uint64)
        elif node.kind == "A":
            vals = store[node.children[0]] | store[node.children[1]]
            for child in node.children[2:]:
                vals |= store[child]
            store[nid] = vals
        else:
            p_cond = p_hi[nid]
            word, bit = divmod(node.var - 1, 64)
            bitval = np.uint64(1 << bit)
            if p_cond == 1.0:
                vals = store[node.hi].copy()
                vals[:, word] |= bitval
            elif p_cond == 0.0:
                vals = store[node.lo].copy()
            else:
                take = fresh_uniforms(seed, node.var, start, stop) < p_cond
                vals = np.where(take[:, None], store[node.hi], store[node.lo])
                setbits = np.zeros(count, dtype=np.uint64)
                setbits[take] = bitval
                vals[:, word] |= setbits
            store[nid] = vals
    return store[prob.root]


# Literal weights that give near-forced coins (1e-300 against 1e300) and
# overflowing pair sums (1e300 + 1e300); a rare zero forces a branch.
EXTREME_LEVELS = (1e-300, 0.5, 1.0, 7.0, 1e300)


def extreme_weights(rng, num_vars):
    table = {}
    for var in range(1, num_vars + 1):
        table[var], table[-var] = rng.choice(EXTREME_LEVELS), rng.choice(EXTREME_LEVELS)
        if rng.random() < 0.05:
            table[rng.choice((var, -var))] = 0.0
    return WeightFunction(table)


def routing_instances(seed, count):
    """Satisfiable random formulas over 1-130 variables (up to three mask words) and the heavy one.

    Weights are redrawn until the root has positive probability: a
    weight of 1e-300 against 1e300 rounds its branch to zero, which
    often leaves no model with positive weight.
    """
    rng = random.Random(seed)
    formulas = [compile_heavy_formula()]
    while len(formulas) <= count:
        n = (1, 64, 65, 128, 130)[len(formulas) - 1] if len(formulas) <= 5 else rng.randint(1, 130)
        formulas.append(random_mixed_cnf(rng, n, rng.randint(0, n // 2)))
    for formula in formulas:
        prob = smooth(compile_cnf(formula, max_vars=formula.num_vars))
        if prob.root == FALSE_ID:
            continue
        while True:
            parameterize(prob, extreme_weights(rng, prob.num_vars))
            if prob.root in annotate_branches(prob, LOG)[0]:
                break
        yield prob


@functools.cache
def property_diagrams():
    """Small parameterized routing instances and the heavy one, built once."""
    return list(routing_instances(406, 7))


def relabeled_export(text, rng, shuffle_conjunctions=False):
    """An export with its node ids permuted and unreachable filler nodes added.

    The nodes are written again in a random order that keeps children
    before parents, with a filler decision or conjunction over earlier
    ids before the first node and about one in three of the others; no
    reachable node points at a filler. With shuffle_conjunctions each
    conjunction also lists its children in a random order.
    """
    lines = text.splitlines()
    header, body, root = lines[:2], [line.split() for line in lines[5:-1]], int(lines[-1].split()[1])
    parameterized = any(parts[1] == "D" and len(parts) == 7 for parts in body)
    children = {int(p[0]): [int(c) for c in (p[3:5] if p[1] == "D" else p[3:])] for p in body}
    waiting = {nid: sum(c > 1 for c in kids) for nid, kids in children.items()}
    parents = {}
    for nid, kids in children.items():
        for child in kids:
            parents.setdefault(child, []).append(nid)
    remap, out = {0: 0, 1: 1}, []
    ready = [nid for nid, count in waiting.items() if count == 0]
    while ready:
        if not out or rng.random() < 0.35:  # a filler over ids already written
            a, b = rng.randrange(len(out) + 2), rng.randrange(len(out) + 2)
            if rng.random() < 0.5:
                var = rng.randint(1, int(header[1].split()[1]))
                out.append(f"D {var} {a} {b}" + (" 0.25 0.75" if parameterized else ""))
            else:
                out.append(f"A 2 {a} {b}")
        nid = ready.pop(rng.randrange(len(ready)))
        parts = body[nid - 2]
        kids = [remap[c] for c in children[nid]]
        if parts[1] == "D":
            out.append(" ".join(["D", parts[2], *map(str, kids), *parts[5:]]))
        else:
            if shuffle_conjunctions:
                rng.shuffle(kids)
            out.append(" ".join(["A", str(len(kids)), *map(str, kids)]))
        remap[nid] = len(out) + 1
        for parent in parents.get(nid, ()):
            waiting[parent] -= 1
            if waiting[parent] == 0:
                ready.append(parent)
    nodes = [f"{nid} {line}" for nid, line in enumerate(out, start=2)]
    return "\n".join([*header, f"nnodes {len(out) + 2}", "0 F", "1 T", *nodes, f"root {remap[root]}"]) + "\n"


class TestTopDownRouting:
    """sample routes each sample top-down; the bottom-up pass it replaced is the reference."""

    def test_masks_match_bottom_up_reference(self, monkeypatch):
        seen = {"words": set(), "forced": 0, "shared": 0}
        for prob in routing_instances(404, 40):
            order = prob.topo_order()
            phi, p_hi = annotate_branches(prob, LOG)
            parents = {}
            for nid in phi:
                for child in prob.children_of(nid):
                    parents[child] = parents.get(child, 0) + 1
            seen["forced"] += sum(p in (0.0, 1.0) for p in p_hi.values())
            seen["shared"] += sum(n > 1 for child, n in parents.items() if child in p_hi)
            for k in (1, 7, 1000):
                seed = random.Random(k + len(order)).randrange(2**63)
                expected = reference_pass(prob, order, phi, p_hi, 0, k, seed)
                seen["words"].add(expected.shape[1])
                for cpus in (1, 3):
                    force_split(monkeypatch, cpus)
                    got = sample(prob, k, seed).masks
                    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert seen["words"] == {1, 2, 3}
        assert seen["forced"] > 0 and seen["shared"] > 0

    def test_prefix_invariance(self):
        for prob in routing_instances(405, 12):
            full = sample(prob, 1000, seed=17).masks
            for m in (1, 7, 999):
                assert sample(prob, m, seed=17).masks.tobytes() == full[:m].tobytes()

    def test_unreached_nodes_build_no_generator(self, monkeypatch):
        built, keyed = [], []
        philox, seek = np.random.Philox, _Coins._seek

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        def counting_seek(coins, var):
            keyed.append(var)
            return seek(coins, var)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(_Coins, "_seek", counting_seek)
        prob = smooth(compile_cnf(compile_heavy_formula()))
        parameterize(prob, WeightFunction.uniform())
        for k in (1, 1000):
            for seed in range(20):
                built.clear()
                keyed.clear()
                sample(prob, k, seed=seed)
                assert len(built) == 1  # one generator for the pass
                assert 0 < len(keyed) <= prob.num_vars  # keyed only for coins some sample meets
                assert len(set(keyed)) == len(keyed)  # each variable's decisions are routed together

    def test_one_coin_row_alive_per_worker(self):
        prob = smooth(compile_cnf(compile_heavy_formula()))
        parameterize(prob, random_weights(random.Random(7), prob.num_vars))
        tracemalloc.start()
        try:
            sample(prob, 100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20  # rows kept until used up peaked at 18.8 MB

    def test_masks_do_not_depend_on_the_layout(self, monkeypatch):
        # Coins are keyed by variable, not by a node's id or position, so a
        # copy laid out differently samples the same masks. Shuffled
        # conjunction children change the products' rounding in log space,
        # so that copy is compared in exact rational annotation.
        rng = random.Random(17)
        for prob in property_diagrams()[:4]:
            text = export_prob(prob)
            for shuffle, mode in ((False, "log"), (True, "rational")):
                copy = import_prob(relabeled_export(text, rng, shuffle))
                assert len(copy.nodes) > len(import_prob(text).nodes)  # the fillers
                assert export_prob(copy) == text or shuffle
                for k in (1, 1000):
                    seed = rng.randrange(2**64)
                    force_split(monkeypatch, 1)
                    expected = sample(prob, k, seed, mode=mode).masks.tobytes()
                    for cpus in (1, 2, 3):
                        force_split(monkeypatch, cpus)
                        assert sample(copy, k, seed, mode=mode).masks.tobytes() == expected

    @given(st.data(), st.integers(0, 2**63 - 1), st.integers(1, 3000), st.integers(1, 4))
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_export_import_threads_and_prefixes_keep_masks(self, monkeypatch, data, seed, k, cpus):
        prob = data.draw(st.sampled_from(property_diagrams()), label="prob")
        m = data.draw(st.integers(1, k), label="m")
        expected = sample(prob, k, seed)
        force_split(monkeypatch, cpus)
        got = sample(import_prob(export_prob(prob)), k, seed)
        monkeypatch.undo()
        assert got.masks.tobytes() == expected.masks.tobytes()
        assert got.root_log_prob == expected.root_log_prob
        assert sample(prob, m, seed).masks.tobytes() == expected.masks[:m].tobytes()

    def test_passes_below_two_workers_of_visits_run_inline(self, monkeypatch):
        # A sample meets one decision per variable, so a pass makes k * num_vars
        # decision visits. The benchmark's rounds on this diagram, at k = 1,000
        # and 100,000, stay in the calling thread.
        prob = smooth(compile_cnf(compile_heavy_formula()))
        parameterize(prob, WeightFunction.uniform())
        sizes = record_pools(monkeypatch)
        monkeypatch.setattr("probdd.sampler.os.cpu_count", lambda: 8)
        n = prob.num_vars
        for k in (1, 1000, 100_000, (2 * VISITS_PER_WORKER - 1) // n):
            sample(prob, k, seed=3)
        assert sizes == []
        for k in (-(-2 * VISITS_PER_WORKER // n), -(-3 * VISITS_PER_WORKER // n)):
            sample(prob, k, seed=3)
        assert sizes == [2, 3]

    def test_thread_pool_capped_by_cpus_and_samples(self, monkeypatch):
        # One worker per VISITS_PER_WORKER decision visits, here 10 of the example's 3 variables.
        _, prob = example_prob()
        base = sample(prob, 50, seed=3).masks
        sizes = record_pools(monkeypatch)
        monkeypatch.setattr("probdd.sampler.os.cpu_count", lambda: 4)
        monkeypatch.setattr("probdd.sampler.VISITS_PER_WORKER", 10)
        for k in (6, 7, 10, 20, 50):
            assert sample(prob, k, seed=3).masks.tobytes() == base[:k].tobytes()
        monkeypatch.setattr("probdd.sampler.VISITS_PER_WORKER", 1)
        assert sample(prob, 3, seed=3).masks.tobytes() == base[:3].tobytes()
        assert sizes == [2, 3, 4, 4, 3]

    def test_variable_free_conjunctions_stay_small(self):
        # Conjunctions over the true terminal mention no variable, so one
        # sample meets each of them along 2**depth paths; routing must not
        # copy its index that many times.
        depth, k = 14, 64
        lines = ["prob 1.0", "nvars 1", f"nnodes {depth + 4}", "0 F", "1 T", "2 D 1 1 1 0.5 0.5", "3 A 2 1 1"]
        lines += [f"{nid} A 2 {nid - 1} {nid - 1}" for nid in range(4, depth + 3)]
        lines += [f"{depth + 3} A 2 2 {depth + 2}", f"root {depth + 3}"]
        prob = import_prob("\n".join(lines) + "\n")
        order = prob.topo_order()
        phi, p_hi = annotate_branches(prob, LOG)
        tracemalloc.start()
        try:
            masks = sample(prob, k, seed=8).masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert masks.tobytes() == reference_pass(prob, order, phi, p_hi, 0, k, 8).tobytes()
        assert peak < 2**20  # copying the indices 2**14 times would take 8 MB

    def test_branches_route_through_nested_conjunctions(self, monkeypatch):
        # Compiled and smoothed diagrams keep conjunctions flat, so this smooth
        # diagram is written by hand. Variable 2's lo branch enters node 6, a
        # conjunction whose child 5 is a conjunction of decisions, and its hi
        # branch node 9, which has the true terminal as a child. Variable 1's
        # lo branch enters node 11, which has the false terminal as a child,
        # so that branch has probability zero.
        lines = ["prob 1.0", "nvars 6", "nnodes 15", "0 F", "1 T",
                 "2 D 4 1 1 0.3 0.7", "3 D 5 0 1 0.4 0.6", "4 D 6 1 0 0.2 0.8", "5 A 2 3 4", "6 A 2 2 5",
                 "7 D 6 1 1 0.5 0.5", "8 D 5 7 4 0.35 0.65", "9 A 3 2 8 1", "10 D 2 6 9 0.45 0.55",
                 "11 A 2 0 10", "12 D 1 11 10 0.5 0.5", "13 D 3 1 1 0.25 0.75", "14 A 2 12 13", "root 14"]
        prob = import_prob("\n".join(lines) + "\n")
        assert prob.smooth and not find_violations(prob)
        order = prob.topo_order()
        phi, p_hi = annotate_branches(prob, LOG)
        assert 11 not in phi and p_hi[12] == 1.0
        for k in (1, 7, 1000):
            expected = reference_pass(prob, order, phi, p_hi, 0, k, 29)
            assert (expected[:, 0] & 1).all()  # never the zero-probability branch
            for cpus in (1, 3):
                force_split(monkeypatch, cpus)
                assert sample(prob, k, 29).masks.tobytes() == expected.tobytes()


class TestCoinStreams:
    """The router's coins against a variable's Philox stream built afresh for each call (helpers.fresh_uniforms)."""

    @pytest.mark.parametrize("seed", [0, 2**63 + 1, 2**64, 2**64 + 2**40 + 7])
    @pytest.mark.parametrize("start", [0, 1, 2, 3, 4097, 2**40 + 2])
    def test_dense_and_sparse_draws_match_fresh_philox(self, seed, start):
        # Index sets from one sample to all of them read one row per variable;
        # returning to a variable draws its row again.
        count = 6000
        rng = np.random.default_rng(start % 997)
        coins = _Coins(seed, start, count)
        index_sets = [np.array([0]), np.array([5, 4, 7, 6, count - 1]), np.array([count - 1, 2, 3, 1])]
        index_sets += [rng.permutation(count)[:n] for n in (1, 11, 12, 13, 600, count)]
        for var in (11, 3, 11, 2**40):
            expected = fresh_uniforms(seed, var, start, start + count)
            for idx in index_sets:
                assert coins.uniforms(var, idx).tobytes() == expected[idx].tobytes()

    def test_routed_coins_match_fresh_philox(self, monkeypatch):
        init, uniforms = _Coins.__init__, _Coins.uniforms
        calls = []

        def recording_init(coins, seed, start, count):
            init(coins, seed, start, count)
            coins.drawing = (start, count)

        def recording(coins, var, idx):
            got = uniforms(coins, var, idx)
            calls.append((var, idx, *coins.drawing, got))
            return got

        monkeypatch.setattr(_Coins, "__init__", recording_init)
        monkeypatch.setattr(_Coins, "uniforms", recording)
        formula = compile_heavy_formula()
        prob = smooth(compile_cnf(formula))
        parameterize(prob, random_weights(random.Random(7), formula.num_vars))
        k = 20003  # splits start at every residue mod 4 across 2-4 threads
        seen = {"cpus": set(), "residues": set()}
        for seed in (12345, 2**64 + 99, 2**70 + 5):
            force_split(monkeypatch, 1)
            expected = sample(prob, k, seed).masks
            for cpus in (1, 2, 3, 4):
                force_split(monkeypatch, cpus)
                calls.clear()
                assert sample(prob, k, seed).masks.tobytes() == expected.tobytes()
                for var, idx, start, count, got in calls:
                    assert got.tobytes() == fresh_uniforms(seed, var, start, start + count)[idx].tobytes()
                    seen["cpus"].add(cpus)
                    seen["residues"].add(start % 4)
        assert seen["cpus"] == {1, 2, 3, 4}
        assert seen["residues"] == {0, 1, 2, 3}


class TestSamplingPlan:
    """Prob.plan() keeps the structure while the diagram is smooth, and smooth() drops it when it walks."""

    def test_repeated_samples_walk_once(self, monkeypatch):
        _, prob = example_prob()
        calls = []
        topo_order = Prob.topo_order
        monkeypatch.setattr(Prob, "topo_order", lambda diagram: calls.append(diagram) or topo_order(diagram))
        for seed in range(5):
            sample(prob, 100, seed)
        update_weights(prob, WeightFunction.uniform())
        force_split(monkeypatch, 2)
        sample(prob, 100, 5, mode="rational")
        assert len(calls) == 1

    def test_annotation_reads_the_stored_plan(self, monkeypatch):
        formula, prob = example_prob()
        calls = []
        topo_structure = Prob.topo_structure
        monkeypatch.setattr(Prob, "topo_structure", lambda diagram: calls.append(diagram) or topo_structure(diagram))
        sample(prob, 100, 1)
        weighted_model_count(prob, parse_weights(EXAMPLE_WEIGHTS, formula))
        weighted_model_count(prob, WeightFunction.uniform(), mode="rational")
        assert len(calls) == 1
        # a root moved by hand is annotated over its own structure, on every call
        old_root = prob.root
        prob.root = next(child for child in prob.children_of(prob.root) if child > TRUE_ID)
        phi = annotate(prob)
        assert prob.root in phi and old_root not in phi
        assert annotate(prob) == phi and len(calls) == 3

    def test_a_false_root_is_not_annotated_over_the_old_plan(self):
        formula, prob = example_prob()
        sample(prob, 100, 1)
        prob.root = FALSE_ID
        smooth(prob)
        assert annotate(prob) == {}
        assert annotate_rational(prob) == {}
        assert weighted_model_count(prob, parse_weights(EXAMPLE_WEIGHTS, formula)) == 0

    def test_structure_changes_rebuild_the_plan(self, monkeypatch):
        def assert_fresh(prob, seed):
            batch = sample(prob, 3000, seed)
            fresh = sample(import_prob(export_prob(prob)), 3000, seed)
            assert batch.masks.tobytes() == fresh.masks.tobytes()
            return batch

        prob = Prob(3)
        walks = []
        topo_structure = Prob.topo_structure
        monkeypatch.setattr(Prob, "topo_structure", lambda diagram: walks.append(diagram) or topo_structure(diagram))
        core = prob.add_decision(1, prob.add_decision(3, FALSE_ID, TRUE_ID), TRUE_ID)
        prob.root = core
        smooth(prob)  # wraps the root to add variable 2
        assert walks.count(prob) == 0  # smoothing leaves the plan to the first sample
        parameterize(prob, WeightFunction({1: 0.3, -1: 0.7, 2: 0.6, -2: 0.4, 3: 0.8, -3: 0.2}))
        wrapped = prob.root
        first = assert_fresh(prob, 1)
        assert walks.count(prob) == 1

        # a decision added, the root moved onto it and smoothed: x2 and the core
        prob.root = prob.add_decision(2, FALSE_ID, core)
        smooth(prob)
        parameterize(prob, WeightFunction({1: 0.3, -1: 0.7, 2: 0.6, -2: 0.4, 3: 0.8, -3: 0.2}))
        moved = assert_fresh(prob, 1)
        assert (moved.masks[:, 0] & 2).all() and not np.array_equal(moved.masks, first.masks)
        assert walks.count(prob) == 2

        # the root moved back to the first smoothed root and smoothed again
        prob.root = wrapped
        smooth(prob)
        assert assert_fresh(prob, 1).masks.tobytes() == first.masks.tobytes()
        assert walks.count(prob) == 3

        # new weights keep the structure, and the plan with it
        update_weights(prob, WeightFunction({1: 5.0, -1: 0.1, 2: 1.0, -2: 3.0, 3: 0.5, -3: 0.5}))
        reweighted = assert_fresh(prob, 1)
        assert walks.count(prob) == 3 and not np.array_equal(reweighted.masks, first.masks)

        # the root moved to the false terminal and smoothed, then back and smoothed
        prob.root = FALSE_ID
        smooth(prob)
        with pytest.raises(ZeroProbabilityError):
            sample(prob, 3, 1)
        prob.root = wrapped
        smooth(prob)
        assert assert_fresh(prob, 1).masks.tobytes() == reweighted.masks.tobytes()
        assert walks.count(prob) == 4  # a false root is rejected before any plan is read

        # a root moved by hand, without smoothing, is not sampled
        prob.root = core
        with pytest.raises(StructureError) as err:
            sample(prob, 3, 1)
        assert err.value.property_name == "smoothness"

    def test_the_plan_is_topological_and_groups_each_variable(self):
        def decision_vars(plan):
            seen = set()
            for nid, _, children, _ in plan:  # children first
                assert all(child in seen for child in children)
                seen.add(nid)
            return [var for _, kind, _, var in reversed(plan) if kind == "D"]

        for prob in routing_instances(407, 12):  # compiled: every path follows one variable order
            plan = prob.topo_structure()
            assert sorted(nid for nid, *_ in plan) == sorted(prob.topo_order())
            order = decision_vars(plan)
            runs = [var for i, var in enumerate(order) if i == 0 or var != order[i - 1]]
            assert len(runs) == len(set(order))

        # x1 above x2 on one branch and below it on the other: no variable
        # order fits, so x1's decisions are split, and the split row is drawn
        # again with the same bits
        prob = Prob(3)
        d2, d1 = prob.add_decision(2, FALSE_ID, TRUE_ID), prob.add_decision(1, FALSE_ID, TRUE_ID)
        prob.root = prob.add_decision(3, prob.add_decision(1, d2, d2), prob.add_decision(2, d1, d1))
        smooth(prob)
        parameterize(prob, WeightFunction({1: 0.3, -1: 0.7, 2: 0.6, -2: 0.4, 3: 0.5, -3: 0.5}))
        plan = prob.topo_structure()
        assert decision_vars(plan) == [3, 1, 2, 2, 1]
        phi, p_hi = annotate_branches(prob, LOG)
        expected = reference_pass(prob, prob.topo_order(), phi, p_hi, 0, 1000, 5)
        assert sample(prob, 1000, 5).masks.tobytes() == expected.tobytes()

    def test_the_plan_is_all_of_the_structure_sample_reads(self):
        formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")  # exactly one of x1, x2
        prob = smooth(compile_cnf(formula, choose_ordering(formula, "natural")))
        parameterize(prob, WeightFunction({1: 1.0, -1: 1.0, 2: 9.0, -2: 1.0}))
        first = sample(prob, 2000, 3)
        root = prob.nodes[prob.root]
        root.lo, root.hi = root.hi, root.lo  # rewired by hand: now x1 == x2
        assert sample(prob, 2000, 3).masks.tobytes() == first.masks.tobytes()

        prob.smoothed_root = None
        smooth(prob)
        rewired = sample(prob, 2000, 3).masks[:, 0]
        assert rewired.tobytes() == sample(import_prob(export_prob(prob)), 2000, 3).masks.tobytes()
        assert ((rewired & 1) == (rewired >> 1 & 1)).all()

        prob.nodes[root.lo].lo = prob.root  # a back edge, seen once smooth() walks the diagram again
        assert sample(prob, 2000, 3).masks[:, 0].tobytes() == rewired.tobytes()
        prob.smoothed_root = None
        with pytest.raises(StructureError) as err:
            smooth(prob)
        assert err.value.node_id == prob.root
        with pytest.raises(StructureError):  # and the diagram is not sampled
            sample(prob, 3, 1)

    def test_a_branch_rewired_by_hand_is_smoothed_again(self):
        formula = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0\n")  # exactly one of x1, x2
        prob = smooth(compile_cnf(formula, choose_ordering(formula, "natural")))
        weights = WeightFunction({1: 1.0, -1: 1.0, 2: 9.0, -2: 1.0})
        parameterize(prob, weights)
        first = sample(prob, 2000, 3)
        prob.nodes[prob.root].lo = TRUE_ID  # rewired by hand: the lo branch no longer decides x2
        assert find_violations(prob)[0].property_name == "smoothness"

        prob.smoothed_root = None
        smooth(prob)
        parameterize(prob, weights)  # the don't-care decision smoothing added has none yet
        assert find_violations(prob) == []
        rewired = sample(prob, 2000, 3).masks
        assert rewired.tobytes() == sample(import_prob(export_prob(prob)), 2000, 3).masks.tobytes()
        assert set(rewired[:, 0].tolist()) == {0, 1, 2}  # x1 false leaves x2 free
        assert not np.array_equal(rewired, first.masks)


def reference_model_lines(batch: SampleBatch) -> str:
    """The per-literal writer SampleBatch.model_lines replaced; the reference it must match."""
    lines = []
    for row in batch.masks:
        lits = []
        for var in range(1, batch.num_vars + 1):
            word, bit = divmod(var - 1, 64)
            lits.append(str(var) if (int(row[word]) >> bit) & 1 else str(-var))
        lits.append("0")
        lines.append(" ".join(lits))
    return "\n".join(lines) + "\n"


def reference_frequencies(batch: SampleBatch) -> np.ndarray:
    k = len(batch)
    out = np.empty(batch.num_vars, dtype=np.float64)
    for var in range(1, batch.num_vars + 1):
        word, bit = divmod(var - 1, 64)
        out[var - 1] = np.count_nonzero(batch.masks[:, word] & np.uint64(1 << bit)) / k
    return out


def assert_same_text(got: str, expected: str) -> None:
    """Text equality that reports the first differing line instead of diffing megabytes."""
    if got == expected:
        return
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for index, (a, b) in enumerate(zip(got_lines, expected_lines)):
        if a != b:
            pytest.fail(f"line {index} differs: {a!r} != {b!r}")
    pytest.fail(f"{len(got_lines)} lines written, {len(expected_lines)} expected")


# sample(compile_heavy_formula, k=100_000, seed=5) under uniform weights.
# Written by the per-literal writer before model_lines was vectorized, and
# pinned again when coins became one stream per variable.
PINNED_MODEL_LINES_DIGEST = "4ef5b35476ffdde36d220496b61d9778c7ef3b30def8d9b8a467794aecc5ad6c"


# Variable counts whose token width changes (9/10, 99/100, 999/1000), that
# fill whole bytes or words exactly (8, 64, 128, 1000), that leave stray bits
# in the last byte or word, and that leave no byte at all (0).
FORMAT_NUM_VARS = [0, 1, 8, 9, 10, 63, 64, 65, 99, 100, 128, 130, 999, 1000]


class TestBatchFormatting:
    """model_lines and frequencies against the per-literal reference, across block edges."""

    @staticmethod
    def _block_rows(num_vars, words):
        """The lines model_line_blocks puts in one block at num_vars, read from its first block."""
        probe = SampleBatch(masks=np.zeros((1 << 20, words), dtype=np.uint64), num_vars=num_vars)
        return next(probe.model_line_blocks()).count("\n")

    @staticmethod
    def _batches(num_vars, seed):
        """Batches of 1 row and of one block's rows - 1, + 0, + 1 and twice + 1, from a pool of masks.

        The pool holds random masks, stray bits above num_vars included,
        and the all-zero and all-one masks. The reference writer formats
        only the pool, which keeps it fast over the block sizes; the
        expected text is the pool's lines in row order.
        """
        rng = np.random.default_rng(seed)
        words = (num_vars + 63) // 64
        pool = rng.integers(0, 2**64, size=(64, words), dtype=np.uint64)
        pool[0] = 0
        pool[1] = np.uint64(2**64 - 1)
        pool_lines = reference_model_lines(SampleBatch(masks=pool, num_vars=num_vars)).splitlines(keepends=True)
        rows = TestBatchFormatting._block_rows(num_vars, words)
        assert 1 < rows < 1 << 20
        for k in (1, rows - 1, rows, rows + 1, 2 * rows + 1):
            index = rng.integers(0, len(pool), size=k)
            index[0], index[-1] = 0, 1
            batch = SampleBatch(masks=pool[index], num_vars=num_vars)
            yield batch, "".join(pool_lines[i] for i in index)

    @pytest.mark.parametrize("num_vars", FORMAT_NUM_VARS)
    def test_model_lines_match_reference_writer(self, num_vars):
        for batch, expected in self._batches(num_vars, seed=num_vars):
            assert_same_text(batch.model_lines(), expected)

    @pytest.mark.parametrize("num_vars", FORMAT_NUM_VARS)
    def test_frequencies_match_reference_bit_for_bit(self, num_vars):
        for batch, _ in self._batches(num_vars, seed=1000 + num_vars):
            assert reference_frequencies(batch).tobytes() == batch.frequencies().tobytes()

    def test_small_batch_matches_reference_writer_directly(self):
        rng = np.random.default_rng(9)
        masks = rng.integers(0, 2**64, size=(300, 3), dtype=np.uint64)
        batch = SampleBatch(masks=masks, num_vars=150)
        assert_same_text(batch.model_lines(), reference_model_lines(batch))

    def test_blocks_are_bounded_by_bytes(self):
        # 8,192 rows of 2,000 variables are 81 MB of text; blocks of 8,192 rows peaked at 278 MB.
        # One row of 60,000 variables is 420 KB; a table of 256 entries per mask byte peaked at 120.6 MiB.
        rng = np.random.default_rng(4)
        for k, num_vars in ((8192, 2000), (1, 60_000)):
            masks = rng.integers(0, 2**64, size=(k, (num_vars + 63) // 64), dtype=np.uint64)
            batch = SampleBatch(masks=masks, num_vars=num_vars)
            tracemalloc.start()
            try:
                for _ in batch.model_line_blocks():
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (k, num_vars)

    def test_model_lines_digest_is_pinned(self):
        prob = smooth(compile_cnf(compile_heavy_formula()))
        parameterize(prob, WeightFunction.uniform())
        text = sample(prob, 100_000, seed=5).model_lines()
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == PINNED_MODEL_LINES_DIGEST


class TestUpdateWeights:
    def test_idempotent(self):
        formula, prob = example_prob()
        weights = parse_weights(EXAMPLE_WEIGHTS, formula)
        baseline = export_prob(prob)
        for _ in range(10):
            update_weights(prob, weights)
            assert export_prob(prob) == baseline

    def test_only_touched_decisions_change(self):
        formula, prob = example_prob()
        before = export_prob(prob).splitlines()
        update_weights(
            prob,
            parse_weights("w 1 0.25\nw -1 0.75\n" + "".join(f"w {v} 0.75\nw {-v} 0.25\n" for v in (2, 3)), formula),
        )
        after = export_prob(prob).splitlines()
        changed = [(a, b) for a, b in zip(before, after) if a != b]
        assert len(before) == len(after)
        assert changed, "the x decision line must change"
        for old, new in changed:
            assert old.split()[:5] == new.split()[:5]  # same structure, new parameters
            assert old.split()[2] == "1"  # only decisions on variable x=1

    def test_matches_fresh_compile(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        new_weights = parse_weights("w 1 4\nw -1 1\nw 2 1\nw -2 3\n", formula)
        ordering = choose_ordering(formula, "natural")

        updated = smooth(compile_cnf(formula, ordering))
        parameterize(updated, parse_weights(EXAMPLE_WEIGHTS, formula))
        update_weights(updated, new_weights)

        fresh = smooth(compile_cnf(formula, ordering))
        parameterize(fresh, new_weights)

        assert export_prob(updated) == export_prob(fresh)
        assert np.array_equal(sample(updated, 300, seed=6).masks, sample(fresh, 300, seed=6).masks)

    def test_requires_smooth(self):
        prob = compile_cnf(parse_dimacs(EXAMPLE_DIMACS))
        with pytest.raises(StructureError):
            update_weights(prob, WeightFunction.uniform())


class TestDefaultUpdateRule:
    def _batch(self, bits):
        masks = np.array(bits, dtype=np.uint64)[:, None]
        return SampleBatch(masks=masks, num_vars=1)

    def test_all_positive_floors_at_eps(self):
        k = 10
        batch = self._batch([1] * k)
        weights = default_update_rule(batch, WeightFunction.uniform())
        assert weights[1] == 1.0 / (2 * k)
        assert weights[-1] == 1.0

    def test_balanced(self):
        batch = self._batch([0, 1, 0, 1])
        weights = default_update_rule(batch, WeightFunction.uniform())
        assert weights[1] == 0.5
        assert weights[-1] == 0.5

    def test_quarter_three_quarters(self):
        batch = self._batch([1] * 75 + [0] * 25)
        weights = default_update_rule(batch, WeightFunction.uniform())
        assert weights[1] == 0.25
        assert weights[-1] == 0.75

    def test_empty_batch_rejected(self):
        batch = SampleBatch(masks=np.zeros((0, 1), dtype=np.uint64), num_vars=1)
        with pytest.raises(ValueError):
            default_update_rule(batch, WeightFunction.uniform())


class TestRunIncremental:
    def test_ten_rounds_structure(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        reports = run_incremental(formula, WeightFunction.uniform(), rounds=10, k=100, seed=2)
        assert [r.round for r in reports] == list(range(1, 11))
        assert all(len(r.samples) == 100 for r in reports)
        assert reports[0].compile_s > 0
        assert all(r.compile_s == 0 and r.smooth_s == 0 for r in reports[1:])
        for rep in reports:
            assert rep.param_s >= 0 and rep.sample_s >= 0
            assert rep.samples.root_log_prob <= 1e-12

    def test_single_round_equals_compile_and_sample(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        weights = parse_weights(EXAMPLE_WEIGHTS, formula)
        reports = run_incremental(formula, weights, rounds=1, k=50, seed=9)
        prob = smooth(compile_cnf(formula, choose_ordering(formula)))
        parameterize(prob, weights)
        direct = sample(prob, 50, seed=round_seed(9, 1))
        assert np.array_equal(reports[0].samples.masks, direct.masks)

    def test_constant_rule_keeps_distribution(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        weights = parse_weights(EXAMPLE_WEIGHTS, formula)
        reports = run_incremental(
            formula, weights, rounds=4, k=50_000, seed=21, rule=lambda batch, prev: weights
        )
        exact = exact_distribution(formula, weights)
        for rep in reports:
            assert rep.weights == weights
            assert compare(rep.samples, exact).tv_distance < 0.02

    def test_default_rule_changes_weights(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        reports = run_incremental(formula, WeightFunction.uniform(), rounds=3, k=200, seed=4)
        assert reports[1].weights != reports[0].weights

    def test_csv_shape(self):
        formula = parse_dimacs(EXAMPLE_DIMACS)
        reports = run_incremental(formula, WeightFunction.uniform(), rounds=3, k=10, seed=1)
        lines = round_reports_csv(reports).splitlines()
        assert lines[0] == "round,compile_s,smooth_s,param_s,sample_s,total_s,root_log_prob"
        assert len(lines) == 4

    def test_unsatisfiable_formula_raises(self):
        with pytest.raises(ZeroProbabilityError):
            run_incremental(CnfFormula(2, ((),)), WeightFunction.uniform(), rounds=2, k=10, seed=0)


# Recorded when coins became one stream per variable instead of one per
# decision; every later change to annotation or sampling must reproduce it
# bit for bit.
PINNED_SAMPLING_DIGEST = "c716eb8d19c6c7e97e8119fc3109f3d2d318e2a5d4c37c87a31077ccb63ccee0"


def sampling_digest() -> str:
    """SHA-256 over the masks and root log probabilities of a fixed set of batches.

    Covers the 28-variable compile-heavy instance over five reweighted
    rounds in both arithmetics and split over one and two threads, plus
    small random formulas whose literal weights include zero and extreme
    values.
    """
    digest = hashlib.sha256()

    def draw(prob, k, seed, mode, threads):
        try:
            with pytest.MonkeyPatch.context() as patch:
                force_split(patch, threads)
                batch = sample(prob, k, seed, mode=mode)
        except ZeroProbabilityError:
            digest.update(b"zero")
            return None
        digest.update(batch.masks.tobytes())
        digest.update(struct.pack("<d", batch.root_log_prob))
        return batch

    prob = smooth(compile_cnf(compile_heavy_formula()))
    for mode in ("log", "rational"):
        for threads in (1, 2):
            weights = WeightFunction.uniform()
            for rnd in range(1, 6):
                update_weights(prob, weights)
                batch = draw(prob, 300, round_seed(3, rnd), mode, threads)
                weights = default_update_rule(batch, weights)

    rng = random.Random(2023)
    # Rational mode leaves out the tiny levels: a root mass below the
    # smallest double is covered by its own test.
    levels = {"log": (0.0, 1e-300, 1e-5, 0.5, 1.0, 7.0, 1e300), "rational": (0.0, 1e-5, 0.5, 1.0, 7.0)}
    for _ in range(80):
        n = rng.randint(1, 9)
        formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n))
        prob = smooth(compile_cnf(formula))
        for mode in ("log", "rational"):
            table = {}
            for var in range(1, n + 1):
                table[var] = rng.choice(levels[mode])
                table[-var] = rng.choice(levels[mode][1 if table[var] == 0 else 0:])
            parameterize(prob, WeightFunction(table))
            draw(prob, 64, rng.randrange(2**32), mode, rng.randint(1, 2))
    return digest.hexdigest()


class TestReproducibilityDigest:
    def test_masks_and_root_values_are_pinned(self):
        assert sampling_digest() == PINNED_SAMPLING_DIGEST
