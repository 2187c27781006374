"""Shared test utilities: deterministic formula generators and naive checks."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from probdd import CnfFormula, WeightFunction, compile_cnf, export_prob, find_violations, model_masks, parameterize, smooth
from probdd.cnf import normalize_clause
from probdd.errors import ZeroProbabilityError
from probdd.oracle import ExactDistribution

# Worked example used throughout: (x or y) and (not x or not z) with x=1 y=2 z=3.
# Its models, as bitmasks with bit v-1 = variable v:
#   x -y -z = 1, -x y -z = 2, x y -z = 3, -x y z = 6.
EXAMPLE_DIMACS = "p cnf 3 2\n1 2 0\n-1 -3 0\n"
EXAMPLE_MODELS = {1, 2, 3, 6}
EXAMPLE_WEIGHTS = "".join(f"w {v} 0.75\nw {-v} 0.25\n" for v in (1, 2, 3))


def random_mixed_cnf(rng: random.Random, num_vars: int, num_clauses: int, width: int = 3) -> CnfFormula:
    """Random clauses of size 1..width, tautologies rejected."""
    clauses = []
    while len(clauses) < num_clauses:
        size = rng.randint(1, width)
        lits = {rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(size)}
        clause = normalize_clause(lits)
        if clause:
            clauses.append(clause)
    return CnfFormula(num_vars, tuple(clauses))


def random_k_cnf(rng: random.Random, num_vars: int, num_clauses: int, width: int = 3) -> CnfFormula:
    """Random clauses over `width` distinct variables each."""
    clauses = []
    while len(clauses) < num_clauses:
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        clauses.append(tuple(sorted(lits, key=abs)))
    return CnfFormula(num_vars, tuple(clauses))


def random_weights(rng: random.Random, num_vars: int, low: float = 0.1, high: float = 10.0) -> WeightFunction:
    return WeightFunction(
        {lit: rng.uniform(low, high) for v in range(1, num_vars + 1) for lit in (v, -v)}
    )


def constrained_instances(seed: int, count: int, max_vars: int, max_models: int, min_models: int = 1,
                          clauses: tuple[int, int] = (2, 3)):
    """Satisfiable random formulas with a support small enough for tight TV bounds.

    Each has 4 to max_vars variables, clauses[0] * n to clauses[1] * n
    clauses over its n variables, and min_models to max_models models.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, max_vars)
        formula = random_mixed_cnf(rng, n, rng.randint(clauses[0] * n, clauses[1] * n))
        if min_models <= len(model_masks(formula)) <= max_models:
            out.append(formula)
    return out


def rational_distribution(formula: CnfFormula, weights: WeightFunction) -> ExactDistribution:
    """exact_distribution in exact rationals, the reference its log-space sums are held to.

    Each model's weight is the Fraction product of its literal weights;
    normalization is their exact Fraction sum N, which no double bounds.
    """
    models = model_masks(formula)
    fracs = []
    for mask in models:
        w = Fraction(1)
        for var in range(1, formula.num_vars + 1):
            w *= Fraction(weights[var if (int(mask) >> (var - 1)) & 1 else -var])
        fracs.append(w)
    normalization = sum(fracs, Fraction(0))
    if normalization == 0:
        raise ZeroProbabilityError("every satisfying assignment has weight zero")
    probs = np.array([float(f / normalization) for f in fracs], dtype=np.float64)
    positive = np.array([f > 0 for f in fracs], dtype=bool)
    return ExactDistribution(models[positive], probs[positive], normalization, formula.num_vars)


def dimacs_text(formula: CnfFormula) -> str:
    clauses = "".join(" ".join(map(str, clause)) + " 0\n" for clause in formula.clauses)
    return f"p cnf {formula.num_vars} {len(formula.clauses)}\n" + clauses


def wide_ancestors_prob(ancestors: int) -> str:
    """A diagram file of one decision on variable 10**8 below a chain of `ancestors` decisions on 1, 2, ...

    Each node's var_sets mask is 10**8 bits wide, about 12.5 MB.
    """
    body = "".join(f"{nid} D {nid - 2} {nid - 1} {nid - 1}\n" for nid in range(3, ancestors + 3))
    return (f"prob 1.0\nnvars 100000000\nnnodes {ancestors + 3}\n0 F\n1 T\n2 D 100000000 0 1\n"
            f"{body}root {ancestors + 2}\n")


def violated(prob) -> set[str]:
    return {v.property_name for v in find_violations(prob)}


def mask_set(mask: int) -> set[int]:
    """The variables of a var_sets mask (bit v is variable v), read off its binary digits."""
    return {var for var, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"}


def naive_var_sets(prob) -> dict[int, frozenset[int]]:
    """Every reachable node's variables as a frozenset, bottom-up from an explicit stack: var_sets' reference."""
    sets: dict[int, frozenset[int]] = {}
    stack = [prob.root]
    while stack:
        node = prob.nodes[stack[-1]]
        kids = (node.lo, node.hi) if node.kind == "D" else node.children
        pending = [child for child in kids if child not in sets]
        if pending:
            stack.extend(pending)
            continue
        own = {node.var} if node.kind == "D" else set()
        sets[stack.pop()] = frozenset(own).union(*(sets[child] for child in kids))
    return sets


def naive_satisfies(clauses, values) -> bool:
    """Clause-by-clause check over a var -> bool mapping, independent of the package's mask code."""
    for clause in clauses:
        hit = False
        for lit in clause:
            if values[abs(lit)] == (lit > 0):
                hit = True
                break
        if not hit:
            return False
    return True


def histogram_benchmark_formula() -> CnfFormula:
    """Fixed 15-variable benchmark with 792 models, used for histogram checks."""
    rng = random.Random(6)
    clauses = []
    while len(clauses) < 26:
        size = rng.randint(2, 3)
        lits = {rng.choice([-1, 1]) * rng.randint(1, 15) for _ in range(size)}
        clause = normalize_clause(lits)
        if clause:
            clauses.append(clause)
    return CnfFormula(15, tuple(clauses))


def fresh_uniforms(seed: int, var: int, start: int, stop: int) -> np.ndarray:
    """Draws [start, stop) of a variable's Philox stream, from a generator built for this call alone.

    The stream is keyed (seed mod 2**64, var). Philox emits four 64-bit
    words per counter step and one double consumes one word, so starting
    the counter at start // 4 and trimming the remainder lands exactly on
    draw `start`. The sampler must reproduce these bits without building
    a generator per variable; this is the reference it is held to.
    """
    key = np.array([seed & (2**64 - 1), var], dtype=np.uint64)
    skip, offset = divmod(start, 4)
    bitgen = np.random.Philox(key=key, counter=skip)
    return np.random.Generator(bitgen).random(stop - 4 * skip)[offset:]


def compile_heavy_formula() -> CnfFormula:
    """Fixed satisfiable 28-variable 3-CNF, 1,369 nodes once smoothed.

    Its compile takes only about five times as long as sampling 100
    models from it, so it is not compile-dominated: criterion 7 uses
    guarded_pigeonhole.
    """
    return random_k_cnf(random.Random(1), 28, 100)


def guarded_pigeonhole(holes: int) -> CnfFormula:
    """The pigeonhole principle for holes + 1 pigeons, each clause guarded by a last variable g.

    Variable (i - 1) * holes + j puts pigeon i into hole j. Every pigeon
    sits in some hole and no hole holds two pigeons, each clause with
    -g added. So the models are exactly those with g false, and the
    compiled diagram is one decision on g; but under g true the compiler
    has to refute the pigeonhole principle, whose resolution proofs
    grow exponentially with the number of holes (Haken 1985), so no
    stronger propagation can shrink that work.
    """
    pigeons = holes + 1
    guard = pigeons * holes + 1
    var = [[i * holes + j + 1 for j in range(holes)] for i in range(pigeons)]
    clauses = [tuple(row) + (-guard,) for row in var]
    clauses += [(-var[i][j], -var[k][j], -guard)
                for j in range(holes) for i in range(pigeons) for k in range(i + 1, pigeons)]
    return CnfFormula(guard, tuple(clauses))


def force_split(monkeypatch, cpus: int) -> None:
    """Make sample split each pass over a diagram with variables into min(cpus, k) workers.

    sample takes one worker per VISITS_PER_WORKER decision visits (k *
    num_vars), at most one per CPU and one per sample, so with one visit
    per worker only the CPU count and k cap the split.
    """
    monkeypatch.setattr("probdd.sampler.VISITS_PER_WORKER", 1)
    monkeypatch.setattr("probdd.sampler.os.cpu_count", lambda: cpus)


def record_pools(monkeypatch) -> list[int]:
    """Swap the sampler's thread pool for one that records max_workers and runs the work inline.

    No thread is started, so a test may force any worker count.
    """
    sizes: list[int] = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("probdd.sampler.ThreadPoolExecutor", InlinePool)
    return sizes


# Tokens a mutation may put into a diagram file. The integers stay small: smoothing
# adds a don't-care decision per variable a header declares and the diagram never uses.
MUTATION_TOKENS = ("-1", "0", "1", "2", "3", "4", "5", "6", "7", "9", "0.5", "1.0", "-0.5", "nan", "inf",
                   "1e309", "D", "A", "F", "T", "root", "nvars", "x")


def mutate_lines(rng: random.Random, text: str, tokens: tuple[str, ...], first: int = 0) -> str:
    """text after one or two mutations, drawn from rng, that leave lines before `first` alone.

    A mutation replaces, inserts or deletes a token, swaps two lines or
    deletes one.
    """
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("replace", "replace", "insert", "delete", "swap", "drop"))
        row = rng.randrange(first, len(lines))
        words = lines[row]
        if op == "insert":
            words.insert(rng.randint(0, len(words)), rng.choice(tokens))
        elif op == "replace" and words:
            words[rng.randrange(len(words))] = rng.choice(tokens)
        elif op == "delete" and words:
            del words[rng.randrange(len(words))]
        elif op == "swap":
            other = rng.randrange(first, len(lines))
            lines[row], lines[other] = lines[other], words
        elif op == "drop" and len(lines) > first + 1:
            del lines[row]
    return "".join(" ".join(words) + "\n" for words in lines)


@st.composite
def mutated_exports(draw):
    """Exports of small compiled diagrams after one or two mutations.

    Everything is drawn from one seeded generator, so places are uniform:
    a random formula over two to five variables is compiled, then maybe
    smoothed and maybe parameterized, then mutated by mutate_lines. The
    "prob 1.0" header line is left alone so that most files get past it.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(2, 5)
    prob = compile_cnf(random_mixed_cnf(rng, n, rng.randint(1, n)))
    if rng.random() < 0.5:
        smooth(prob)
    if rng.random() < 0.5:
        parameterize(prob, random_weights(rng, n))
    return mutate_lines(rng, export_prob(prob), MUTATION_TOKENS, first=1)


# Tokens a mutation may put into a DIMACS or weight file; small integers, as above.
INPUT_TOKENS = ("-9", "-3", "-2", "-1", "0", "1", "2", "3", "8", "9", "0.5", "-0.5", "1e-320", "1e300",
                "1e309", "nan", "p", "cnf", "c", "w", "#", "x")
WEIGHT_LEVELS = ("0", "1e-300", "0.5", "1", "7", "1e300")


@st.composite
def mutated_inputs(draw):
    """A DIMACS file and a weight file over at most eight variables, one or both mutated.

    Both start valid and small: a random formula over zero to eight
    variables, and weights from WEIGHT_LEVELS on some of its literals
    after a comment line, so that the file is never empty. Then the
    DIMACS file, the weight file, both or neither go through
    mutate_lines, header and comment lines included.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(0, 8)
    formula = random_mixed_cnf(rng, n, rng.randint(0, 2 * n)) if n else CnfFormula(0, ())
    cnf = dimacs_text(formula)
    lits = [lit for v in range(1, n + 1) for lit in (v, -v) if rng.random() < 0.5]
    weights = "# weights\n" + "".join(f"w {lit} {rng.choice(WEIGHT_LEVELS)}\n" for lit in lits)
    which = rng.choice(("cnf", "weights", "both", "neither"))
    if which in ("cnf", "both"):
        cnf = mutate_lines(rng, cnf, INPUT_TOKENS)
    if which in ("weights", "both"):
        weights = mutate_lines(rng, weights, INPUT_TOKENS)
    return cnf, weights
