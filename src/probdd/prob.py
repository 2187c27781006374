"""Decision diagrams with conjunction nodes and probability annotations.

The diagram is a DAG stored as an arena of nodes. Ids 0 and 1 are the
shared false and true terminals. Decision nodes branch on one variable
(lo-child = variable false, hi-child = variable true) and carry a pair
of branch probabilities once parameterized; conjunction nodes combine
sub-diagrams over disjoint variable sets.

Joint probabilities are annotated bottom-up by one routine over an
arithmetic record: log space (values are log probabilities, products are
sums and sums are log-sum-exp) or exact rationals for oracle-grade
counting. The value of a conjunction node is the product of its
children's values, and the value of a decision node is the sum of its
two weighted branches. Zero probability is encoded as absence: edges
into the false terminal or with a zero branch parameter contribute
nothing, so zero-probability nodes are missing from the annotation. The
same routine yields, for every positive decision node, the conditional
probability of its hi branch, which is all a sampler needs to draw.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice
from typing import Any, Callable, Iterable

import numpy as np

from .cnf import WeightFunction
from .errors import GuardError, StructureError

FALSE_ID = 0
TRUE_ID = 1
NEG_INF = float("-inf")
MAX_ENUM_VARS = 24  # diagram_models enumerates at most 2**24 masks
# smooth adds one don't-care decision per variable the root never mentions, and a
# diagram file may declare any nvars: the cap keeps a tiny file from exhausting memory.
MAX_ROOT_DONT_CARES = 1 << 16
# Prob.topo_structure()'s entries: (node id, kind, children, decision variable or 0).
Structure = list[tuple[int, str, tuple[int, ...], int]]


@dataclass(slots=True)
class Node:
    """One arena slot. kind is 'F', 'T', 'D' (decision) or 'A' (conjunction)."""

    kind: str
    var: int = 0
    lo: int = 0
    hi: int = 0
    children: tuple[int, ...] = ()
    theta_lo: float | None = None
    theta_hi: float | None = None


class Prob:
    """Arena-backed diagram with a designated root node.

    The arena owns its slots: add_decision and add_conj accept only
    existing children, a variable in 1..num_vars and at least two
    conjunction children, and only append. parameterized holds while
    every decision in the arena has branch parameters (a scan: read it
    once per pass); smooth while root is smoothed_root, the root smooth()
    or import_prob last found smooth, so only moving root clears it.
    plan() is the structure annotation and sampling read, kept while the
    diagram is smooth. Only smooth() rewires nodes, and it forgets the
    kept plan whenever it walks the diagram, so after rewiring edges by
    hand set smoothed_root to None and call smooth(), which also checks
    the edit again.
    """

    def __init__(self, num_vars: int):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.nodes: list[Node] = [Node("F"), Node("T")]
        self.root: int = FALSE_ID
        self.num_vars = num_vars
        self.smoothed_root: int | None = None
        self._plan: Structure | None = None

    @property
    def smooth(self) -> bool:
        return self.smoothed_root == self.root

    @property
    def parameterized(self) -> bool:
        return all(node.theta_lo is not None for node in self.nodes if node.kind == "D")

    def add_decision(self, var: int, lo: int, hi: int) -> int:
        if not 1 <= var <= self.num_vars:
            raise ValueError(f"decision variable {var} out of range")
        for child in (lo, hi):
            if not 0 <= child < len(self.nodes):
                raise ValueError(f"child id {child} does not exist")
        self.nodes.append(Node("D", var=var, lo=lo, hi=hi))
        return len(self.nodes) - 1

    def add_conj(self, children: Iterable[int]) -> int:
        kids = tuple(children)
        if len(kids) < 2:
            raise ValueError("conjunction nodes need at least two children")
        for child in kids:
            if not 0 <= child < len(self.nodes):
                raise ValueError(f"child id {child} does not exist")
        self.nodes.append(Node("A", children=kids))
        return len(self.nodes) - 1

    def children_of(self, nid: int) -> tuple[int, ...]:
        node = self.nodes[nid]
        if node.kind == "D":
            return (node.lo, node.hi)
        if node.kind == "A":
            return node.children
        return ()

    def topo_order(self) -> list[int]:
        """Reachable nodes, children before parents, deterministic.

        Raises StructureError naming the node that closes a cycle: a node
        reached again after it was entered but before it was emitted lies
        on the current path. An entered node pushes ~nid below its
        children, last child first, and is emitted when that comes off the
        stack; state holds 1 for an entered node and 2 for an emitted one.
        The children are read from the node, as children_of gives them.
        """
        order: list[int] = []
        nodes = self.nodes
        state = bytearray(len(nodes))
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid < 0:
                nid = ~nid
                order.append(nid)
                state[nid] = 2
                continue
            if state[nid]:
                if state[nid] == 1:
                    raise StructureError(f"cycle through node {nid}", node_id=nid)
                continue
            state[nid] = 1
            stack.append(~nid)
            node = nodes[nid]
            if node.kind == "D":
                if state[node.hi] != 2:
                    stack.append(node.hi)
                if state[node.lo] != 2:
                    stack.append(node.lo)
            elif node.kind == "A":
                for child in reversed(node.children):
                    if state[child] != 2:
                        stack.append(child)
        return order

    def topo_structure(self) -> Structure:
        """The reachable nodes with kind, children and variable (0 unless a decision), grouped by variable.

        The order is children first, as topo_order()'s, but read backwards
        it takes each variable's decisions one after another, so that the
        drawing pass holds one variable's coins at a time. It is Kahn's
        algorithm run parents first: a conjunction or terminal goes as
        soon as its parents have, and decisions go a variable at a time,
        once all of that variable's decisions are ready. In a diagram whose
        paths follow one variable order, as every compiled diagram's do,
        some variable is always complete; otherwise the first variable
        with a ready decision goes with the decisions it has ready.

        This is all of the structure sampler.sample reads, through plan():
        annotate_branches reads it forwards, children first, and the
        drawing pass backwards.
        """
        nodes = self.nodes
        children = {nid: self.children_of(nid) for nid in self.topo_order()}
        parents = Counter(child for kids in children.values() for child in kids)
        waiting = Counter(nodes[nid].var for nid in children if nodes[nid].kind == "D")  # per variable, not yet ready
        free: list[int] = []
        ready: dict[int, list[int]] = {}  # per variable, its decisions whose parents have all gone
        complete: list[int] = []  # the variables whose decisions are all ready

        def release(nid: int) -> None:
            node = nodes[nid]
            if node.kind != "D":
                free.append(nid)
                return
            ready.setdefault(node.var, []).append(nid)
            waiting[node.var] -= 1
            if not waiting[node.var]:
                complete.append(node.var)

        grouped: list[int] = []
        release(self.root)
        while free or ready:
            batch = [free.pop()] if free else ready.pop(complete.pop() if complete else next(iter(ready)))
            for nid in batch:
                grouped.append(nid)
                for child in children[nid]:
                    parents[child] -= 1
                    if not parents[child]:
                        release(child)
        return [(nid, nodes[nid].kind, children[nid], nodes[nid].var) for nid in reversed(grouped)]

    def plan(self) -> Structure:
        """topo_structure(), kept while the diagram is smooth for the root it was made for.

        A diagram that is not smooth gets a fresh list each call, and
        nothing is kept.
        """
        plan = self._plan
        if plan is None or plan[-1][0] != self.root or not self.smooth:
            plan = self.topo_structure()
            self._plan = plan if self.smooth else None
        return plan

    @property
    def node_count(self) -> int:
        return len(self.topo_order())

    def count_kinds(self) -> dict[str, int]:
        counts = {"F": 0, "T": 0, "D": 0, "A": 0}
        for nid in self.topo_order():
            counts[self.nodes[nid].kind] += 1
        return counts


def var_sets(prob: Prob) -> dict[int, int]:
    """Per-node variable sets of the reachable nodes, in topo_order (children first).

    Each set is one Python int with bit v set for each variable v the
    node mentions; bit 0 is never set, and the terminals hold 0. Every
    variable set in this module is such a mask: union is |, intersection
    &, difference a & ~b, and mask_variables lists the variables.

    A mask is as wide as the highest variable below its node, not as
    large as the set: it takes about (highest variable) / 8 bytes, and
    the dict keeps one per reachable node. A diagram that decides a
    variable near 10**8 holds a mask of about 12.5 MB for that decision
    and for each of its ancestors.
    """
    nodes = prob.nodes
    masks: dict[int, int] = {}
    for nid in prob.topo_order():
        node = nodes[nid]
        kind = node.kind
        if kind == "D":
            masks[nid] = masks[node.lo] | masks[node.hi] | 1 << node.var
        elif kind == "A":
            mask = 0
            for child in node.children:
                mask |= masks[child]
            masks[nid] = mask
        else:
            masks[nid] = 0
    return masks


def mask_variables(mask: int) -> list[int]:
    """The variables of a var_sets mask, ascending.

    A mask of at most 4096 bits is read from its binary digits. A wider
    one is halved first and an empty half skipped, so no digit string is
    longer than 4096 and a few variables in a wide mask cost little.
    """
    width = mask.bit_length()
    if width <= 4096:
        digits = bin(mask)[:1:-1]  # digits[v] is bit v
        return [var for var, digit in enumerate(digits) if digit == "1"]
    half = width // 2
    low = mask & ((1 << half) - 1)
    high = [var + half for var in mask_variables(mask >> half)]
    return (mask_variables(low) if low else []) + high


@dataclass(frozen=True)
class Violation:
    property_name: str
    node_id: int
    detail: str


def find_violations(prob: Prob) -> list[Violation]:
    """All determinism, decomposability and smoothness violations.

    Determinism requires a decision variable not to be re-decided below
    either branch; decomposability requires conjunction children to
    mention pairwise disjoint variables; smoothness requires equal
    variable sets on the two branches of every decision node, plus full
    variable coverage at the root so every sampled mask is complete.
    Each test is an int operation on the var_sets masks of the node and
    its children; a detail names variables in ascending order, and the
    root's at most the first ten it misses.
    """
    kappa = var_sets(prob)
    nodes = prob.nodes
    violations: list[Violation] = []
    for nid in kappa:  # the reachable nodes, children first
        node = nodes[nid]
        if node.kind == "D":
            lo, hi = kappa[node.lo], kappa[node.hi]
            if (lo | hi) >> node.var & 1:
                violations.append(Violation("determinism", nid, f"variable {node.var} decided again below node {nid}"))
            if lo != hi:
                diff = mask_variables(lo ^ hi)
                violations.append(Violation("smoothness", nid, f"branches of node {nid} differ on variables {diff}"))
        elif node.kind == "A":
            covered = 0
            for child in node.children:
                overlap = covered & kappa[child]
                if overlap:
                    shared = mask_variables(overlap)
                    violations.append(Violation("decomposability", nid, f"children of node {nid} share variables {shared}"))
                    break
                covered |= kappa[child]
    covered = kappa.get(prob.root, 0)
    mentioned = covered.bit_count()
    if prob.root != FALSE_ID and mentioned < prob.num_vars:  # the root's variables lie in 1..num_vars
        # Name only the first ten missing variables: the gaps below the highest variable
        # the root mentions, read in windows of doubling width from variable 1 up, so the
        # work and the ints stay as small as where the tenth gap lies; then the variables
        # above it. Nothing here grows with num_vars.
        top = covered.bit_length()
        first: list[int] = []
        start, width = 1, 64
        while len(first) < 10 and start < top:
            end = min(start + width, top)
            window = (1 << end) - (1 << start)  # bits start..end-1
            gaps = (covered & window) ^ window
            while gaps and len(first) < 10:
                low = gaps & -gaps
                first.append(low.bit_length() - 1)
                gaps ^= low
            start, width = end, 2 * width
        first.extend(islice(range(max(top, 1), prob.num_vars + 1), 10 - len(first)))
        detail = f"diagram never mentions {prob.num_vars - mentioned} variables, first {first}"
        violations.append(Violation("smoothness", prob.root, detail))
    return violations


def parameterize(prob: Prob, weights: WeightFunction) -> Prob:
    """Set branch probabilities from normalized literal weights, in place.

    For a decision on x: theta_lo = W(-x) / (W(-x) + W(x)) and theta_hi
    its complement. Idempotent; calling again with new weights is the
    incremental update path and never touches the structure. A pair
    whose sum overflows is first divided by its larger weight. The sum
    is positive, as WeightFunction rejects a pair that is both zero.
    """
    thetas: dict[int, tuple[float, float]] = {}  # per variable, its (theta_lo, theta_hi)
    for node in prob.nodes:
        if node.kind != "D":
            continue
        pair = thetas.get(node.var)
        if pair is None:
            w_neg, w_pos = weights.pair(node.var)
            total = w_neg + w_pos
            if math.isinf(total):
                top = max(w_neg, w_pos)
                w_neg, w_pos = w_neg / top, w_pos / top
                total = w_neg + w_pos
            pair = thetas[node.var] = (w_neg / total, w_pos / total)
        node.theta_lo, node.theta_hi = pair
    return prob


def smooth(prob: Prob) -> Prob:
    """Equalize the variable sets on both branches of every decision node.

    Bottom-up over the diagram: whenever one branch misses variables the
    other covers, the deficient child edge is rewired to a new
    conjunction of the old child and shared don't-care decision nodes
    (both branches pointing at the true terminal, one node per variable).
    Variables absent from the entire diagram are wrapped around the root
    the same way, so samples always cover every variable. The model set
    is unchanged. A diagram already smooth at its root is returned as-is.
    One whose root misses more than MAX_ROOT_DONT_CARES variables raises
    GuardError and is left unchanged. A branch's missing variables are
    the var_sets mask difference of the two branches, and the wrapped
    conjunctions are shared per (child, missing mask).
    """
    if prob.smooth or prob.root == FALSE_ID:
        prob.smoothed_root = prob.root
        return prob
    # Smoothing only adds variables the other branch already covers, so
    # every node's variable set before smoothing is also its final set.
    kappa = var_sets(prob)
    unmentioned = prob.num_vars - kappa[prob.root].bit_count()
    if unmentioned > MAX_ROOT_DONT_CARES:
        raise GuardError(f"diagram never mentions {unmentioned} of its {prob.num_vars} variables; "
                         f"smoothing adds at most {MAX_ROOT_DONT_CARES} don't-care decisions at the root")
    # The one place a kept plan goes stale: the walk below may rewire
    # reachable nodes in place.
    prob._plan = None
    dont_care: dict[int, int] = {}
    for nid, node in enumerate(prob.nodes):
        if node.kind == "D" and node.lo == TRUE_ID and node.hi == TRUE_ID:
            dont_care.setdefault(node.var, nid)
    wrap_cache: dict[tuple[int, int], int] = {}  # (child, missing variables) -> the wrapped node

    def dc_node(var: int) -> int:
        nid = dont_care.get(var)
        if nid is None:
            nid = prob.add_decision(var, TRUE_ID, TRUE_ID)
            dont_care[var] = nid
        return nid

    def wrap(child: int, missing: int) -> int:
        key = (child, missing)
        cached = wrap_cache.get(key)
        if cached is not None:
            return cached
        if child == TRUE_ID:
            base: list[int] = []
        elif prob.nodes[child].kind == "A":
            base = list(prob.nodes[child].children)  # keep conjunctions flat
        else:
            base = [child]
        kids = base + [dc_node(v) for v in mask_variables(missing)]
        if len(kids) == 1:
            new = kids[0]
        else:
            new = prob.add_conj(kids)
        wrap_cache[key] = new
        return new

    for nid in kappa:  # the reachable nodes, children first
        node = prob.nodes[nid]
        if node.kind == "D":
            lo, hi = kappa[node.lo], kappa[node.hi]
            if hi & ~lo:
                node.lo = wrap(node.lo, hi & ~lo)
            if lo & ~hi:
                node.hi = wrap(node.hi, lo & ~hi)

    # Past the guard, so this mask of all num_vars variables is bounded.
    missing_root = ((1 << (prob.num_vars + 1)) - 2) & ~kappa[prob.root]
    if missing_root:
        prob.root = wrap(prob.root, missing_root)
    prob.smoothed_root = prob.root
    return prob


def log_sum_exp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without underflow; -inf encodes probability 0."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _log_fraction(value: Fraction) -> float:
    """Natural log of a positive Fraction, also below the smallest positive double."""
    as_float = float(value)
    if as_float > 0:
        return math.log(as_float)
    return math.log(value.numerator) - math.log(value.denominator)


@dataclass(frozen=True)
class Arithmetic:
    """The number system annotation values live in.

    one is the value of probability one, lift turns a positive branch
    parameter into a value, mul and add are the product and sum of two
    values, ratio(hi, total) is the float probability hi / total and log
    the natural log of a value as a float. Probability zero has no value.
    """

    one: Any
    lift: Callable[[float], Any]
    mul: Callable[[Any, Any], Any]
    add: Callable[[Any, Any], Any]
    ratio: Callable[[Any, Any], float]
    log: Callable[[Any], float]


LOG = Arithmetic(0.0, math.log, operator.add, log_sum_exp, lambda hi, total: math.exp(hi - total), float)
RATIONAL = Arithmetic(Fraction(1), Fraction, operator.mul, operator.add, lambda hi, total: float(hi / total), _log_fraction)
ARITHMETICS = {"log": LOG, "rational": RATIONAL}


def annotate_branches(prob: Prob, arith: Arithmetic) -> tuple[dict[int, Any], dict[int, float]]:
    """Joint probability of every reachable node and branch odds of every decision.

    Reads prob.plan() forwards: every reachable node, children first,
    with its kind, children (lo, hi for a decision) and variable. Only
    the branch parameters are read from prob.nodes, so while the diagram
    is smooth every round reuses the one kept list, which sample's
    drawing pass reads backwards.
    Returns (phi, p_hi). phi maps each node of positive probability to
    its value in `arith`; the false terminal and every node whose
    sub-diagram has probability zero are absent. p_hi maps each decision
    node in phi to the conditional probability of its hi branch, exactly
    1.0 or 0.0 when the other branch has probability zero. A reachable
    decision without branch parameters raises StructureError naming it.
    """
    one, lift, mul, add, ratio = arith.one, arith.lift, arith.mul, arith.add, arith.ratio
    nodes = prob.nodes
    phi: dict[int, Any] = {}
    p_hi: dict[int, float] = {}
    for nid, kind, children, _ in prob.plan():
        if kind == "T":
            phi[nid] = one
        elif kind == "A":
            value = one
            for child in children:
                if child not in phi:
                    break
                value = mul(value, phi[child])
            else:
                phi[nid] = value
        elif kind == "D":
            node = nodes[nid]
            if node.theta_lo is None:
                raise StructureError(f"diagram is not parameterized: decision node {nid} has no branch parameters",
                                     property_name="parameters", node_id=nid)
            lo_id, hi_id = children
            lo = mul(lift(node.theta_lo), phi[lo_id]) if node.theta_lo > 0 and lo_id in phi else None
            hi = mul(lift(node.theta_hi), phi[hi_id]) if node.theta_hi > 0 and hi_id in phi else None
            if hi is None:
                if lo is not None:
                    phi[nid], p_hi[nid] = lo, 0.0
            elif lo is None:
                phi[nid], p_hi[nid] = hi, 1.0
            else:
                phi[nid] = total = add(lo, hi)
                p_hi[nid] = ratio(hi, total)
    return phi, p_hi


def annotate(prob: Prob) -> dict[int, float]:
    """Log joint probability of every reachable node, bottom-up.

    The false terminal and every node whose sub-diagram has probability
    zero are excluded from the cache. exp of the root's value is the
    probability mass of the models; with the normalized
    branch parameters it always lies in [0, 1].
    """
    return annotate_branches(prob, LOG)[0]


def annotate_rational(prob: Prob) -> dict[int, Fraction]:
    """Exact-rational twin of annotate, over the same branch parameters."""
    return annotate_branches(prob, RATIONAL)[0]


def weighted_model_count(prob: Prob, weights: WeightFunction, mode: str = "log"):
    """Sum over the models of the product of literal weights.

    Recovered from the root annotation by undoing the per-variable
    normalization: N = P(root) * prod_x (W(x) + W(-x)), each factor
    lifted into the annotation's arithmetic and multiplied there. With
    unit weights this is the model count. mode 'rational' returns an
    exact Fraction; mode 'log' sums logs, so that no partial product
    under- or overflows, and returns exp of the sum, inf past the
    largest double. The diagram is re-parameterized with the given
    weights so annotation and normalization always agree.
    """
    arith = ARITHMETICS.get(mode)
    if arith is None:
        raise ValueError(f"unknown mode {mode!r}")
    if not prob.smooth:
        raise StructureError("weighted_model_count requires a smoothed diagram", property_name="smoothness")
    parameterize(prob, weights)
    phi = annotate_branches(prob, arith)[0]
    if prob.root not in phi:
        return Fraction(0) if mode == "rational" else 0.0
    count = phi[prob.root]
    for var in range(1, prob.num_vars + 1):  # a pair is never both zero
        count = arith.mul(count, reduce(arith.add, map(arith.lift, filter(None, weights.pair(var)))))
    if mode == "rational":
        return count
    try:
        return math.exp(count)
    except OverflowError:  # the count exceeds the largest double
        return math.inf


def _expand_free(masks: np.ndarray, free: int) -> np.ndarray:
    """Duplicate each mask over both values of every variable in free, a var_sets mask."""
    for var in mask_variables(free):
        bit = np.uint64(1 << (var - 1))
        masks = np.concatenate([masks, masks | bit])
    return masks


def diagram_models(prob: Prob) -> np.ndarray:
    """Every complete assignment the diagram accepts, as sorted bitmasks.

    Bit v-1 of a mask holds the value of variable v. Traversal
    semantics: variables a branch never consults are unconstrained there
    and take both values, so this works on non-smooth diagrams too.
    Intended for verification at small scale, hence the variable guard.
    """
    if prob.num_vars > MAX_ENUM_VARS:
        raise GuardError(f"{prob.num_vars} variables exceed the enumeration guard ({MAX_ENUM_VARS})")
    kappa = var_sets(prob)
    sets: dict[int, np.ndarray] = {}
    for nid in kappa:  # the reachable nodes, children first
        node = prob.nodes[nid]
        if node.kind == "F":
            sets[nid] = np.zeros(0, dtype=np.uint64)
        elif node.kind == "T":
            sets[nid] = np.zeros(1, dtype=np.uint64)
        elif node.kind == "A":
            acc = sets[node.children[0]]
            for child in node.children[1:]:
                rhs = sets[child]
                acc = (acc[:, None] | rhs[None, :]).ravel()
            sets[nid] = acc
        else:
            bit = np.uint64(1 << (node.var - 1))
            scope = kappa[nid] & ~(1 << node.var)
            lo = _expand_free(sets[node.lo], scope & ~kappa[node.lo])
            hi = _expand_free(sets[node.hi], scope & ~kappa[node.hi])
            sets[nid] = np.concatenate([lo, hi | bit])
    models = _expand_free(sets[prob.root], ((1 << (prob.num_vars + 1)) - 2) & ~kappa[prob.root])
    return np.sort(models)
