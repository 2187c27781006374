"""Top-down CNF compilation into a diagram.

Compilation is Shannon expansion on the lowest-ranked variable of each
residual clause set, with every variable v renamed to its rank plus one
on entry so that rank order is integer order; only new decision nodes
map back to the original variable. Renamed clauses are normalized
(repeated literals merged, tautologies dropped) and sorted.

Because the branching variable is always the lowest of the residual, a
residual clause is always a suffix of an input clause. Every suffix is
interned once and then numbered by its first variable, so that each
variable's suffixes fill one contiguous range of bit numbers and bit 0
is the empty clause; every table is indexed by that number. A residual
is one Python int over those bits: 0 is TRUE, 1 (the empty clause
alone) is FALSE, and the lowest set bit names the branching variable.
Restricting clears that variable's range and sets the bit of the rest
of each falsified clause, and a residual that comes to hold the empty
clause becomes 1. Variable-disjoint components are grown over groups, a
group being the residual's suffixes in one variable's range, found by
one scan of the int's binary digits; parts are ordered by their lowest
variable. Split residuals become conjunction nodes, residuals are
memoized, and a unique table shares structurally identical nodes.

Before a residual is expanded, one wave of unit propagation checks it:
all of its unit clauses are assigned at once, and if two of them clash
or they falsify another of its clauses, the residual is memoized as
FALSE and builds no nodes. Expanded, it would have compiled to FALSE
all the same, but only after building nodes for its satisfiable parts
that no root reaches. For each literal whose negation is a unit
clause, an int over the suffix bits marks the suffixes that hold it, so
the check looks only at the clauses that hold a negated unit literal.
Propagating to a fixpoint is left out: it would walk a whole
implication chain again on every branch of a chain.

This is simple and deterministic; it is meant for desk scale, not to
compete with industrial compilers, which is why a variable-count guard
applies.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter

from .cnf import CnfFormula, normalize_clause
from .errors import GuardError
from .prob import FALSE_ID, TRUE_ID, Prob

DEFAULT_MAX_VARS = 30


class VariableOrdering:
    """A permutation of variables 1..n with O(1) rank lookup."""

    __slots__ = ("order", "rank")

    def __init__(self, order):
        order = tuple(int(v) for v in order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError("ordering must be a permutation of 1..n")
        self.order = order
        self.rank = {var: pos for pos, var in enumerate(order)}

    @property
    def num_vars(self) -> int:
        return len(self.order)


def choose_ordering(formula: CnfFormula, heuristic: str = "occ") -> VariableOrdering:
    """Deterministic variable ordering.

    'natural' is the identity; 'occ', the default and the CLI's, sorts by
    descending literal occurrence count with ascending index as the
    tie-break.
    """
    if heuristic == "natural":
        return VariableOrdering(range(1, formula.num_vars + 1))
    if heuristic == "occ":
        counts: Counter[int] = Counter()
        for clause in formula.clauses:
            for lit in clause:
                counts[abs(lit)] += 1
        ordered = sorted(formula.variables(), key=lambda v: (-counts[v], v))
        return VariableOrdering(ordered)
    raise ValueError(f"unknown ordering heuristic {heuristic!r}")


def compile_cnf(formula: CnfFormula, ordering: VariableOrdering | None = None,
                max_vars: int = DEFAULT_MAX_VARS) -> Prob:
    """Compile a formula into a diagram without branch parameters, not necessarily smooth.

    The result is deterministic and decomposable and represents exactly
    the model set of the formula. Variables appearing in no clause do
    not appear in the diagram; smoothing reintroduces them.
    """
    if formula.num_vars > max_vars:
        raise GuardError(
            f"{formula.num_vars} variables exceed the compilation guard ({max_vars}); raise max_vars to override"
        )
    if ordering is None:
        ordering = choose_ordering(formula)
    if ordering.num_vars != formula.num_vars:
        raise ValueError("ordering must cover exactly the formula's variables")
    order, rank = ordering.order, ordering.rank

    # Intern every suffix of every renamed clause, shortest first, keyed by
    # (its signed first literal, the interning id of the rest); id 0, the
    # empty clause, is keyed (0, 0). clause_ids holds the ids of whole clauses.
    suffix_ids: dict[tuple[int, int], int] = {(0, 0): 0}
    clause_ids: set[int] = set()
    for clause in formula.clauses:
        # a repeated literal would be decided twice; a tautology constrains nothing
        clause = normalize_clause(rank[lit] + 1 if lit > 0 else -rank[-lit] - 1 for lit in clause)
        if clause is None:
            continue
        sid = 0
        for lit in reversed(clause):
            sid = suffix_ids.setdefault((lit, sid), len(suffix_ids))
        clause_ids.add(sid)

    # Number the suffixes by (first variable, interning id): bit 0 is the
    # empty clause and variable v's suffixes fill bits start[v] to
    # start[v + 1]. Per bit: its suffix's first literal and variable, the
    # end of that variable's range, the bit of its rest, its positive,
    # negative and whole variable masks, and the variable's memo of group
    # masks (see components). A rest lies in a higher range or is the
    # empty clause, so one descending pass fills the masks.
    keys = sorted(suffix_ids, key=lambda key: abs(key[0]))
    num_vars, num_bits = formula.num_vars, len(keys)
    bit_of = [0] * num_bits
    for b, key in enumerate(keys):
        bit_of[suffix_ids[key]] = b
    bit_lit = [lit for lit, _ in keys]
    bit_var = list(map(abs, bit_lit))
    start = [bisect_left(bit_var, v) for v in range(num_vars + 2)]
    bit_end = [start[v + 1] for v in bit_var]
    bit_rest = [bit_of[sid] for _, sid in keys]
    bit_pos, bit_neg = [0] * num_bits, [0] * num_bits
    for b in range(num_bits - 1, 0, -1):
        lit, r = bit_lit[b], bit_rest[b]
        bit_pos[b] = bit_pos[r] | 1 << lit if lit > 0 else bit_pos[r]
        bit_neg[b] = bit_neg[r] | 1 << -lit if lit < 0 else bit_neg[r]
    bit_mask = [p | n for p, n in zip(bit_pos, bit_neg)]
    group_masks: list[dict[str, int]] = [{} for _ in range(num_vars + 1)]
    bit_groups = [group_masks[v] for v in bit_var]

    # The top residual, the unit bits, and per unit bit the bits of the
    # suffixes that hold the negation of its literal (see refuted). A
    # suffix holds its first literal and all of its rest's, so along each
    # clause's chain of bits the bits seen so far hold the literal met.
    units = [b for b in range(1, num_bits) if not bit_rest[b]]
    unit_bits = sum(1 << b for b in units)
    holding = dict.fromkeys((-bit_lit[b] for b in units), 0)
    top = 0
    for sid in clause_ids:
        b, seen = bit_of[sid], 0
        top |= 1 << b
        while b:
            seen |= 1 << b
            if bit_lit[b] in holding:
                holding[bit_lit[b]] |= seen
            b = bit_rest[b]
    if top & 1:  # an empty input clause makes the formula FALSE
        top = 1
    bit_against = [0] * num_bits
    for b in units:
        bit_against[b] = holding[-bit_lit[b]]

    prob = Prob(num_vars)
    decision_index: dict[tuple[int, int, int], int] = {}
    conj_index: dict[tuple[int, ...], int] = {}
    memo: dict[int, int] = {0: TRUE_ID, 1: FALSE_ID}

    def make_decision(var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        nid = decision_index.get(key)
        if nid is None:
            nid = prob.add_decision(order[var - 1], lo, hi)
            decision_index[key] = nid
        return nid

    def make_conj(children: list[int]) -> int:
        # components() gives two or more non-empty parts, and only the empty
        # residual compiles to TRUE: at most one restriction of a non-empty
        # one is empty, so its decision never has TRUE on both branches
        kids: list[int] = []
        for child in children:
            if child == FALSE_ID:
                return FALSE_ID
            if prob.nodes[child].kind == "A":
                kids.extend(prob.nodes[child].children)
            else:
                kids.append(child)
        # every kid is a decision on the lowest-ranked variable of its sub-diagram
        kids.sort(key=lambda c: rank[prob.nodes[c].var])
        key = tuple(kids)
        nid = conj_index.get(key)
        if nid is None:
            nid = prob.add_conj(key)
            conj_index[key] = nid
        return nid

    def components(residual: int) -> list[int]:
        """Variable-disjoint parts, lowest variable first.

        A group is the residual's suffixes in one variable's bit range; they
        share that variable, so a group lies within one part. A part grows
        from one group: each pass over the pending groups takes in every
        group whose variable mask meets the part's, until a pass adds
        nothing. The first pass is the upward scan of the residual's binary
        digits that finds the groups, so a connected residual is seen in
        one scan. A group of one suffix has its mask; a larger one's is
        memoized per variable, keyed by its digits. Later passes walk down
        and up in turn, so a part may be seeded above its lowest variable:
        the parts are sorted at the end.
        """
        digits = bin(residual | 1 << num_bits)[:1:-1]  # digits[b] is bit b; a "1" ends them
        b = digits.find("1")
        grown = 1 << bit_var[b]
        pending: list[tuple[int, int]] = []
        while b < num_bits:
            end = bit_end[b]
            after = digits.find("1", b + 1)
            if after >= end:
                group = bit_mask[b]
            else:
                key = digits[b:end]  # its length fixes b within the range
                group = bit_groups[b].get(key)
                if group is None:
                    group = 0
                    k = 0
                    while k >= 0:
                        group |= bit_mask[b + k]
                        k = key.find("1", k + 1)
                    bit_groups[b][key] = group
                after = digits.find("1", end)
            if group & grown:
                grown |= group
            else:
                pending.append((b, group))
            b = after
        if not pending:
            return [residual]
        parts: list[int] = []
        while True:
            size = -1
            while size != len(pending):
                size = len(pending)
                left = []
                for item in reversed(pending):
                    if item[1] & grown:
                        grown |= item[1]
                    else:
                        left.append(item)
                pending = left
            others = 0
            for b, _ in pending:
                others |= (1 << bit_end[b]) - (1 << b)
            parts.append(residual & ~others)
            if not pending:
                break
            residual &= others
            b, grown = pending.pop()
        parts.sort(key=lambda part: part & -part)
        return parts

    def restrict(residual: int, var: int) -> list[int]:
        """The residuals under var false and var true, lo first.

        var is the lowest variable of the residual, so only the suffixes in
        its bit range mention it, as their first literal: a satisfied one
        drops its clause, a falsified one leaves the rest of the clause. A
        falsified unit clause leaves the empty clause, and the residual is
        FALSE, 1.
        """
        low, high = start[var], start[var + 1]
        lo = hi = residual >> high << high
        group = (residual ^ lo) >> low
        while group:
            bit = group & -group
            b = low + bit.bit_length() - 1
            if bit_lit[b] > 0:
                lo |= 1 << bit_rest[b]
            else:
                hi |= 1 << bit_rest[b]
            group ^= bit
        return [1 if lo & 1 else lo, 1 if hi & 1 else hi]

    def refuted(residual: int) -> bool:
        """Whether one wave of unit propagation refutes the residual.

        All of the residual's unit clauses are assigned at once: it is
        refuted when two of them clash or some clause has every literal
        falsified by them. Only the suffixes that hold a negated unit
        literal can be falsified, so only those are looked at.
        """
        left = residual & unit_bits
        if not left:
            return False
        true_vars = false_vars = against = 0
        while left:
            bit = left & -left
            b = bit.bit_length() - 1
            true_vars |= bit_pos[b]
            false_vars |= bit_neg[b]
            against |= bit_against[b]
            left ^= bit
        if true_vars & false_vars:
            return True
        against &= residual
        while against:
            bit = against & -against
            b = bit.bit_length() - 1
            if not (bit_pos[b] & ~false_vars or bit_neg[b] & ~true_vars):
                return True
            against ^= bit
        return False

    # Shannon expansion with an explicit stack, creating nodes in
    # depth-first, lo-before-hi order. A residual is visited twice: first
    # it pushes a record (residual, var, subs) above its subs, then the
    # record builds its node from the subs' ids; var None is a conjunction.
    # The top and each restriction are checked by refuted before they are
    # expanded; a part needs no check of its own, as its units and clauses
    # are some of a checked residual's and a clash stays within one part.
    if refuted(top):
        memo[top] = FALSE_ID
    stack: list = [top]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            residual, var, subs = item
            ids = [memo[sub] for sub in subs]
            memo[residual] = make_conj(ids) if var is None else make_decision(var, *ids)
            continue
        if item in memo:
            continue
        subs = components(item)
        var = None
        if len(subs) == 1:
            var = bit_var[(item & -item).bit_length() - 1]
            subs = restrict(item, var)
            for sub in subs:
                if sub not in memo and refuted(sub):
                    memo[sub] = FALSE_ID
        stack.append((item, var, subs))
        stack.extend(reversed(subs))
    prob.root = memo[top]
    return prob

