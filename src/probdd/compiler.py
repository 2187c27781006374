"""Top-down CNF compilation into a diagram, plus its text format.

Compilation is Shannon expansion on the lowest-ranked variable of each
residual clause set, with every variable v renamed to its rank plus one
on entry so that rank order is integer order; only new decision nodes
map back to the original variable. Renamed clauses are normalized
(repeated literals merged, tautologies dropped) and sorted.

Because the branching variable is always the lowest of the residual, a
residual clause is always a suffix of an input clause. Every suffix is
interned once, as an id holding its signed first literal, the id of the
rest of the clause and bitmasks of its positive and of its negative
variables. The ids are then given bits ordered by their first variable,
so that each variable's ids fill one contiguous bit range and bit 0 is
the empty clause, and a residual is one Python int over those bits: 0 is
TRUE, an odd one is FALSE, and the lowest set bit names the branching
variable. Restricting clears that variable's range and sets the bit of
the rest of each falsified clause. Variable-disjoint components are
grown over groups, a group being the residual's ids in one variable's
range, found by one scan of the int's binary digits; parts are ordered
by their lowest variable. Split residuals become conjunction nodes,
residuals are memoized, and a unique table shares structurally identical
nodes.

Before a residual is expanded, one wave of unit propagation checks it:
all of its unit clauses are assigned at once, and if two of them clash
or they falsify another of its clauses, the residual is memoized as
FALSE and builds no nodes. Expanded, it would have compiled to FALSE
all the same, but only after building nodes for its satisfiable parts
that no root reaches. For each literal whose negation is a unit
clause, an int over the id bits marks the ids that hold it, so the
check looks only at the clauses that hold a negated unit literal.
Propagating to a fixpoint is left out: it would walk a whole
implication chain again on every branch of a chain.

This is simple and deterministic; it is meant for desk scale, not to
compete with industrial compilers, which is why a variable-count guard
applies.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import islice

from .cnf import CnfFormula, normalize_clause
from .errors import GuardError, ParseError, StructureError
from .prob import FALSE_ID, TRUE_ID, Prob, find_violations

DEFAULT_MAX_VARS = 30
FORMAT_HEADER = "prob 1.0"
THETA_SUM_TOL = 1e-12  # how far a decision line's two parameters may sum from 1


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
    # (its signed first literal, the id of the rest). A suffix's id is its
    # key's position in suffix_ids, so first and rest are read back from
    # the keys; id 0, the empty clause, is keyed (0, 0). Per id, pos and
    # neg have bit v set for each variable v it mentions positively and
    # negatively; a rest's id is smaller.
    suffix_ids: dict[tuple[int, int], int] = {(0, 0): 0}
    top_ids: set[int] = set()
    for clause in formula.clauses:
        # a repeated literal would be decided twice; a tautology constrains nothing
        clause = normalize_clause(rank[lit] + 1 if lit > 0 else -rank[-lit] - 1 for lit in clause)
        if clause is None:
            continue
        sid = 0
        for lit in reversed(clause):
            sid = suffix_ids.setdefault((lit, sid), len(suffix_ids))
        top_ids.add(sid)
    first, rest = zip(*suffix_ids)
    pos, neg = [0], [0]
    for lit, sid in islice(suffix_ids, 1, None):
        pos.append(pos[sid] | 1 << lit if lit > 0 else pos[sid])
        neg.append(neg[sid] | 1 << -lit if lit < 0 else neg[sid])

    # Give each id a bit, ordered by (lowest variable, id): bit 0 is the
    # empty clause and variable v's ids fill bits start[v] to start[v + 1].
    # Per bit: its id's first literal and variable, the end of that
    # variable's range, its positive, negative and whole variable masks,
    # the bit of its rest, and the variable's memo of group masks (see
    # components).
    num_vars, num_bits = formula.num_vars, len(first)
    by_bit = sorted(range(num_bits), key=lambda sid: abs(first[sid]))
    bit_of = [0] * num_bits
    for b, sid in enumerate(by_bit):
        bit_of[sid] = b
    bit_lit = [first[sid] for sid in by_bit]
    bit_var = list(map(abs, bit_lit))
    start = [bisect_left(bit_var, v) for v in range(num_vars + 2)]
    bit_end = [start[v + 1] for v in bit_var]
    bit_pos = [pos[sid] for sid in by_bit]
    bit_neg = [neg[sid] for sid in by_bit]
    bit_mask = [p | n for p, n in zip(bit_pos, bit_neg)]
    bit_rest = [1 << bit_of[rest[sid]] for sid in by_bit]
    group_masks: list[dict[str, int]] = [{} for _ in range(num_vars + 1)]
    bit_groups = [group_masks[v] for v in bit_var]

    # The unit ids' bits, and per unit bit the bits of the ids that hold
    # the negation of its literal (see refuted). An id holds its first
    # literal and all of its rest's, so along each clause's chain of
    # suffixes the bits seen so far are the ids that hold the literal met.
    units = [sid for sid in range(1, num_bits) if not rest[sid]]
    unit_bits = sum(1 << bit_of[sid] for sid in units)
    holding = dict.fromkeys((-first[sid] for sid in units), 0)
    for sid in top_ids:
        seen = 0
        while sid:
            seen |= 1 << bit_of[sid]
            if first[sid] in holding:
                holding[first[sid]] |= seen
            sid = rest[sid]
    bit_against = [0] * num_bits
    for sid in units:
        bit_against[bit_of[sid]] = holding[-first[sid]]

    prob = Prob(num_vars)
    decision_index: dict[tuple[int, int, int], int] = {}
    conj_index: dict[tuple[int, ...], int] = {}
    memo: dict[int, int] = {}

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

        A group is the residual's ids in one variable's bit range; they
        share that variable, so a group lies within one part. A part grows
        from one group: each pass over the pending groups takes in every
        group whose variable mask meets the part's, until a pass adds
        nothing. The first pass is the upward scan of the residual's binary
        digits that finds the groups, so a connected residual is seen in
        one scan. A group of one id has that id's mask; a larger one's is
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

        var is the lowest variable of the residual, so only the ids in its
        bit range mention it, as their first literal: a satisfied one drops
        its clause, a falsified one leaves the rest of the clause.
        """
        low, high = start[var], start[var + 1]
        lo = hi = residual >> high << high
        group = (residual ^ lo) >> low
        while group:
            bit = group & -group
            b = low + bit.bit_length() - 1
            if bit_lit[b] > 0:
                lo |= bit_rest[b]
            else:
                hi |= bit_rest[b]
            group ^= bit
        return [lo, hi]

    def refuted(residual: int) -> bool:
        """Whether one wave of unit propagation refutes the residual.

        All of the residual's unit clauses are assigned at once: it is
        refuted when two of them clash or some clause has every literal
        falsified by them. Only the ids that hold a negated unit literal
        can be falsified, so only those are looked at.
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

    def known(residual: int) -> int | None:
        if not residual:
            return TRUE_ID
        if residual & 1:
            return FALSE_ID
        return memo.get(residual)

    # Shannon expansion with an explicit stack, creating nodes in
    # depth-first, lo-before-hi order. A residual is visited twice: first
    # it pushes a record (residual, var, subs) above its subs, then the
    # record builds its node from the subs' ids; var None is a conjunction.
    # The top and each restriction are checked by refuted before they are
    # expanded; a part needs no check of its own, as its units and clauses
    # are some of a checked residual's and a clash stays within one part.
    top = 0
    for sid in top_ids:
        top |= 1 << bit_of[sid]
    if refuted(top):
        memo[top] = FALSE_ID
    stack: list = [top]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            residual, var, subs = item
            ids = [known(sub) for sub in subs]
            memo[residual] = make_conj(ids) if var is None else make_decision(var, *ids)
            continue
        if known(item) is not None:
            continue
        subs = components(item)
        var = None
        if len(subs) == 1:
            var = bit_var[(item & -item).bit_length() - 1]
            subs = restrict(item, var)
            for sub in subs:
                if known(sub) is None and refuted(sub):
                    memo[sub] = FALSE_ID
        stack.append((item, var, subs))
        stack.extend(reversed(subs))
    prob.root = known(top)
    return prob


def export_prob(prob: Prob) -> str:
    """Serialize to the line-oriented text format.

    Node ids are renumbered densely in bottom-up topological order with
    the terminals pinned at 0 and 1, so structurally identical diagrams
    export byte-identically.
    """
    remap = {FALSE_ID: 0, TRUE_ID: 1}
    parameterized = prob.parameterized
    body: list[str] = []
    next_id = 2
    for nid in prob.topo_order():
        node = prob.nodes[nid]
        if node.kind in ("T", "F"):
            continue
        remap[nid] = next_id
        if node.kind == "D":
            line = f"{next_id} D {node.var} {remap[node.lo]} {remap[node.hi]}"
            if parameterized:
                line += f" {node.theta_lo!r} {node.theta_hi!r}"
        else:
            line = f"{next_id} A {len(node.children)} " + " ".join(str(remap[c]) for c in node.children)
        body.append(line)
        next_id += 1
    lines = [
        FORMAT_HEADER,
        f"nvars {prob.num_vars}",
        f"nnodes {next_id}",
        "0 F",
        "1 T",
        *body,
        f"root {remap[prob.root]}",
    ]
    return "\n".join(lines) + "\n"


def import_prob(text: str) -> Prob:
    """Parse the text format back into a diagram.

    Each node line is checked as the arena adds it: a child must be an
    earlier node, which rules out cycles and dangling references.
    Branch parameters must be present on either all or none of the
    decision lines, and each pair is checked on its line: finite,
    non-negative and summing to 1 within THETA_SUM_TOL. Determinism and
    decomposability are validated in one walk over the reachable nodes
    (find_violations over the var_sets bitmasks), and the root is
    recorded as smoothed_root when that walk finds it smooth with full
    variable coverage.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or not lines[0].startswith("prob "):
        raise ParseError("missing 'prob <version>' header")
    if lines[0] != FORMAT_HEADER:
        raise ParseError(f"unsupported format version {lines[0]!r}")

    def expect_int_field(index: int, name: str) -> int:
        if index >= len(lines):
            raise ParseError(f"missing '{name}' line")
        parts = lines[index].split()
        if len(parts) != 2 or parts[0] != name:
            raise ParseError(f"expected '{name} <int>', got {lines[index]!r}")
        try:
            return int(parts[1])
        except ValueError as exc:
            raise ParseError(f"expected '{name} <int>', got {lines[index]!r}") from exc

    num_vars = expect_int_field(1, "nvars")
    num_nodes = expect_int_field(2, "nnodes")
    if num_vars < 0 or num_nodes < 2:
        raise ParseError("nvars must be non-negative and nnodes at least 2")
    if len(lines) != 3 + num_nodes + 1:
        raise ParseError(f"expected {num_nodes} node lines plus a root line, found {len(lines) - 3} lines after nnodes")

    prob = Prob(num_vars)
    saw_theta: bool | None = None
    for nid in range(num_nodes):
        parts = lines[3 + nid].split()
        if not parts or parts[0] != str(nid):
            raise ParseError(f"node line {nid} must start with id {nid}, got {lines[3 + nid]!r}")
        kind = parts[1] if len(parts) > 1 else ""
        if nid == 0 or nid == 1:
            expected = "F" if nid == 0 else "T"
            if parts[1:] != [expected]:
                raise ParseError(f"node {nid} must be '{nid} {expected}'")
            continue
        if kind == "D":
            if len(parts) not in (5, 7):
                raise ParseError(f"node {nid}: decision lines are '<id> D <var> <lo> <hi> [<theta_lo> <theta_hi>]'")
            # the arena's next slot is nid, so a child it does not hold yet is a forward reference
            try:
                made = prob.add_decision(int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError as exc:
                raise ParseError(f"node {nid}: {exc}") from exc
            has_theta = len(parts) == 7
            if saw_theta is None:
                saw_theta = has_theta
            elif saw_theta != has_theta:
                raise ParseError(f"node {nid}: branch parameters must appear on all decision lines or none")
            if has_theta:
                node = prob.nodes[made]
                try:
                    node.theta_lo, node.theta_hi = float(parts[5]), float(parts[6])
                except ValueError as exc:
                    raise ParseError(f"node {nid}: bad parameter field") from exc
                if not (math.isfinite(node.theta_lo) and math.isfinite(node.theta_hi)):
                    raise ParseError(f"node {nid}: parameters must be finite")
                if node.theta_lo < 0 or node.theta_hi < 0:
                    raise ParseError(f"node {nid}: parameters must be non-negative")
                if abs(node.theta_lo + node.theta_hi - 1.0) > THETA_SUM_TOL:
                    raise StructureError(
                        f"node {nid}: branch parameters sum to {node.theta_lo + node.theta_hi!r}, not 1",
                        property_name="parameters",
                        node_id=nid,
                    )
        elif kind == "A":
            if len(parts) < 3:
                raise ParseError(f"node {nid}: conjunction lines are '<id> A <k> <children...>'")
            try:
                arity = int(parts[2])
                children = [int(p) for p in parts[3:]]
                if arity != len(children):
                    raise ValueError(f"arity {arity} does not match {len(children)} children")
                prob.add_conj(children)
            except ValueError as exc:
                raise ParseError(f"node {nid}: {exc}") from exc
        else:
            raise ParseError(f"node {nid}: unknown node kind {kind!r}")

    root_parts = lines[3 + num_nodes].split()
    if len(root_parts) != 2 or root_parts[0] != "root":
        raise ParseError(f"expected 'root <id>', got {lines[3 + num_nodes]!r}")
    try:
        root = int(root_parts[1])
    except ValueError as exc:
        raise ParseError("expected 'root <id>'") from exc
    if not 0 <= root < num_nodes:
        raise ParseError(f"root id {root} does not exist")
    prob.root = root

    violations = find_violations(prob)
    for violation in violations:
        if violation.property_name in ("determinism", "decomposability"):
            raise StructureError(
                f"{violation.property_name} violated at node {violation.node_id}: {violation.detail}",
                property_name=violation.property_name,
                node_id=violation.node_id,
            )
    prob.smoothed_root = None if any(v.property_name == "smoothness" for v in violations) else root
    return prob
