"""CNF formulas and literal weights, and the parsers of their text formats.

Variables are 1-based integers; literals follow the DIMACS convention,
where ``v`` is the positive literal of variable ``v`` and ``-v`` its
negation. All types here are immutable after construction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ParseError, WeightError

logger = logging.getLogger(__name__)

Clause = tuple[int, ...]


def normalize_clause(lits: Iterable[int]) -> Clause | None:
    """Deduplicate and sort a clause by variable; None for tautologies."""
    seen = set(lits)
    for lit in seen:
        if -lit in seen:
            return None
    return tuple(sorted(seen, key=abs))


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables 1..num_vars.

    An empty clause tuple marks an unsatisfiable formula; a formula with
    no clauses is satisfied by every assignment.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")

    def variables(self) -> range:
        return range(1, self.num_vars + 1)


class WeightFunction:
    """Non-negative literal weights; unspecified literals weigh 1.

    For every variable x the pair W(x), W(-x) must not both be zero.
    Entries equal to the default 1 are dropped, so equality compares the
    effective weight function.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Mapping[int, float] | None = None):
        table: dict[int, float] = {}
        for lit, weight in (weights or {}).items():
            lit = int(lit)
            weight = float(weight)
            if lit == 0:
                raise WeightError("literal 0 is not valid")
            if not math.isfinite(weight) or weight < 0:
                raise WeightError(f"weight of literal {lit} must be finite and non-negative, got {weight}")
            if weight != 1.0:
                table[lit] = weight
        for lit in table:
            if table.get(lit, 1.0) == 0.0 and table.get(-lit, 1.0) == 0.0:
                raise WeightError(f"W({abs(lit)}) and W(-{abs(lit)}) are both zero")
        self._weights = table

    @classmethod
    def uniform(cls) -> "WeightFunction":
        return cls()

    def __getitem__(self, lit: int) -> float:
        return self._weights.get(lit, 1.0)

    def pair(self, var: int) -> tuple[float, float]:
        """(W(-var), W(var))."""
        return self[-var], self[var]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return self._weights == other._weights


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: `c` comments, a `p cnf V C` header, 0-terminated clauses.

    Tautological clauses are dropped (logged at info level); the declared
    clause count must match the count before dropping.
    """
    num_vars: int | None = None
    declared = header_line = clause_line = 0
    clauses: list[Clause] = []
    dropped = 0
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: malformed header {line!r}") from exc
            if num_vars < 0 or declared < 0:
                raise ParseError(f"line {lineno}: negative counts in header")
            header_line = lineno
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause data before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer token {tok!r}") from exc
            if lit == 0:
                clause = normalize_clause(current)
                if clause is None:
                    dropped += 1
                    logger.info("dropping tautological clause %s", current)
                else:
                    clauses.append(clause)
                current = []
            elif abs(lit) > num_vars:
                raise ParseError(f"line {lineno}: literal {lit} exceeds declared {num_vars} variables")
            else:
                if not current:
                    clause_line = lineno
                current.append(lit)
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        raise ParseError(f"line {clause_line}: last clause is missing its terminating 0")
    if len(clauses) + dropped != declared:
        raise ParseError(f"line {header_line}: header declares {declared} clauses, found {len(clauses) + dropped}")
    return CnfFormula(num_vars, tuple(clauses))


def parse_weights(text: str, formula: CnfFormula) -> WeightFunction:
    """Parse `w <signed-literal> <weight>` lines; `#` starts a comment.

    Literals never mentioned keep the default weight 1, so a missing
    polarity of a mentioned variable defaults to 1 as well.
    """
    weights: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "w" or len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'w <literal> <weight>', got {raw!r}")
        try:
            lit = int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad literal {parts[1]!r}") from exc
        try:
            weight = float(parts[2])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad weight {parts[2]!r}") from exc
        if lit == 0 or abs(lit) > formula.num_vars:
            raise ParseError(f"line {lineno}: literal {lit} out of range")
        if not math.isfinite(weight) or weight < 0:
            raise WeightError(f"line {lineno}: weight of {lit} must be finite and non-negative")
        if lit in weights:
            logger.info("weight of literal %d given twice, keeping the later value", lit)
        weights[lit] = weight
    return WeightFunction(weights)
