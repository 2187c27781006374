"""Command line interface wiring parsing, compilation, sampling and checks.

Exit codes: 0 success, 1 usage error, 2 input error, 3 property or
verification failure, 4 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from itertools import chain
from typing import Iterable

import numpy as np

from . import __version__
from .cnf import CnfFormula, WeightFunction, parse_dimacs, parse_weights
from .compiler import DEFAULT_MAX_VARS, choose_ordering, compile_cnf, export_prob, import_prob
from .errors import (
    GuardError,
    ParseError,
    SoundnessError,
    StructureError,
    WeightError,
    ZeroProbabilityError,
)
from .oracle import MAX_ORACLE_VARS, compare, exact_distribution, occurrence_histogram, occurrence_histogram_csv
from .prob import ARITHMETICS, FALSE_ID, Prob, annotate, find_violations, parameterize, smooth
from .sampler import VISITS_PER_WORKER, run_incremental, round_reports_csv, sample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_PROPERTY = 3
EXIT_GUARD = 4

SEED_ENV_VAR = "PROB_SAMPLER_SEED"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 on usage errors; this tool uses 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, what: str):
    """argparse type for an integer of at least low: a bad value becomes a usage error, not a traceback."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")  # --max-vars: 0 admits only formulas over no variables


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write the strings to path, or to stdout when path is None, one at a time.

    If a string cannot be made or written, a regular file that path names
    itself is removed rather than left truncated; a device, a pipe or a
    symbolic link such as /dev/stdout is only written to.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    removable = not os.path.islink(path) and (os.path.isfile(path) or not os.path.exists(path))
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except BaseException as exc:
        if removable:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise ParseError(f"cannot write {path}: {exc}") from exc
        raise


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 1


def _compile(args) -> tuple[CnfFormula, Prob]:
    """The --cnf formula and its diagram, compiled in the --ordering under the --max-vars guard."""
    formula = parse_dimacs(_read(args.cnf))
    return formula, compile_cnf(formula, choose_ordering(formula, args.ordering), max_vars=args.max_vars)


def _load_weights(args, num_vars: int, imported: bool = False, kept: bool = False) -> WeightFunction | None:
    """The --weights file, its literals range-checked against num_vars.

    Without one: None if the diagram was imported with parameters and
    kept them, else uniform weights and a warning saying why.
    """
    if args.weights is not None:
        return parse_weights(_read(args.weights), CnfFormula(num_vars, ()))
    if imported and kept:
        return None
    why = "smoothing added decisions without branch parameters" if imported else "no weights given"
    print(f"warning: {why}, sampling uniformly", file=sys.stderr)
    return WeightFunction.uniform()


def _prepare_diagram(args) -> tuple[CnfFormula | None, Prob, WeightFunction | None]:
    """A smooth, parameterized diagram from --cnf or --prob, its formula (None for --prob) and weights."""
    formula, prob = _compile(args) if args.cnf is not None else (None, import_prob(_read(args.prob)))
    imported = args.cnf is None and prob.parameterized  # only a --prob file can carry parameters
    smooth(prob)  # before the weights: smoothing drops imported parameters when it adds nodes
    weights = _load_weights(args, prob.num_vars, imported, prob.parameterized)
    if weights is not None:
        parameterize(prob, weights)
    return formula, prob, weights


def cmd_compile(args) -> int:
    _, prob = _compile(args)
    if args.smooth:
        smooth(prob)
    if prob.root == FALSE_ID:
        print("warning: the formula is unsatisfiable", file=sys.stderr)
    _write(args.out, [export_prob(prob)])
    kinds = prob.count_kinds()
    print(
        f"nodes={sum(kinds.values())} decision={kinds['D']} conj={kinds['A']} terminals={kinds['T'] + kinds['F']}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_smooth(args) -> int:
    prob = import_prob(_read(args.prob))
    smooth(prob)
    _write(args.out, [export_prob(prob)])
    return EXIT_OK


def cmd_sample(args) -> int:
    _, prob, _ = _prepare_diagram(args)
    batch = sample(prob, args.k, _resolve_seed(args), mode=args.mode)
    _write(args.out, batch.model_line_blocks())
    return EXIT_OK


def cmd_inc(args) -> int:
    formula = parse_dimacs(_read(args.cnf))
    reports = run_incremental(
        formula,
        _load_weights(args, formula.num_vars),
        rounds=args.rounds,
        k=args.k,
        seed=_resolve_seed(args),
        ordering=choose_ordering(formula, args.ordering),
        mode=args.mode,
        max_vars=args.max_vars,
    )
    sys.stdout.write(round_reports_csv(reports))
    rounds = (chain([f"c round {rep.round}\n"], rep.samples.model_line_blocks()) for rep in reports)
    _write(args.out, chain.from_iterable(rounds))
    return EXIT_OK


def cmd_check(args) -> int:
    prob = import_prob(_read(args.prob))  # raises StructureError on a determinism or decomposability violation
    print("determinism: ok")
    print("decomposability: ok")
    failed = not prob.smooth
    if failed:  # walk again only for the detail: import recorded whether the root is smooth
        first = next(v for v in find_violations(prob) if v.property_name == "smoothness")
        print(f"smoothness violated at node {first.node_id}: {first.detail}")
    else:
        print("smoothness: ok")
    if prob.parameterized:
        phi = annotate(prob)
        root_mass = math.exp(phi[prob.root]) if prob.root in phi else 0.0
        if root_mass > 1.0 + 1e-9:
            failed = True
            print(f"annotation violated at node {prob.root}: root mass {root_mass} exceeds 1")
        else:
            print(f"annotation: ok (root mass {root_mass:.6g})")
    else:
        print("annotation: skipped (no branch parameters)")
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_dist(args) -> int:
    formula, prob, weights = _prepare_diagram(args)
    batch = sample(prob, args.k, _resolve_seed(args), mode=args.mode)
    if formula.num_vars <= MAX_ORACLE_VARS:
        exact = exact_distribution(formula, weights)
        report = compare(batch, exact)
        _write(args.out, [report.histogram_csv()])
        print(f"samples={len(batch)} support={len(exact)}")
        print(f"tv_distance={report.tv_distance:.6f}")
        print(f"chi_square={report.chi_square:.4f} dof={report.chi_square_dof} p_value={report.chi_square_p:.6g}")
    else:
        _, counts = np.unique(batch.masks, axis=0, return_counts=True)
        _write(args.out, [occurrence_histogram_csv(occurrence_histogram(counts))])
        print(f"samples={len(batch)} (oracle comparison skipped beyond {MAX_ORACLE_VARS} variables)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="probdd", description="Weighted sampling of CNF solutions via decision diagrams")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, prob=False, sampling=False):
        if prob:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--cnf", help="DIMACS CNF input file")
            source.add_argument("--prob", help="diagram text input file")
        else:
            p.add_argument("--cnf", required=True, help="DIMACS CNF input file")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--ordering", choices=["natural", "occ"], default="occ", help="variable ordering heuristic")
        p.add_argument("--max-vars", type=_non_negative_int, default=DEFAULT_MAX_VARS, dest="max_vars",
                       help="compilation guard on the variable count")
        if sampling:
            p.add_argument("--weights", help="literal weight file (default: uniform)")
            p.add_argument("-k", type=_positive_int, default=100, help=f"samples per round; at k * variables >= "
                           f"{2 * VISITS_PER_WORKER:,}, sampling runs a thread per {VISITS_PER_WORKER:,}, one per CPU at most")
            p.add_argument("--seed", type=int, default=None,
                           help=f"RNG seed (falls back to ${SEED_ENV_VAR}, then 1)")
            p.add_argument("--mode", choices=list(ARITHMETICS), default="log",
                           help="annotation arithmetic")

    p_compile = sub.add_parser("compile", help="compile a CNF into a diagram file")
    add_common(p_compile)
    p_compile.add_argument("--smooth", action="store_true", help="smooth before writing")
    p_compile.set_defaults(func=cmd_compile)

    p_smooth = sub.add_parser("smooth", help="smooth an existing diagram file")
    p_smooth.add_argument("--prob", required=True, help="diagram text input file")
    p_smooth.add_argument("--out", help="output file (default: stdout)")
    p_smooth.set_defaults(func=cmd_smooth)

    p_sample = sub.add_parser("sample", help="draw k weighted samples")
    add_common(p_sample, prob=True, sampling=True)
    p_sample.set_defaults(func=cmd_sample)

    p_inc = sub.add_parser("inc", help="incremental multi-round sampling")
    add_common(p_inc, sampling=True)
    p_inc.add_argument("--rounds", type=_positive_int, default=10, help="number of sampling rounds")
    p_inc.set_defaults(func=cmd_inc)

    p_check = sub.add_parser("check", help="verify structural properties of a diagram file")
    p_check.add_argument("--prob", required=True, help="diagram text input file")
    p_check.set_defaults(func=cmd_check)

    p_dist = sub.add_parser("dist", help="compare sampled and exact distributions")
    add_common(p_dist, sampling=True)
    p_dist.set_defaults(func=cmd_dist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, WeightError, ZeroProbabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StructureError, SoundnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
