"""Weighted sampling of CNF solutions via decision diagrams with conjunction nodes.

A CNF formula is compiled once into a deterministic, decomposable
decision diagram, smoothed, and annotated with normalized literal
weights on its decision branches. Each batch of models
is drawn by annotating the diagram once and then routing the samples
from the root down, flipping coins only at the decisions they reach;
weight updates between rounds only re-parameterize the branches, never
recompile.
"""

__version__ = "0.1.0"

from .cnf import (
    Clause,
    CnfFormula,
    WeightFunction,
    parse_dimacs,
    parse_weights,
)
from .compiler import (
    DEFAULT_MAX_VARS,
    VariableOrdering,
    choose_ordering,
    compile_cnf,
    export_prob,
    import_prob,
)
from .errors import (
    GuardError,
    ParseError,
    SoundnessError,
    StructureError,
    WeightError,
    ZeroProbabilityError,
)
from .prob import (
    FALSE_ID,
    TRUE_ID,
    Node,
    Prob,
    annotate,
    annotate_rational,
    diagram_models,
    find_violations,
    log_sum_exp,
    parameterize,
    smooth,
    var_sets,
    weighted_model_count,
)
from .sampler import (
    RoundReport,
    SampleBatch,
    default_update_rule,
    round_reports_csv,
    run_incremental,
    sample,
    update_weights,
)
from .oracle import (
    ComparisonReport,
    ExactDistribution,
    compare,
    exact_distribution,
    model_masks,
)

__all__ = [
    "Clause",
    "CnfFormula",
    "ComparisonReport",
    "DEFAULT_MAX_VARS",
    "ExactDistribution",
    "FALSE_ID",
    "GuardError",
    "Node",
    "ParseError",
    "Prob",
    "RoundReport",
    "SampleBatch",
    "SoundnessError",
    "StructureError",
    "TRUE_ID",
    "VariableOrdering",
    "WeightError",
    "WeightFunction",
    "ZeroProbabilityError",
    "annotate",
    "annotate_rational",
    "choose_ordering",
    "compare",
    "compile_cnf",
    "default_update_rule",
    "diagram_models",
    "exact_distribution",
    "export_prob",
    "find_violations",
    "import_prob",
    "log_sum_exp",
    "model_masks",
    "parameterize",
    "parse_dimacs",
    "parse_weights",
    "round_reports_csv",
    "run_incremental",
    "sample",
    "smooth",
    "update_weights",
    "var_sets",
    "weighted_model_count",
]
