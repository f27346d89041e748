"""A from-scratch e-graph / equality-saturation engine (egg substitute)."""

from .dense import DenseEGraph, as_engine
from .egraph import EClass, EGraph, enode_sort_key
from .enode import ENode, Op, OPERATOR_ARITIES, is_leaf_op
from .extract import (
    DEFAULT_OP_COSTS,
    ExtractionChoice,
    ExtractionResult,
    TreeCostExtractor,
    count_ops,
    default_cost,
    expr_of,
)
from .pattern import (
    MatchPlan,
    Pattern,
    PatternNode,
    PatternVar,
    compile_pattern,
    ematch,
    instantiate,
    match_in_class,
    parse_pattern,
    pattern_vars,
)
from .rewrite import BackoffScheduler, Rewrite, RuleStats, apply_rules
from .runner import (
    IterationReport,
    Runner,
    RunnerCheckpoint,
    RunnerLimits,
    RunnerReport,
    StopReason,
)
from .unionfind import UnionFind

__all__ = [
    "DenseEGraph",
    "as_engine",
    "EClass",
    "EGraph",
    "enode_sort_key",
    "ENode",
    "Op",
    "OPERATOR_ARITIES",
    "is_leaf_op",
    "DEFAULT_OP_COSTS",
    "ExtractionChoice",
    "ExtractionResult",
    "TreeCostExtractor",
    "count_ops",
    "default_cost",
    "expr_of",
    "MatchPlan",
    "Pattern",
    "PatternNode",
    "PatternVar",
    "compile_pattern",
    "ematch",
    "instantiate",
    "match_in_class",
    "parse_pattern",
    "pattern_vars",
    "BackoffScheduler",
    "Rewrite",
    "RuleStats",
    "apply_rules",
    "IterationReport",
    "Runner",
    "RunnerCheckpoint",
    "RunnerLimits",
    "RunnerReport",
    "StopReason",
    "UnionFind",
]
