"""BoolE core: rulesets, construction, saturation, FA pairing and extraction."""

from .batch import (
    SCHEDULES,
    BatchItemPlan,
    BatchItemResult,
    BatchJob,
    BatchPipeline,
    BatchPlan,
    BatchReport,
    plan_batch,
)
from .construct import (
    ConstructionResult,
    PlannedConstruction,
    aig_to_egraph,
    planned_construction,
)
from .extraction import (
    BoolEExtraction,
    BoolEExtractor,
    CostEntry,
    FABlockRecord,
    reconstruct_aig,
)
from .fa_structure import (
    FAInsertionReport,
    FAPair,
    count_npn_fa_pairs,
    insert_fa_structures,
)
from .phases import (
    PLAN_COLD,
    PLAN_SKIPPED,
    PLAN_WARM_BOUNDARY,
    PLAN_WARM_CHECKPOINT,
    Phase,
    PhaseContext,
    PhaseGraph,
    PhasePlan,
    PipelinePlan,
    boole_phases,
)
from .pipeline import (
    BoolEOptions,
    BoolEPipeline,
    BoolEResult,
    PipelineCache,
    run_boole,
)
from .rules_basic import basic_rules, full_basic_rules, lightweight_basic_rules
from .rules_xor_maj import identification_rules, maj_rules, ruleset_summary, xor_rules

__all__ = [
    "SCHEDULES",
    "BatchItemPlan",
    "BatchItemResult",
    "BatchJob",
    "BatchPipeline",
    "BatchPlan",
    "BatchReport",
    "plan_batch",
    "ConstructionResult",
    "PlannedConstruction",
    "aig_to_egraph",
    "planned_construction",
    "BoolEExtraction",
    "BoolEExtractor",
    "CostEntry",
    "FABlockRecord",
    "reconstruct_aig",
    "FAInsertionReport",
    "FAPair",
    "count_npn_fa_pairs",
    "insert_fa_structures",
    "PLAN_COLD",
    "PLAN_SKIPPED",
    "PLAN_WARM_BOUNDARY",
    "PLAN_WARM_CHECKPOINT",
    "Phase",
    "PhaseContext",
    "PhaseGraph",
    "PhasePlan",
    "PipelinePlan",
    "boole_phases",
    "BoolEOptions",
    "BoolEPipeline",
    "PipelineCache",
    "BoolEResult",
    "run_boole",
    "basic_rules",
    "full_basic_rules",
    "lightweight_basic_rules",
    "identification_rules",
    "maj_rules",
    "ruleset_summary",
    "xor_rules",
]
