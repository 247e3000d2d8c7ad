"""Deterministic harness for studying fairness in multi-agent debates
over constrained hospital resource allocation."""

from .model import (
    Allocation,
    AgentProfile,
    BiasSource,
    Cohort,
    Framework,
    Patient,
    ProfileKind,
    Resource,
    ResourceCapacity,
    capacity_for_variant,
    column_totals,
    discretize_survival,
    validate_allocation,
)
from .metrics import (
    CnssVector,
    MetricConfig,
    MetricReport,
    WeightKind,
    WeightScheme,
    cnss,
    cnss_vector,
    compute_weights,
    dw_esg,
    esg,
    gini,
    metric_report,
    rmg,
    variance,
    vwci,
)
from .cohortgen import SamplerConfig, generate_batch, generate_cohort
from .arena import (
    DebateConfig,
    DebateTranscript,
    ParseError,
    parse_allocation,
    render_allocation,
    run_debate,
)
from .oracle import (
    CakeParams,
    DiscretizedSpace,
    UtilityAggregate,
    argmax_set,
    cake_utilities,
    check_nondegeneracy,
    enumerate_allocations,
    verify_cake_claims,
)
from .stats import (
    ComparisonReport,
    PairedSample,
    bootstrap_ci,
    cohens_d,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
