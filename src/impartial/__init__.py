"""Impartiality-constrained prediction from tabular data.

Build fairness-constrained regression estimates, decompose fitted models
into disparate-treatment / redlining / statistical-discrimination
components, audit arbitrary prediction sets, and correct black-box
predictions to be impartial.
"""

from .data import (
    Categorical,
    ColumnSpec,
    Dataset,
    EncodedDesign,
    Role,
    RoleView,
    Schema,
    encode,
    load_csv,
    load_schema,
    make_dataset,
    parse_schema,
)
from .decomposition import (
    ComponentReport,
    CoefDecomposition,
    decompose,
    decompose_coefficients,
    redlining_report,
)
from .errors import ContractError, DataError, ImpartialError, SchemaError, VariantError
from .estimators import (
    ImpartialPrediction,
    TotalModelFit,
    VARIANTS,
    Variant,
    correct_blackbox,
    fit_total,
    predict,
    residualize_suspect,
)
from .metrics import (
    MetricsReport,
    discrimination_score,
    impartiality_score,
    rmse,
    rsse,
    score_predictions,
)

__version__ = "0.1.0"
