"""Synthetic data, the bias-injection validation protocol, the stratified
baseline, and the demo black-box."""

from .calders import CaldersFit, calders_baseline, fit_calders, predict_calders
from .experiment import (
    BiasSpec,
    ExperimentConfig,
    ValidationTable,
    derive_seed,
    inject_bias,
    kfold_validate,
)
from .generators import (
    DagSpec,
    default_dag_spec,
    gen_dag,
    gen_simple_example,
    gen_wine_like,
    simple_example_schema,
    wine_like_schema,
)
from .trees import BaggedTrees, raw_features

__all__ = [
    "BaggedTrees",
    "BiasSpec",
    "CaldersFit",
    "DagSpec",
    "ExperimentConfig",
    "ValidationTable",
    "calders_baseline",
    "default_dag_spec",
    "derive_seed",
    "fit_calders",
    "gen_dag",
    "gen_simple_example",
    "gen_wine_like",
    "inject_bias",
    "kfold_validate",
    "predict_calders",
    "raw_features",
    "simple_example_schema",
    "wine_like_schema",
]
