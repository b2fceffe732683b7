#!/usr/bin/env python3
"""Run the bias-injection validation protocol on wine-style ratings data.

By default a calibrated synthetic stand-in for the UCI wine-quality data
is generated; pass --data/--schema to use a real CSV instead (declare
the rating as response, wine type as a categorical sensitive column, and
the physico-chemical columns as legitimate). Training data gets +1 added
to the ratings of a random 70% of white wines; models train on the
biased folds and are scored against both biased and raw responses.
"""

import argparse
import time

from impartial.data import load_csv, load_schema
from impartial.estimators import Variant
from impartial.harness import (
    BiasSpec,
    ExperimentConfig,
    gen_wine_like,
    kfold_validate,
)

PROTOCOL_VARIANTS = (
    Variant.FULL,
    Variant.FEO,
    Variant.FSEO,
    Variant.CALDERS_BASELINE,
    Variant.MARGINAL,
    Variant.BLACKBOX_CORRECTED,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", help="ratings CSV (synthetic benchmark if omitted)")
    parser.add_argument("--schema", help="schema for --data")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--data-seed", type=int, default=3, help="generator seed")
    parser.add_argument("--bias-group", default="white")
    parser.add_argument("--bias-frac", type=float, default=0.7)
    parser.add_argument("--bias-shift", type=float, default=1.0)
    parser.add_argument("--trees", type=int, default=50)
    parser.add_argument("--tree-depth", type=int, default=8)
    args = parser.parse_args()

    if args.data:
        schema = load_schema(args.schema)
        data = load_csv(args.data, schema)
    else:
        data, schema = gen_wine_like(seed=args.data_seed)

    config = ExperimentConfig(
        folds=args.folds,
        repetitions=args.reps,
        variants=PROTOCOL_VARIANTS,
        master_seed=args.seed,
        blackbox_trees=args.trees,
        blackbox_depth=args.tree_depth,
    )
    bias = BiasSpec(
        target_group_label=args.bias_group,
        fraction=args.bias_frac,
        shift=args.bias_shift,
    )
    start = time.perf_counter()
    table = kfold_validate(data, schema, config, bias)
    print(table.to_text(), end="")
    print(f"\n{args.reps} repetitions x {args.folds} folds "
          f"in {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
