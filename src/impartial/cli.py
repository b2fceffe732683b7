"""Batch command-line front end.

Subcommands: fit, audit, decompose, correct, validate, simulate. Exit
codes: 0 success, 1 input/IO error, 2 usage or contract error. All
output is deterministic given identical inputs and seed flags; numeric
CSV cells carry 17 significant digits, text tables 6. A ``--data`` file is
read through its content-keyed sidecar (``sidecar.load_data``), so a
command on a file already parsed under the same schema skips the parse.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import logging
import sys
import warnings
from pathlib import Path

import numpy as np

from .data import (
    ColumnSpec,
    CsvSource,
    Dataset,
    EncodedDesign,
    Role,
    RoleView,
    Schema,
    csv_records,
    csv_source,
    encode,
    format_schema,
    load_csv,
    load_schema,
    write_csv,
    write_rows,
)
from .decomposition import COMPONENT_NAMES, decompose
from .errors import ContractError, DataError, ImpartialError
from .estimators import VARIANTS, Variant, fit_total, predict, with_blackbox
from .metrics import MetricsReport, score_predictions
from .sidecar import load_data

# Variants by their command-line names (``VARIANTS``); fit and audit take
# those that ``predict`` makes from the data alone.
_VARIANTS = {name: variant for variant, (name, _, _) in VARIANTS.items()}
_FIT_VARIANTS = sorted(
    name for name, variant in _VARIANTS.items()
    if variant not in (Variant.BLACKBOX_CORRECTED, Variant.CALDERS_BASELINE)
)
# --mode names: each role view's own, and decompose's older fseo and total.
_MODES = {view.value: view for view in RoleView} | {
    "fseo": RoleView.SEO, "total": RoleView.DECLARED,
}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _load_inputs(args) -> tuple[Dataset, Schema]:
    if not args.data or not args.schema:
        raise ContractError("--data and --schema are required")
    schema = load_schema(args.schema)
    return load_data(args.data, schema), schema


def _load_design(args) -> EncodedDesign:
    """The encoded ``--data``; the parsed Dataset is not kept."""
    return encode(*_load_inputs(args))


def _read_predictions(path, n_expected: int) -> np.ndarray:
    """Per-row predictions from a CSV with a header row: ``load_csv`` under
    the schema of ``_predictions_schema``, checked by ``_predictions``."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"predictions file not found: {p}")
    source = CsvSource(p)
    schema = _predictions_schema(source)
    values = _predictions(source, schema, load_csv(source, schema))
    if len(values) != n_expected:
        raise DataError(
            f"{p}: {len(values)} predictions for {n_expected} data rows"
        )
    return values


def _predictions(source: CsvSource, schema: Schema, data: Dataset) -> np.ndarray:
    """The predictions of ``data``, read from ``source`` under ``schema``.
    A ``row`` column must number the rows 0, 1, ... as ``fit`` and
    ``correct`` write it; the first row that does not is a DataError."""
    rows = data.columns["row"] if len(schema.columns) == 2 else np.zeros(0)
    bad = np.flatnonzero(rows != np.arange(rows.size))
    if bad.size:  # name the record as the row loop counts it
        with source.open() as fh:
            records = enumerate(csv_records(fh, source.path), start=1)
            at = [h.strip() for h in next(records)[1]].index("row")
            num, row = next(itertools.islice(((k, r) for k, r in records if r), bad[0], None))
        raise DataError(f"{source.path}: row number {row[at].strip()!r} at row {num}, "
                        f"column 'row', is not {bad[0]}")
    return data.columns[schema.response.name]


def _predictions_schema(path) -> Schema:
    """The schema a predictions file's header declares. A one-column file
    holds the predictions; a two-column file whose first column is ``row``
    (the layout this tool writes, read as numbers) holds them in the
    second. Any other header is rejected rather than guessed at."""
    source = csv_source(path)
    p = source.path
    with source.open() as fh:
        header = next(csv_records(fh, p), None)
    if header is None:
        raise DataError(f"{p}: file is empty")
    names = [h.strip() for h in header]
    if len(names) == 1:
        return Schema((ColumnSpec(names[0], Role.RESPONSE),))
    if len(names) == 2 and names[0] == "row" and names[1] != "row":
        return Schema((ColumnSpec("row", Role.LEGITIMATE), ColumnSpec(names[1], Role.RESPONSE)))
    raise DataError(
        f"{p}: cannot tell the predictions column from header {names}; "
        "expected a single column, or 'row' plus one column"
    )


def _write_predictions(path, values, header: str = "prediction") -> None:
    values = np.asarray(values, dtype=float)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["row", header])
        write_rows(fh, [range(len(values)), values])


def _score(args, values, design: EncodedDesign) -> MetricsReport:
    """``values`` scored under the ``--mode`` view of ``design``'s roles."""
    return score_predictions(values, design, design.y, _MODES[args.mode],
                             args.positive_group, args.negative_group)


def _trained(args, design: EncodedDesign):
    """The ``--variant`` view of ``design``, and its fit and predictions."""
    variant = _VARIANTS[args.variant]
    design = VARIANTS[variant][2](design)
    fit = fit_total(design)
    return design, fit, predict(fit, design, variant).values


def _audit_lines(report: MetricsReport, fmt=_fmt) -> list[tuple[str, str]]:
    """The audit's (key, value) lines, numbers but ``n`` formatted by ``fmt``."""
    rows = [
        ("n", str(report.n)),
        ("ds", fmt(report.ds)),
        ("is", fmt(report.is_score)),
        ("is_mode", report.is_mode.value),
        ("rmse", fmt(report.rmse)),
        ("rsse", fmt(report.rsse)),
    ]
    for group, mean in report.per_group_means.items():
        rows.append((f"group_mean[{group}]", fmt(mean)))
    return rows


def _print_audit(report: MetricsReport) -> None:
    for key, value in _audit_lines(report, lambda v: format(v, ".6g")):
        print(f"{key:<22}{value}")


def cmd_fit(args) -> int:
    _, fit, values = _trained(args, _load_design(args))
    out = Path(args.out)
    _write_predictions(out, values)
    coef_path = out.with_suffix(".coef.csv")
    with coef_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "column", "value"])
        writer.writerow(["intercept", "", _fmt(fit.beta0 - fit.column_means @ fit.coefficients)])
        for block, label, beta in zip(fit.column_blocks, fit.columns, fit.coefficients):
            writer.writerow([block, label, _fmt(beta)])
        writer.writerows(["# dropped", label] for label in fit.dropped_labels)
    print(f"wrote {out} and {coef_path}")
    return 0


def cmd_audit(args) -> int:
    if not (args.predictions or args.variant):
        raise ContractError("audit needs --predictions or --variant")
    if args.predictions and args.variant:
        raise ContractError("audit takes --predictions or --variant, not both")
    design = _load_design(args)
    if args.predictions:
        values = _read_predictions(args.predictions, design.n_rows)
    else:
        design, _, values = _trained(args, design)
    report = _score(args, values, design)
    _print_audit(report)
    if args.out:
        with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            writer.writerows(_audit_lines(report))
    return 0


def cmd_decompose(args) -> int:
    design = _MODES[args.mode](_load_design(args))
    report = decompose(fit_total(design), design)
    out = Path(args.out)
    columns = [report.component(name) for name in COMPONENT_NAMES]
    with out.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["row", *COMPONENT_NAMES, "fitted_sum"])
        write_rows(fh, [range(design.n_rows), *columns, report.rowwise_sum()])
    print(f"wrote {out}")
    return 0


def cmd_correct(args) -> int:
    if not args.predictions:
        raise ContractError("correct needs --predictions")
    design = _load_design(args)
    # estimators.correct_blackbox. The corrected values are scored on the
    # data's own columns, as an audit of the output file scores them: a
    # view of the augmented Z, so that Z is held once.
    augmented = with_blackbox(design, _read_predictions(args.predictions, design.n_rows))
    design = design.replace(z=augmented.z[:, : design.z.shape[1]])
    pred = predict(fit_total(augmented), augmented, Variant.BLACKBOX_CORRECTED)
    report = _score(args, pred.values, design)
    _write_predictions(args.out, pred.values, header="corrected")
    _print_audit(report)
    return 0


def _simulated_inputs(args) -> tuple[Dataset, Schema]:
    from .harness import default_dag_spec, gen_dag, gen_simple_example, gen_wine_like
    from .harness import simple_example_schema

    name = args.simulate
    if name == "simple":
        return gen_simple_example(), simple_example_schema()
    if name == "dag":
        spec = default_dag_spec(
            n=2000 if args.n is None else args.n,
            p_s=args.ps,
            p_x_observed=args.px,
            p_x_unobserved=args.pxu,
            p_w=args.pw,
            fair=args.fair,
            seed=args.seed,
        )
        return gen_dag(spec)
    if name == "wine":
        return gen_wine_like(n=6497 if args.n is None else args.n, seed=args.seed)
    raise ContractError(f"unknown generator {name!r}")


def cmd_validate(args) -> int:
    # The harness is imported only by the commands that use it (validate
    # and simulate), so the other commands start faster.
    from .harness import BiasSpec, ExperimentConfig, kfold_validate

    if args.simulate:
        if args.data or args.schema:
            raise ContractError("validate takes --data/--schema or --simulate, not both")
        data, schema = _simulated_inputs(args)
    else:
        data, schema = _load_inputs(args)
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    unknown = [v for v in names if v not in _VARIANTS]
    if unknown:
        raise ContractError(
            f"unknown variant(s) {unknown}; choose from {','.join(sorted(_VARIANTS))}"
        )
    variants = tuple(_VARIANTS[v] for v in names)
    config = ExperimentConfig(
        folds=args.folds,
        repetitions=args.reps,
        variants=variants,
        master_seed=args.seed,
        blackbox_trees=args.trees,
        blackbox_depth=args.tree_depth,
    )
    bias = None
    if args.bias_group:
        bias = BiasSpec(
            target_group_label=args.bias_group,
            fraction=args.bias_frac,
            shift=args.bias_shift,
        )
    table = kfold_validate(data, schema, config, bias)
    print(table.to_text(), end="")
    if args.out:
        with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variant", "metric", "value"])
            writer.writerows(table.csv_rows())
    return 0


def cmd_simulate(args) -> int:
    data, schema = _simulated_inputs(args)
    out = Path(args.out)
    write_csv(out, data)
    schema_path = out.with_suffix(".schema")
    schema_path.write_text(format_schema(schema), encoding="utf-8")
    print(f"wrote {out} and {schema_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impartial",
        description="Impartial prediction toolkit: fit fairness-constrained "
        "estimators, audit/decompose/correct predictions, run validation "
        "experiments, generate synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_out=True):
        p.add_argument("--data", help="input CSV file")
        p.add_argument("--schema", help="schema file (name = role[,categorical])")
        if need_out:
            p.add_argument("--out", required=True, help="output file path")
        else:
            p.add_argument("--out", help="optional output CSV path")

    def add_groups(p):
        p.add_argument("--positive-group", help="group whose mean enters DS positively")
        p.add_argument("--negative-group", help="group subtracted in DS")

    p_fit = sub.add_parser("fit", help="fit and write predictions + coefficients")
    add_io(p_fit)
    p_fit.add_argument("--variant", choices=_FIT_VARIANTS, default="full")
    p_fit.set_defaults(func=cmd_fit)

    p_audit = sub.add_parser("audit", help="score predictions for impartiality")
    add_io(p_audit, need_out=False)
    p_audit.add_argument("--predictions", help="CSV of per-row predictions")
    p_audit.add_argument("--variant", choices=_FIT_VARIANTS)
    p_audit.add_argument("--mode", choices=sorted(_MODES), default="declared")
    add_groups(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_dec = sub.add_parser("decompose", help="write per-row component columns")
    add_io(p_dec)
    p_dec.add_argument("--mode", choices=sorted(_MODES), default="declared")
    p_dec.set_defaults(func=cmd_decompose)

    p_cor = sub.add_parser("correct", help="make external predictions impartial")
    add_io(p_cor)
    p_cor.add_argument("--predictions", help="CSV of black-box predictions")
    p_cor.add_argument("--mode", choices=sorted(_MODES), default="declared")
    add_groups(p_cor)
    p_cor.set_defaults(func=cmd_correct)

    p_val = sub.add_parser("validate", help="bias-injection cross-validation")
    add_io(p_val, need_out=False)
    p_val.add_argument(
        "--simulate", choices=["simple", "dag", "wine"], help="generate instead of reading --data"
    )
    p_val.add_argument(
        "--variants",
        default="full,feo,fseo,calders,marginal",
        help="comma list from: " + ",".join(sorted(_VARIANTS)),
    )
    p_val.add_argument("--folds", type=int, default=5)
    p_val.add_argument("--reps", type=int, default=20)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--bias-group", help="sensitive group receiving the shift")
    p_val.add_argument("--bias-frac", type=float, default=0.7)
    p_val.add_argument("--bias-shift", type=float, default=1.0)
    p_val.add_argument("--trees", type=int, default=50, help="black-box tree count")
    p_val.add_argument("--tree-depth", type=int, default=8)
    _add_sim_params(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset + schema")
    p_sim.add_argument("simulate", choices=["simple", "dag", "wine"])
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_sim_params(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def _add_sim_params(p) -> None:
    p.add_argument("--n", type=int, help="rows to generate (generator default if omitted)")
    p.add_argument("--ps", type=int, default=1, help="sensitive columns (dag)")
    p.add_argument("--px", type=int, default=2, help="observed legitimate columns (dag)")
    p.add_argument("--pxu", type=int, default=1, help="unobserved legitimate columns (dag)")
    p.add_argument("--pw", type=int, default=1, help="suspect columns (dag)")
    p.add_argument("--fair", action="store_true", help="fair generating model (dag)")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Each warning, raised or logged, prints as one line; the warnings and
    # logging state is restored on return, so main can run in-process.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("impartial").addHandler(handler)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ImpartialError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logging.getLogger("impartial").removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
