"""Batch command-line front end.

Subcommands: fit, audit, decompose, correct, validate, simulate. Exit
codes: 0 success, 1 input/IO error, 2 usage or contract error. All
output is deterministic given identical inputs and seed flags; numeric
CSV cells carry 17 significant digits, text tables 6.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import re
import sys
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    Schema,
    csv_records,
    encode,
    format_schema,
    load_csv,
    load_schema,
    read_table,
    write_csv,
    write_rows,
)
from .decomposition import COMPONENT_NAMES, Mode, decompose
from .errors import ContractError, DataError, ImpartialError
from .estimators import Variant, correct_blackbox, fit_total, predict, with_blackbox
from .harness import (
    BiasSpec,
    ExperimentConfig,
    default_dag_spec,
    gen_dag,
    gen_simple_example,
    gen_wine_like,
    kfold_validate,
    simple_example_schema,
)
from .metrics import ScoreMode, score_predictions

_FIT_VARIANTS = {
    "full": Variant.FULL,
    "exclude-s": Variant.EXCLUDE_S,
    "marginal": Variant.MARGINAL,
    "feo": Variant.FEO,
    "fseo": Variant.FSEO,
    "total": Variant.TOTAL,
}

_VALIDATE_VARIANTS = {
    **_FIT_VARIANTS,
    "calders": Variant.CALDERS_BASELINE,
    "corrected": Variant.BLACKBOX_CORRECTED,
}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _load_inputs(args) -> tuple[Dataset, Schema]:
    if not args.data or not args.schema:
        raise ContractError("--data and --schema are required")
    schema = load_schema(args.schema)
    data = load_csv(args.data, schema)
    return data, schema


def _read_predictions(path, n_expected: int) -> np.ndarray:
    """Per-row predictions from a CSV with a header row.

    A one-column file holds the predictions; a two-column file whose first
    column is ``row`` (the layout this tool writes) holds them in the
    second. Any other header is rejected rather than guessed at. Rows whose
    first cell starts with ``#`` are skipped, and a prediction must be
    finite. numpy's C reader parses the file when it can; otherwise the
    row loop ``_read_prediction_rows`` reads it, which defines the result
    and every error message.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"predictions file not found: {p}")
    values = _parse_predictions(p)
    if values is None or not np.all(np.isfinite(values)):
        values = _read_prediction_rows(p)
    if len(values) != n_expected:
        raise DataError(
            f"{p}: {len(values)} predictions for {n_expected} data rows"
        )
    return values


def _predictions_column(p: Path, header) -> int:
    """Index of the predictions column in a predictions file's header."""
    if header is None:
        raise DataError(f"{p}: empty predictions file")
    names = [h.strip() for h in header]
    if len(names) == 1:
        return 0
    if len(names) == 2 and names[0] == "row":
        return 1
    raise DataError(
        f"{p}: cannot tell the predictions column from header {names}; "
        "expected a single column, or 'row' plus one column"
    )


def _row_cell(cell: str) -> float:
    """The ``row`` column is not read, but a ``#`` row is one to skip."""
    if cell.startswith("#"):
        raise ValueError("comment row")
    return 0.0


# Matches at the start of every line except a ``#`` line.
_NOT_COMMENT = re.compile("(?!#)").match


def _ends_in_comment(p: Path) -> bool:
    """Whether the last nonempty line of ``p`` starts with ``#``, from the
    file's last 4 KiB."""
    with p.open("rb") as raw:
        raw.seek(max(0, raw.seek(0, 2) - 4096))
        lines = raw.read().rstrip(b"\r\n").splitlines()
    return bool(lines) and lines[-1].startswith(b"#")


def _parse_predictions(p: Path) -> np.ndarray | None:
    """The predictions column parsed by numpy's C reader, or None where
    the row loop must decide (a ``#`` row before the last data row, no
    rows, or any cell numpy does not parse exactly as ``float`` would).

    When the file ends in ``#`` lines, as ``correct`` output does, numpy
    reads up to the first line starting with ``#``, and the rest of the
    file may hold only such lines and empty ones. A bad header is a
    DataError.
    """
    with p.open(newline="", encoding="utf-8-sig") as fh:
        column = _predictions_column(p, next(csv_records(fh, p), None))
        lines = itertools.takewhile(_NOT_COMMENT, fh) if _ends_in_comment(p) else fh
        try:
            values = read_table(lines, {0: _row_cell} if column else {})
        except ValueError:
            return None
        if any(line.strip("\r\n") and line[0] != "#" for line in fh):
            return None
    if values.shape[0] == 0 or values.shape[1] != column + 1:
        return None
    return values[:, column].copy()


def _read_prediction_rows(p: Path) -> np.ndarray:
    """``_read_predictions`` one row at a time: the reference reader."""
    values = []
    with p.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv_records(fh, p)
        header = next(reader, None)
        column = _predictions_column(p, header)
        width = len(header)
        for rownum, row in enumerate(reader, start=2):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != width:
                raise DataError(
                    f"{p}: row {rownum} has {len(row)} fields, expected {width}"
                )
            try:
                value = float(row[column])
            except ValueError:
                raise DataError(
                    f"{p}: cannot parse prediction {row[column]!r} at row {rownum}"
                ) from None
            if not np.isfinite(value):
                raise DataError(f"{p}: prediction {row[column]!r} at row {rownum} is not finite")
            values.append(value)
    return np.asarray(values)


def _write_predictions(path, values, header: str = "prediction") -> None:
    values = np.asarray(values, dtype=float)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["row", header])
        write_rows(fh, ["%d", "%.17g"], [range(len(values)), values])


def _audit_lines(report) -> list[tuple[str, str]]:
    rows = [
        ("n", str(report.n)),
        ("ds", _fmt(report.ds)),
        ("is", _fmt(report.is_score)),
        ("is_mode", report.is_mode.value),
        ("rmse", _fmt(report.rmse)),
        ("rsse", _fmt(report.rsse)),
    ]
    for group, mean in report.per_group_means.items():
        rows.append((f"group_mean[{group}]", _fmt(mean)))
    return rows


def _print_audit(report) -> None:
    for key, value in _audit_lines(report):
        try:
            pretty = format(float(value), ".6g")
        except ValueError:
            pretty = value
        print(f"{key:<22}{pretty}")


def _score_mode(args, variant: Variant | None) -> ScoreMode:
    if getattr(args, "mode", None):
        return ScoreMode(args.mode)
    if variant is Variant.FEO:
        return ScoreMode.FEO
    return ScoreMode.SEO


def cmd_fit(args) -> int:
    data, schema = _load_inputs(args)
    design = encode(data, schema)
    variant = _FIT_VARIANTS[args.variant]
    fit = fit_total(design)
    pred = predict(fit, design, variant)

    out = Path(args.out)
    _write_predictions(out, pred.values)
    coef_path = out.with_suffix(".coef.csv")
    with coef_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "column", "value"])
        writer.writerow(["intercept", "", _fmt(fit.beta0)])
        for block, label, beta in zip(fit.column_blocks, fit.columns, fit.coefficients):
            writer.writerow([block, label, _fmt(beta)])
        for label in fit.dropped_labels:
            fh.write(f"# dropped,{label}\n")
    print(f"wrote {out} and {coef_path}")
    return 0


def cmd_audit(args) -> int:
    data, schema = _load_inputs(args)
    design = encode(data, schema)
    variant = None
    if args.predictions:
        values = _read_predictions(args.predictions, design.n_rows)
    elif args.variant:
        variant = _FIT_VARIANTS[args.variant]
        values = predict(fit_total(design), design, variant).values
    else:
        raise ContractError("audit needs --predictions or --variant")
    mode = _score_mode(args, variant)
    report = score_predictions(
        values,
        design,
        design.y,
        mode,
        positive_group=args.positive_group,
        negative_group=args.negative_group,
    )
    _print_audit(report)
    if args.out:
        with Path(args.out).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            writer.writerows(_audit_lines(report))
    return 0


def cmd_decompose(args) -> int:
    data, schema = _load_inputs(args)
    design = encode(data, schema)
    fit = fit_total(design)
    report = decompose(fit, design, Mode(args.mode or "total"))
    out = Path(args.out)
    columns = [report.component(name) for name in COMPONENT_NAMES]
    with out.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["row", *COMPONENT_NAMES, "fitted_sum"])
        write_rows(
            fh,
            ["%d"] + ["%.17g"] * (len(columns) + 1),
            [range(design.n_rows), *columns, report.rowwise_sum()],
        )
    print(f"wrote {out}")
    return 0


def cmd_correct(args) -> int:
    data, schema = _load_inputs(args)
    design = encode(data, schema)
    if not args.predictions:
        raise ContractError("correct needs --predictions")
    external = _read_predictions(args.predictions, design.n_rows)
    fit, pred = correct_blackbox(design, external)
    out = Path(args.out)
    _write_predictions(out, pred.values, header="corrected")
    audited = score_predictions(
        pred.values,
        with_blackbox(design, external),
        design.y,
        _score_mode(args, Variant.BLACKBOX_CORRECTED),
        positive_group=args.positive_group,
        negative_group=args.negative_group,
    )
    with out.open("a", encoding="utf-8") as fh:
        for key, value in _audit_lines(audited):
            fh.write(f"# {key},{value}\n")
    _print_audit(audited)
    return 0


def _simulated_inputs(args) -> tuple[Dataset, Schema]:
    name = args.simulate
    if name == "simple":
        return gen_simple_example(), simple_example_schema()
    if name == "dag":
        spec = default_dag_spec(
            n=args.n or 2000,
            p_s=args.ps,
            p_x_observed=args.px,
            p_x_unobserved=args.pxu,
            p_w=args.pw,
            fair=args.fair,
            seed=args.seed,
        )
        return gen_dag(spec)
    if name == "wine":
        return gen_wine_like(n=args.n or 6497, seed=args.seed)
    raise ContractError(f"unknown generator {name!r}")


def cmd_validate(args) -> int:
    if args.simulate:
        data, schema = _simulated_inputs(args)
    else:
        data, schema = _load_inputs(args)
    variants = tuple(
        _VALIDATE_VARIANTS[v.strip()] for v in args.variants.split(",") if v.strip()
    )
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
    p_fit.add_argument(
        "--variant", choices=sorted(_FIT_VARIANTS), default="full"
    )
    p_fit.set_defaults(func=cmd_fit)

    p_audit = sub.add_parser("audit", help="score predictions for impartiality")
    add_io(p_audit, need_out=False)
    p_audit.add_argument("--predictions", help="CSV of per-row predictions")
    p_audit.add_argument("--variant", choices=sorted(_FIT_VARIANTS))
    p_audit.add_argument("--mode", choices=["feo", "seo"])
    add_groups(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_dec = sub.add_parser("decompose", help="write per-row component columns")
    add_io(p_dec)
    p_dec.add_argument("--mode", choices=["feo", "fseo", "total"], default="total")
    p_dec.set_defaults(func=cmd_decompose)

    p_cor = sub.add_parser("correct", help="make external predictions impartial")
    add_io(p_cor)
    p_cor.add_argument("--predictions", help="CSV of black-box predictions")
    p_cor.add_argument("--mode", choices=["feo", "seo"])
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
        help="comma list from: " + ",".join(sorted(_VALIDATE_VARIANTS)),
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
    try:
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


if __name__ == "__main__":
    sys.exit(main())
