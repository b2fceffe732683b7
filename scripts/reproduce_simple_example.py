#!/usr/bin/env python3
"""Reproduce the loan-repayment walkthrough table.

Fits every estimator variant on the fixed 1000-row loan dataset and
prints per-cell estimates with the group gap (DS) and root summed
squared error, plus the component decomposition summary.
"""

import numpy as np

from impartial.data import RoleView, encode
from impartial.decomposition import decompose, redlining_report
from impartial.estimators import Variant, fit_total, predict
from impartial.harness import gen_simple_example, simple_example_schema
from impartial.metrics import discrimination_score, rsse

CELLS = (("low", "s-"), ("low", "s+"), ("high", "s-"), ("high", "s+"))


def cell_map(data, values):
    out = {}
    for i, (e, g) in enumerate(zip(data.columns["edu"], data.columns["group"])):
        out[(e, g)] = values[i]
    return out


def main():
    data = gen_simple_example()
    design = encode(data, simple_example_schema())
    fit = fit_total(design)  # one fit; every variant reads it under its view

    rows = (
        ("Full", predict(fit, design, Variant.FULL).values),
        ("Exclude-s", predict(fit, design, Variant.EXCLUDE_S).values),
        ("FEO", predict(fit, design, Variant.FEO).values),
        ("SEO", predict(fit, design, Variant.FSEO).values),
        ("Marginal", predict(fit, design, Variant.MARGINAL).values),
    )

    header = f"{'estimator':<12}" + "".join(f"{e}/{g:<4}".rjust(12) for e, g in CELLS)
    print(header + f"{'DS':>9}{'RSSE':>9}")
    for name, values in rows:
        cells = cell_map(data, values)
        ds = discrimination_score(values, design.s_group_labels, "s+", "s-")
        line = f"{name:<12}" + "".join(f"{cells[c]:.4g}".rjust(12) for c in CELLS)
        print(line + f"{ds:>9.3f}{rsse(values, design.y):>9.4g}")

    print("\ncomponent magnitudes (mean |per-row contribution|):")
    feo_report = decompose(fit, design)
    for name, value in feo_report.mean_abs().items():
        print(f"  education-legitimate {name:<16}{value:.6f}")
    fseo_report = decompose(RoleView.SEO(fit), RoleView.SEO(design))  # education suspect
    summary = redlining_report(fseo_report)
    print(f"  education-suspect disparate treatment   {summary.disparate_treatment:.6f}")
    print(f"  education-suspect uninformative redlining {summary.uninformative_redlining:.6f}")


if __name__ == "__main__":
    main()
