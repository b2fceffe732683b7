"""Property tests of the paper's algebraic identities on awkward designs.

Designs come from ``gen_dag`` plus, as drawn, a duplicated (aliased)
column, a near-collinear column, a constant column, a three-level
sensitive attribute, and a row count close to the column count. On every
one, at ``RECONSTRUCTION_RTOL``:

- the total decomposition sums to the full model's fitted values;
- FEO, FSEO and black-box-corrected predictions score IS = 0 in-sample;
- refitting after ``residualize_suspect`` gives the same fitted values,
  and the same suspect coefficients when no column is aliased or
  near-collinear.

The near-collinear column is a copy plus noise of scale 1e-4. With noise
of 1e-7 the identities hold only to about 3e-9: the rank rule keeps a
column whose pivot is 1e-7 of the largest, and its rounding is amplified.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from impartial.data import ColumnSpec, Role, Schema, encode, make_dataset
from impartial.decomposition import Mode, decompose
from impartial.estimators import (
    Variant,
    as_all_legitimate,
    as_all_suspect,
    correct_blackbox,
    fit_total,
    predict,
    residualize_suspect,
    with_blackbox,
)
from impartial.harness import default_dag_spec, gen_dag
from impartial.linalg import RECONSTRUCTION_RTOL
from impartial.metrics import ScoreMode, impartiality_score

R = RECONSTRUCTION_RTOL


@st.composite
def awkward_designs(draw):
    """(encoded design, what was added) for one drawn gen_dag variation."""
    p_x = draw(st.integers(0, 3))
    p_w = draw(st.integers(0 if p_x else 1, 3))
    extras = draw(st.sets(st.sampled_from(["duplicate", "near", "constant", "three_level"])))
    width = 1 + p_x + p_w + len(extras)
    n = draw(st.sampled_from([width + 3, width + 6, 60, 250]))
    seed = draw(st.integers(0, 2**16))
    dataset, schema = gen_dag(
        default_dag_spec(n=n, p_x_observed=p_x, p_w=p_w, fair=draw(st.booleans()), seed=seed)
    )
    columns, specs = dict(dataset.columns), list(schema.columns)
    rng = np.random.default_rng(seed)
    numeric = [c for c in specs if c.role in (Role.LEGITIMATE, Role.SUSPECT)]
    role = draw(st.sampled_from([Role.LEGITIMATE, Role.SUSPECT]))
    if "duplicate" in extras:
        source = draw(st.sampled_from(numeric))
        columns["dup"] = 2.0 * columns[source.name]
        specs.append(ColumnSpec("dup", draw(st.sampled_from([source.role, role]))))
    if "near" in extras:
        source = draw(st.sampled_from(numeric))
        columns["near"] = columns[source.name] + 1e-4 * rng.standard_normal(n)
        specs.append(ColumnSpec("near", source.role))
    if "constant" in extras:
        columns["const"] = np.full(n, 3.25)
        specs.append(ColumnSpec("const", role))
    levels = list(columns["s0"])
    levels[:2] = ["g0", "g1"]  # a sensitive block needs two groups
    if "three_level" in extras:
        levels[2:] = ["g2" if u < 0.3 else g for u, g in zip(rng.random(n - 2), levels[2:])]
        levels[2] = "g2"
    columns["s0"] = tuple(levels)
    schema = Schema(columns=tuple(specs))
    return encode(make_dataset(columns), schema), sorted(extras)


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=R, atol=R)


_SETTINGS = settings(max_examples=120, deadline=None)


def fitted(design):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the n close to p warning
        fit = fit_total(design)
    return fit, predict(fit, design, Variant.FULL).values


@_SETTINGS
@given(case=awkward_designs())
def test_total_decomposition_sums_to_fitted_values(case):
    design, _ = case
    fit, full = fitted(design)
    assert_close(decompose(fit, design, Mode.TOTAL).rowwise_sum(), full)


@_SETTINGS
@given(case=awkward_designs())
def test_impartial_predictions_score_zero_in_sample(case):
    design, _ = case
    legitimate, suspect = as_all_legitimate(design), as_all_suspect(design)
    y = design.y
    feo = predict(fitted(legitimate)[0], legitimate, Variant.FEO).values
    assert impartiality_score(feo, legitimate, y, ScoreMode.FEO) <= R
    fseo = predict(fitted(suspect)[0], suspect, Variant.FSEO).values
    assert impartiality_score(fseo, suspect, y, ScoreMode.SEO) <= R
    external = y + np.random.default_rng(design.n_rows).standard_normal(design.n_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, corrected = correct_blackbox(suspect, external)
    assert impartiality_score(
        corrected.values, with_blackbox(suspect, external), y, ScoreMode.SEO
    ) <= R


@_SETTINGS
@given(case=awkward_designs())
def test_refit_after_residualize_suspect_is_the_same_fit(case):
    design, extras = case
    fit, full = fitted(design)
    refit, refull = fitted(residualize_suspect(design))
    assert_close(refull, full)
    # Coefficients are determined to working precision only without
    # aliased or near-collinear columns.
    if "near" not in extras and not fit.dropped_labels:
        assert_close(refit.beta_x[design.width("x"):], fit.beta_wb)
