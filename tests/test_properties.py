"""Property tests of the paper's algebraic identities on awkward designs.

Designs come from ``gen_dag`` plus, as drawn, a duplicated (aliased)
column, a near-collinear column, a constant column, a three-level
sensitive attribute, and a row count close to the column count. On every
one, at ``RECONSTRUCTION_RTOL``:

- the total decomposition sums to the full model's fitted values;
- FEO, FSEO and black-box-corrected predictions score IS = 0 in-sample,
  and total and corrected ones under the declared roles too;
- a role view of a fit predicts, and derives every regression, with the
  bits of the fit of that view;
- refitting after ``residualize_suspect`` gives the same fitted values,
  and the same suspect coefficients when no column is aliased or
  near-collinear.

Without the near-collinear column, multiplying any one column by a power
of two moves no variant's predictions by more than 1e-12 of scale, and,
when a column and its alias sit in different blocks, drops the same
columns.

The validation protocol gives finite tables on folds of a single row
(folds = n, and n = folds + 1), which may hold one group only. On 1 and
2 BLAS threads the estimates of a 100k-row design agree at
``RECONSTRUCTION_RTOL`` and are bit-identical. Whatever the number of
rows ``linalg.r_factor`` factors per block, down to one row and to blocks
shorter than the column count, the estimates agree within 1e-12.

The drawn near-collinear column is a copy plus noise of scale 1e-4. A
seeded case adds noise of 1e-7 instead, so that cond(Z) = kappa is near
3.5e7: the decomposition still sums at ``RECONSTRUCTION_RTOL``, the FEO
IS score is at most 0.5 kappa*eps, and the refit's suspect coefficients
are within 0.5 kappa*eps*(|beta| + kappa*|r|/|Z|), the least-squares
perturbation bound.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impartial
from conftest import assert_view_of_fit_is_fit_of_view
from impartial import linalg
from impartial.data import ColumnSpec, Role, RoleView, Schema, encode, make_dataset, take_design
from impartial.decomposition import COMPONENT_NAMES, decompose
from impartial.estimators import (
    Variant,
    correct_blackbox,
    fit_total,
    predict,
    residualize_suspect,
    with_blackbox,
)
from impartial.harness import BiasSpec, ExperimentConfig, default_dag_spec, gen_dag, kfold_validate
from impartial.harness.experiment import METRIC_NAMES
from impartial.linalg import RECONSTRUCTION_RTOL
from impartial.metrics import impartiality_score

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
    assert_close(decompose(fit, design).rowwise_sum(), full)


@_SETTINGS
@given(case=awkward_designs(), with_b=st.booleans())
def test_view_of_a_fit_is_the_fit_of_the_view(case, with_b):
    design, _ = case
    if with_b:
        design = with_blackbox(design, design.y + np.random.default_rng(3).standard_normal(
            design.n_rows))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the n close to p warning
        assert_view_of_fit_is_fit_of_view(design)


@_SETTINGS
@given(case=awkward_designs())
def test_impartial_predictions_score_zero_in_sample(case):
    design, _ = case
    legitimate, suspect = RoleView.FEO(design), RoleView.SEO(design)
    y = design.y
    feo = predict(fitted(legitimate)[0], legitimate, Variant.FEO).values
    assert impartiality_score(feo, legitimate, y, RoleView.FEO) <= R
    fseo = predict(fitted(suspect)[0], suspect, Variant.FSEO).values
    assert impartiality_score(fseo, suspect, y, RoleView.SEO) <= R
    external = y + np.random.default_rng(design.n_rows).standard_normal(design.n_rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, corrected = correct_blackbox(suspect, external)
    assert impartiality_score(
        corrected.values, with_blackbox(suspect, external), y, RoleView.SEO
    ) <= R
    # under the declared roles, with X and W both present as drawn
    total = predict(fitted(design)[0], design, Variant.TOTAL).values
    assert impartiality_score(total, design, y, RoleView.DECLARED) <= R
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, corrected = correct_blackbox(design, external)
    assert impartiality_score(corrected.values, design, y, RoleView.DECLARED) <= R


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


def block_of(design, j):
    return int(np.searchsorted(np.cumsum(design.widths), j, side="right"))


def every_variant(design):
    """Each predict variant's predictions on its own training view, and the
    joint fit's dropped labels."""
    external = design.y + np.random.default_rng(design.n_rows).standard_normal(design.n_rows)
    suspect = RoleView.SEO(design)
    views = {
        Variant.FULL: design, Variant.EXCLUDE_S: design, Variant.MARGINAL: design,
        Variant.TOTAL: design, Variant.FEO: RoleView.FEO(design),
        Variant.FSEO: suspect, Variant.BLACKBOX_CORRECTED: with_blackbox(suspect, external),
    }
    out = {v: predict(fitted(view)[0], view, v).values for v, view in views.items()}
    return out, fitted(design)[0].dropped_labels


@_SETTINGS
@given(
    case=awkward_designs().filter(lambda case: "near" not in case[1]),
    column=st.integers(0, 2**16),
    power=st.integers(-10, 10),
)
def test_scaling_a_column_moves_no_prediction(case, column, power):
    # The rank decision takes blocks in a fixed order, so units decide only
    # which of two aliases in one block is dropped, and the span fitted is
    # the same either way.
    design, extras = case
    z = design.z
    factor = np.ones(z.shape[1])
    factor[column % z.shape[1]] = 2.0**power
    scaled = design.replace(z=z * factor, column_means=design.column_means * factor)
    want, want_dropped = every_variant(design)
    got, dropped = every_variant(scaled)
    for variant, values in want.items():
        scale = float(np.max(np.abs(values)))
        assert np.max(np.abs(got[variant] - values)) <= 1e-12 * scale, variant
    if "duplicate" in extras:
        dup = design.columns.index("dup")
        source = next(k for k in range(z.shape[1]) if k != dup and
                      np.array_equal(z[:, dup], 2.0 * z[:, k]))
        if block_of(design, dup) == block_of(design, source):
            return
    assert dropped == want_dropped


def near_collinear_design(seed, source):
    """A 2,000-row gen_dag design plus a column equal to ``source`` (in its
    role) plus noise of scale 1e-7, which puts cond(Z) near 3.5e7."""
    dataset, schema = gen_dag(default_dag_spec(n=2000, p_x_observed=2, p_w=2, seed=seed))
    columns, specs = dict(dataset.columns), list(schema.columns)
    noise = 1e-7 * np.random.default_rng(seed).standard_normal(2000)
    columns["near"] = columns[source] + noise
    specs.append(ColumnSpec("near", next(c.role for c in specs if c.name == source)))
    return encode(make_dataset(columns), Schema(columns=tuple(specs)))


@pytest.mark.parametrize("source", ["x0", "w0"])
@pytest.mark.parametrize("seed", range(8))
def test_near_collinear_design_is_exact_to_its_condition_number(seed, source):
    # Over 1,024 seeds of each of x0, x1, w0 and w1 the IS score was at
    # most 0.077 kappa*eps and the refit's suspect coefficients differed by
    # at most 0.051 kappa*eps*scale; the sum was within 4.2e-16 of scale.
    design = near_collinear_design(seed, source)
    kappa = np.linalg.cond(design.z)
    kappa_eps = kappa * np.finfo(float).eps
    fit, full = fitted(design)
    assert_close(decompose(fit, design).rowwise_sum(), full)
    legitimate = RoleView.FEO(design)
    feo = predict(fitted(legitimate)[0], legitimate, Variant.FEO).values
    assert impartiality_score(feo, legitimate, design.y, RoleView.FEO) <= 0.5 * kappa_eps
    # A least-squares solution moves by up to kappa*eps*(|beta| + kappa*|r|/|Z|)
    # (Wedin): with a nonzero residual r the kappa**2 term dominates, so the
    # error relative to |beta| alone grows without bound as |beta| shrinks.
    residual = np.linalg.norm(design.y - full) / np.linalg.norm(design.z, 2)
    scale = np.linalg.norm(fit.coefficients) + kappa * residual
    refit, _ = fitted(residualize_suspect(design))
    difference = np.abs(refit.beta_x[design.width("x"):] - fit.beta_wb)
    assert np.max(difference) <= 0.5 * kappa_eps * scale


PROTOCOL_VARIANTS = (
    Variant.FULL,
    Variant.FEO,
    Variant.FSEO,
    Variant.MARGINAL,
    Variant.CALDERS_BASELINE,
    Variant.BLACKBOX_CORRECTED,
)


@settings(max_examples=12, deadline=None)
@given(
    folds=st.integers(6, 10),
    extra=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**16),
    p_x=st.integers(0, 2),
)
def test_tiny_folds_give_finite_tables(folds, extra, seed, p_x):
    n = folds + extra
    dataset, schema = gen_dag(default_dag_spec(n=n, p_x_observed=p_x, p_w=1, seed=seed))
    columns = dict(dataset.columns)
    # every training set keeps both groups, as the stratified baseline needs
    columns["s0"] = tuple("g1" if i % 2 else "g0" for i in range(n))
    config = ExperimentConfig(
        folds=folds,
        repetitions=4,
        variants=PROTOCOL_VARIANTS,
        master_seed=seed,
        blackbox_trees=3,
        blackbox_depth=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the n close to p warning
        table = kfold_validate(make_dataset(columns), schema, config, BiasSpec("g1", 0.5, 1.0))
    values = [table.values[v][metric] for v in table.variants for metric in METRIC_NAMES]
    assert np.all(np.isfinite(values))


_ESTIMATES = """
import sys
import numpy as np
from impartial.data import RoleView, encode
from impartial.decomposition import COMPONENT_NAMES, decompose
from impartial.estimators import Variant, fit_total, predict
from impartial.harness import default_dag_spec, gen_dag
from impartial.metrics import impartiality_score

design = encode(*gen_dag(default_dag_spec(n=100_000, p_x_observed=6, p_w=4, seed=11)))
fit = fit_total(design)
full = predict(fit, design, Variant.FULL).values
report = decompose(fit, design)
np.savez(
    sys.argv[1],
    coefficients=fit.coefficients,
    lambdas=np.concatenate([fit.lambda_sx_for_wb.ravel(), fit.lambda_x_for_s.ravel()]),
    full=full,
    total=predict(fit, design, Variant.TOTAL).values,
    components=np.column_stack([report.component(name) for name in COMPONENT_NAMES]),
    scores=[impartiality_score(full, design, design.y, mode) for mode in RoleView],
)
"""


def test_estimates_agree_across_blas_thread_counts(tmp_path):
    # linalg.r_factor factors 4,096-row blocks, and at this design's width
    # its R is bit-identical on 1 and 2 BLAS threads (at 400 columns it is
    # not), so the estimates must be too
    src = str(Path(impartial.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        subprocess.run([sys.executable, "-c", _ESTIMATES, str(out)], env=env, check=True,
                       timeout=300)
        runs.append(np.load(out))
    one, two = runs
    for key in one.files:
        scale = max(1.0, float(np.max(np.abs(one[key]))))
        assert np.max(np.abs(two[key] - one[key])) <= R * scale, key
    for key in one.files:
        np.testing.assert_array_equal(two[key], one[key], err_msg=key)


def all_estimates(data, schema) -> dict:
    """Every estimate of the package on the encoded data, by name: the
    fits, each predict variant, the decompositions on the training rows and
    on new rows, and the impartiality scores."""
    design = encode(data, schema)
    fit = fit_total(design)
    external = design.y + np.random.default_rng(5).standard_normal(design.n_rows)
    suspect = RoleView.SEO(design)
    views = {
        Variant.FULL: design, Variant.EXCLUDE_S: design, Variant.MARGINAL: design,
        Variant.TOTAL: design, Variant.FEO: RoleView.FEO(design),
        Variant.FSEO: suspect, Variant.BLACKBOX_CORRECTED: with_blackbox(suspect, external),
    }
    out = {
        "coefficients": np.r_[fit.beta0, fit.coefficients, fit.marginal_coefs],
        "lambdas": np.r_[fit.lambda_sx_for_wb.ravel(), fit.lambda_x_for_s.ravel()],
    }
    for variant, view in views.items():
        out[variant.value] = predict(fit_total(view), view, variant).values
    new_rows = take_design(design, np.arange(0, design.n_rows, 3))
    for name, rows in (("decompose", design), ("decompose_new_rows", new_rows)):
        report = decompose(fit, rows)
        out[name] = np.column_stack([report.component(c) for c in COMPONENT_NAMES])
    full = out[Variant.FULL.value]
    out["scores"] = np.array([impartiality_score(full, design, design.y, m) for m in RoleView])
    return out


@pytest.mark.parametrize("block_rows", [1, 7, 64, 4_096])
def test_estimates_agree_across_block_sizes(monkeypatch, block_rows):
    # 7 rows is fewer than the design's columns, so each block's R is
    # trapezoidal; blocks of at least n rows factor the matrix whole
    data, schema = gen_dag(default_dag_spec(n=3_000, p_x_observed=6, p_w=4, seed=29))
    monkeypatch.setattr(linalg, "BLOCK_ROWS", data.n_rows)
    whole = all_estimates(data, schema)
    monkeypatch.setattr(linalg, "BLOCK_ROWS", block_rows)
    blocked = all_estimates(data, schema)
    for key, want in whole.items():
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(blocked[key] - want)) <= 1e-12 * scale, key
