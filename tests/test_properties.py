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

The validation protocol gives finite tables on folds of a single row
(folds = n, and n = folds + 1), which may hold one group only, and the
same table bit for bit on 1, 2 and 4 threads. On 1 and 2 BLAS threads
the estimates of a 100k-row design agree at ``RECONSTRUCTION_RTOL`` and
are bit-identical. Whatever the number of rows
``linalg.r_factor`` factors per block, down to one row and to blocks
shorter than the column count, the estimates agree within 1e-12.

The near-collinear column is a copy plus noise of scale 1e-4. With noise
of 1e-7 the identities hold only to about 3e-9: the rank rule keeps a
column whose pivot is 1e-7 of the largest, and its rounding is amplified.
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
from impartial import linalg
from impartial.data import ColumnSpec, Role, Schema, encode, make_dataset, take_design
from impartial.decomposition import COMPONENT_NAMES, Mode, decompose
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
from impartial.harness import BiasSpec, ExperimentConfig, default_dag_spec, gen_dag, kfold_validate
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
def test_tiny_folds_give_finite_tables_on_any_thread_count(folds, extra, seed, p_x):
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
    tables = []
    for threads in ("1", "2", "4"):
        with pytest.MonkeyPatch.context() as m, warnings.catch_warnings():
            m.setenv("IMPARTIAL_THREADS", threads)
            warnings.simplefilter("ignore")  # the n close to p warning
            table = kfold_validate(make_dataset(columns), schema, config, BiasSpec("g1", 0.5, 1.0))
        tables.append(table.csv_rows())
    values = [table.values[v][metric] for v in table.variants for metric in table.metrics]
    assert np.all(np.isfinite(values))
    assert tables[0] == tables[1] == tables[2]


_ESTIMATES = """
import sys
import numpy as np
from impartial.data import encode
from impartial.decomposition import COMPONENT_NAMES, Mode, decompose
from impartial.estimators import Variant, fit_total, predict
from impartial.harness import default_dag_spec, gen_dag
from impartial.metrics import ScoreMode, impartiality_score

design = encode(*gen_dag(default_dag_spec(n=100_000, p_x_observed=6, p_w=4, seed=11)))
fit = fit_total(design)
full = predict(fit, design, Variant.FULL).values
report = decompose(fit, design, Mode.TOTAL)
np.savez(
    sys.argv[1],
    coefficients=fit.coefficients,
    lambdas=np.concatenate([fit.lambda_sx_for_wb.ravel(), fit.lambda_x_for_s.ravel()]),
    full=full,
    total=predict(fit, design, Variant.TOTAL).values,
    components=np.column_stack([report.component(name) for name in COMPONENT_NAMES]),
    scores=[impartiality_score(full, design, design.y, mode) for mode in ScoreMode],
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
    suspect = as_all_suspect(design)
    views = {
        Variant.FULL: design, Variant.EXCLUDE_S: design, Variant.MARGINAL: design,
        Variant.TOTAL: design, Variant.FEO: as_all_legitimate(design),
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
        report = decompose(fit, rows, Mode.TOTAL)
        out[name] = np.column_stack([report.component(c) for c in COMPONENT_NAMES])
    full = out[Variant.FULL.value]
    out["scores"] = np.array([impartiality_score(full, design, design.y, m) for m in ScoreMode])
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
