import sys

import numpy as np
import pytest
from hypothesis import settings

from impartial.data import EncodedDesign, RoleView, encode
from impartial.estimators import VARIANTS, Variant, fit_total, predict
from impartial.harness import gen_simple_example, simple_example_schema

# The check to run before changing the CSV writer: its property tests at
# 100 times the default number of examples, e.g.
# pytest tests/test_csv_io.py -k TestCellBytes --hypothesis-profile=formatter
settings.register_profile("formatter", max_examples=100 * settings.default.max_examples)


def modules_holding(fn) -> list:
    """Every loaded ``impartial`` module whose global ``fn.__name__`` is
    ``fn``: the places a patch of ``fn`` must reach to reach every caller."""
    return [m for name, m in sorted(sys.modules.items())
            if (name == "impartial" or name.startswith("impartial."))
            and getattr(m, fn.__name__, None) is fn]


def build_design(y, s=None, x=None, w=None, b=None, group_labels=None) -> EncodedDesign:
    """Assemble an EncodedDesign directly from raw numpy blocks.

    Blocks are centered here, each on its own, and stacked into one design
    with ``EncodedDesign.from_blocks``; labels are synthesized. Convenient for
    random-design tests that don't need the CSV/schema machinery.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]

    def prep(block, prefix):
        block = np.asarray(block, dtype=float)
        if block.ndim == 1:
            block = block.reshape(-1, 1)
        means = block.mean(axis=0)
        centered = block - means
        labels = tuple(f"{prefix}{j}" for j in range(block.shape[1]))
        return list(centered.T), labels, means

    blocks = {
        key: prep(block, key)
        for key, block in zip("sxwb", (s, x, w, b))
        if block is not None
    }
    if group_labels is None:
        if s is not None and blocks["s"][1]:
            raw = blocks["s"][0][0] + blocks["s"][2][0]
            group_labels = tuple("g1" if v > np.median(raw) else "g0" for v in raw)
        else:
            group_labels = tuple("" for _ in range(n))
    return EncodedDesign.from_blocks(y, blocks, group_labels)


def random_design(rng, n=200, p_s=2, p_x=3, p_w=2, correlated=True):
    """Random blocks with cross-correlation between S, X, and W."""
    s = rng.standard_normal((n, p_s))
    x = rng.standard_normal((n, p_x))
    w = rng.standard_normal((n, p_w))
    if correlated and p_s:
        if p_x:
            x += s @ rng.uniform(-0.8, 0.8, size=(p_s, p_x))
        if p_w:
            w += s @ rng.uniform(-0.8, 0.8, size=(p_s, p_w))
            if p_x:
                w += x @ rng.uniform(-0.4, 0.4, size=(p_x, p_w))
    y = (
        s @ rng.uniform(-1, 1, size=p_s)
        + x @ rng.uniform(-1, 1, size=p_x)
        + w @ rng.uniform(-1, 1, size=p_w)
        + rng.standard_normal(n)
    )
    return build_design(y, s=s, x=x if p_x else None, w=w if p_w else None)


@pytest.fixture(scope="session")
def table1_data():
    return gen_simple_example()


@pytest.fixture(scope="session")
def table1_schema():
    return simple_example_schema()


@pytest.fixture(scope="session")
def table1_design(table1_data, table1_schema):
    return encode(table1_data, table1_schema)


def cell_values(data, values) -> dict:
    """Map (edu, group) -> the single predicted value in that cell."""
    out = {}
    for i, (e, g) in enumerate(zip(data.columns["edu"], data.columns["group"])):
        key = (e, g)
        if key in out:
            assert abs(out[key] - values[i]) < 1e-9
        out[key] = float(values[i])
    return out


def assert_view_of_fit_is_fit_of_view(design):
    """Under every view of ``design``, each variant ``predict`` makes from
    one fit gives the bits of a fit under the variant's own view, and the
    view of the fit derives the regressions of the fit of the view."""
    variants = [v for v, (_, rule, _) in VARIANTS.items() if rule is not Variant.CALDERS_BASELINE]
    for base in RoleView:
        d = base(design)
        fit = fit_total(d)
        for variant in variants:
            if variant is Variant.BLACKBOX_CORRECTED and not d.b_labels:
                continue
            view = VARIANTS[variant][2]
            got = predict(fit, d, variant).values
            want = predict(fit_total(view(d)), view(d), variant).values
            assert got.tobytes() == want.tobytes(), (base, variant)
        for view in RoleView:
            viewed, refit = view(fit), fit_total(view(d))
            assert viewed.widths == refit.widths
            assert viewed.dropped_labels == refit.dropped_labels
            for name in ("coefficients", "lambda_sx_for_wb", "lambda_x_for_s", "marginal_coefs"):
                assert getattr(viewed, name).tobytes() == getattr(refit, name).tobytes(), name
