import numpy as np
import pytest

from impartial.data import EncodedDesign, encode
from impartial.harness import gen_simple_example, simple_example_schema
from impartial.linalg import column_center


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
        centered, means = column_center(block)
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
