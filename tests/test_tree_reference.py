"""The tree kernel against a reference grower, bit for bit.

``reference_fit`` is the straightforward fit path the kernel in
``impartial.harness.trees`` replaced: every level rebuilds the node×feature
histogram index from the raw codes and repeats the weights, scores with
``np.where``, records splits node by node, and every tree is routed over
all rows again after it is grown. The kernel must give the same trees,
predictions and out-of-bag values, to the last bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impartial.data import assemble
from impartial.harness import BaggedTrees, gen_wine_like
from impartial.linalg import BLOCK_ROWS


def _ref_bin(edges, x):
    codes = np.zeros(x.shape, dtype=np.int64)
    for j, e in enumerate(edges):
        codes[:, j] = np.searchsorted(e, x[:, j], side="right")
    return codes


def _ref_grow(codes, y, w, max_depth, min_leaf, bins, fallback):
    n, n_feat = codes.shape
    feature = [-1]
    split_bin = [-1]
    left = [-1]
    right = [-1]
    w_total = float(w.sum())
    value = [float(w @ y / w_total) if w_total > 0 else fallback]

    loc = np.where(w > 0, 0, -1)  # level-local node per row; -1 = settled
    level = [0]  # global ids of this level's nodes
    if n_feat == 0:
        return feature, split_bin, left, right, value

    feat_offsets = np.arange(n_feat, dtype=np.int64)[None, :] * bins
    for _ in range(max_depth):
        n_nodes = len(level)
        rows = np.where(loc >= 0)[0]
        if rows.size == 0 or n_nodes == 0:
            break
        comb = (loc[rows, None] * (n_feat * bins) + feat_offsets) + codes[rows]
        flat = comb.ravel()
        size = n_nodes * n_feat * bins
        cnt = np.bincount(flat, weights=np.repeat(w[rows], n_feat), minlength=size)
        summ = np.bincount(
            flat, weights=np.repeat(w[rows] * y[rows], n_feat), minlength=size
        )
        cnt = cnt.reshape(n_nodes, n_feat, bins)
        summ = summ.reshape(n_nodes, n_feat, bins)
        c_left = np.cumsum(cnt, axis=2)[:, :, :-1]
        s_left = np.cumsum(summ, axis=2)[:, :, :-1]
        tot_c = cnt.sum(axis=2)[:, 0]
        tot_s = summ.sum(axis=2)[:, 0]
        c_right = tot_c[:, None, None] - c_left
        s_right = tot_s[:, None, None] - s_left
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(
                (c_left >= min_leaf) & (c_right >= min_leaf),
                s_left**2 / c_left + s_right**2 / c_right,
                -np.inf,
            )
        flat_score = score.reshape(n_nodes, -1)
        best = flat_score.argmax(axis=1)
        best_score = flat_score[np.arange(n_nodes), best]
        base = tot_s**2 / np.maximum(tot_c, 1e-300)
        splits = best_score > base + 1e-9 * (1.0 + np.abs(base))

        if not splits.any():
            loc[rows] = -1
            break

        best_feat, best_bin = np.divmod(best, bins - 1)
        child_left = np.full(n_nodes, -1, dtype=np.int64)
        child_right = np.full(n_nodes, -1, dtype=np.int64)
        next_level = []
        for l in np.where(splits)[0]:
            g = level[l]
            f, b = int(best_feat[l]), int(best_bin[l])
            cl = float(c_left[l, f, b])
            sl = float(s_left[l, f, b])
            gid = len(value)
            feature[g] = f
            split_bin[g] = b
            left[g] = gid
            right[g] = gid + 1
            for val in (sl / cl, (tot_s[l] - sl) / (tot_c[l] - cl)):
                feature.append(-1)
                split_bin.append(-1)
                left.append(-1)
                right.append(-1)
                value.append(float(val))
            child_left[l] = len(next_level)
            next_level.append(gid)
            child_right[l] = len(next_level)
            next_level.append(gid + 1)

        parent = loc[rows]
        parent_split = splits[parent]
        f_of = best_feat[parent]
        go_left = codes[rows, f_of] <= best_bin[parent]
        new_loc = np.where(go_left, child_left[parent], child_right[parent])
        loc[rows] = np.where(parent_split, new_loc, -1)
        level = next_level

    return feature, split_bin, left, right, value


def _ref_route(tree, depth, codes):
    feature, split_bin, left, right, value = tree
    node = np.zeros(codes.shape[0], dtype=np.int64)
    for _ in range(depth):
        feat = feature[node]
        internal = feat >= 0
        if not internal.any():
            break
        rows = np.where(internal)[0]
        sub = node[rows]
        go_left = codes[rows, feature[sub]] <= split_bin[sub]
        node[rows] = np.where(go_left, left[sub], right[sub])
    return value[node]


def reference_fit(x, y, n_trees, max_depth, min_leaf, n_bins, seed):
    """Return (edges, trees, oob) as the reference grower computes them."""
    n = x.shape[0]
    fallback = float(y.mean())
    qs = np.arange(1, n_bins) / n_bins
    edges = [np.unique(np.quantile(x[:, j], qs)) for j in range(x.shape[1])]
    codes = _ref_bin(edges, x)
    rng = np.random.default_rng(seed)
    trees = []
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n)
    inbag_sum = np.zeros(n)
    for _ in range(n_trees):
        weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        grown = _ref_grow(codes, y, weights, max_depth, min_leaf, n_bins, fallback)
        tree = tuple(np.asarray(a, dtype=np.int64) for a in grown[:4]) + (
            np.asarray(grown[4], dtype=float),
        )
        trees.append(tree)
        values = _ref_route(tree, max_depth, codes)
        inbag_sum += values
        oob = weights == 0
        oob_sum[oob] += values[oob]
        oob_count[oob] += 1
    covered = oob_count > 0
    oob = np.where(
        covered, oob_sum / np.maximum(oob_count, 1), inbag_sum / n_trees
    )
    return edges, trees, oob


def reference_predict(edges, trees, max_depth, x):
    codes = _ref_bin(edges, x)
    total = np.zeros(x.shape[0])
    for tree in trees:
        total += _ref_route(tree, max_depth, codes)
    return total / len(trees)


def _node_depths(left):
    depth = np.zeros(left.size, dtype=np.int64)
    for g in range(left.size):  # children always follow their parent
        if left[g] >= 0:
            depth[left[g]] = depth[left[g] + 1] = depth[g] + 1
    return depth


def _closes_early(left, max_depth):
    """True if some level below max_depth holds both a leaf and a split."""
    depth = _node_depths(left)
    internal = left >= 0
    return any(
        internal[depth == d].any() and (~internal[depth == d]).any()
        for d in range(max_depth)
    )


def assert_matches_reference(x, y, x_test, **params):
    model = BaggedTrees(**params).fit(x, y)
    edges, trees, oob = reference_fit(x, y, **params)
    assert len(model._edges) == len(edges)
    for got, want in zip(model._edges, edges):  # the sign of a zero edge may differ
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    assert len(model._trees) == len(trees)
    for got, want in zip(model._trees, trees):
        feature, split_bin, left, right, value = want
        # the kernel stores no right child: it is always the left one's sibling
        assert right.tobytes() == np.where(left >= 0, left + 1, -1).tobytes()
        for name, ref in zip(("feature", "split_bin", "left", "value"),
                             (feature, split_bin, left, value)):
            arr = getattr(got, name)
            assert arr.dtype == ref.dtype, name
            assert arr.tobytes() == ref.tobytes(), name
    assert model.oob_train_predictions().tobytes() == oob.tobytes()
    want_pred = reference_predict(edges, trees, params["max_depth"], x_test)
    assert model.predict(x_test).tobytes() == want_pred.tobytes()
    return trees


def _wine_features(n, seed):
    raw = assemble(*gen_wine_like(n=n, seed=seed))
    return raw.z, raw.y


class TestKernelMatchesReference:
    def test_protocol_config(self):
        x, y = _wine_features(2000, seed=11)
        x_test, _ = _wine_features(500, seed=12)
        trees = assert_matches_reference(
            x, y, x_test, n_trees=20, max_depth=6, min_leaf=5, n_bins=64, seed=3
        )
        assert any(_closes_early(t[2], 6) for t in trees)

    def test_deep_trees_fine_bins(self):
        rng = np.random.default_rng(90)
        x = rng.standard_normal((300, 3))
        y = x[:, 0] - x[:, 1] ** 2 + 0.3 * rng.standard_normal(300)
        trees = assert_matches_reference(
            x, y, rng.standard_normal((100, 3)),
            n_trees=4, max_depth=16, min_leaf=1, n_bins=128, seed=5,
        )
        assert max(_node_depths(t[2]).max() for t in trees) > 6

    def test_constant_feature(self):
        rng = np.random.default_rng(91)
        x = np.column_stack([np.full(200, 3.0), rng.standard_normal(200)])
        y = 2.0 * x[:, 1] + rng.standard_normal(200)
        trees = assert_matches_reference(
            x, y, x[:50] + 0.1,
            n_trees=5, max_depth=5, min_leaf=5, n_bins=64, seed=6,
        )
        assert all(not np.any(t[0] == 0) for t in trees)

    def test_two_level_feature(self):
        rng = np.random.default_rng(92)
        x = (rng.random((250, 1)) > 0.4).astype(float)
        y = 1.5 * x[:, 0] + rng.standard_normal(250)
        assert_matches_reference(
            x, y, np.array([[0.0], [1.0], [0.5], [2.0]]),
            n_trees=5, max_depth=4, min_leaf=5, n_bins=64, seed=7,
        )

    def test_zero_features(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
        assert_matches_reference(
            np.zeros((5, 0)), y, np.zeros((3, 0)),
            n_trees=4, max_depth=6, min_leaf=5, n_bins=64, seed=8,
        )

    def test_fewer_rows_than_two_leaves(self):
        rng = np.random.default_rng(93)
        x = rng.standard_normal((7, 2))
        y = rng.standard_normal(7)
        trees = assert_matches_reference(
            x, y, rng.standard_normal((4, 2)),
            n_trees=6, max_depth=6, min_leaf=5, n_bins=64, seed=9,
        )
        assert all(t[4].size == 1 for t in trees)

    def test_node_closing_before_max_depth(self):
        # the left half is constant, so it stops splitting at depth 1
        # while the right half keeps going: the in-bag set is gathered again
        rng = np.random.default_rng(94)
        x = rng.uniform(-1, 1, size=(400, 2))
        y = np.where(x[:, 0] < 0, 1.0, np.sin(4 * x[:, 1]) + x[:, 0])
        trees = assert_matches_reference(
            x, y, rng.uniform(-1, 1, size=(100, 2)),
            n_trees=5, max_depth=6, min_leaf=3, n_bins=32, seed=10,
        )
        assert all(_closes_early(t[2], 6) for t in trees)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 120),
        p=st.integers(0, 4),
        levels=st.integers(2, 6),
        max_depth=st.integers(1, 7),
        min_leaf=st.integers(1, 6),
        n_bins=st.integers(2, 40),
        seed=st.integers(0, 2**16),
    )
    def test_random_configs(self, n, p, levels, max_depth, min_leaf, n_bins, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=(n, p)).astype(float)
        x[:, : p // 2] += rng.standard_normal((n, p // 2))
        y = rng.standard_normal(n) + (x[:, 0] if p else 0.0)
        assert_matches_reference(
            x, y, rng.standard_normal((9, p)),
            n_trees=3, max_depth=max_depth, min_leaf=min_leaf,
            n_bins=n_bins, seed=seed,
        )

    def test_prediction_over_several_row_blocks(self):
        rng = np.random.default_rng(95)
        x = rng.standard_normal((600, 3))
        y = np.sin(2 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.2 * rng.standard_normal(600)
        x_test = rng.standard_normal((2 * BLOCK_ROWS + 808, 3))
        assert_matches_reference(
            x, y, x_test, n_trees=7, max_depth=6, min_leaf=3, n_bins=32, seed=11,
        )

    def test_signed_zeros_on_quantile_positions(self):
        # half of the column is zero of either sign, so several quantiles
        # fall on zeros, and the test rows hold both signs too; at this seed
        # the sorted column's zero edge has the other sign
        rng = np.random.default_rng(4)
        signs = rng.choice([-0.0, 0.0], size=400)
        x = np.column_stack([
            np.where(rng.random(400) < 0.5, signs, rng.standard_normal(400)),
            rng.standard_normal(400),
        ])
        y = (x[:, 0] > 0) + x[:, 1] + 0.1 * rng.standard_normal(400)
        x_test = np.column_stack([np.tile([-0.0, 0.0, 1e-300, -1e-300], 25),
                                  rng.standard_normal(100)])
        assert np.count_nonzero(np.quantile(x[:, 0], np.arange(1, 16) / 16) == 0) > 1
        assert_matches_reference(
            x, y, x_test, n_trees=5, max_depth=5, min_leaf=2, n_bins=16, seed=12,
        )

    def test_values_equal_to_edges(self):
        # few distinct values, so the edges are data values, and the test
        # rows sit exactly on every edge and one step to either side
        rng = np.random.default_rng(97)
        x = rng.integers(0, 9, size=(500, 2)) * 0.25
        y = x[:, 0] - x[:, 1] ** 2 + rng.standard_normal(500)
        on = np.unique(np.quantile(x[:, 0], np.arange(1, 8) / 8))
        cells = np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)])
        x_test = np.column_stack([cells, cells[::-1]])
        assert_matches_reference(
            x, y, x_test, n_trees=5, max_depth=5, min_leaf=4, n_bins=8, seed=13,
        )

    def test_more_bins_than_distinct_values(self):
        rng = np.random.default_rng(98)
        x = np.column_stack([rng.integers(0, 5, 300).astype(float),
                             rng.standard_normal(300)])
        y = x[:, 0] + np.abs(x[:, 1]) + rng.standard_normal(300)
        assert_matches_reference(
            x, y, np.column_stack([np.arange(-1.0, 6.0), np.zeros(7)]),
            n_trees=5, max_depth=6, min_leaf=3, n_bins=128, seed=14,
        )
