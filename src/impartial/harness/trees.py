"""Bootstrap-bagged regression trees: the demo black-box predictor.

Deliberately trained on every column including the sensitive block, so
its predictions need correcting. Trees grow breadth-first on quantile-
binned features with variance-reduction splits; all candidate splits of
one level are scored with two bincount passes, which keeps repeated
fitting inside cross-validation cheap. Deterministic under the seed.
"""

from __future__ import annotations

import numpy as np

from ..data import EncodedDesign
from ..errors import ContractError


def raw_features(design: EncodedDesign) -> np.ndarray:
    """Un-centered [S|X|W|B] feature matrix (tree thresholds need raw units)."""
    return design.z + design.column_means


class _Tree:
    __slots__ = ("feature", "split_bin", "left", "right", "value", "depth")

    def __init__(self, feature, split_bin, left, right, value, depth):
        self.feature = feature
        self.split_bin = split_bin
        self.left = left
        self.right = right
        self.value = value
        self.depth = depth


class BaggedTrees:
    """Bagged regression trees on quantile-binned features."""

    def __init__(
        self,
        n_trees: int = 50,
        max_depth: int = 8,
        min_leaf: int = 5,
        n_bins: int = 64,
        seed: int = 0,
    ):
        if n_trees < 1:
            raise ContractError("need at least one tree")
        if max_depth < 1 or min_leaf < 1 or n_bins < 2:
            raise ContractError("invalid tree parameters")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.n_bins = n_bins
        self.seed = seed
        self._edges: list[np.ndarray] | None = None
        self._trees: list[_Tree] = []
        self._fallback = 0.0
        self._oob = np.zeros(0)

    def fit(self, features, response) -> "BaggedTrees":
        x = np.asarray(features, dtype=float)
        y = np.asarray(response, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ContractError("features must be (n, p) and response (n,)")
        n = x.shape[0]
        if n < 1:
            raise ContractError("empty training data")
        self._fallback = float(y.mean())
        qs = np.arange(1, self.n_bins) / self.n_bins
        self._edges = [np.unique(np.quantile(x[:, j], qs)) for j in range(x.shape[1])]
        codes = self._bin(x)
        rng = np.random.default_rng(self.seed)
        self._trees = []
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n)
        inbag_sum = np.zeros(n)
        for _ in range(self.n_trees):
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
            tree = self._grow(codes, y, weights)
            self._trees.append(tree)
            values = self._route(tree, codes)
            inbag_sum += values
            oob = weights == 0
            oob_sum[oob] += values[oob]
            oob_count[oob] += 1
        covered = oob_count > 0
        self._oob = np.where(
            covered,
            oob_sum / np.maximum(oob_count, 1),
            inbag_sum / self.n_trees,
        )
        return self

    def oob_train_predictions(self) -> np.ndarray:
        """Per-training-row average over trees that did not sample the row.

        The preferred stacking input: in-bag predictions memorize the
        training response and overstate how much group signal the
        black-box carries. Rows in every bag (possible with few trees)
        fall back to the ordinary bagged prediction.
        """
        if self._edges is None:
            raise ContractError("predict before fit")
        return self._oob.copy()

    def predict(self, features) -> np.ndarray:
        if self._edges is None:
            raise ContractError("predict before fit")
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(self._edges):
            raise ContractError(
                f"features must have {len(self._edges)} columns, got {x.shape}"
            )
        codes = self._bin(x)
        total = np.zeros(x.shape[0])
        for tree in self._trees:
            total += self._route(tree, codes)
        return total / len(self._trees)

    def _bin(self, x: np.ndarray) -> np.ndarray:
        codes = np.zeros(x.shape, dtype=np.int64)
        for j, edges in enumerate(self._edges):
            codes[:, j] = np.searchsorted(edges, x[:, j], side="right")
        return codes

    def _grow(self, codes: np.ndarray, y: np.ndarray, w: np.ndarray) -> _Tree:
        n, n_feat = codes.shape
        bins = self.n_bins
        feature = [-1]
        split_bin = [-1]
        left = [-1]
        right = [-1]
        w_total = float(w.sum())
        value = [float(w @ y / w_total) if w_total > 0 else self._fallback]

        loc = np.where(w > 0, 0, -1)  # level-local node per row; -1 = settled
        level = [0]  # global ids of this level's nodes
        if n_feat == 0:
            return self._pack(feature, split_bin, left, right, value)

        feat_offsets = np.arange(n_feat, dtype=np.int64)[None, :] * bins
        for _ in range(self.max_depth):
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
                    (c_left >= self.min_leaf) & (c_right >= self.min_leaf),
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

        return self._pack(feature, split_bin, left, right, value)

    def _pack(self, feature, split_bin, left, right, value) -> _Tree:
        return _Tree(
            feature=np.asarray(feature, dtype=np.int64),
            split_bin=np.asarray(split_bin, dtype=np.int64),
            left=np.asarray(left, dtype=np.int64),
            right=np.asarray(right, dtype=np.int64),
            value=np.asarray(value, dtype=float),
            depth=self.max_depth,
        )

    def _route(self, tree: _Tree, codes: np.ndarray) -> np.ndarray:
        node = np.zeros(codes.shape[0], dtype=np.int64)
        for _ in range(tree.depth):
            feat = tree.feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            rows = np.where(internal)[0]
            sub = node[rows]
            go_left = codes[rows, tree.feature[sub]] <= tree.split_bin[sub]
            node[rows] = np.where(go_left, tree.left[sub], tree.right[sub])
        return tree.value[node]


def bagged_tree_predict(
    train: EncodedDesign,
    test: EncodedDesign,
    trees: int = 50,
    seed: int = 0,
    max_depth: int = 8,
    min_leaf: int = 5,
) -> np.ndarray:
    """Fit the demo black-box on the training design, predict the test rows."""
    model = BaggedTrees(
        n_trees=trees, max_depth=max_depth, min_leaf=min_leaf, seed=seed
    )
    model.fit(raw_features(train), train.y)
    return model.predict(raw_features(test))
