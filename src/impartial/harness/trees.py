"""Bootstrap-bagged regression trees: the demo black-box predictor.

Deliberately trained on every column including the sensitive block, so
its predictions need correcting. Trees grow breadth-first on quantile-
binned features with variance-reduction splits; all candidate splits of
one level are scored with two bincount passes, which keeps repeated
fitting inside cross-validation cheap. Deterministic under the seed.

Work is hoisted out of the level loop. Each fit bins the features once
into (feature, row) codes offset by ``feature * n_bins``. Each tree
gathers its in-bag rows' codes and their feature-tiled ``w`` and ``w*y``
once and reuses them on every level; it gathers again only when a node
stops splitting and its rows leave the open set. Out-of-bag rows are
routed to their nodes while the tree grows, so ``fit`` reads every
row's leaf directly; ``_route`` walks a grown tree only in ``predict``.

Every histogram is a ``bincount`` over the level's open in-bag rows, which
adds each bin's weights in row order. That order is part of the output:
the split scores compare sums of ``w*y``, and a sum rounded in another
order can pick another split. Deriving a child's histogram from its
parent's minus its sibling's (the LightGBM subtraction trick) re-rounds
those sums, and changed the grown trees in 12 of 40 fits at the protocol
size, so it is not used.
"""

from __future__ import annotations

import numpy as np

from ..data import EncodedDesign
from ..errors import ContractError, DataError


def require_count(name: str, value, minimum: int) -> None:
    """ContractError naming ``name`` unless ``value`` is an integer (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ContractError(f"{name} must be at least {minimum}, got {value}")


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
        require_count("n_trees", n_trees, 1)
        require_count("max_depth", max_depth, 1)
        require_count("min_leaf", min_leaf, 1)
        require_count("n_bins", n_bins, 2)
        require_count("seed", seed, 0)
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
        _require_finite(x, "features")
        _require_finite(y, "response")
        self._fallback = float(y.mean())
        qs = np.arange(1, self.n_bins) / self.n_bins
        self._edges = [np.unique(np.quantile(x[:, j], qs)) for j in range(x.shape[1])]
        codes = self._bin(x)
        codes += np.arange(x.shape[1], dtype=np.int64)[:, None] * self.n_bins
        rng = np.random.default_rng(self.seed)
        self._trees = []
        oob_sum = np.zeros(n)
        oob_count = np.zeros(n)
        inbag_sum = np.zeros(n)
        for _ in range(self.n_trees):
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
            tree, leaf = self._grow(codes, y, weights)
            self._trees.append(tree)
            values = tree.value[leaf]
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
        _require_finite(x, "features")
        codes = self._bin(x)
        total = np.zeros(x.shape[0])
        for tree in self._trees:
            total += self._route(tree, codes)
        return total / len(self._trees)

    def _bin(self, x: np.ndarray) -> np.ndarray:
        """(features, rows) bin codes: code c means edges[c-1] <= x < edges[c]."""
        codes = np.empty((len(self._edges), x.shape[0]), dtype=np.int64)
        for j, edges in enumerate(self._edges):
            codes[j] = np.searchsorted(edges, x[:, j], side="right")
        return codes

    def _grow(
        self, offset_codes: np.ndarray, y: np.ndarray, w: np.ndarray
    ) -> tuple[_Tree, np.ndarray]:
        """Grow one tree on bag weights ``w``; return it and every row's leaf.

        ``offset_codes[j]`` is feature j's bin codes plus ``j * n_bins``.
        ``rows`` holds the rows still in an open node, in-bag rows first and
        each part in row order, and ``loc`` their node within the level.
        The first ``m`` rows feed the histograms: their offset codes and
        feature-tiled weights are gathered once and gathered again only when
        a node closes. Out-of-bag rows are routed alongside, so every row's
        leaf is known when the tree is done.
        """
        n_feat, n = offset_codes.shape
        bins = self.n_bins
        w_total = float(w.sum())
        root = float(w @ y / w_total) if w_total > 0 else self._fallback
        leaf = np.zeros(n, dtype=np.int64)
        value = [np.array([root])]
        feature, split_bin, left = [], [], []
        if n_feat == 0:
            return self._pack(feature, split_bin, left, value), leaf

        inbag = np.flatnonzero(w)
        rows = np.concatenate((inbag, np.flatnonzero(w == 0)))
        loc = np.zeros(n, dtype=np.int64)
        m = inbag.size
        codes_in = offset_codes[:, inbag]
        w_in = np.tile(w[inbag], n_feat)
        wy_in = np.tile(w[inbag] * y[inbag], n_feat)
        stride = n_feat * bins
        start, n_nodes = 0, 1  # global id of the level's first node; its width
        for _ in range(self.max_depth):
            cnt, summ = self._histograms(
                codes_in, loc[:m] * stride, w_in, wy_in, n_nodes
            )
            splits, feat, cut, c_left, s_left, tot_c, tot_s = self._best_splits(
                cnt, summ
            )
            split_nodes = np.flatnonzero(splits)
            k = split_nodes.size
            if k == 0:
                break

            # children of the i-th splitting node are the consecutive ids
            # start + n_nodes + 2i (left) and + 1 (right)
            f, b = feat[split_nodes], cut[split_nodes]
            level = np.full((3, n_nodes), -1, dtype=np.int64)
            level[:, split_nodes] = f, b, start + n_nodes + 2 * np.arange(k)
            feature.append(level[0])
            split_bin.append(level[1])
            left.append(level[2])
            cl = c_left[split_nodes, f, b]
            sl = s_left[split_nodes, f, b]
            children = np.empty(2 * k)
            children[0::2] = sl / cl
            children[1::2] = (tot_s[split_nodes] - sl) / (tot_c[split_nodes] - cl)
            value.append(children)

            if k < n_nodes:  # rows of nodes that stay leaves settle there
                keep = splits[loc]
                closed = ~keep
                leaf[rows[closed]] = start + loc[closed]
                rows, loc = rows[keep], loc[keep]
                keep_in = keep[:m]
                m = int(np.count_nonzero(keep_in))
                codes_in = codes_in[:, keep_in]
                w_in = w_in.reshape(n_feat, -1)[:, keep_in].ravel()
                wy_in = wy_in.reshape(n_feat, -1)[:, keep_in].ravel()
            child = np.zeros(n_nodes, dtype=np.int64)
            child[split_nodes] = 2 * np.arange(k)
            offset_cut = cut + feat * bins
            go_right = np.take(offset_codes, feat[loc] * n + rows) > offset_cut[loc]
            loc = child[loc] + go_right
            start += n_nodes
            n_nodes = 2 * k
        leaf[rows] = start + loc
        return self._pack(feature, split_bin, left, value), leaf

    def _histograms(self, codes_in, node_offset, w_in, wy_in, n_nodes):
        """(nodes, features, bins) sums of weight and weight*response.

        The bin of (feature j, row i) is ``node_offset[i] + codes_in[j, i]``.
        ``bincount`` adds each bin's weights in row order, which the grown
        trees depend on (see the module docstring).
        """
        n_feat = codes_in.shape[0]
        flat = (codes_in + node_offset).ravel()
        shape = (n_nodes, n_feat, self.n_bins)
        size = n_nodes * n_feat * self.n_bins
        return (
            np.bincount(flat, weights=w_in, minlength=size).reshape(shape),
            np.bincount(flat, weights=wy_in, minlength=size).reshape(shape),
        )

    def _best_splits(self, cnt: np.ndarray, summ: np.ndarray):
        """Best variance-reduction split of every node of one level.

        A split at bin b sends codes <= b left. It scores
        s_left**2/c_left + s_right**2/c_right, is allowed when both sides
        keep ``min_leaf`` weight, and is taken when it beats the unsplit
        node by more than a relative 1e-9. Ties go to the lowest feature,
        then the lowest bin. The histograms are overwritten by their
        cumulative sums.
        """
        n_nodes, _, bins = cnt.shape
        tot_c = cnt[:, 0].sum(axis=1)
        tot_s = summ[:, 0].sum(axis=1)
        c_left = np.cumsum(cnt, axis=2, out=cnt)[:, :, :-1]
        s_left = np.cumsum(summ, axis=2, out=summ)[:, :, :-1]
        other = tot_c[:, None, None] - c_left  # c_right
        blocked = c_left < self.min_leaf
        blocked |= other < self.min_leaf
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.subtract(tot_s[:, None, None], s_left)  # s_right
            np.square(score, out=score)
            score /= other
            np.square(s_left, out=other)
            other /= c_left
            score += other
        score[blocked] = -np.inf
        flat_score = score.reshape(n_nodes, -1)
        best = flat_score.argmax(axis=1)
        best_score = flat_score[np.arange(n_nodes), best]
        base = tot_s**2 / np.maximum(tot_c, 1e-300)
        splits = best_score > base + 1e-9 * (1.0 + np.abs(base))
        feat, cut = np.divmod(best, bins - 1)
        return splits, feat, cut, c_left, s_left, tot_c, tot_s

    def _pack(self, feature, split_bin, left, value) -> _Tree:
        """Join the per-level node arrays; the last level is all leaves."""
        width = value[-1].size
        left = np.concatenate(left + [np.full(width, -1, dtype=np.int64)])
        return _Tree(
            feature=np.concatenate(feature + [np.full(width, -1, dtype=np.int64)]),
            split_bin=np.concatenate(split_bin + [np.full(width, -1, dtype=np.int64)]),
            left=left,
            right=np.where(left >= 0, left + 1, -1),
            value=np.concatenate(value),
            depth=self.max_depth,
        )

    def _route(self, tree: _Tree, codes: np.ndarray) -> np.ndarray:
        node = np.zeros(codes.shape[1], dtype=np.int64)
        for _ in range(tree.depth):
            feat = tree.feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            rows = np.where(internal)[0]
            sub = node[rows]
            go_left = codes[tree.feature[sub], rows] <= tree.split_bin[sub]
            node[rows] = np.where(go_left, tree.left[sub], tree.right[sub])
        return tree.value[node]


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise DataError(f"{what} contain NaN or infinite values")


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
