"""Bootstrap-bagged regression trees: the demo black-box predictor.

Deliberately trained on every column including the sensitive block, so
its predictions need correcting. Trees grow breadth-first on quantile-
binned features with variance-reduction splits; all candidate splits of
one level are scored with two bincount passes, which keeps repeated
fitting inside cross-validation cheap. Deterministic under the seed.

Work is hoisted out of the level loop. Each fit bins the features once
into (feature, row) codes offset by ``feature * n_bins``, sorting each
column once: its quantile edges are the same order statistics read off
the sorted column, so they carry the same bits (but for the sign of a
zero edge, which no comparison sees), and its codes come from searching
the sorted column, scattered back. Each tree gathers its in-bag rows'
codes and their feature-tiled ``w`` and ``w*y`` once, in row-major order
(``take``, ``compress``) so that each level flattens them without a copy,
and gathers again only when a node stops splitting and its rows leave
the open set. Out-of-bag rows are routed to their nodes while the tree
grows, so ``fit`` reads every row's leaf directly. ``predict`` walks all
trees of the bag at once, ``BLOCK_ROWS`` rows at a time, on their joined
node tables; routing is integer work and the leaf values are added in
tree order into zeros, so the predictions keep their bits.

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

from ..errors import ContractError, DataError
from ..linalg import BLOCK_ROWS


def require_count(name: str, value, minimum: int) -> None:
    """ContractError naming ``name`` unless ``value`` is an integer (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ContractError(f"{name} must be at least {minimum}, got {value}")


class _Tree:
    __slots__ = ("feature", "split_bin", "left", "value", "depth")

    def __init__(self, feature, split_bin, left, value, depth):
        self.feature = feature
        self.split_bin = split_bin
        self.left = left
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
        codes = np.empty((x.shape[1], n), dtype=np.int64)
        self._edges = []
        for j in range(x.shape[1]):  # one sort gives edges and codes
            order = np.argsort(x[:, j])
            col = x[order, j]
            self._edges.append(np.unique(np.quantile(col, qs)))
            codes[j, order] = np.searchsorted(self._edges[j], col, side="right")
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
            np.add(oob_sum, values, out=oob_sum, where=oob)
            np.add(oob_count, 1, out=oob_count, where=oob)
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
        trees = self._trees
        first = np.cumsum([0] + [t.value.size for t in trees[:-1]])
        feature = np.concatenate([t.feature for t in trees])
        split_bin = np.concatenate([t.split_bin for t in trees])
        left = np.concatenate([t.left + f for t, f in zip(trees, first)])
        value = np.concatenate([t.value for t in trees])
        # a leaf sends every code left, to itself: rows stay at their leaf
        leaf = np.flatnonzero(feature < 0)
        feature[leaf], split_bin[leaf], left[leaf] = 0, self.n_bins, leaf
        depth = max(t.depth for t in trees)
        total = np.zeros(x.shape[0])
        for lo in range(0, x.shape[0], BLOCK_ROWS):
            block = codes[:, lo : lo + BLOCK_ROWS]
            m = block.shape[1]
            flat, at, rows = block.ravel(), feature * m, np.arange(m)
            node = np.repeat(first[:, None], m, axis=1)  # (trees, rows)
            for _ in range(depth):
                node = left[node] + (flat[at[node] + rows] > split_bin[node])
            for tree_values in value[node]:
                total[lo : lo + m] += tree_values
        return total / len(trees)

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
        codes_in = np.take(offset_codes, inbag, axis=1)
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
                codes_in = np.compress(keep_in, codes_in, axis=1)
                w_in = np.compress(keep_in, w_in.reshape(n_feat, -1), axis=1).ravel()
                wy_in = np.compress(keep_in, wy_in.reshape(n_feat, -1), axis=1).ravel()
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
        node by more than a relative 1e-9. Bag weights are integers, so a
        feature's last bin sums to the node's weight exactly and ``min_leaf
        >= 1`` blocks it. The flat argmax sends ties to the lowest feature,
        then the lowest bin. Histograms become their cumulative sums.
        """
        n_nodes, _, bins = cnt.shape
        tot_c = cnt[:, 0].sum(axis=1)
        tot_s = summ[:, 0].sum(axis=1)
        c_left = np.cumsum(cnt, axis=2, out=cnt)
        s_left = np.cumsum(summ, axis=2, out=summ)
        other = tot_c[:, None, None] - c_left  # c_right
        blocked = (c_left < self.min_leaf) | (other < self.min_leaf)
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
        feat, cut = np.divmod(best, bins)
        return splits, feat, cut, c_left, s_left, tot_c, tot_s

    def _pack(self, feature, split_bin, left, value) -> _Tree:
        """Join the per-level node arrays; the last level is all leaves.
        An internal node's right child is ``left + 1``; it is not stored."""
        leaves = [np.full(value[-1].size, -1, dtype=np.int64)]
        feature, split_bin, left = (np.concatenate(a + leaves) for a in (feature, split_bin, left))
        return _Tree(feature, split_bin, left, np.concatenate(value), len(value) - 1)


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise DataError(f"{what} contain NaN or infinite values")
