import numpy as np
import pytest

from conftest import build_design
from impartial.errors import ContractError, DataError
from impartial.harness import BaggedTrees, bagged_tree_predict
from impartial.harness.trees import raw_features


class TestBaggedTrees:
    def test_constant_response_gives_constant_predictions(self):
        rng = np.random.default_rng(80)
        x = rng.standard_normal((100, 3))
        y = np.full(100, 2.5)
        model = BaggedTrees(n_trees=5, seed=1).fit(x, y)
        np.testing.assert_allclose(model.predict(x), 2.5, atol=1e-12)

    def test_single_deep_tree_memorizes(self):
        rng = np.random.default_rng(81)
        x = rng.standard_normal((50, 2))
        y = rng.standard_normal(50)
        model = BaggedTrees(n_trees=1, max_depth=16, min_leaf=1, n_bins=128, seed=2)
        model.fit(x, y)
        pred = model.predict(x)
        # bootstrap leaves ~1/3 of rows out of bag; in-bag rows are recovered
        weights_seen = pred - y
        assert np.median(np.abs(weights_seen)) < 0.35 * y.std()

    def test_learns_a_step_function(self):
        rng = np.random.default_rng(82)
        x = rng.uniform(-1, 1, size=(500, 1))
        y = np.where(x[:, 0] > 0.2, 3.0, -1.0)
        model = BaggedTrees(n_trees=20, max_depth=3, seed=3).fit(x, y)
        pred = model.predict(x)
        assert np.sqrt(np.mean((pred - y) ** 2)) < 0.3

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(83)
        x = rng.standard_normal((200, 4))
        y = x @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.standard_normal(200)
        a = BaggedTrees(n_trees=10, seed=7).fit(x, y).predict(x)
        b = BaggedTrees(n_trees=10, seed=7).fit(x, y).predict(x)
        np.testing.assert_array_equal(a, b)
        c = BaggedTrees(n_trees=10, seed=8).fit(x, y).predict(x)
        assert not np.array_equal(a, c)

    def test_parameter_validation(self):
        with pytest.raises(ContractError):
            BaggedTrees(n_trees=0)
        with pytest.raises(ContractError):
            BaggedTrees(max_depth=0)

    @pytest.mark.parametrize(
        "param, value",
        [
            ("n_trees", 2.5),
            ("max_depth", 6.0),
            ("min_leaf", "5"),
            ("n_bins", None),
            ("n_trees", True),
            ("seed", 2.5),
        ],
    )
    def test_non_integer_parameters_rejected(self, param, value):
        with pytest.raises(ContractError, match=param):
            BaggedTrees(**{param: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractError):
            BaggedTrees(seed=-1)

    def test_numpy_integer_parameters_accepted(self):
        model = BaggedTrees(n_trees=np.int64(2), max_depth=np.int32(3))
        assert (model.n_trees, model.max_depth) == (2, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        rng = np.random.default_rng(87)
        x = rng.standard_normal((30, 2))
        x[4, 1] = bad
        with pytest.raises(DataError, match="features"):
            BaggedTrees(n_trees=2).fit(x, rng.standard_normal(30))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_response_rejected(self, bad):
        rng = np.random.default_rng(88)
        y = rng.standard_normal(30)
        y[7] = bad
        with pytest.raises(DataError, match="response"):
            BaggedTrees(n_trees=2).fit(rng.standard_normal((30, 2)), y)

    def test_non_finite_predict_rows_rejected(self):
        rng = np.random.default_rng(89)
        model = BaggedTrees(n_trees=2).fit(
            rng.standard_normal((30, 2)), rng.standard_normal(30)
        )
        x = rng.standard_normal((5, 2))
        x[2, 0] = np.nan
        with pytest.raises(DataError, match="features"):
            model.predict(x)

    def test_empty_training_rejected(self):
        with pytest.raises(ContractError):
            BaggedTrees(n_trees=2).fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ContractError):
            BaggedTrees().predict(np.zeros((3, 2)))

    def test_feature_count_checked(self):
        rng = np.random.default_rng(84)
        model = BaggedTrees(n_trees=2, seed=0).fit(rng.standard_normal((20, 3)), rng.standard_normal(20))
        with pytest.raises(ContractError):
            model.predict(rng.standard_normal((5, 2)))

    def test_no_features_predicts_mean(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        model = BaggedTrees(n_trees=3, seed=0).fit(np.zeros((4, 0)), y)
        pred = model.predict(np.zeros((2, 0)))
        assert np.all(np.abs(pred - y.mean()) < 1.5)  # bootstrap means vary a bit

    def test_oob_predictions_differ_from_inbag(self):
        rng = np.random.default_rng(85)
        x = rng.standard_normal((300, 3))
        y = x @ np.array([1.0, 0.5, -0.5]) + 0.2 * rng.standard_normal(300)
        model = BaggedTrees(n_trees=25, max_depth=8, min_leaf=2, seed=9).fit(x, y)
        inbag = model.predict(x)
        oob = model.oob_train_predictions()
        assert oob.shape == (300,)
        rmse_in = np.sqrt(np.mean((inbag - y) ** 2))
        rmse_oob = np.sqrt(np.mean((oob - y) ** 2))
        assert rmse_oob > rmse_in  # oob is honestly noisier


class TestDesignWrapper:
    def test_raw_features_uncenters(self, table1_design):
        feats = raw_features(table1_design)
        assert feats.shape == (1000, 2)
        assert set(np.unique(feats)) == {0.0, 1.0}

    def test_bagged_tree_predict_uses_sensitive_columns(self):
        # response depends only on the group: the trees must pick it up
        rng = np.random.default_rng(86)
        s = (rng.standard_normal(400) > 0).astype(float)
        y = 2.0 * s + 0.05 * rng.standard_normal(400)
        design = build_design(
            y, s=s, x=rng.standard_normal((400, 2)),
            group_labels=["g1" if v else "g0" for v in s],
        )
        pred = bagged_tree_predict(design, design, trees=10, seed=4, max_depth=3)
        gap = pred[s == 1].mean() - pred[s == 0].mean()
        assert gap == pytest.approx(2.0, abs=0.2)

    def test_trees_parameter_validated(self, table1_design):
        with pytest.raises(ContractError):
            bagged_tree_predict(table1_design, table1_design, trees=0)
