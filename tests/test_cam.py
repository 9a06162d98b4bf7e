"""Approximation-model tests: features, OLS, selection, published sets."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdmtsp.cam import (
    PUBLISHED_3F,
    PUBLISHED_9F,
    PUBLISHED_16F,
    TERMS,
    CamModel,
    Configuration,
    SweepResult,
    backward_select,
    feature_matrix,
    fit_ols,
    metrics,
    model_from_json,
    model_to_json,
    predict,
    published_models,
    step_model,
    sweep_configs,
    sweep_from_csv,
    sweep_to_csv,
)
from bdmtsp.core import BdmtspError

import reference

# Coefficient tables typed in a second pass, independently of the module
# constants, so a transcription slip in either copy fails loudly.
TABLE_3F = (
    ((0.0, 1.0, 0.0), 0.391),
    ((0.0, 1.0, 0.5), -0.055),
    ((1.0, 1.0, 1.0), 2.33e-4),
)
TABLE_9F = (
    ((0.5, 0.0, 0.5), 0.52829),
    ((0.0, 1.0, 0.0), 0.29958),
    ((1.0, 1.0, 0.0), 0.17818),
    ((1.0, 1.0, 0.5), -0.08168),
    ((0.0, 1.0, 0.5), -0.03651),
    ((2.0, 1.0, 0.0), -0.02354),
    ((2.0, 1.0, 0.5), 0.01102),
    ((1.0, 1.0, 1.0), 0.00927),
    ((2.0, 1.0, 1.0), -0.00126),
)
TABLE_16F = (
    ((0.5, 1.0, 0.0), -2.82526),
    ((0.0, 1.0, 0.0), 1.93401),
    ((1.0, 1.0, 0.0), 1.56537),
    ((0.5, 1.0, 0.5), 1.40787),
    ((1.0, 1.0, 0.5), -0.82816),
    ((0.0, 1.0, 0.5), -0.81389),
    ((0.5, 0.0, 0.5), 0.52925),
    ((0.5, 1.0, 1.0), -0.17718),
    ((1.0, 1.0, 1.0), 0.11576),
    ((2.0, 1.0, 0.0), -0.10610),
    ((0.0, 1.0, 1.0), 0.08903),
    ((2.0, 1.0, 0.5), 0.06008),
    ((2.0, 1.0, 1.0), -0.00922),
    ((1.0, 1.0, 2.0), -0.00053),
    ((0.5, 1.0, 2.0), 0.00041),
    ((2.0, 1.0, 2.0), 0.00006),
)


class TestFeatureMap:
    def test_default_has_64_terms_in_odometer_order(self):
        assert len(TERMS) == 64
        assert TERMS[0] == (0.0, 0.0, 0.0)
        assert TERMS[1] == (0.0, 0.0, 0.5)
        assert TERMS[4] == (0.0, 0.5, 0.0)
        assert TERMS[16] == (0.5, 0.0, 0.0)
        assert TERMS[63] == (2.0, 2.0, 2.0)
        assert len(set(TERMS)) == 64

    def test_matrix_values(self):
        X = feature_matrix([Configuration(2, 3, 4)])
        assert X.shape == (1, 64)
        assert X[0, 0] == 1.0  # 0^0 convention on every base
        assert X[0, 63] == pytest.approx(4.0 * 9.0 * 16.0)
        j = TERMS.index((0.5, 1.0, 0.5))
        assert X[0, j] == pytest.approx(math.sqrt(2) * 3 * 2)

    def test_matrix_rejects_empty(self):
        with pytest.raises(BdmtspError):
            feature_matrix([])

    def test_configuration_must_be_positive(self):
        with pytest.raises(BdmtspError):
            Configuration(0, 50, 5)


class TestFitOls:
    def test_exact_recovery(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b_true = np.array([2.0, 3.0])
        b = fit_ols(X, X @ b_true)
        assert np.allclose(b, b_true, atol=1e-12)

    def test_minimum_norm_on_duplicate_columns(self):
        # identical columns: the minimum-norm solution splits the weight
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        b = fit_ols(X, np.array([2.0, 4.0, 6.0]))
        assert np.allclose(b, [1.0, 1.0], atol=1e-10)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 4))
        y = rng.standard_normal(40)
        b = fit_ols(X, y)
        b_gd = reference.descend_least_squares(X.tolist(), y.tolist())
        assert np.allclose(b, b_gd, atol=1e-6)

    def test_validation(self):
        with pytest.raises(BdmtspError):
            fit_ols(np.ones((2, 3)), np.ones(2))  # wide
        with pytest.raises(BdmtspError):
            fit_ols(np.ones((3, 2)), np.ones(2))  # mismatch
        with pytest.raises(BdmtspError):
            fit_ols(np.array([[1.0], [math.nan]]), np.ones(2))
        with pytest.raises(BdmtspError):
            fit_ols(np.ones(3), np.ones(3))  # 1-D design


class TestMetrics:
    def test_hand_case_constant_y(self):
        out = metrics([1.0, 1.0], [2.0, 0.0], p=1, sigma2=1.0)
        assert out["rmse_std"] == pytest.approx(1.0)
        assert out["rmse_paper"] == pytest.approx(math.sqrt(2) / 2)
        assert out["mape"] == pytest.approx(1.0)
        assert out["cp"] == pytest.approx(2.0)
        assert out["aic"] == pytest.approx(2.0)  # 2*ln(1) + 2
        assert out["bic"] == pytest.approx(math.log(2.0))
        assert math.isnan(out["adj_r2"])  # zero total variation

    def test_hand_case_generic(self):
        out = metrics([1.0, 2.0, 4.0], [1.0, 1.0, 5.0], p=1)
        assert out["rmse_std"] == pytest.approx(math.sqrt(2.0 / 3.0))
        assert out["rmse_paper"] == pytest.approx(math.sqrt(2.0) / 3.0)
        assert out["mape"] == pytest.approx(0.25)
        assert math.isnan(out["cp"])  # no residual variance supplied
        assert out["aic"] == pytest.approx(3 * math.log(2.0 / 3.0) + 2)
        assert out["bic"] == pytest.approx(3 * math.log(2.0 / 3.0) + math.log(3.0))
        assert out["adj_r2"] == pytest.approx(1.0 / 7.0)

    def test_perfect_fit(self):
        out = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], p=1)
        assert out["rmse_std"] == 0.0
        assert out["mape"] == 0.0
        assert out["aic"] == -math.inf
        assert out["bic"] == -math.inf
        assert out["adj_r2"] == pytest.approx(1.0)

    def test_rmse_variants_differ_by_sqrt_n(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(1, 10, size=25)
        yhat = y + rng.normal(size=25)
        out = metrics(y, yhat, p=4)
        assert out["rmse_paper"] == pytest.approx(out["rmse_std"] / math.sqrt(25))

    @given(scale=st.floats(min_value=0.1, max_value=1e4))
    def test_mape_scale_invariant(self, scale):
        y = np.array([1.0, 2.0, 5.0, 9.0])
        yhat = np.array([1.5, 1.5, 6.0, 8.0])
        a = metrics(y, yhat, p=1)["mape"]
        b = metrics(scale * y, scale * yhat, p=1)["mape"]
        assert b == pytest.approx(a, rel=1e-9)

    def test_validation(self):
        with pytest.raises(BdmtspError):
            metrics([0.0, 1.0], [1.0, 1.0], p=1)  # zero observation
        with pytest.raises(BdmtspError):
            metrics([1.0, 2.0], [1.0, 2.0], p=2)  # p >= n
        with pytest.raises(BdmtspError):
            metrics([1.0, 2.0], [1.0], p=1)


class TestBackwardSelect:
    def test_recovers_planted_two_feature_model(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0.5, 2.0, size=(50, 5))
        y = X @ np.array([0.0, 3.0, 0.0, -2.0, 0.0])
        steps = backward_select(X, y)
        assert [len(s.feature_idx) for s in steps] == [1, 2, 3, 4, 5]
        two = steps[1]
        assert two.feature_idx == (1, 3)
        assert two.sse < 1e-18
        assert np.allclose(two.coef, [3.0, -2.0], atol=1e-9)
        full = steps[-1]
        assert np.allclose(full.coef, [0.0, 3.0, 0.0, -2.0, 0.0], atol=1e-9)

    def test_sse_never_improves_as_features_drop(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 6))
            y = rng.standard_normal(30)
            steps = backward_select(X, y)
            for small, big in zip(steps, steps[1:]):
                assert small.sse >= big.sse - 1e-9 * max(1.0, big.sse)

    def test_recorded_fit_is_consistent(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(1.0, 3.0, size=(25, 4))
        y = rng.uniform(1.0, 9.0, size=25)
        for step in backward_select(X, y):
            yhat = X[:, list(step.feature_idx)] @ np.array(step.coef)
            sse = float(np.sum((y - yhat) ** 2))
            assert sse == pytest.approx(step.sse, rel=1e-9, abs=1e-12)
            assert step.stats["rmse_std"] ** 2 * 25 == pytest.approx(sse, rel=1e-9)

    def test_cp_uses_full_model_variance(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 3))
        y = X @ np.array([1.0, -1.0, 0.5]) + rng.normal(scale=0.1, size=20)
        steps = backward_select(X, y)
        sigma2 = steps[-1].sse / (20 - 3)
        for step in steps:
            p = len(step.feature_idx)
            assert step.stats["cp"] == pytest.approx((step.sse + 2 * p * sigma2) / 20)

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        a = backward_select(X, y)
        b = backward_select(X, y)
        assert [s.feature_idx for s in a] == [s.feature_idx for s in b]

    def test_full_grid_selection_shape(self):
        # tiny response over the real design: just the structural contract
        configs = sweep_configs()
        X = feature_matrix(configs)
        rng = np.random.default_rng(2)
        y = 0.4 * np.array([c.n for c in configs]) + rng.uniform(0.5, 1.5, 420)
        steps = backward_select(X, y)
        assert len(steps) == 64
        assert [len(s.feature_idx) for s in steps] == list(range(1, 65))


class TestPublishedModels:
    def test_tables_digit_for_digit(self):
        assert PUBLISHED_3F.terms == TABLE_3F
        assert PUBLISHED_9F.terms == TABLE_9F
        assert PUBLISHED_16F.terms == TABLE_16F

    def test_frozen_predictions(self):
        cfg = Configuration(3, 100, 15)
        assert predict(PUBLISHED_3F, cfg) == pytest.approx(18.847091595859208, abs=1e-12)
        assert predict(PUBLISHED_9F, cfg) == pytest.approx(19.84327977071543, abs=1e-12)
        assert predict(PUBLISHED_16F, cfg) == pytest.approx(20.13861062221332, abs=1e-12)

    def test_three_feature_reference_band(self):
        assert abs(predict(PUBLISHED_3F, (3, 100, 15)) - 18.85) < 0.05

    def test_zero_customer_column_zeroes_prediction(self):
        assert predict(PUBLISHED_3F, (3, 0, 15)) == 0.0

    def test_registry(self):
        models = published_models()
        assert set(models) == {"published_3f", "published_9f", "published_16f"}
        assert all(m.provenance == name for name, m in models.items())
        assert [len(m.terms) for m in models.values()] == [3, 9, 16]

    def test_predict_accepts_tuple_and_config(self):
        assert predict(PUBLISHED_9F, (2, 200, 10)) == pytest.approx(
            predict(PUBLISHED_9F, Configuration(2, 200, 10))
        )


class TestStepModel:
    def test_maps_indices_to_power_triples(self):
        rng = np.random.default_rng(5)
        X = feature_matrix(sweep_configs()[:40])
        y = rng.uniform(5.0, 50.0, size=40)
        cols = [0, 5, 21]
        b = fit_ols(X[:, cols], y)
        from bdmtsp.cam import SelectionStep

        step = SelectionStep(
            feature_idx=tuple(cols),
            coef=tuple(float(v) for v in b),
            sse=1.0,
            stats={"rmse_std": 1.0},
        )
        model = step_model(step)
        assert model.provenance == "fitted"
        assert [t for t, _ in model.terms] == [TERMS[c] for c in cols]
        cfg = Configuration(2, 60, 7)
        direct = sum(c * v for c, v in zip(b, feature_matrix([cfg])[0, cols]))
        assert predict(model, cfg) == pytest.approx(direct, rel=1e-12)


class TestSweepGrid:
    def test_count_and_corners(self):
        configs = sweep_configs()
        assert len(configs) == 420
        assert configs[0] == Configuration(1, 50, 5)
        assert configs[1] == Configuration(1, 50, 10)  # d fastest
        assert configs[6] == Configuration(1, 100, 5)
        assert configs[128] == Configuration(3, 100, 15)
        assert configs[-1] == Configuration(7, 500, 30)
        assert len(set(configs)) == 420


class TestPersistence:
    def test_model_json_round_trip(self):
        text = model_to_json(PUBLISHED_16F)
        again = model_from_json(text)
        assert again == PUBLISHED_16F
        assert json.loads(text)["provenance"] == "published_16f"

    def test_fitted_model_round_trip(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(1.0, 2.0, size=(30, 4))
        y = rng.uniform(1.0, 5.0, size=30)
        steps = backward_select(X, y)
        model = step_model(steps[2])
        assert model_from_json(model_to_json(model)) == model

    def test_model_json_rejects_garbage(self):
        with pytest.raises(BdmtspError):
            model_from_json("not json at all {")
        with pytest.raises(BdmtspError):
            model_from_json('{"terms": [{"powers": [1], "coef": 2}]}')

    def test_sweep_csv_round_trip_is_exact(self):
        configs = sweep_configs()[:5]
        y = (10.123456789012345, 2.0, 3.5, 1e-7, 123456.78901)
        result = SweepResult(configs=configs, y=y, reps=10, seed=42)
        again = sweep_from_csv(sweep_to_csv(result))
        assert again == result

    def test_sweep_csv_header_required(self):
        with pytest.raises(BdmtspError):
            sweep_from_csv("a,b,c\n1,2,3\n")
        with pytest.raises(BdmtspError):
            sweep_from_csv("m,n,d,mean_len,reps,seed\n")

    @pytest.mark.parametrize("row", ["1,50", "1,50,5,2.5,10,0,7", "1,50,x,2.5,10,0"])
    def test_sweep_csv_malformed_row_rejected(self, row):
        text = "m,n,d,mean_len,reps,seed\n1,50,5,2.5,10,0\n" + row + "\n"
        with pytest.raises(BdmtspError, match="sweep CSV row"):
            sweep_from_csv(text)

    @pytest.mark.parametrize("row", ["1,60,5,2.5,3,0", "1,60,5,2.5,10,1"])
    def test_sweep_csv_rows_must_share_reps_and_seed(self, row):
        text = "m,n,d,mean_len,reps,seed\n1,50,5,2.5,10,0\n" + row + "\n"
        with pytest.raises(BdmtspError, match="reps/seed"):
            sweep_from_csv(text)

    def test_sweep_alignment_enforced(self):
        with pytest.raises(BdmtspError):
            SweepResult(configs=sweep_configs()[:3], y=(1.0,), reps=1, seed=0)


class TestCamModelValidation:
    def test_rejects_bad_terms(self):
        with pytest.raises(BdmtspError):
            CamModel(terms=(((1.0, 2.0), 3.0),), provenance="fitted")
        with pytest.raises(BdmtspError):
            CamModel(terms=(((1.0, 1.0, 1.0), math.inf),), provenance="fitted")

    def test_rejects_empty_and_off_basis_terms(self):
        with pytest.raises(BdmtspError, match="at least one term"):
            CamModel(terms=(), provenance="fitted")
        for powers in ((math.nan, 1.0, 0.0), (1e308, 1.0, 0.0), (3.0, 0.0, 0.0)):
            with pytest.raises(BdmtspError, match="basis triple"):
                CamModel(terms=((powers, 1.0),), provenance="fitted")

    def test_published_models_use_the_basis(self):
        for model in published_models().values():
            assert all(term in TERMS for term, _ in model.terms)


class TestOverflow:
    def test_feature_matrix_raises(self):
        with pytest.raises(BdmtspError, match="overflow"):
            feature_matrix([Configuration(1, 50, 5), Configuration(1, 10**400, 5)])
        with pytest.raises(BdmtspError, match="overflow"):
            feature_matrix([Configuration(10**100, 10**60, 5)])  # m^2 * n^2 is inf

    def test_predict_raises(self):
        with pytest.raises(BdmtspError, match="overflow"):
            predict(PUBLISHED_16F, Configuration(10**200, 100, 15))
        with pytest.raises(BdmtspError, match="overflow"):
            predict(PUBLISHED_9F, Configuration(3, 10**400, 15))

    def test_negative_component_rejected(self):
        # a half power of a negative base is complex
        with pytest.raises(BdmtspError, match="nonnegative"):
            predict(PUBLISHED_9F, (-3, 100, 15))
        with pytest.raises(BdmtspError, match="nonnegative"):
            feature_matrix([(3, 100, -15)])

    def test_feature_columns_equal_the_literal_products(self):
        # the product order m-power * n-power * d-power is part of the
        # bit-exact contract of fitted models
        configs = sweep_configs()[::7]
        X = feature_matrix(configs)
        for row, c in zip(X, configs):
            expect = [
                (1.0 if p1 == 0 else float(c.m) ** p1)
                * (1.0 if p2 == 0 else float(c.n) ** p2)
                * (1.0 if p3 == 0 else float(c.d) ** p3)
                for p1, p2, p3 in TERMS
            ]
            assert row.tolist() == expect
