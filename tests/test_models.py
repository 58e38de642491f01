"""Utility/weight families and the quadrature oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptopt import (
    CptModel,
    Exponential,
    Gaussian,
    IntegralDivergenceError,
    TwoPoint,
    Uniform,
    UtilitySpec,
    WeightSpec,
    cpt_value_quadrature,
    eval_utility,
    eval_weight,
)

# brute-force midpoint Riemann sum (1e7 points) of the TK(0.61)-weighted
# uniform tail integral, frozen as a regression constant
V_STAR_UNIFORM_TK061 = 0.43605675473204747

# high-precision evaluation of 2.25 * 2**0.88
U_MINUS_AT_MINUS_2 = 4.1408444278119378528

# high-precision evaluation of 0.1**0.61 / (0.1**0.61 + 0.9**0.61)**(1/0.61)
W_TK_061_AT_01 = 0.18630256637717415051

TOL = 1e-9


class TestUtilitySpec:
    def test_identity_gain(self):
        assert eval_utility(0.5, UtilitySpec.identity()) == (0.5, 0.0)

    def test_piecewise_power_unit_loss(self):
        u = UtilitySpec.piecewise_power(0.88, 0.88, 2.25)
        gain, loss = eval_utility(-1.0, u)
        assert gain == 0.0
        assert loss == pytest.approx(2.25, abs=1e-15)

    def test_piecewise_power_loss_magnitude(self):
        u = UtilitySpec.piecewise_power(0.88, 0.88, 2.25)
        _, loss = eval_utility(-2.0, u)
        assert loss == pytest.approx(U_MINUS_AT_MINUS_2, rel=1e-14)

    def test_reference_point_zeroes_both_sides(self):
        u = UtilitySpec.piecewise_power(0.5, 0.7, 3.0, reference=1.5)
        assert eval_utility(1.5, u) == (0.0, 0.0)

    def test_exactly_one_side_nonzero(self):
        u = UtilitySpec.piecewise_power(0.88, 0.88, 2.25, reference=0.25)
        for x in (-3.0, -0.1, 0.3, 7.0):
            gain, loss = eval_utility(x, u)
            assert (gain > 0) != (loss > 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            eval_utility(float("nan"), UtilitySpec.identity())
        with pytest.raises(ValueError):
            eval_utility(float("inf"), UtilitySpec.identity())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UtilitySpec.piecewise_power(0.0, 0.88, 2.25)
        with pytest.raises(ValueError):
            UtilitySpec.piecewise_power(0.88, 1.2, 2.25)
        with pytest.raises(ValueError):
            UtilitySpec.piecewise_power(0.88, 0.88, 0.5)
        with pytest.raises(ValueError):
            UtilitySpec(kind="identity", loss_aversion=2.0)

    @given(
        x=st.floats(-50, 50),
        y=st.floats(-50, 50),
        sigma=st.floats(0.3, 1.0),
        lam=st.floats(1.0, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, x, y, sigma, lam):
        u = UtilitySpec.piecewise_power(sigma, sigma, lam)
        lo, hi = min(x, y), max(x, y)
        g_lo, l_lo = eval_utility(lo, u)
        g_hi, l_hi = eval_utility(hi, u)
        assert g_lo <= g_hi  # gains nondecreasing in x
        assert l_lo >= l_hi  # loss magnitude nonincreasing in x


class TestWeightSpec:
    def test_identity(self):
        assert eval_weight(0.5, WeightSpec.identity()) == 0.5

    def test_tk_endpoints(self):
        w = WeightSpec.tversky_kahneman(0.61)
        assert eval_weight(0.0, w) == 0.0
        assert eval_weight(1.0, w) == 1.0

    def test_tk_overweights_small_probability(self):
        w = WeightSpec.tversky_kahneman(0.61)
        value = eval_weight(0.1, w)
        assert 0.1 < value < 0.5
        assert value == pytest.approx(W_TK_061_AT_01, rel=1e-14)

    def test_prelec_endpoints(self):
        w = WeightSpec.prelec(0.65)
        assert eval_weight(0.0, w) == 0.0
        assert eval_weight(1.0, w) == 1.0

    def test_out_of_range_probability(self):
        w = WeightSpec.identity()
        with pytest.raises(ValueError):
            eval_weight(-0.01, w)
        with pytest.raises(ValueError):
            eval_weight(1.01, w)

    def test_tk_non_monotone_regime_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec.tversky_kahneman(0.25)

    @pytest.mark.parametrize(
        "w",
        [
            WeightSpec.identity(),
            WeightSpec.tversky_kahneman(0.61),
            WeightSpec.tversky_kahneman(0.3),
            WeightSpec.prelec(0.65),
            WeightSpec.power(2.0),
            WeightSpec.power(0.5),
        ],
    )
    def test_monotone_with_unit_range(self, w):
        p = np.linspace(0.0, 1.0, 10_001)
        values = w.apply(p)
        assert values[0] == 0.0
        assert values[-1] == 1.0
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-15))

    def test_holder_order(self):
        assert WeightSpec.identity().holder_order == 1.0
        assert WeightSpec.tversky_kahneman(0.61).holder_order == 0.61
        assert WeightSpec.power(0.5).holder_order == 0.5
        assert WeightSpec.power(2.0).holder_order == 1.0
        assert WeightSpec.prelec(0.65).holder_order is None


class TestModelSerde:
    def test_round_trip(self):
        model = CptModel.tversky_kahneman()
        again = CptModel.from_json(model.to_json())
        assert again == model

    def test_document_shape(self):
        doc = CptModel.tversky_kahneman().to_dict()
        assert set(doc) == {"utility", "weight_plus", "weight_minus"}
        assert doc["utility"]["lambda"] == 2.25
        assert doc["utility"]["sigma_plus"] == 0.88
        assert doc["weight_plus"] == {"kind": "tversky_kahneman", "eta": 0.61}
        assert doc["weight_minus"]["eta"] == 0.69

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"utility": {"kind": "piecewise_power", "loss_aversion": 2.25}}, "loss_aversion"),
            ({"utilty": {"kind": "piecewise_power", "lambda": 2.25}}, "utilty"),
            ({"weight_plus": {"kind": "prelec", "eta": 0.65, "gamma": 0.5}}, "gamma"),
        ],
    )
    def test_unknown_keys_rejected(self, doc, key):
        with pytest.raises(ValueError, match=f"'{key}'.*allowed: "):
            CptModel.from_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            CptModel.from_dict({"weight_plus": "prelec"})


DISTS = [
    Uniform(0.0, 1.0),
    Uniform(-2.0, 5.0),
    Gaussian(0.3, 1.7),
    TwoPoint(-1.0, 0.25, 2.0),
    Exponential(0.8),
]


class TestQuadrature:
    def test_identity_uniform_is_mean(self):
        value = cpt_value_quadrature(Uniform(0, 1), CptModel.identity(), TOL)
        assert value == pytest.approx(0.5, abs=10 * TOL)

    def test_power_weight_closed_form(self):
        model = CptModel(
            weight_plus=WeightSpec.power(2.0), weight_minus=WeightSpec.power(2.0)
        )
        value = cpt_value_quadrature(Uniform(0, 1), model, TOL)
        assert value == pytest.approx(1.0 / 3.0, abs=10 * TOL)

    def test_tk_uniform_regression_constant(self):
        model = CptModel(
            weight_plus=WeightSpec.tversky_kahneman(0.61),
            weight_minus=WeightSpec.tversky_kahneman(0.61),
        )
        value = cpt_value_quadrature(Uniform(0, 1), model, TOL)
        assert value == pytest.approx(V_STAR_UNIFORM_TK061, abs=1e-8)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
    def test_identity_model_recovers_shifted_mean(self, dist):
        for reference in (0.0, -0.7):
            model = CptModel.identity(reference)
            value = cpt_value_quadrature(dist, model, TOL)
            assert value == pytest.approx(dist.mean() - reference, abs=10 * TOL)

    def test_tk_eta_one_matches_identity(self):
        dist = Gaussian(0.4, 1.1)
        identity_value = cpt_value_quadrature(dist, CptModel.identity(), TOL)
        tk_one = CptModel(
            weight_plus=WeightSpec.tversky_kahneman(1.0),
            weight_minus=WeightSpec.tversky_kahneman(1.0),
        )
        value = cpt_value_quadrature(dist, tk_one, TOL)
        assert value == pytest.approx(identity_value, abs=10 * TOL)

    def test_tk_value_continuous_in_eta(self):
        dist = Uniform(-1.0, 2.0)

        def value(eta):
            model = CptModel(
                weight_plus=WeightSpec.tversky_kahneman(eta),
                weight_minus=WeightSpec.tversky_kahneman(eta),
            )
            return cpt_value_quadrature(dist, model, TOL)

        etas = np.linspace(0.5, 1.0, 26)
        values = [value(e) for e in etas]
        gaps = np.abs(np.diff(values))
        # a 0.02 step in eta moves the value by a correspondingly small amount
        assert gaps.max() < 0.05
        assert values[-1] == pytest.approx(
            cpt_value_quadrature(dist, CptModel.identity(), TOL), abs=10 * TOL
        )

    def test_gain_loss_decomposition(self):
        # compute each side separately through clipped/reflected two-point laws
        # built from gains-only models; they must match the joint computation
        dist = TwoPoint(-1.5, 0.4, 2.5)
        model = CptModel(
            utility=UtilitySpec.piecewise_power(0.7, 0.7, 1.0),
            weight_plus=WeightSpec.tversky_kahneman(0.61),
            weight_minus=WeightSpec.tversky_kahneman(0.69),
        )
        joint = cpt_value_quadrature(dist, model, TOL)

        gains_only = TwoPoint(0.0, 0.4, 2.5)  # losses clipped to the reference
        gain_model = CptModel(
            utility=model.utility, weight_plus=model.weight_plus,
            weight_minus=WeightSpec.identity(),
        )
        pos = cpt_value_quadrature(gains_only, gain_model, TOL)

        reflected = TwoPoint(1.5, 0.4, 0.0)  # losses mirrored into gains
        loss_model = CptModel(
            utility=UtilitySpec.piecewise_power(0.7, 0.7, 1.0),
            weight_plus=model.weight_minus, weight_minus=WeightSpec.identity(),
        )
        neg = cpt_value_quadrature(reflected, loss_model, TOL)

        assert joint == pytest.approx(pos - neg, abs=10 * TOL)

    @pytest.mark.parametrize(
        "dist",
        [Uniform(0, 1), Uniform(-2, 5), Gaussian(0.3, 1.7), TwoPoint(-1.0, 0.25, 2.0)],
        ids=lambda d: type(d).__name__,
    )
    def test_reference_translation_invariance(self, dist):
        model = CptModel.tversky_kahneman(reference=0.2)
        value = cpt_value_quadrature(dist, model, TOL)
        shift = 3.7
        shifted_model = CptModel.tversky_kahneman(reference=0.2 + shift)
        shifted_value = cpt_value_quadrature(dist.shifted(shift), shifted_model, TOL)
        assert shifted_value == pytest.approx(value, abs=max(10 * TOL, 1e-8))

    def test_divergent_tail_detected(self):
        class ParetoTail(Uniform):
            """P(X > x) ~ x**-2; with w(p)=p**(1/3) the tail integral diverges."""

            def prob_greater(self, x):
                return 1.0 if x < 1.0 else float(x**-2.0)

            def prob_less(self, x):
                return 0.0

            def atoms(self):
                return None

        model = CptModel(
            weight_plus=WeightSpec.power(1.0 / 3.0),
            weight_minus=WeightSpec.power(1.0 / 3.0),
        )
        with pytest.raises(IntegralDivergenceError):
            cpt_value_quadrature(ParetoTail(), model, 1e-6)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            cpt_value_quadrature(Uniform(0, 1), CptModel.identity(), 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite") as info:
            cpt_value_quadrature(Uniform(0, 1), CptModel.identity(), tol)
        assert not isinstance(info.value, IntegralDivergenceError)


class TestAnalyticDistributions:
    @pytest.mark.parametrize(
        "dist",
        [Uniform(-2.0, 5.0), Gaussian(0.3, 1.7), Exponential(0.8)],
        ids=lambda d: type(d).__name__,
    )
    def test_sampler_matches_cdf(self, dist):
        from scipy import stats

        rng = np.random.default_rng(7)
        samples = dist.sample(rng, 20_000)
        result = stats.kstest(samples, dist.cdf)
        assert result.pvalue > 1e-3

    @pytest.mark.parametrize(
        "cls, field",
        [
            (TwoPoint, "x2"),
            (TwoPoint, "x1"),
            (Gaussian, "std"),
            (Gaussian, "mu"),
            (Exponential, "rate"),
            (Uniform, "lo"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameter_rejected(self, cls, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cls(**{field: value})

    def test_two_point_sampler_matches_masses(self):
        dist = TwoPoint(-1.0, 0.25, 2.0)
        rng = np.random.default_rng(11)
        samples = dist.sample(rng, 40_000)
        observed = np.mean(samples == -1.0)
        # 5 sigma band around p1
        assert abs(observed - 0.25) < 5 * np.sqrt(0.25 * 0.75 / 40_000)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
    def test_sample_mean_agrees(self, dist):
        rng = np.random.default_rng(3)
        samples = dist.sample(rng, 200_000)
        se = samples.std() / np.sqrt(samples.size)
        assert abs(samples.mean() - dist.mean()) < 5 * se
