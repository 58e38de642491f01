"""Perturbation machinery, schedules, and both optimizers."""

import csv
import importlib.util
import itertools
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg

from cptopt import (
    BoxConstraint,
    CptModel,
    GaussianMeanEnv,
    HessianSchedule,
    OptimizationError,
    SpsaSchedules,
    WeightSpec,
    ascend,
    ascend_newton,
    optimize_spsa_g,
    optimize_spsa_n,
    project_box,
    psd_project,
    rademacher_vector,
    spsa_gradient,
    spsa_n_estimates,
    substream,
)
from cptopt.envs import SspReturnEnv
from cptopt.envs.ssp import two_state_chain
from cptopt.spsa import LinAlgError, NewtonState, _cholesky_solve

IDENTITY = CptModel.identity()


def deterministic(fn):
    """Wrap a noiseless scalar objective as an evaluator."""

    def evaluate(theta, m, rng):
        return fn(np.atleast_1d(theta))

    return evaluate


class TestRademacher:
    def test_replay_is_identical(self):
        a = rademacher_vector(substream(123, 5, 0), 3)
        b = rademacher_vector(substream(123, 5, 0), 3)
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}

    def test_zero_mean_components(self):
        rng = substream(7)
        draws = np.array([rademacher_vector(rng, 4) for _ in range(25_000)])
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)

    def test_pairwise_independence(self):
        rng = substream(11)
        draws = np.array([rademacher_vector(rng, 3) for _ in range(100_000)])
        for i, j in itertools.combinations(range(3), 2):
            assert abs(np.mean(draws[:, i] * draws[:, j])) < 0.02

    def test_requires_positive_dimension(self):
        with pytest.raises(ValueError):
            rademacher_vector(substream(0), 0)


class TestSpsaGradient:
    def test_exact_for_scalar_quadratic(self):
        c = lambda t: -t**2
        delta = 0.1
        grad = spsa_gradient(c(1.1), c(0.9), delta, np.array([1.0]))
        assert grad[0] == pytest.approx(-2.0, abs=1e-12)

    def test_two_dim_single_perturbation(self):
        c = lambda t: -(t[0] ** 2 + t[1] ** 2)
        theta = np.array([1.0, 0.0])
        dv = np.array([1.0, -1.0])
        delta = 0.1
        grad = spsa_gradient(c(theta + delta * dv), c(theta - delta * dv), delta, dv)
        assert grad == pytest.approx([-2.0, 2.0], abs=1e-12)

    def test_rademacher_enumeration_average_is_exact_gradient(self):
        c = lambda t: -(t[0] ** 2 + t[1] ** 2)
        theta = np.array([1.0, 0.0])
        delta = 0.1
        grads = []
        for dv in itertools.product((-1.0, 1.0), repeat=2):
            dv = np.asarray(dv)
            grads.append(
                spsa_gradient(c(theta + delta * dv), c(theta - delta * dv), delta, dv)
            )
        assert np.mean(grads, axis=0) == pytest.approx([-2.0, 0.0], abs=1e-12)

    def test_equal_evaluations_give_zero(self):
        grad = spsa_gradient(1.23, 1.23, 0.05, np.array([1.0, -1.0, 1.0]))
        assert np.array_equal(grad, np.zeros(3))

    def test_bias_quadratic_in_delta(self):
        theta = 0.7
        biases = []
        deltas = [0.2, 0.1, 0.05]
        for delta in deltas:
            estimates = [
                spsa_gradient(
                    np.sin(theta + delta * dv),
                    np.sin(theta - delta * dv),
                    delta,
                    np.array([dv]),
                )[0]
                for dv in (-1.0, 1.0)
            ]
            biases.append(abs(np.mean(estimates) - np.cos(theta)))
        slope = np.polyfit(np.log(deltas), np.log(biases), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            spsa_gradient(1.0, 0.0, 0.0, np.array([1.0]))
        with pytest.raises(ValueError):
            spsa_gradient(1.0, 0.0, 0.1, np.array([0.5]))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_raises(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            spsa_gradient(1.0, 0.0, delta, np.array([1.0, -1.0]))


class TestProjectBox:
    BOX = BoxConstraint.cube(0.1, 10.0, 2)

    def test_partial_clamp(self):
        out = project_box(np.array([0.05, 5.0]), self.BOX)
        assert out == pytest.approx([0.1, 5.0])

    def test_feasible_point_unchanged(self):
        theta = np.array([3.0, 9.9])
        assert np.array_equal(project_box(theta, self.BOX), theta)

    def test_clamp_both_ends_and_idempotence(self):
        out = project_box(np.array([11.0, -1.0]), self.BOX)
        assert out == pytest.approx([10.0, 0.1])
        assert np.array_equal(project_box(out, self.BOX), out)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_box(np.array([1.0]), self.BOX)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxConstraint.cube(1.0, 1.0, 2)


class TestSchedules:
    def test_standard_defaults_accepted(self):
        s = SpsaSchedules(alpha=0.61)
        assert s.gamma(1) == pytest.approx(1.0 / 51.0)
        assert s.delta(1) == pytest.approx(1.9)
        assert s.delta(32) == pytest.approx(1.9 / 32**0.101)
        assert s.batch(3) == 30

    def test_rejects_nonsummable_step_ratio(self):
        with pytest.raises(ValueError):
            SpsaSchedules(a0=1.0, delta_exp=0.6, nu=2.0, alpha=1.0)

    def test_rejects_bias_condition_violation(self):
        with pytest.raises(ValueError):
            SpsaSchedules(delta_exp=0.101, nu=0.5, alpha=0.3)
        with pytest.raises(ValueError):
            SpsaSchedules(delta_exp=0.3, nu=0.6, alpha=1.0)

    def test_for_model_uses_weight_order(self):
        model = CptModel(
            weight_plus=WeightSpec.tversky_kahneman(0.61),
            weight_minus=WeightSpec.tversky_kahneman(0.69),
        )
        assert SpsaSchedules.for_model(model).alpha == 0.61

    def test_for_model_rejects_alpha_above_the_weight_order(self):
        with pytest.raises(ValueError, match=r"schedules\.alpha 1\.0 exceeds"):
            SpsaSchedules.for_model(CptModel.tversky_kahneman(), alpha=1.0)
        assert SpsaSchedules.for_model(CptModel.tversky_kahneman(), alpha=0.5).alpha == 0.5

    def test_for_model_requires_alpha_for_prelec(self):
        model = CptModel(weight_plus=WeightSpec.prelec(0.65))
        with pytest.raises(ValueError):
            SpsaSchedules.for_model(model)
        assert SpsaSchedules.for_model(model, alpha=0.5).alpha == 0.5

    @pytest.mark.parametrize("a_offset", [float("nan"), float("inf")])
    def test_non_finite_a_offset_rejected(self, a_offset):
        with pytest.raises(ValueError, match="a_offset"):
            SpsaSchedules(a_offset=a_offset, alpha=0.61)

    def test_hessian_schedule_validation(self):
        assert HessianSchedule().xi(1) == 1.0
        with pytest.raises(ValueError):
            HessianSchedule(xi_exp=0.5)
        with pytest.raises(ValueError):
            HessianSchedule(xi_exp=1.0)


class TestSpsaNEstimates:
    def test_hand_value_scalar(self):
        # C(t) = t^2/2 at t=0, delta=0.1, both signs +1
        c = lambda t: 0.5 * t**2
        grad, hess = spsa_n_estimates(
            c(0.2), c(-0.2), c(0.0), 0.1, np.array([1.0]), np.array([1.0])
        )
        assert hess[0, 0] == pytest.approx(4.0, abs=1e-12)
        assert grad[0] == pytest.approx(0.0, abs=1e-12)

    def test_enumeration_average_is_twice_the_curvature(self):
        c = lambda t: 0.5 * t**2
        values = []
        for dv, dh in itertools.product((-1.0, 1.0), repeat=2):
            shift = 0.1 * (dv + dh)
            _, hess = spsa_n_estimates(
                c(shift), c(-shift), c(0.0), 0.1, np.array([dv]), np.array([dh])
            )
            values.append(hess[0, 0])
        assert np.mean(values) == pytest.approx(2.0, abs=1e-12)

    def test_flat_readings_give_zeros(self):
        grad, hess = spsa_n_estimates(
            5.0, 5.0, 5.0, 0.1, np.array([1.0, -1.0]), np.array([-1.0, 1.0])
        )
        assert np.array_equal(grad, np.zeros(2))
        assert np.array_equal(hess, np.zeros((2, 2)))

    def test_domain_error(self):
        with pytest.raises(ValueError):
            spsa_n_estimates(1.0, 1.0, 1.0, -0.1, np.array([1.0]), np.array([1.0]))


class TestPsdProject:
    def test_identity_matrix_untouched(self):
        out = psd_project(np.eye(3), 0.01)
        assert np.array_equal(out, np.eye(3))

    def test_clamps_negative_eigenvalue(self):
        out = psd_project(np.diag([1.0, -2.0]), 0.01)
        assert out == pytest.approx(np.diag([1.0, 0.01]), abs=1e-12)

    def test_random_matrices_respect_floor(self):
        rng = np.random.default_rng(42)
        kappa = 1e-3
        for _ in range(200):
            raw = rng.normal(size=(5, 5))
            sym = (raw + raw.T) / 2
            out = psd_project(sym, kappa)
            eigvals = np.linalg.eigvalsh(out)
            assert eigvals.min() >= kappa - 1e-10
            if np.linalg.eigvalsh(sym).min() >= kappa:
                assert np.array_equal(out, sym)

    def test_continuity_near_input(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(4, 4))
        sym = (raw + raw.T) / 2
        a = psd_project(sym, 1e-4)
        b = psd_project(sym + 1e-9, 1e-4)
        assert np.linalg.norm(a - b) < 1e-6

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            psd_project(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.1)
        with pytest.raises(ValueError):
            psd_project(np.eye(2), 0.0)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_non_finite_kappa_raises(self, kappa):
        with pytest.raises(ValueError, match="kappa must be positive and finite"):
            psd_project(np.eye(2), kappa)


class TestCholeskySolve:
    """The Newton step's solve equals scipy's cho_factor/cho_solve bit for bit."""

    def test_matches_scipy_wrappers(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3, 5):
            for _ in range(50):
                a = psd_project(rng.normal(size=(dim, dim)) * 3.0, 0.05)
                b = rng.normal(size=dim) * 10.0
                want = linalg.cho_solve(linalg.cho_factor(a, lower=True), b)
                assert _cholesky_solve(a, b).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "a,b",
        [
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2)),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), np.ones(2)),
            (np.eye(2), np.array([1.0, np.inf])),
            (np.eye(2), np.array([np.nan, 0.0])),
        ],
    )
    def test_non_finite_input_rejected(self, a, b):
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.cho_solve(linalg.cho_factor(a, lower=True), b)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _cholesky_solve(a, b)

    def test_raises_scipys_linalg_error_class(self):
        assert LinAlgError is linalg.LinAlgError

    @pytest.mark.parametrize("b", [np.ones(2), np.array([np.nan, 1.0])])
    def test_not_positive_definite_rejected(self, b):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(linalg.LinAlgError, match="2-th leading minor"):
            linalg.cho_solve(linalg.cho_factor(a, lower=True), b)
        with pytest.raises(linalg.LinAlgError, match="2-th leading minor"):
            _cholesky_solve(a, b)


SCHEDULES = SpsaSchedules(alpha=1.0)
BOX_1D = BoxConstraint.cube(0.0, 4.0, 1)


class TestAscend:
    def test_zero_iterations_returns_start(self):
        trace = ascend(deterministic(lambda t: 0.0), SCHEDULES, BOX_1D, [0.5], 0, 0)
        assert trace.final_theta == pytest.approx([0.5])
        assert trace.records == []

    def test_start_outside_box_rejected(self):
        with pytest.raises(ValueError):
            ascend(deterministic(lambda t: 0.0), SCHEDULES, BOX_1D, [9.0], 1, 0)

    def test_converges_on_noisy_scalar_bowl(self):
        env = GaussianMeanEnv(optimum=2.0, curvatures=2.0, noise_std=0.1)
        schedules = SpsaSchedules(alpha=1.0, nu=0.5)
        hits = 0
        for seed in range(5):
            trace = optimize_spsa_g(env, IDENTITY, schedules, BOX_1D, [0.5], 800, seed)
            hits += abs(trace.final_theta[0] - 2.0) <= 0.1
        assert hits >= 4

    def test_all_iterates_stay_feasible_under_outward_pressure(self):
        # gradient always points out of the box from the upper corner
        evaluate = deterministic(lambda t: float(np.sum(t)))
        box = BoxConstraint.cube(0.0, 1.0, 2)
        trace = ascend(evaluate, SCHEDULES, box, [1.0, 1.0], 60, 3)
        for record in trace.records:
            assert box.contains(np.asarray(record.theta))
        assert box.contains(trace.final_theta)

    def test_bit_identical_replay(self):
        env = GaussianMeanEnv()
        a = optimize_spsa_g(env, IDENTITY, SCHEDULES, BOX_1D, [0.5], 40, 9)
        b = optimize_spsa_g(env, IDENTITY, SCHEDULES, BOX_1D, [0.5], 40, 9)
        assert a.records == b.records
        assert np.array_equal(a.final_theta, b.final_theta)

    def test_non_finite_estimate_aborts_with_trace(self):
        calls = {"n": 0}

        def evaluate(theta, m, rng):
            calls["n"] += 1
            return np.nan if calls["n"] > 6 else 0.0

        with pytest.raises(OptimizationError) as info:
            ascend(evaluate, SCHEDULES, BOX_1D, [0.5], 50, 0)
        assert info.value.iteration == 4
        assert len(info.value.trace.records) == 3

    def test_optimization_error_survives_pickling(self):
        calls = {"n": 0}

        def evaluate(theta, m, rng):
            calls["n"] += 1
            return np.nan if calls["n"] > 6 else 0.0

        with pytest.raises(OptimizationError) as info:
            ascend(evaluate, SCHEDULES, BOX_1D, [0.5], 50, 0)
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is OptimizationError
        assert str(copy) == str(info.value)
        assert copy.iteration == 4
        assert copy.trace.records == info.value.trace.records

    def test_env_failure_carries_iteration_context(self):
        def evaluate(theta, m, rng):
            raise KeyError("boom")

        with pytest.raises(OptimizationError) as info:
            ascend(evaluate, SCHEDULES, BOX_1D, [0.5], 50, 0)
        assert "iteration 1" in str(info.value)
        assert isinstance(info.value.__cause__, KeyError)

    @pytest.mark.parametrize("climb", [ascend, ascend_newton])
    @pytest.mark.parametrize("iters", [True, 2.0, "3"])
    def test_non_integer_iters_rejected(self, climb, iters):
        evaluate = deterministic(lambda t: 0.0)
        with pytest.raises(TypeError, match="iters must be an integer"):
            climb(evaluate, SCHEDULES, BOX_1D, [0.5], iters, 0)

    @pytest.mark.parametrize("climb", [ascend, ascend_newton])
    @pytest.mark.parametrize("iters", [0, 1])
    def test_negative_seed_rejected(self, climb, iters):
        evaluate = deterministic(lambda t: 0.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            climb(evaluate, SCHEDULES, BOX_1D, [0.5], iters, -1)

    @pytest.mark.parametrize("seed", [True, 1.0])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            ascend(deterministic(lambda t: 0.0), SCHEDULES, BOX_1D, [0.5], 1, seed)

    def test_numpy_integer_iters_and_seed_replay_int_ones(self):
        env = GaussianMeanEnv()
        a = optimize_spsa_g(env, IDENTITY, SCHEDULES, BOX_1D, [0.5], 5, 9)
        b = optimize_spsa_g(env, IDENTITY, SCHEDULES, BOX_1D, [0.5], np.int64(5), np.int64(9))
        assert a.records == b.records
        assert np.array_equal(a.final_theta, b.final_theta)

    def test_trace_records_schedule_values(self):
        env = GaussianMeanEnv()
        trace = optimize_spsa_g(env, IDENTITY, SCHEDULES, BOX_1D, [0.5], 3, 1)
        assert [r.n for r in trace.records] == [1, 2, 3]
        assert trace.records[0].gamma == pytest.approx(1 / 51)
        assert trace.records[0].delta == pytest.approx(1.9)
        assert trace.records[0].m == 10
        assert trace.records[1].m == 20


class TestAscendNewton:
    def test_zero_iterations(self):
        trace = ascend_newton(deterministic(lambda t: 0.0), SCHEDULES, BOX_1D, [0.5], 0, 0)
        assert trace.final_theta == pytest.approx([0.5])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_nonpositive_pd_floor_rejected(self, value):
        with pytest.raises(ValueError, match="pd_floor"):
            NewtonState(h_bar=np.zeros((1, 1)), pd_floor=value)
        with pytest.raises(ValueError, match="pd_floor"):
            ascend_newton(deterministic(lambda t: 0.0), SCHEDULES, BOX_1D, [0.5], 1, 0,
                          pd_floor=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_non_finite_or_nonpositive_hessian_scale_rejected(self, value):
        with pytest.raises(ValueError, match="hessian_scale"):
            ascend_newton(deterministic(lambda t: 0.0), SCHEDULES, BOX_1D, [0.5], 1, 0,
                          hessian_scale=value)

    def test_first_update_overwrites_running_hessian(self):
        seen = {}

        def evaluate(theta, m, rng):
            return float(-np.sum(np.atleast_1d(theta) ** 2))

        box = BoxConstraint.cube(-4.0, 4.0, 2)
        trace = ascend_newton(
            evaluate, SCHEDULES, box, [1.0, 1.0], 1, 17, hessian=HessianSchedule()
        )
        # reproduce the iteration's perturbations and readings
        rng = substream(17, 1, 0)
        dv = rademacher_vector(rng, 2)
        dv_hat = rademacher_vector(rng, 2)
        delta = SCHEDULES.delta(1)
        theta = np.array([1.0, 1.0])
        shift = delta * (dv + dv_hat)
        _, hess = spsa_n_estimates(
            evaluate(theta + shift, 0, None),
            evaluate(theta - shift, 0, None),
            evaluate(theta, 0, None),
            delta,
            dv,
            dv_hat,
        )
        expected = (hess + hess.T) / 2.0
        assert np.array_equal(trace.newton.h_bar, expected)

    def test_running_hessian_stays_exactly_symmetric(self):
        env = GaussianMeanEnv(optimum=(2.0, 2.0), curvatures=(1.0, 10.0), noise_std=0.1)
        box = BoxConstraint.cube(0.0, 4.0, 2)
        trace = optimize_spsa_n(
            env, IDENTITY, SpsaSchedules(alpha=1.0, nu=0.5), box, [0.5, 0.5], 50, 5
        )
        h = trace.newton.h_bar
        assert np.array_equal(h, h.T)

    def test_converges_on_anisotropic_bowl(self):
        # The curvature estimate's cross-direction noise is large relative to
        # the weak direction's signal, so a conditioning floor of plain
        # gradient scale (1.0) keeps the step sane while the strong direction
        # still gets normalized; 0.5 undoes the estimator's factor of two.
        env = GaussianMeanEnv(optimum=(2.0, 2.0), curvatures=(1.0, 10.0), noise_std=0.1)
        box = BoxConstraint.cube(0.0, 4.0, 2)
        schedules = SpsaSchedules(a0=1.0, a_offset=0.0, alpha=1.0, nu=0.5)
        hits = 0
        for seed in range(5):
            trace = optimize_spsa_n(
                env, IDENTITY, schedules, box, [0.5, 0.5], 400, seed,
                hessian_scale=0.5, pd_floor=1.0,
            )
            hits += np.linalg.norm(trace.final_theta - 2.0) <= 0.2
        assert hits >= 4

    def test_csv_columns(self, tmp_path):
        env = GaussianMeanEnv()
        trace = optimize_spsa_g(env, IDENTITY, SCHEDULES, BOX_1D, [0.5], 2, 1)
        out = tmp_path / "trace.csv"
        trace.write_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "n,theta_0,c_plus,c_minus,gamma,delta,m"
        assert len(lines) == 3


@pytest.mark.parametrize("optimize", [optimize_spsa_g, optimize_spsa_n])
def test_schedule_alpha_above_the_models_holder_order_rejected(optimize):
    env = SspReturnEnv(two_state_chain())
    box = BoxConstraint.cube(0.1, 10.0, 2)
    tk = CptModel.tversky_kahneman()  # Holder order min(0.61, 0.69)
    with pytest.raises(ValueError, match=r"schedules\.alpha 1\.0 exceeds .* Holder order 0\.61"):
        optimize(env, tk, SpsaSchedules(alpha=1.0), box, [1.0, 1.0], 1, 0)
    assert len(optimize(env, tk, SpsaSchedules(alpha=0.61), box, [1.0, 1.0], 1, 0).records) == 1
    # prelec weights have no Holder order, so any valid alpha is the caller's call
    prelec = CptModel(weight_plus=WeightSpec.prelec(0.65), weight_minus=WeightSpec.prelec(0.65))
    assert len(optimize(env, prelec, SpsaSchedules(alpha=1.0), box, [1.0, 1.0], 1, 0).records) == 1


class TestTraceCsv:
    BOWL = GaussianMeanEnv(optimum=(2.0, 2.0), curvatures=(1.0, 10.0), noise_std=0.1)
    BOX = BoxConstraint.cube(0.0, 4.0, 2)

    def _rows(self, trace, tmp_path):
        out = tmp_path / "trace.csv"
        trace.write_csv(str(out))
        with open(out, newline="") as fh:
            return list(csv.reader(fh))

    @pytest.mark.parametrize("optimize", [optimize_spsa_g, optimize_spsa_n])
    def test_every_cell_is_a_number(self, optimize, tmp_path):
        trace = optimize(self.BOWL, IDENTITY, SCHEDULES, self.BOX, [0.5, 0.5], 3, 2)
        header, *rows = self._rows(trace, tmp_path)
        assert len(rows) == 3
        for row in rows:
            assert len(row) == len(header)
            for cell in row:
                float(cell)

    def test_newton_trace_ends_with_c_center(self, tmp_path):
        trace = optimize_spsa_n(self.BOWL, IDENTITY, SCHEDULES, self.BOX, [0.5, 0.5], 3, 2)
        header, *rows = self._rows(trace, tmp_path)
        assert header == [
            "n", "theta_0", "theta_1", "c_plus", "c_minus", "gamma", "delta", "m", "c_center"
        ]
        assert [float(row[-1]) for row in rows] == [r.c_center for r in trace.records]
        assert [float(row[1]) for row in rows] == [r.theta[0] for r in trace.records]


GOLDEN = Path(__file__).parent / "data" / "spsa_golden.json"


def _hex(v):
    return float(v).hex()


def _golden_run(case):
    spec = case["env"]
    if spec["kind"] == "gaussian":
        env = GaussianMeanEnv(spec["optimum"], spec["curvatures"], spec["noise_std"])
    else:
        env = SspReturnEnv(two_state_chain())
    box = BoxConstraint.cube(*case["box"], env.dim)
    args = (env, CptModel.from_dict(case["model"]), SpsaSchedules(**case["schedules"]),
            box, case["theta0"], case["iters"], case["seed"])
    if case["algo"] == "spsa-g":
        return optimize_spsa_g(*args)
    return optimize_spsa_n(*args, **case["newton"])


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda case: case["name"]
)
def test_golden_master(case):
    """Every record field, final theta and h_bar, bit for bit.

    Regenerate tests/data/spsa_golden.json with
    ``python tests/data/make_spsa_golden.py`` after an intentional change.
    """
    trace = _golden_run(case)
    expected = case["trace"]
    assert len(trace.records) == len(expected["records"]) == case["iters"]
    for r, want in zip(trace.records, expected["records"]):
        assert r.n == want["n"] and r.m == want["m"] and r.stream == want["stream"]
        assert [_hex(v) for v in r.theta] == want["theta"]
        assert [_hex(r.c_plus), _hex(r.c_minus), _hex(r.gamma), _hex(r.delta)] == [
            want["c_plus"], want["c_minus"], want["gamma"], want["delta"]
        ]
        assert (None if r.c_center is None else _hex(r.c_center)) == want["c_center"]
    assert [_hex(v) for v in trace.final_theta] == expected["final_theta"]
    if expected["h_bar"] is None:
        assert trace.newton is None
    else:
        assert [[_hex(v) for v in row] for row in trace.newton.h_bar] == expected["h_bar"]


def test_golden_check_reports_the_size_of_float_differences():
    path = GOLDEN.parent / "make_spsa_golden.py"
    spec = importlib.util.spec_from_file_location("make_spsa_golden", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    case = json.loads(GOLDEN.read_text())[0]
    case["trace"]["final_theta"][0] = (1.0).hex()
    moved = json.loads(json.dumps(case))
    moved["trace"]["final_theta"][0] = (1.0 + 2.0**-52).hex()  # one ulp up
    old, new = json.dumps([case]).encode(), json.dumps([moved])
    assert tool.differences(new, old) == [
        f"spsa_golden.json case {case['name']!r}: 1 float fields differ, "
        "largest relative difference 2.22e-16"
    ]
    moved["trace"]["records"][0]["m"] += 1
    assert tool.differences(json.dumps([moved]), old)[0].endswith(
        "; non-float fields differ too"
    )
    assert tool.differences(json.dumps([case]), old) == ["spsa_golden.json"]
