"""Perturbation machinery, schedules, and both optimizers."""

import csv
import importlib.util
import io
import itertools
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from cptopt import (
    BoxConstraint,
    CptModel,
    GaussianMeanEnv,
    OptimizationError,
    SpsaSchedules,
    WeightSpec,
    ascend,
    ascend_newton,
    optimize_spsa_g,
    optimize_spsa_n,
    psd_project,
    rademacher_vector,
    spsa_gradient,
    spsa_n_estimates,
    substream,
)
from cptopt import rng
from cptopt.envs import SspReturnEnv
from cptopt.envs.ssp import two_state_chain
from cptopt._codec import as_array, as_float
from cptopt.spsa import (
    LinAlgError,
    _check_perturbation,
    _cholesky_solve,
    _eigenvalue_floor,
    _gradient,
    _newton_estimates,
)

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

    @pytest.mark.parametrize("d", [True, 2.0, "2"])
    def test_dimension_must_be_an_integer(self, d):
        # True once drew a 1-vector
        with pytest.raises(TypeError, match="d must be an integer"):
            rademacher_vector(substream(0), d)

    def test_takes_a_numpy_integer(self):
        assert np.array_equal(
            rademacher_vector(substream(3), np.int64(4)), rademacher_vector(substream(3), 4)
        )


def _rademacher_draws(stream, d, calls):
    """``calls`` successive ``rademacher_vector(stream, d)`` draws, joined."""
    return np.concatenate([rademacher_vector(stream, d) for _ in range(calls)])


def assert_rademacher_draws(root, n, row, d, calls):
    """``row`` holds the ``calls`` vectors of ``d`` signs that
    ``rademacher_vector`` draws in turn from a fresh ``substream(root, n, 0)``,
    which are also its one run of ``calls * d``."""
    want = _rademacher_draws(substream(root, n, 0), d, calls)
    assert row.dtype == want.dtype == np.float64
    assert row.tobytes() == want.tobytes()
    assert row.tobytes() == rademacher_vector(substream(root, n, 0), calls * d).tobytes()


roots = st.one_of(
    st.integers(0, 2**200),
    st.builds(
        lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=key),
        st.integers(0, 2**70),
        st.lists(st.integers(0, 2**40), max_size=2).map(tuple),
    ),
)


class TestRawBitSigns:
    """The signs the chunk pass works out for the perturbation role are the
    draws ``rademacher_vector`` makes on a fresh ``Generator`` of its stream
    ``substream(root, n, 0)``: one vector for SPSA-G, two in turn (one run of
    2d) for SPSA-N."""

    @given(
        root=roots,
        first=st.one_of(
            st.sampled_from((1, 255, 256, 257, 2**32 - 2, 2**32, 2**64 + 1)),
            st.integers(1, 2**40),
        ),
        count=st.integers(1, 3),
        d=st.one_of(st.integers(1, 48), st.just(432)),
        calls=st.integers(1, 2),
    )
    @settings(max_examples=300, deadline=None)
    def test_signs_are_the_rademacher_draws(self, root, first, count, d, calls):
        entropy, key = rng._address(root, ())
        ns = range(first, first + count)
        signs = rng._chunk_pools(entropy, key, ns, 1, calls * d)[2]
        assert signs.shape == (count, calls * d)
        for n, row in zip(ns, signs):
            assert_rademacher_draws(root, n, row, d, calls)

    @pytest.mark.parametrize("d", [*range(1, 49), 432])
    @pytest.mark.parametrize("calls", [1, 2], ids=["spsa-g", "spsa-n"])
    def test_every_dimension_of_both_optimizers(self, d, calls):
        for root in (d, np.random.SeedSequence(d, spawn_key=(3,))):
            streams = rng._iteration_streams(root, 3, 2 + calls, calls * d)
            for n, (row, bits) in enumerate(streams, 1):
                assert len(bits) == 1 + calls
                assert_rademacher_draws(root, n, row, d, calls)

    @pytest.mark.parametrize("d, calls", [(1, 1), (5, 1), (1, 2), (3, 2)])
    def test_every_iteration_across_the_chunk_edge(self, d, calls):
        iters = rng._CHUNK + 2
        streams = rng._iteration_streams(11, iters, 2 + calls, calls * d)
        for n, (row, _) in enumerate(streams, 1):
            assert_rademacher_draws(11, n, row, d, calls)
        assert n == iters


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
        with pytest.raises(ValueError, match="delta must be finite"):
            spsa_gradient(1.0, 0.0, delta, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize(
        "bad, error",
        [(np.nan, ValueError), (np.inf, ValueError), (True, TypeError), ("1", TypeError)],
    )
    def test_readings_are_checked(self, which, bad, error):
        # nan once gave [nan] and True the gradient of a reading of 1
        readings = [1.0, 0.0]
        readings[which] = bad
        with pytest.raises(error, match=f"^{('c_plus', 'c_minus')[which]} must be "):
            spsa_gradient(*readings, 0.1, [1.0])

    def test_integer_and_numpy_readings_give_the_float_bits(self):
        want = spsa_gradient(3.0, 1.0, 0.1, [1.0, -1.0])
        for c_plus, c_minus in ((3, 1), (np.float64(3.0), np.int64(1))):
            assert spsa_gradient(c_plus, c_minus, 0.1, [1.0, -1.0]).tobytes() == want.tobytes()


class TestProjectBox:
    BOX = BoxConstraint.cube(0.1, 10.0, 2)

    def test_partial_clamp(self):
        out = self.BOX.project(np.array([0.05, 5.0]))
        assert out == pytest.approx([0.1, 5.0])

    def test_feasible_point_unchanged(self):
        theta = np.array([3.0, 9.9])
        assert np.array_equal(self.BOX.project(theta), theta)

    def test_clamp_both_ends_and_idempotence(self):
        out = self.BOX.project(np.array([11.0, -1.0]))
        assert out == pytest.approx([10.0, 0.1])
        assert np.array_equal(self.BOX.project(out), out)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.BOX.project(np.array([1.0]))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxConstraint.cube(1.0, 1.0, 2)

    @pytest.mark.parametrize("dim", [True, 2.0, "2"])
    def test_cube_dimension_must_be_an_integer(self, dim):
        # True once built a 1-d box, and 2.0 failed multiplying a tuple
        with pytest.raises(TypeError, match="dim must be an integer"):
            BoxConstraint.cube(0.0, 1.0, dim)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_cube_needs_a_dimension(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            BoxConstraint.cube(0.0, 1.0, dim)

    def test_cube_takes_a_numpy_integer(self):
        assert BoxConstraint.cube(0.0, 1.0, np.int64(3)) == BoxConstraint.cube(0.0, 1.0, 3)


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

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad, error",
        [(np.nan, ValueError), (-np.inf, ValueError), (True, TypeError), (None, TypeError)],
    )
    def test_readings_are_checked(self, which, bad, error):
        # an infinite c_center once gave a -inf curvature
        readings = [1.0, 0.0, 0.5]
        readings[which] = bad
        name = ("c_plus", "c_minus", "c_center")[which]
        with pytest.raises(error, match=f"^{name} must be "):
            spsa_n_estimates(*readings, 0.1, [1.0], [1.0])


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
        with pytest.raises(ValueError, match="kappa must be finite"):
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


def _numpy_eigenvalue_floor(h, kappa):
    """``_eigenvalue_floor`` as it called ``np.linalg.eigh``, kept verbatim."""
    sym = (h + h.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals[0] >= kappa:
        return sym, eigvals
    clamped = np.maximum(eigvals, kappa)
    out = (eigvecs * clamped) @ eigvecs.T
    return (out + out.T) / 2.0, eigvals


def _floor_outcome(floor, h, kappa):
    """The floor's output as ``float.hex`` strings, or its error."""
    try:
        return [[float(v).hex() for v in np.ravel(a)] for a in floor(h, kappa)]
    except LinAlgError as exc:
        return type(exc), str(exc)


class TestEigenvalueFloor:
    """The floor through LAPACK's dsyevd gives numpy eigh's bits."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 33, 48, 64])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_numpys_eigh(self, dim, scale):
        rng = np.random.default_rng(dim)
        bound = 0
        for _ in range(6):
            raw = rng.normal(0.0, scale, (dim, dim))
            # indefinite, where the floor binds, and positive-definite above it
            for h in (raw, raw @ raw.T + scale * np.eye(dim)):
                for kappa in (1e-4 * scale, 0.5 * scale):
                    want = _floor_outcome(_numpy_eigenvalue_floor, h, kappa)
                    bound += float.fromhex(want[1][0]) < kappa
                    assert _floor_outcome(_eigenvalue_floor, h, kappa) == want
        assert 0 < bound < 24

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_matches_numpys_eigh_on_non_finite_entries(self, dim, bad):
        rng = np.random.default_rng(dim)
        for _ in range(10):
            h = rng.normal(size=(dim, dim))
            h[tuple(rng.integers(0, dim, 2))] = bad
            with np.errstate(invalid="ignore"):
                want = _floor_outcome(_numpy_eigenvalue_floor, h, 0.5)
                assert _floor_outcome(_eigenvalue_floor, h, 0.5) == want

    def test_no_convergence_raises_numpys_error(self, monkeypatch):
        from scipy.linalg import lapack

        def unconverged(a, compute_v, lower):
            return np.zeros(len(a)), np.eye(len(a)), 1

        monkeypatch.setattr(lapack, "dsyevd", unconverged)
        with pytest.raises(LinAlgError, match="^Eigenvalues did not converge$"):
            psd_project(np.eye(2), 0.5)
        with pytest.raises(OptimizationError) as info:
            ascend_newton(deterministic(lambda t: -float(t @ t)), SpsaSchedules(alpha=1.0),
                          BoxConstraint.cube(0.0, 4.0, 2), [1.0, 1.0], 3, 0)
        assert str(info.value) == "step failed at iteration 1: Eigenvalues did not converge"
        assert type(info.value.__cause__) is LinAlgError
        assert info.value.iteration == 1 and len(info.value.trace.records) == 1


def _quadratic(a, b):
    """``c(t) = t A t / 2 + b t``, whose Hessian is ``A`` and gradient ``A t + b``."""
    return lambda t: 0.5 * float(t @ a @ t) + float(b @ t)


quadratics = st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        st.lists(st.floats(-10.0, 10.0), min_size=d * d, max_size=d * d),
        st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d),
        st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d),
    )
)


class TestEnumerationAverages:
    """Averaged over every perturbation, the estimators recover a quadratic's
    gradient and (SPSA-N) twice its Hessian in every entry; bias and noise
    cancel exactly, so only rounding is left."""

    @staticmethod
    def _problem(problem):
        a, b, theta = problem
        d = len(b)
        a = np.reshape(a, (d, d))
        a = (a + a.T) / 2.0
        return d, a, np.array(b), np.array(theta)

    @given(problem=quadratics, delta=st.floats(0.1, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_spsa_n_average_is_the_gradient_and_twice_the_hessian(self, problem, delta):
        d, a, b, theta = self._problem(problem)
        c = _quadratic(a, b)
        signs = [np.array(v) for v in itertools.product((-1.0, 1.0), repeat=d)]
        grads, hessians = [], []
        for dv, dv_hat in itertools.product(signs, repeat=2):
            shift = delta * (dv + dv_hat)
            grad, hess = spsa_n_estimates(
                c(theta + shift), c(theta - shift), c(theta), delta, dv, dv_hat
            )
            grads.append(grad)
            hessians.append(hess)
        assert len(hessians) == 4**d
        assert np.mean(hessians, axis=0) == pytest.approx(2.0 * a, abs=1e-8)
        assert np.mean(grads, axis=0) == pytest.approx(a @ theta + b, abs=1e-8)

    @given(problem=quadratics, delta=st.floats(0.1, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_spsa_g_average_is_the_gradient(self, problem, delta):
        d, a, b, theta = self._problem(problem)
        c = _quadratic(a, b)
        grads = [
            spsa_gradient(c(theta + delta * dv), c(theta - delta * dv), delta, dv)
            for dv in map(np.array, itertools.product((-1.0, 1.0), repeat=d))
        ]
        assert np.mean(grads, axis=0) == pytest.approx(a @ theta + b, abs=1e-8)


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

    @pytest.mark.parametrize("climb", [ascend, ascend_newton])
    def test_step_beyond_the_float_range_aborts_with_trace(self, climb):
        # finite estimates 1e308 apart make an infinite gradient; the box
        # once clamped it and SPSA-N raised a bare ValueError
        def evaluate(theta, m, rng):
            return 1e308 if rng.random() < 0.5 else -1e308

        box = BoxConstraint.cube(0.0, 1.0, 2)
        with pytest.raises(OptimizationError, match=r"^step failed at iteration (\d+): ") as info:
            climb(evaluate, SCHEDULES, box, [0.5, 0.5], 20, 0)
        assert len(info.value.trace.records) == info.value.iteration
        assert isinstance(info.value.__cause__, ValueError)

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

    @pytest.mark.parametrize("entry", [optimize_spsa_g, optimize_spsa_n])
    @pytest.mark.parametrize("box_dim, env_dim", [(1, 2), (3, 2), (2, 1)])
    def test_box_of_another_dimension_rejected_before_iteration_one(self, entry, box_dim, env_dim):
        calls = []

        class CountingEnv(GaussianMeanEnv):  # the optimizers sample through _sample
            def _sample(self, theta, m, rng):
                calls.append(m)
                return super()._sample(theta, m, rng)

        env = CountingEnv(optimum=(2.0,) * env_dim, curvatures=(1.0,) * env_dim)
        box = BoxConstraint.cube(0.0, 4.0, box_dim)
        with pytest.raises(
            ValueError,
            match=rf"^box has dimension {box_dim} but the environment's parameter "
            rf"has dimension {env_dim}$",
        ):
            entry(env, IDENTITY, SCHEDULES, box, [1.0] * box_dim, 3, 0)
        assert calls == []
        # the count sees every evaluation of a run that starts
        box = BoxConstraint.cube(0.0, 4.0, env_dim)
        entry(env, IDENTITY, SCHEDULES, box, [1.0] * env_dim, 1, 0)
        assert calls == [10] * (2 if entry is optimize_spsa_g else 3)

    # the cause each of seeds 1-6 fails with: theta or the samples not finite
    OVERFLOW_MESSAGES = {
        optimize_spsa_g: "tttsst",
        optimize_spsa_n: "sstsss",
    }

    @pytest.mark.parametrize("entry", [optimize_spsa_g, optimize_spsa_n])
    def test_an_evaluation_point_that_overflows_fails_as_sample_returns_does(self, entry):
        # the box and delta0 let theta + shift overflow, so the optimizers keep
        # sample_returns' check of theta; a point that stays finite overflows
        # the bowl's mean instead
        box = BoxConstraint.cube(-1.7e308, 1.7e308, 1)
        schedules = SpsaSchedules(alpha=1.0, delta0=1e308)
        causes = {"t": "theta must be finite", "s": "samples must be finite"}
        for seed, cause in enumerate(self.OVERFLOW_MESSAGES[entry], 1):
            with np.errstate(over="ignore"), pytest.raises(OptimizationError) as info:
                entry(GaussianMeanEnv(), IDENTITY, schedules, box, [1.6e308], 5, seed)
            assert str(info.value) == (
                f"objective evaluation (+) failed at iteration 1: ValueError: {causes[cause]}"
            )

    @pytest.mark.parametrize("entry", [optimize_spsa_g, optimize_spsa_n])
    def test_the_optimizers_sample_without_sample_returns(self, entry):
        # evaluation points inside the box plus 2 delta0 cannot overflow, so
        # the loop's own theta and m skip sample_returns' checks
        class Unchecked(GaussianMeanEnv):
            def sample_returns(self, theta, m, rng):
                raise AssertionError("sample_returns was called")

        trace = entry(Unchecked(), IDENTITY, SCHEDULES, BOX_1D, [0.5], 3, 0)
        want = entry(GaussianMeanEnv(), IDENTITY, SCHEDULES, BOX_1D, [0.5], 3, 0)
        assert trace.records == want.records

    @pytest.mark.parametrize("climb", [ascend, ascend_newton])
    def test_records_hold_python_floats(self, climb):
        box = BoxConstraint.cube(-1.0, 1.0, 2)
        trace = climb(deterministic(lambda t: -float(t @ t)), SCHEDULES, box, [0.5, -0.25], 3, 1)
        assert all(type(v) is float for r in trace.records for v in r.theta)
        assert "np.float64" not in repr(trace.records)

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

    @pytest.mark.parametrize("name", ["pd_floor", "hessian_scale"])
    @pytest.mark.parametrize(
        "value", [True, float("nan"), float("inf"), float("-inf"), 0.0],
        ids=["true", "nan", "inf", "-inf", "zero"],
    )
    @pytest.mark.parametrize("entry", ["ascend_newton", "optimize_spsa_n"])
    def test_bad_newton_argument_rejected_before_iteration_one(self, entry, name, value):
        calls = []

        class CountingEnv(GaussianMeanEnv):  # the optimizers sample through _sample
            def _sample(self, theta, m, rng):
                calls.append(m)
                return super()._sample(theta, m, rng)

        def evaluate(theta, m, rng):
            calls.append(m)
            return 0.0

        error = TypeError if value is True else ValueError
        with pytest.raises(error, match=rf"^{name} must be "):
            if entry == "ascend_newton":
                ascend_newton(evaluate, SCHEDULES, BOX_1D, [0.5], 1, 0, **{name: value})
            else:
                optimize_spsa_n(CountingEnv(), IDENTITY, SCHEDULES, BOX_1D, [0.5], 1, 0,
                                **{name: value})
        assert calls == []

    def test_first_update_overwrites_running_hessian(self):
        seen = {}

        def evaluate(theta, m, rng):
            return float(-np.sum(np.atleast_1d(theta) ** 2))

        box = BoxConstraint.cube(-4.0, 4.0, 2)
        trace = ascend_newton(evaluate, SCHEDULES, box, [1.0, 1.0], 1, 17)
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
        assert np.array_equal(trace.h_bar, expected)

    @pytest.mark.parametrize(
        "delta0, cause", [(1e200, OverflowError), (1e-200, ZeroDivisionError)]
    )
    def test_curvature_beyond_the_float_range_aborts_with_trace(self, delta0, cause):
        # the curvature estimate divides by delta**2 in Python floats, which
        # overflows at 1e200 and underflows to zero at 1e-200
        schedules = SpsaSchedules(alpha=1.0, delta0=delta0)
        with pytest.raises(OptimizationError, match=r"^step failed at iteration 1: ") as info:
            ascend_newton(deterministic(lambda t: 0.0), schedules, BOX_1D, [0.5], 5, 0)
        assert info.value.iteration == 1
        assert len(info.value.trace.records) == 1
        assert type(info.value.__cause__) is cause

    def test_running_hessian_stays_exactly_symmetric(self):
        env = GaussianMeanEnv(optimum=(2.0, 2.0), curvatures=(1.0, 10.0), noise_std=0.1)
        box = BoxConstraint.cube(0.0, 4.0, 2)
        trace = optimize_spsa_n(
            env, IDENTITY, SpsaSchedules(alpha=1.0, nu=0.5), box, [0.5, 0.5], 50, 5
        )
        h = trace.h_bar
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


# The optimizer loop's step as it was before the loop called the helpers'
# kernels, copied verbatim: the public helpers, checks included, and np.clip.


def _verbatim_spsa_gradient(c_plus, c_minus, delta, perturb):
    if as_float("delta", delta) <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    perturb = _check_perturbation("perturb", perturb)
    return (c_plus - c_minus) / (2.0 * delta) * perturb  # 1/(+-1) == +-1


def _verbatim_spsa_n_estimates(c_plus, c_minus, c_center, delta, perturb, perturb_hat):
    grad = _verbatim_spsa_gradient(c_plus, c_minus, delta, perturb)
    perturb_hat = _check_perturbation("perturb_hat", perturb_hat)
    curvature = (c_plus + c_minus - 2.0 * c_center) / delta**2
    hess = curvature * np.outer(perturb, perturb_hat)
    return grad, hess


def _verbatim_psd_project(h, kappa):
    if as_float("kappa", kappa) <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    h = as_array("h", h, 2)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"h must be square, got shape {h.shape}")
    sym = (h + h.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals[0] >= kappa:
        return sym
    clamped = np.maximum(eigvals, kappa)
    out = (eigvecs * clamped) @ eigvecs.T
    return (out + out.T) / 2.0


def _verbatim_project(box, theta):
    return np.clip(as_array("theta", theta, (box.dim,)), np.asarray(box.lo), np.asarray(box.hi))


def _verbatim_step(record, state, box, seed, pd_floor, hessian_scale):
    """One iteration's step from its record, updating ``state``'s theta and
    (for SPSA-N; None for SPSA-G) h_bar in the loop's order."""
    n, c_plus, c_minus, c_center = record.n, record.c_plus, record.c_minus, record.c_center
    gamma, delta = record.gamma, record.delta
    rng_perturb = substream(seed, n, 0)
    dv = rademacher_vector(rng_perturb, box.dim)
    if state["h_bar"] is None:
        step = _verbatim_spsa_gradient(c_plus, c_minus, delta, dv)
    else:
        dv_hat = rademacher_vector(rng_perturb, box.dim)
        grad, hess = _verbatim_spsa_n_estimates(c_plus, c_minus, c_center, delta, dv, dv_hat)
        sym = hessian_scale * (hess + hess.T) / 2.0
        xi = 1.0 / n**0.75
        state["h_bar"] = (1.0 - xi) * state["h_bar"] + xi * sym
        step = _cholesky_solve(_verbatim_psd_project(-state["h_bar"], pd_floor), grad)
    state["theta"] = _verbatim_project(box, state["theta"] + gamma * step)


def _bytes(a):
    return None if a is None else np.asarray(a).tobytes()


def _assert_replays(climb, evaluate, box, theta0, iters, seed, **newton):
    """Runs ``climb`` and replays its records through the verbatim step: every
    theta, the final theta and h_bar agree bit for bit, and a step fails at
    the same iteration with the same error.  Returns the run's failure, if
    any, as (iteration, type of its cause, message)."""
    try:
        trace, failure = climb(evaluate, SCHEDULES, box, theta0, iters, seed, **newton), None
    except OptimizationError as exc:
        trace, failure = exc.trace, (exc.iteration, type(exc.__cause__), str(exc))
    state = {
        "theta": np.array(theta0, dtype=float),
        "h_bar": np.zeros((box.dim, box.dim)) if climb is ascend_newton else None,
    }
    pd_floor, hessian_scale = newton.get("pd_floor", 1e-4), newton.get("hessian_scale", 1.0)
    replayed = None
    for r in trace.records:
        assert _bytes(r.theta) == _bytes(state["theta"])
        try:
            _verbatim_step(r, state, box, seed, pd_floor, hessian_scale)
        except (ValueError, ArithmeticError) as exc:
            replayed = (r.n, type(exc), f"step failed at iteration {r.n}: {exc}")
            break
    if failure is not None and failure[2].startswith("step failed"):
        assert replayed == failure
    else:  # no step failed, here or in the replay
        assert replayed is None
        assert failure is not None or _bytes(trace.final_theta) == _bytes(state["theta"])
    assert _bytes(trace.h_bar) == _bytes(state["h_bar"])
    return failure


SIGNED_ZERO_BOXES = [
    BoxConstraint((-0.0, 0.0), (1.0, 2.0)),
    BoxConstraint((-1.0, -2.0), (-0.0, 0.0)),
    BoxConstraint((0.0, -0.5, -3.0), (0.5, -0.0, 3.0)),
]


class TestStepOracle:
    """The loop's unchecked kernels give the verbatim public step's bits, and
    fail at the same iteration with the same error."""

    @pytest.mark.parametrize("box", SIGNED_ZERO_BOXES, ids=["lo-zeros", "hi-zeros", "mixed"])
    def test_clamp_matches_np_clip_on_signed_zeros(self, box):
        # keyed by repr, since -0.0 == 0.0 would keep one zero only
        values = {repr(v): v for v in (-0.0, 0.0, *box.lo, *box.hi, -5.0, 5.0, 0.25, -0.25)}
        values = list(values.values())
        assert len(values) >= 8
        for theta in itertools.product(values, repeat=box.dim):
            theta = np.array(theta)
            assert box._clamp(theta).tobytes() == _verbatim_project(box, theta).tobytes()

    @pytest.mark.parametrize("dim", [1, 4, 9, 33])
    def test_clamp_matches_np_clip_on_long_vectors(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(200):
            lo = rng.choice([-0.0, 0.0, -1.0, -0.5], dim)
            box = BoxConstraint(tuple(lo), tuple(lo + rng.choice([0.5, 1.0], dim)))
            theta = rng.choice([-0.0, 0.0, -1.0, -0.5, 0.5, 1.0, 2.0, -3.0], dim)
            assert box._clamp(theta).tobytes() == _verbatim_project(box, theta).tobytes()

    @given(
        readings=st.lists(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((0.0, -0.0)),
            min_size=3, max_size=3,
        ),
        delta=st.floats(1e-300, 1e300),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        kappa=st.sampled_from((1e-4, 0.5, 1.0, 1e3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_kernels_match_the_verbatim_helpers(self, readings, delta, dim, seed, kappa):
        rng = np.random.default_rng(seed)
        dv, dv_hat = (rademacher_vector(rng, dim) for _ in range(2))

        def bits(estimates, *args):  # a float's ZeroDivisionError or OverflowError too
            try:
                out = estimates(*args)
            except ArithmeticError as exc:
                return type(exc), str(exc)
            return [a.tobytes() for a in (out if isinstance(out, tuple) else (out,))]

        with np.errstate(all="ignore"):
            want = bits(_verbatim_spsa_n_estimates, *readings, delta, dv, dv_hat)
            assert bits(_newton_estimates, *readings, delta, dv, dv_hat) == want
            assert bits(_gradient, *readings[:2], delta, dv) == bits(
                _verbatim_spsa_gradient, *readings[:2], delta, dv
            )
        h = rng.normal(0.0, rng.choice([1e-3, 1.0, 1e3]), (dim, dim))
        floored, eigvals = _eigenvalue_floor(h, kappa)
        assert floored.tobytes() == _verbatim_psd_project(h, kappa).tobytes()
        assert eigvals.tobytes() == np.linalg.eigh((h + h.T) / 2.0)[0].tobytes()

    @pytest.mark.parametrize("box", SIGNED_ZERO_BOXES, ids=["lo-zeros", "hi-zeros", "mixed"])
    @pytest.mark.parametrize("climb", [ascend, ascend_newton])
    @pytest.mark.parametrize("seed", range(4))
    def test_runs_replay_through_the_verbatim_step(self, box, climb, seed):
        # readings that often tie (a zero step, -0.0 after a -1 perturbation)
        # and push outward, so theta sits on the signed-zero bounds
        def evaluate(theta, m, rng):
            return float(rng.choice([0.0, -0.0, 1.0, -1.0, 300.0, -300.0]))

        assert _assert_replays(climb, evaluate, box, box.lo, 40, seed) is None

    @pytest.mark.parametrize("scale", [1e300, 1e306, 1e307, 1.7e308])
    @pytest.mark.parametrize("shape", ["signs", "mixed", "growing"])
    @pytest.mark.parametrize(
        "climb, newton",
        [
            (ascend, {}),
            (ascend_newton, {}),
            (ascend_newton, {"hessian_scale": 1e10}),
            (ascend_newton, {"pd_floor": 1e300}),
        ],
        ids=["g", "n", "n-scaled", "n-floor"],
    )
    def test_overflowing_steps_fail_where_the_verbatim_step_fails(
        self, scale, shape, climb, newton
    ):
        def evaluate(theta, m, rng):
            if shape == "signs":
                return scale if rng.random() < 0.5 else -scale
            if shape == "mixed":
                return scale * float(rng.choice([1.0, -1.0, 0.5, 1e-3, 0.0]))
            return scale * float(theta.sum()) / theta.size

        box = BoxConstraint.cube(0.0, 1.0, 2)
        with np.errstate(all="ignore"):
            failure = _assert_replays(climb, evaluate, box, [0.5, 0.25], 20, 3, **newton)
        if shape == "signs" and scale > 1e308:  # c_plus - c_minus overflows
            assert failure[2].startswith("step failed")


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

    @pytest.mark.parametrize(
        "climb, header",
        [
            (ascend, "n,theta_0,theta_1,c_plus,c_minus,gamma,delta,m\n"),
            (ascend_newton, "n,theta_0,theta_1,c_plus,c_minus,gamma,delta,m,c_center\n"),
        ],
        ids=["spsa-g", "spsa-n"],
    )
    def test_zero_iteration_trace_is_its_header(self, climb, header):
        trace = climb(self._bowl_value, SCHEDULES, self.BOX, [0.5, 0.5], 0, 2)
        out = io.StringIO()
        trace.write_csv(out)
        assert out.getvalue() == header

    @pytest.mark.parametrize("climb", [ascend, ascend_newton], ids=["spsa-g", "spsa-n"])
    def test_bytes_match_the_hand_spelled_columns(self, climb):
        trace = climb(self._bowl_value, SCHEDULES, self.BOX, [0.5, 0.5], 3, 2)
        got, expected = io.StringIO(), io.StringIO()
        trace.write_csv(got)
        _hand_spelled_write_csv(trace, expected)
        assert len(got.getvalue().splitlines()) == 4
        assert got.getvalue() == expected.getvalue()

    @classmethod
    def _bowl_value(cls, theta, m, rng):
        return float(np.mean(cls.BOWL.sample_returns(theta, m, rng)))


def _hand_spelled_write_csv(self, out) -> None:
    """``RunTrace.write_csv`` as it spelled out its columns by hand, kept verbatim
    (``self`` is the trace) as the byte oracle of the columns it derives."""
    dim = len(self.records[0].theta) if self.records else (
        len(self.final_theta) if self.final_theta is not None else 0
    )
    writer = csv.writer(out, lineterminator="\n")
    header = ["n"] + [f"theta_{i}" for i in range(dim)]
    header += ["c_plus", "c_minus", "gamma", "delta", "m"]
    if self.h_bar is not None:
        header.append("c_center")
    writer.writerow(header)
    for r in self.records:
        floats = (*r.theta, r.c_plus, r.c_minus, r.gamma, r.delta)
        row = [r.n, *[repr(float(v)) for v in floats], r.m]
        if self.h_bar is not None:
            row.append(repr(float(r.c_center)))
        writer.writerow(row)


GOLDEN = Path(__file__).parent / "data" / "spsa_golden.json"


def _hex(v):
    return float(v).hex()


def _golden_run(case):
    spec = case["env"]
    if spec["kind"] == "gaussian":
        env = GaussianMeanEnv(spec["optimum"], spec["curvatures"], spec["noise_std"])
    else:
        env = SspReturnEnv(two_state_chain(**{k: v for k, v in spec.items() if k != "kind"}))
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
        assert r.n == want["n"] and r.m == want["m"]
        assert [_hex(v) for v in r.theta] == want["theta"]
        assert [_hex(r.c_plus), _hex(r.c_minus), _hex(r.gamma), _hex(r.delta)] == [
            want["c_plus"], want["c_minus"], want["gamma"], want["delta"]
        ]
        assert (None if r.c_center is None else _hex(r.c_center)) == want["c_center"]
    assert [_hex(v) for v in trace.final_theta] == expected["final_theta"]
    if expected["h_bar"] is None:
        assert trace.h_bar is None
    else:
        assert [[_hex(v) for v in row] for row in trace.h_bar] == expected["h_bar"]


def _golden_tool():
    path = GOLDEN.parent / "make_spsa_golden.py"
    spec = importlib.util.spec_from_file_location("make_spsa_golden", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_golden_check_reports_the_size_of_float_differences():
    tool = _golden_tool()
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
