"""Order-statistics and finite-support estimators plus sample-size calculators."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cptopt
from cptopt import (
    CptEstimate,
    CptModel,
    DiscreteDist,
    Uniform,
    UtilitySpec,
    WeightSpec,
    counts_from_samples,
    cpt_value_quadrature,
    estimate_cpt,
    estimate_cpt_discrete,
    exact_cpt_discrete,
    required_samples_holder,
    required_samples_lipschitz,
)
from cptopt import estimator
from cptopt.estimator import _BLOCK, _CACHED_MAX_N, _INCREMENTS_MAX

IDENTITY = CptModel.identity()

# ceil(ln(20) * 4 * 2**2 * 10**2 / 0.1**2) by high-precision arithmetic
N_LIPSCHITZ_ORACLE = 479_318


def tk_model(eta_gain=0.61, eta_loss=None):
    return CptModel(
        weight_plus=WeightSpec.tversky_kahneman(eta_gain),
        weight_minus=WeightSpec.tversky_kahneman(eta_loss or eta_gain),
    )


def fit_loglog_slope(ns, errors):
    return np.polyfit(np.log(ns), np.log(errors), 1)[0]


def _reference_estimate(samples, model):
    """The full-grid, two-sided order-statistics formula, summed exactly.

    Both sides run over every order statistic (the utility of the wrong side
    is zero) with both weights on the whole grid ``j/n, j = 0..n``, which is
    the formula in :mod:`cptopt.estimator`'s docstring term by term.  Returns
    the value and the scale ``1 + sum |u|`` that bounds its rounding.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    gains = model.utility.gain_values(xs)
    losses = model.utility.loss_values(xs)
    w_plus = model.weight_plus.apply(np.arange(n + 1) / n)
    w_minus = model.weight_minus.apply(np.arange(n + 1) / n)
    # 0-based gain term i pairs with w+((n-i)/n) - w+((n-1-i)/n)
    pos = [gains[i] * (w_plus[n - i] - w_plus[n - 1 - i]) for i in range(n)]
    neg = [losses[i] * (w_minus[i + 1] - w_minus[i]) for i in range(n)]
    scale = 1.0 + math.fsum(gains) + math.fsum(losses)
    return math.fsum(pos) - math.fsum(neg), scale


def _per_sample_estimate(samples, model):
    """The per-sample form of ``estimate_cpt``: one weight increment and one
    utility per order statistic, ties or not.  ``estimate_cpt`` must match it
    bit for bit on tie-free input and up to rounding on tied input."""
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    xs = np.sort(arr)
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))  # xs[k:] are the gains
    m = int(xs.searchsorted(ref, "left"))  # xs[:m] are the losses
    grid = np.arange(max(n - k, m) + 1) / n  # exact rationals j/n

    # gain term i (0-based, k <= i < n) pairs with w+((n-i)/n) - w+((n-1-i)/n)
    w_plus = model.weight_plus.apply(grid[: n - k + 1])
    d_plus = (w_plus[1:] - w_plus[:-1])[::-1]
    pos = float(np.add.reduce(model.utility.gain_values(xs[k:]) * d_plus))
    # loss term i (0 <= i < m) pairs with w-((i+1)/n) - w-(i/n)
    w_minus = model.weight_minus.apply(grid[: m + 1])
    d_minus = w_minus[1:] - w_minus[:-1]
    neg = float(np.add.reduce(model.utility.loss_values(xs[:m]) * d_minus))
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


REFERENCES = st.integers(-20, 20).map(lambda r: r / 4)
SIGMAS = st.floats(0.2, 1.0)
LOSS_AVERSIONS = st.floats(1.0, 3.0)
TK_ETAS = st.floats(0.3, 1.0)
PRELEC_ETAS = st.floats(0.2, 1.0)


@st.composite
def models(draw, families=("identity", "eu", "tk", "prelec", "power")):
    """A model from one of the weight/utility families at a random reference."""
    family = draw(st.sampled_from(families))
    ref = draw(REFERENCES)
    if family == "identity":
        return CptModel.identity(ref)
    utility = UtilitySpec.piecewise_power(
        draw(SIGMAS), draw(SIGMAS), draw(LOSS_AVERSIONS), ref
    )
    if family == "eu":
        weights = (WeightSpec.identity(), WeightSpec.identity())
    elif family == "tk":
        weights = (WeightSpec.tversky_kahneman(draw(TK_ETAS)),
                   WeightSpec.tversky_kahneman(draw(TK_ETAS)))
    elif family == "prelec":
        weights = (WeightSpec.prelec(draw(PRELEC_ETAS)), WeightSpec.prelec(draw(PRELEC_ETAS)))
    else:
        weights = (WeightSpec.power(draw(st.floats(0.2, 3.0))),
                   WeightSpec.power(draw(st.floats(0.2, 3.0))))
    return CptModel(utility, *weights)


@st.composite
def batches(draw, ref):
    """2..60 samples: mixed, all gains or all losses, some exactly at ``ref``."""
    side = draw(st.sampled_from(("mixed", "gains", "losses")))
    offsets = draw(st.lists(
        st.one_of(st.floats(-100.0, 100.0), st.just(0.0)), min_size=2, max_size=60
    ))
    if side == "gains":
        offsets = [abs(x) for x in offsets]
    elif side == "losses":
        offsets = [-abs(x) for x in offsets]
    return [ref + x for x in offsets]


def _tie_free(samples):
    """The batch with each value kept once, in first-seen order (-0.0 and 0.0
    are one value)."""
    return list(dict.fromkeys(samples))


@st.composite
def tied_batches(draw, ref):
    """2..80 samples with at least one tie: picks from a few atoms (the
    reference among them, and both zeros around a zero reference), a constant
    batch, or long runs at both ends around distinct middle values."""
    kind = draw(st.sampled_from(("atoms", "constant", "long_ends")))
    if kind == "constant":
        x = draw(st.sampled_from((ref, ref + 0.25, ref - 0.25)) | st.floats(-100.0, 100.0))
        return [x] * draw(st.integers(2, 80))
    if kind == "atoms":
        atoms = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=6, unique=True))
        support = [ref + a / 4 for a in atoms] + [ref]
        if ref == 0.0:
            support += [-0.0, 0.0]
        picks = draw(st.lists(st.sampled_from(support), min_size=2, max_size=80))
        picks += [picks[0]]
        return picks
    low = ref - draw(st.floats(0.0, 50.0))
    high = ref + draw(st.floats(0.0, 50.0))
    middle = draw(st.lists(st.floats(-50.0, 50.0), max_size=30))
    batch = (
        [low] * draw(st.integers(2, 40))
        + [ref + x for x in middle]
        + [high] * draw(st.integers(2, 40))
    )
    return draw(st.permutations(batch))


def _family_models(ref):
    """One fixed model of each weight family at reference ``ref``."""
    utility = UtilitySpec.piecewise_power(0.7, 0.9, 2.25, reference=ref)
    return (
        CptModel.identity(ref),
        CptModel(utility),
        CptModel(utility, WeightSpec.tversky_kahneman(0.61), WeightSpec.tversky_kahneman(0.69)),
        CptModel(utility, WeightSpec.prelec(0.65), WeightSpec.prelec(0.5)),
        CptModel(utility, WeightSpec.power(2.0), WeightSpec.power(0.5)),
    )


def _bits(est):
    return est.n, est.positive_part.hex(), est.negative_part.hex()


def _assert_matches_per_sample(samples, model):
    """Bit for bit on tie-free batches; within the reference tolerance on tied ones."""
    est = estimate_cpt(samples, model)
    want = _per_sample_estimate(samples, model)
    if len(_tie_free(samples)) == len(samples):
        assert _bits(est) == _bits(want)
        return
    _, scale = _reference_estimate(samples, model)
    assert est.n == want.n
    for got, expected in ((est.positive_part, want.positive_part),
                          (est.negative_part, want.negative_part)):
        assert got == pytest.approx(expected, rel=0.0, abs=1e-12 * scale)


class TestEstimateCpt:
    def test_include_top_recovers_sample_mean(self):
        # the top order statistic carries weight w+(1/n) - w+(0)
        est = estimate_cpt([1.0, 2.0, 3.0, 4.0], IDENTITY)
        assert est.value == pytest.approx(2.5, abs=1e-15)
        assert est.n == 4
        assert est.negative_part == 0.0

    def test_all_loss_hand_value(self):
        est = estimate_cpt([-1.0, -2.0], IDENTITY)
        assert est.negative_part == pytest.approx(1.5, abs=1e-15)
        assert est.positive_part == 0.0
        assert est.value == pytest.approx(-1.5, abs=1e-15)

    def test_include_top_mean_with_mixed_signs(self):
        samples = [-3.0, -1.0, 0.5, 2.0, 4.5]
        est = estimate_cpt(samples, IDENTITY)
        assert est.value == pytest.approx(np.mean(samples), abs=1e-12)

    def test_value_decomposition_exact(self):
        est = estimate_cpt([-1.0, 2.0, 3.0], CptModel.tversky_kahneman())
        assert est.value == est.positive_part - est.negative_part

    def test_errors(self):
        with pytest.raises(ValueError):
            estimate_cpt([1.0], IDENTITY)
        nan, inf = float("nan"), float("inf")
        # the check reads the sorted ends, so place the bad value anywhere
        for bad in ([1.0, nan], [nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, inf],
                    [-inf, 1.0], [1.0, -inf, 2.0], [inf, -inf], [nan, nan]):
            with pytest.raises(ValueError, match="samples must be finite"):
                estimate_cpt(bad, IDENTITY)
        with pytest.raises(ValueError):
            estimate_cpt([[1.0, 2.0]], IDENTITY)

    @given(
        data=st.lists(st.floats(-100, 100), min_size=2, max_size=60),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance_bit_exact(self, data, seed):
        model = CptModel.tversky_kahneman()
        shuffled = list(data)
        np.random.default_rng(seed).shuffle(shuffled)
        a = estimate_cpt(data, model)
        b = estimate_cpt(shuffled, model)
        assert a == b

    @given(
        data=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40),
        shift=st.floats(0.001, 10.0),
        eta=st.floats(0.3, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_upward_shift_never_decreases_gains(self, data, shift, eta):
        model = CptModel(
            weight_plus=WeightSpec.tversky_kahneman(eta),
            weight_minus=WeightSpec.tversky_kahneman(eta),
        )
        before = estimate_cpt(data, model).value
        after = estimate_cpt([x + shift for x in data], model).value
        assert after >= before - 1e-12

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_formula(self, data):
        model = data.draw(models())
        samples = data.draw(batches(model.utility.reference))
        expected, scale = _reference_estimate(samples, model)
        est = estimate_cpt(samples, model)
        assert est.value == pytest.approx(expected, rel=0.0, abs=1e-12 * scale)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_tie_free_batches_match_per_sample_estimate_bit_for_bit(self, data):
        model = data.draw(models())
        samples = _tie_free(data.draw(batches(model.utility.reference)))
        if len(samples) < 2:
            samples.append(max(samples) + 1.0)
        _assert_matches_per_sample(samples, model)

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_tied_batches_match_per_sample_estimate(self, data):
        model = data.draw(models())
        _assert_matches_per_sample(data.draw(tied_batches(model.utility.reference)), model)

    @pytest.mark.parametrize(
        "samples",
        [
            [-0.0, 0.0, 0.0, -0.0],
            [0.0, -0.0, 1.0, -1.0, -0.0],
            [-0.0, 0.0, 2.5, 2.5, 2.5],
            [-3.0, -3.0, -3.0, 0.0, -0.0],
            [-2.0] * 7 + [0.5, 1.5] + [4.0] * 9,
        ],
        ids=["zeros", "zeros-mixed", "zeros-gains", "losses-zeros", "long-ends"],
    )
    def test_signed_zeros_at_a_zero_reference_match_per_sample_estimate(self, samples):
        for model in _family_models(0.0):
            _assert_matches_per_sample(samples, model)
            _assert_matches_per_sample(samples[::-1], model)

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize(
        "offsets",
        [
            (0.0, 0.0),
            (0.0, 2.5),
            (-2.5, 0.0),
            (1.0, 3.0),
            (-3.0, -1.0),
            (-4.0, 0.0, 0.0, 0.0, 6.0),
            (0.0, 0.0, 1.5, 7.0),
            (-7.0, -1.5, 0.0, 0.0),
        ],
        ids=["n2-at-ref", "n2-ref-gain", "n2-loss-ref", "n2-gains", "n2-losses",
             "ties-at-ref", "gains-from-ref", "losses-to-ref"],
    )
    def test_edge_batches_match_reference(self, offsets, descending):
        for model in _family_models(1.25):
            samples = sorted((1.25 + x for x in offsets), reverse=descending)
            expected, scale = _reference_estimate(samples, model)
            est = estimate_cpt(samples, model)
            assert est.value == pytest.approx(expected, rel=0.0, abs=1e-12 * scale)

    @given(
        data=st.data(),
        offsets=st.lists(st.integers(-400, 400), min_size=2, max_size=60),
        shift=st.integers(-400, 400),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, data, offsets, shift):
        # quarter-integers keep every shifted sample and difference exact
        model = data.draw(models())
        u = model.utility
        moved = UtilitySpec(u.kind, u.sigma_plus, u.sigma_minus, u.loss_aversion,
                            u.reference + shift / 4)
        samples = [u.reference + x / 4 for x in offsets]
        before = estimate_cpt(samples, model)
        after = estimate_cpt(
            [x + shift / 4 for x in samples],
            CptModel(moved, model.weight_plus, model.weight_minus),
        )
        _, scale = _reference_estimate(samples, model)
        assert after.value == pytest.approx(before.value, rel=0.0, abs=1e-12 * scale)

    @given(
        data=st.data(),
        others=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
        side=st.sampled_from((1.0, -1.0)),
        magnitude=st.floats(0.0, 50.0),
        raise_by=st.floats(1e-6, 60.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_raising_one_sample_never_lowers_the_value(
        self, data, others, side, magnitude, raise_by
    ):
        # first-order stochastic dominance: the raised sample may be a gain
        # or a loss, and may cross the reference
        model = data.draw(models(families=("eu", "tk", "prelec")))
        ref = model.utility.reference
        x = ref + side * magnitude
        before = estimate_cpt(others + [x], model)
        after = estimate_cpt(others + [x + raise_by], model)
        _, scale = _reference_estimate(others + [x + raise_by], model)
        assert after.value >= before.value - 1e-12 * scale

    @pytest.mark.parametrize("n", [20_000, 200_000])
    def test_independent_of_blas_thread_count(self, n):
        # numpy's pairwise sums make no BLAS call; a BLAS dot product splits
        # its sum by thread above ~1e4 entries and changes the last bits
        script = (
            "import sys, numpy as np\n"
            "from cptopt import CptModel, estimate_cpt\n"
            "n = int(sys.argv[1])\n"
            "xs = np.random.default_rng(n).normal(0.3, 2.0, n)\n"
            "for model in (CptModel.identity(), CptModel.tversky_kahneman()):\n"
            "    est = estimate_cpt(xs, model)\n"
            "    print(est.positive_part.hex(), est.negative_part.hex())\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(cptopt.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        single = subprocess.run(
            [sys.executable, "-c", script, str(n)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        xs = np.random.default_rng(n).normal(0.3, 2.0, n)
        here = []
        for model in (CptModel.identity(), CptModel.tversky_kahneman()):
            est = estimate_cpt(xs, model)
            here += [est.positive_part.hex(), est.negative_part.hex()]
        assert single == here

    def test_ties_are_harmless(self):
        est_tied = estimate_cpt([2.0, 2.0, 2.0, 5.0], tk_model())
        manual = estimate_cpt([2.0, 2.0 + 0.0, 2.0, 5.0], tk_model())
        assert est_tied == manual


UTILITY = UtilitySpec.piecewise_power(0.88, 0.88, 2.25)
ORACLE_MODELS = {
    "identity": CptModel.identity(),
    "tk": CptModel(
        UTILITY, WeightSpec.tversky_kahneman(0.61), WeightSpec.tversky_kahneman(0.69)
    ),
    "prelec": CptModel(UTILITY, WeightSpec.prelec(0.65), WeightSpec.prelec(0.5)),
}


class TestEmpiricalDistributionOracles:
    """The estimate is the model value of the samples' empirical distribution."""

    @pytest.mark.parametrize("n", [2, 3, 100])
    @pytest.mark.parametrize("c", [1.0, 3.5, -1.0, -0.25])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_constant_outcome_is_its_utility(self, name, c, n):
        # every weight telescopes from w(0) = 0 to w(1) = 1, so the value of a
        # point mass is the utility of the point
        model = ORACLE_MODELS[name]
        gain, loss = model.utility.gain_values(c), model.utility.loss_values(c)
        est = estimate_cpt([c] * n, model)
        assert est.value == pytest.approx(float(gain - loss), rel=1e-14, abs=0.0)

    @given(
        data=st.data(),
        atoms=st.lists(st.integers(-40, 40), min_size=1, max_size=6, unique=True),
        n=st.integers(2, 80),
    )
    @settings(max_examples=300, deadline=None)
    def test_tied_samples_match_the_discrete_estimator(self, data, atoms, n):
        model = data.draw(models())
        ref = model.utility.reference
        support = [ref + a / 4 for a in atoms]
        picks = data.draw(st.lists(st.sampled_from(support), min_size=n, max_size=n))
        est = estimate_cpt(picks, model)
        # on the samples' own support, samples and tallies are one sum
        own = sorted(set(picks))
        dist = DiscreteDist.from_outcomes(own, [1.0 / len(own)] * len(own), ref)
        tallied = estimate_cpt_discrete(counts_from_samples(picks, dist), dist, model)
        assert _bits(tallied) == _bits(est)
        # an unpicked atom adds a zero term, which may regroup the pairwise sums
        dist = DiscreteDist.from_outcomes(support, [1.0 / len(support)] * len(support), ref)
        expected = estimate_cpt_discrete(counts_from_samples(picks, dist), dist, model)
        scale = 1.0 + float(np.max(
            model.utility.gain_values(np.asarray(support))
            + model.utility.loss_values(np.asarray(support))
        ))
        assert est.value == pytest.approx(expected.value, rel=0.0, abs=1e-12 * scale)

    def test_counts_reach_a_full_side_exactly(self):
        # 1/27 + 16/27 + 10/27 sums to 1 - 2**-53 in floats, and TK eta = 0.5
        # is so steep at 1 that w there is off by 5e-9; the counts' own
        # cumulated fractions end at 1.0, as the sample estimator's grid does
        model = CptModel(
            UtilitySpec.piecewise_power(1.0, 1.0, 1.0),
            WeightSpec.tversky_kahneman(1.0),
            WeightSpec.tversky_kahneman(0.5),
        )
        picks = [-0.75] + [-0.5] * 16 + [-0.25] * 10
        dist = DiscreteDist.from_outcomes([-0.75, -0.5, -0.25], [1 / 3] * 3, 0.0)
        expected = estimate_cpt_discrete(counts_from_samples(picks, dist), dist, model)
        assert estimate_cpt(picks, model).value == pytest.approx(
            expected.value, rel=0.0, abs=1e-15
        )


class TestEstimateConsistency:
    def test_uniform_tk_consistency_at_1e5(self):
        model = tk_model(0.61)
        truth = cpt_value_quadrature(Uniform(0, 1), model, 1e-9)
        dist = Uniform(0, 1)
        estimates = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            estimates.append(estimate_cpt(dist.sample(rng, 100_000), model).value)
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert abs(estimates.mean() - truth) <= 3 * se

    @pytest.mark.parametrize(
        "model,truth",
        [
            (IDENTITY, 0.5),
            (
                CptModel(
                    weight_plus=WeightSpec.power(2.0),
                    weight_minus=WeightSpec.power(2.0),
                ),
                1.0 / 3.0,
            ),
        ],
        ids=["identity", "power2"],
    )
    def test_lipschitz_rmse_rate(self, model, truth):
        dist = Uniform(0, 1)
        ns = [100, 1_000, 10_000]
        rmses = []
        for n in ns:
            errors = []
            for seed in range(100):
                rng = np.random.default_rng(10_000 + seed)
                errors.append(estimate_cpt(dist.sample(rng, n), model).value - truth)
            rmses.append(np.sqrt(np.mean(np.square(errors))))
        slope = fit_loglog_slope(ns, rmses)
        assert -0.6 <= slope <= -0.4


DISCRETE_SEED = 20_261


def dkw_holder_tolerance(dist, model, n, delta=1e-9, holder_const=2.0):
    """Bound on |C(empirical) - C(true)| that fails with probability <= delta.

    Each side of the value is an integral of w(P(u(X) > z)) over the range
    [0, M] of its utility, so a weight with |w(p) - w(q)| <= H |p - q|^alpha
    moves it by at most H M ||F_n - F||^alpha (the Holder bound behind the
    paper's sample-size results), and the DKW inequality with Massart's
    constant gives ||F_n - F|| <= sqrt(ln(2/delta) / 2n) with probability
    1 - delta.  H = 2 covers the identity weight (1) and Tversky-Kahneman at
    eta >= 0.61, whose sharpest constant on a 6000-point log grid of [0, 1]
    is 1/eta, reached near p = 1.
    """
    xs = np.asarray(dist.support)
    spread = model.utility.gain_values(xs).max() + model.utility.loss_values(xs).max()
    t = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return holder_const * spread * t**model.holder_order


LOSS_GAIN_DIST = DiscreteDist.from_outcomes(
    support=(-4.0, -1.0, 0.5, 2.0, 6.0),
    probs=(0.1, 0.25, 0.3, 0.2, 0.15),
)


def _merge_loop(support, probs):
    """Duplicate atoms merged as first written: one pass over the stably sorted
    atoms, keeping each value's first spelling (so -0.0 before 0.0 stays -0.0)."""
    xs = np.asarray(support, dtype=float)
    ps = np.asarray(probs, dtype=float)
    order = np.argsort(xs, kind="stable")
    keep_x, keep_p = [], []
    for x, p in zip(xs[order], ps[order]):
        if keep_x and x == keep_x[-1]:
            keep_p[-1] += p
        else:
            keep_x.append(float(x))
            keep_p.append(float(p))
    return keep_x, keep_p


def _assert_merge_matches_loop(support, probs):
    dist = DiscreteDist(tuple(support), tuple(probs), 0)
    want_x, want_p = _merge_loop(support, probs)
    assert [x.hex() for x in dist.support] == [x.hex() for x in want_x]
    assert [p.hex() for p in dist.probs] == [p.hex() for p in want_p]


def _distorted_sum(
    p: np.ndarray, dist: DiscreteDist, model: CptModel, total: float = 1.0
) -> tuple[float, float]:
    """Gain and loss parts of the discrete formula for atom masses p of sum
    ``total``.

    Integer counts with their total keep every cumulated probability one
    rounding from exact, so a full side weighs ``w(1.0)``: under a weight
    with an unbounded slope at 1 (Tversky-Kahneman eta < 1), a cumulated
    ``1 - 2**-53`` moves the estimate by about 1e-8.
    """
    xs = np.asarray(dist.support)
    l = dist.split
    k = dist.size

    neg = 0.0
    if l > 0:
        f_loss = np.cumsum(p[:l]) / total  # cumulated from the worst loss upward
        w = model.weight_minus.apply(np.clip(f_loss, 0.0, 1.0))
        increments = np.diff(np.concatenate(([0.0], w)))
        neg = float(np.dot(model.utility.loss_values(xs[:l]), increments))

    pos = 0.0
    if l < k:
        f_gain = np.cumsum(p[l:][::-1])[::-1] / total  # from the best gain downward
        w = model.weight_plus.apply(np.clip(f_gain, 0.0, 1.0))
        increments = np.diff(np.concatenate((w, [0.0]))) * -1.0
        pos = float(np.dot(model.utility.gain_values(xs[l:]), increments))

    return pos, neg


# The discrete estimators against ``_distorted_sum``, their body before they
# shared ``estimate_cpt``'s sum (copied verbatim above).  The two add each
# side's terms in different orders, a BLAS dot product there and a pairwise
# reduction now, so each part may move by a few roundings of its own size:
# at most 4.3e-16 relative over 3000 random supports, 8.2e-16 over 310000
# more.  The bound leaves room above that.
DISTORTED_SUM_REL = 2e-15


@st.composite
def tallied_supports(draw):
    """A model, a 1..60-atom support around its reference (with or without an
    atom at the reference) and multinomial tallies of 2..2000 draws."""
    model = draw(models())
    ref = model.utility.reference
    offsets = draw(st.lists(st.integers(-200, 200), min_size=1, max_size=60, unique=True))
    if draw(st.booleans()) and 0 not in offsets:
        offsets[0] = 0
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(offsets), max_size=len(offsets)))
    support = [ref + a / 4 for a in offsets]
    dist = DiscreteDist.from_outcomes(support, np.asarray(weights) / sum(weights), ref)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = dist.sample_counts(rng, draw(st.integers(2, 2000)))
    return model, dist, counts


class TestDiscreteEstimator:
    @given(case=tallied_supports())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_distorted_sum_oracle(self, case):
        model, dist, counts = case
        est = estimate_cpt_discrete(counts, dist, model)
        pos, neg = _distorted_sum(np.asarray(counts, dtype=float), dist, model, int(counts.sum()))
        assert est.n == int(counts.sum())
        assert abs(est.positive_part - pos) <= DISTORTED_SUM_REL * pos
        assert abs(est.negative_part - neg) <= DISTORTED_SUM_REL * neg
        # the exact value is one subtraction: bound it by the parts' sizes
        pos, neg = _distorted_sum(np.asarray(dist.probs), dist, model)
        exact = exact_cpt_discrete(dist, model)
        assert abs(exact - (pos - neg)) <= DISTORTED_SUM_REL * (pos + neg)

    def test_two_gain_atoms_identity(self):
        dist = DiscreteDist.from_outcomes((10.0, 20.0), (0.5, 0.5))
        est = estimate_cpt_discrete([500, 500], dist, IDENTITY)
        assert est.value == pytest.approx(15.0, abs=1e-12)
        assert est.n == 1000

    def test_two_gain_atoms_power_weight(self):
        dist = DiscreteDist.from_outcomes((10.0, 20.0), (0.5, 0.5))
        model = CptModel(
            weight_plus=WeightSpec.power(2.0), weight_minus=WeightSpec.power(2.0)
        )
        est = estimate_cpt_discrete([500, 500], dist, model)
        # 10*(1 - 0.25) + 20*0.25
        assert est.value == pytest.approx(12.5, abs=1e-12)

    def test_single_loss_atom(self):
        dist = DiscreteDist.from_outcomes((-5.0,), (1.0,))
        est = estimate_cpt_discrete([7], dist, IDENTITY)
        assert est.value == pytest.approx(-5.0, abs=1e-12)

    def test_exact_matches_estimate_at_exact_proportions(self):
        model = CptModel(
            weight_plus=WeightSpec.power(2.0), weight_minus=WeightSpec.power(2.0)
        )
        dist = DiscreteDist.from_outcomes((10.0, 20.0), (0.5, 0.5))
        assert exact_cpt_discrete(dist, model) == pytest.approx(12.5, abs=1e-12)
        est = estimate_cpt_discrete([513, 513], dist, model)
        assert est.value == pytest.approx(12.5, abs=1e-12)

    def test_all_mass_at_reference_scores_zero(self):
        dist = DiscreteDist.from_outcomes((0.0,), (1.0,))
        assert exact_cpt_discrete(dist, CptModel.tversky_kahneman()) == 0.0

    def test_errors(self):
        dist = DiscreteDist.from_outcomes((1.0, 2.0), (0.5, 0.5))
        with pytest.raises(ValueError):
            estimate_cpt_discrete([0, 0], dist, IDENTITY)
        with pytest.raises(TypeError):
            estimate_cpt_discrete({3.0: 4}, dist, IDENTITY)
        with pytest.raises(ValueError):
            estimate_cpt_discrete([1, 2, 3], dist, IDENTITY)
        with pytest.raises(ValueError):
            counts_from_samples([1.0, 7.0], dist)

    def test_counts_from_samples(self):
        dist = DiscreteDist.from_outcomes((-1.0, 2.0, 5.0), (0.2, 0.5, 0.3))
        counts = counts_from_samples([2.0, 2.0, -1.0, 5.0], dist)
        assert counts.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("sample", [0.5, np.float64(0.5), np.float32(0.5)])
    def test_unknown_sample_is_named_as_a_float(self, sample):
        dist = DiscreteDist((0.0, 1.0), (0.5, 0.5), 1)
        with pytest.raises(ValueError) as info:
            counts_from_samples([sample], dist)
        assert str(info.value) == "sample value 0.5 is not a support point"

    @pytest.mark.parametrize(
        "counts",
        [[True, True], np.array([True, False]), [True, 2], [2, np.True_], (np.False_, 3)],
    )
    def test_bool_counts_rejected(self, counts):
        # numpy reads a list mixing bools and ints as an int array
        dist = DiscreteDist.from_outcomes((1.0, 2.0), (0.5, 0.5))
        with pytest.raises(TypeError, match="counts must be integers"):
            estimate_cpt_discrete(counts, dist, IDENTITY)

    @pytest.mark.parametrize(
        "counts", [[1, 2], (1, 2), np.array([1, 2]), np.array([1, 2], dtype=np.uint8),
                   [np.int64(1), 2]],
    )
    def test_int_counts_accepted(self, counts):
        dist = DiscreteDist.from_outcomes((1.0, 2.0), (0.5, 0.5))
        est = estimate_cpt_discrete(counts, dist, IDENTITY)
        assert est.n == 3 and est.value == pytest.approx(5 / 3, abs=1e-15)

    @pytest.mark.parametrize(
        "counts",
        [[1.0, 2.0], (1, 2.0), np.array([1.0, 2.0]), np.array([1, 2], dtype=np.float32)],
    )
    def test_float_counts_rejected(self, counts):
        # as as_int rejects 2.0, a tally is an integer, not a whole float
        dist = DiscreteDist.from_outcomes((1.0, 2.0), (0.5, 0.5))
        with pytest.raises(TypeError, match="counts must be integers"):
            estimate_cpt_discrete(counts, dist, IDENTITY)

    def test_count_total_is_exact(self):
        # a float sum would lose the 1 and report n = 2**60
        dist = DiscreteDist.from_outcomes((1.0, 2.0), (0.5, 0.5))
        est = estimate_cpt_discrete([2**60, 1], dist, IDENTITY)
        assert type(est.n) is int and est.n == 2**60 + 1

    @pytest.mark.parametrize(
        "counts", [[2**62, 2**62], np.array([2**63, 1], dtype=np.uint64)], ids=["int64", "uint64"]
    )
    def test_count_total_beyond_int64_rejected(self, counts):
        # the tallies cumulate in int64, which would wrap
        dist = DiscreteDist.from_outcomes((1.0, 2.0), (0.5, 0.5))
        with pytest.raises(ValueError, match=r"counts must sum to at most 2\*\*63 - 1"):
            estimate_cpt_discrete(counts, dist, IDENTITY)

    @pytest.mark.parametrize("total", [2**40, 2**52, 2**53 - 1])
    def test_large_count_totals_keep_the_float_tally_bits(self, total):
        # below 2**53 every partial sum is exact in float64 too
        rng = np.random.default_rng(total % 1000)
        dist = DiscreteDist.from_outcomes((-2.0, -0.5, 1.0, 3.0), (0.25,) * 4)
        counts = rng.multinomial(total, (0.1, 0.2, 0.3, 0.4))
        for model in _family_models(0.0):
            pos, neg = _one_pass_tally_sum(counts.astype(float), total, dist, model)
            assert _bits(estimate_cpt_discrete(counts, dist, model)) == (
                total, pos.hex(), neg.hex()
            )

    @pytest.mark.parametrize(
        "reference, error", [(math.nan, ValueError), (math.inf, ValueError),
                             (-math.inf, ValueError), (True, TypeError)]
    )
    def test_bad_reference_rejected(self, reference, error):
        with pytest.raises(error, match="reference must be"):
            DiscreteDist.from_outcomes((1.0, 2.0), (0.5, 0.5), reference)

    def test_split_mismatch_rejected(self):
        dist = DiscreteDist(support=(1.0, 2.0), probs=(0.5, 0.5), split=2)
        with pytest.raises(ValueError):
            exact_cpt_discrete(dist, CptModel.identity(reference=-9.0))

    @pytest.mark.parametrize("probs", [(math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)])
    def test_nan_probabilities_rejected_at_construction(self, probs):
        with pytest.raises(ValueError, match="probs must be finite"):
            DiscreteDist((1.0, 2.0), probs, 0)
        with pytest.raises(ValueError, match="probs must be finite"):
            DiscreteDist.from_outcomes((1.0, 2.0), probs)

    @given(
        atoms=st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 1.0)), min_size=1, max_size=8
        ),
        model=st.sampled_from(
            (CptModel.identity(), CptModel.expected_utility(), CptModel.tversky_kahneman())
        ),
        stream=st.integers(0, 2**16),
    )
    # merges to one atom of probability 1.0000000000000002
    @example(
        atoms=[(0.0, 0.625), (0.0, 0.99999), (0.0, 0.625)], model=CptModel.identity(), stream=0
    )
    @settings(max_examples=150, deadline=None)
    def test_estimate_converges_to_exact_on_random_supports(self, atoms, model, stream):
        support, weights = zip(*atoms)
        dist = DiscreteDist.from_outcomes(support, np.asarray(weights) / sum(weights))
        n = 10**6
        counts = dist.sample_counts(cptopt.substream(DISCRETE_SEED, stream), n)
        error = estimate_cpt_discrete(counts, dist, model).value - exact_cpt_discrete(dist, model)
        assert abs(error) <= dkw_holder_tolerance(dist, model, n)

    @pytest.mark.parametrize(
        "dist",
        [
            DiscreteDist((1.0,), (1.0 + 5e-13,), 0),
            DiscreteDist((1.0, 2.0), (1.0 + 5e-13, 0.0), 0),
        ],
    )
    def test_probabilities_a_rounding_above_one_can_be_sampled(self, dist):
        counts = dist.sample_counts(np.random.default_rng(0), 10)
        assert counts.tolist() == [10] + [0] * (dist.size - 1)

    def test_sample_counts_draw_as_multinomial_of_the_probabilities(self):
        rng, want = np.random.default_rng(3), np.random.default_rng(3)
        counts = LOSS_GAIN_DIST.sample_counts(rng, 1_000)
        assert counts.tolist() == want.multinomial(1_000, LOSS_GAIN_DIST.probs).tolist()

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    def test_sample_counts_n_must_be_an_integer(self, n):
        # True once drew 1 sample and 3.0 drew 3
        with pytest.raises(TypeError, match="n must be an integer"):
            LOSS_GAIN_DIST.sample_counts(np.random.default_rng(0), n)

    def test_sample_counts_n_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            LOSS_GAIN_DIST.sample_counts(np.random.default_rng(0), -1)
        assert LOSS_GAIN_DIST.sample_counts(np.random.default_rng(0), 0).sum() == 0
        rng, want = np.random.default_rng(3), np.random.default_rng(3)
        counts = LOSS_GAIN_DIST.sample_counts(rng, np.int64(7))
        assert counts.tolist() == LOSS_GAIN_DIST.sample_counts(want, 7).tolist()

    def test_dedup_merges_probabilities(self):
        dist = DiscreteDist.from_outcomes((1.0, 1.0, 2.0), (0.25, 0.25, 0.5))
        assert dist.support == (1.0, 2.0)
        assert dist.probs == (0.5, 0.5)

    @given(
        support=st.lists(
            st.sampled_from((-0.0, 0.0, 1.0, -1.0, 0.5)) | st.floats(-10.0, 10.0),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_merge_matches_loop(self, support, data):
        weights = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=len(support), max_size=len(support))
            .filter(lambda w: sum(w) > 0.0)
        )
        _assert_merge_matches_loop(support, np.asarray(weights) / sum(weights))

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_matches_loop_on_large_supports(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1_000, 5_000))
        pool = np.concatenate(([-0.0, 0.0], np.round(rng.normal(size=200), 1)))
        probs = rng.random(n)
        _assert_merge_matches_loop(rng.choice(pool, size=n), probs / probs.sum())


    def test_identity_exact_value_is_shifted_mean(self):
        model = CptModel.identity()
        value = exact_cpt_discrete(LOSS_GAIN_DIST, model)
        assert value == pytest.approx(LOSS_GAIN_DIST.mean(), abs=1e-12)

    def test_multinomial_consistency_rate(self):
        model = CptModel.tversky_kahneman()
        truth = exact_cpt_discrete(LOSS_GAIN_DIST, model)
        ns = [1_000, 10_000, 100_000]
        rmses = []
        for n in ns:
            errors = []
            for seed in range(100):
                rng = np.random.default_rng(5_000 + seed)
                counts = LOSS_GAIN_DIST.sample_counts(rng, n)
                errors.append(
                    estimate_cpt_discrete(counts, LOSS_GAIN_DIST, model).value - truth
                )
            rmses.append(np.sqrt(np.mean(np.square(errors))))
        slope = fit_loglog_slope(ns, rmses)
        assert -0.6 <= slope <= -0.4

    def test_raw_sample_scheme_agrees_with_discrete_oracle(self):
        model = CptModel.tversky_kahneman()
        truth = exact_cpt_discrete(LOSS_GAIN_DIST, model)
        values = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            samples = LOSS_GAIN_DIST.sample(rng, 100_000)
            values.append(estimate_cpt(samples, model).value)
        values = np.asarray(values)
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - truth) <= 3 * se


# The one-pass rank-weighted sum and the tied-run path of ``estimate_cpt``
# and the discrete estimators as they were before the terms were evaluated
# in blocks, copied verbatim (the split check aside).  The blocked sum must
# give the same bits at every size around the block boundaries.


def _one_pass_rank_weighted_sum(values, k, m, gain_grid, loss_grid, model):
    """Gain and loss parts over the ascending distinct ``values``, of which
    ``values[k:]`` are gains and ``values[:m]`` losses; ``gain_grid`` and
    ``loss_grid`` cumulate their shares from each side's tail, from 0."""
    # gain i (0-based, k <= i) pairs with w+(P(X >= x_i)) - w+(P(X > x_i))
    w_plus = model.weight_plus.apply(gain_grid)
    d_plus = (w_plus[1:] - w_plus[:-1])[::-1]
    pos = float(np.add.reduce(model.utility.gain_values(values[k:]) * d_plus))
    # loss i (0 <= i < m) pairs with w-(P(X <= x_i)) - w-(P(X < x_i))
    w_minus = model.weight_minus.apply(loss_grid)
    d_minus = w_minus[1:] - w_minus[:-1]
    neg = float(np.add.reduce(model.utility.loss_values(values[:m]) * d_minus))
    return pos, neg


def _one_pass_run_estimate(samples, model):
    """``estimate_cpt`` through its tied-run path, summed in one pass."""
    arr = np.asarray(samples, dtype=float)
    n = arr.size
    xs = np.sort(arr)
    first = np.empty(n + 1, dtype=bool)  # first[j]: j == n or xs[j] opens a run
    first[0] = first[n] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:n])
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))  # xs[k:] are the gains
    m = int(xs.searchsorted(ref, "left"))  # xs[:m] are the losses
    below = first.nonzero()[0]  # samples under each run, ending at n
    values = xs[below[:-1]]
    k, m = int(below.searchsorted(k)), int(below.searchsorted(m))  # in runs
    # a run's per-sample increments telescope to one over the whole run
    gain_grid, loss_grid = (n - below[k:][::-1]) / n, below[: m + 1] / n
    pos, neg = _one_pass_rank_weighted_sum(values, k, m, gain_grid, loss_grid, model)
    return CptEstimate(n=n, positive_part=pos, negative_part=neg)


def _one_pass_tally_sum(masses, total, dist, model):
    """The discrete estimators' sum, in one pass."""
    xs = np.asarray(dist.support)
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))  # xs[k:] are the gains
    m = int(xs.searchsorted(ref, "left"))  # xs[:m] are the losses
    cum_gain = np.concatenate(([0.0], np.cumsum(masses[k:][::-1])))  # from the best gain down
    cum_loss = np.concatenate(([0.0], np.cumsum(masses[:m])))  # from the worst loss up
    grids = (np.minimum(cum / total, 1.0) for cum in (cum_gain, cum_loss))
    return _one_pass_rank_weighted_sum(xs, k, m, *grids, model)


BLOCK_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 7]
REFERENCE_PLACES = ["below", "inside", "at", "above"]


def _reference_at(place, samples):
    """A reference below, inside (between samples), at (on a sample) or above
    the batch."""
    xs = np.unique(samples)
    if place == "below":
        return float(xs[0]) - 1.0
    if place == "above":
        return float(xs[-1]) + 1.0
    mid = xs.size // 3
    return float(xs[mid]) if place == "at" else float((xs[mid] + xs[mid + 1]) / 2)


def _tied_batch(kind, n, rng):
    """Ties everywhere (a few atoms), in the dense middle only (rounded
    normals) or in pairs (about n/2 runs, so more than one block of them)."""
    if kind == "atoms":
        return rng.integers(-40, 41, n) / 4
    if kind == "rounded":
        return np.round(rng.normal(0.0, 2.0, n), 3)
    return rng.permutation(np.repeat(rng.normal(0.0, 2.0, n // 2 + 1), 2)[:n])


class TestBlockedSum:
    """Terms evaluated block by block give the one-pass sum's bits."""

    @pytest.mark.parametrize("place", REFERENCE_PLACES)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_tie_free_batches_match_per_sample_estimate(self, n, place):
        samples = np.random.default_rng(n).normal(0.0, 2.0, n)
        kept = samples.copy()
        for model in _family_models(_reference_at(place, samples)):
            assert _bits(estimate_cpt(samples, model)) == _bits(_per_sample_estimate(samples, model))
        assert samples.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("kind", ["atoms", "rounded", "pairs"])
    @pytest.mark.parametrize("place", REFERENCE_PLACES)
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_tied_batches_match_the_one_pass_run_sum(self, n, place, kind):
        samples = _tied_batch(kind, n, np.random.default_rng(n))
        assert np.unique(samples).size < n
        kept = samples.copy()
        for model in _family_models(_reference_at(place, samples)):
            assert _bits(estimate_cpt(samples, model)) == _bits(
                _one_pass_run_estimate(samples, model)
            )
        assert samples.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    def test_sorted_float64_samples_are_left_unchanged(self, tied):
        rng = np.random.default_rng(5)
        samples = np.sort(_tied_batch("rounded", 2 * _BLOCK + 1, rng) if tied
                          else rng.normal(0.0, 2.0, 2 * _BLOCK + 1))
        kept = samples.copy()
        for model in _family_models(0.0):
            estimate_cpt(samples, model)
            assert samples.tobytes() == kept.tobytes()

    def test_no_full_length_temporary_on_tie_free_input(self):
        # the sorted copy (8 bytes a sample) and the run marks (1 byte) are
        # the only length-n arrays; one more float array would add 8
        n = 2**20
        samples = np.random.default_rng(3).normal(0.0, 2.0, n)
        tracemalloc.start()
        try:
            estimate_cpt(samples, CptModel.tversky_kahneman())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n

    @pytest.mark.parametrize(
        "size", list(range(1, 41)) + BLOCK_SIZES, ids=lambda s: f"atoms{s}"
    )
    def test_discrete_estimators_match_the_one_pass_sum(self, size):
        rng = np.random.default_rng(size)
        for trial in range(6 if size <= 40 else 1):
            support = np.unique(np.round(rng.normal(0.0, 3.0, size), 2))
            probs = rng.random(support.size) + 0.01
            for place in REFERENCE_PLACES if support.size > 1 else ("below", "above"):
                ref = _reference_at(place, support)
                dist = DiscreteDist.from_outcomes(support, probs / probs.sum(), ref)
                counts = dist.sample_counts(rng, int(rng.integers(2, 5 * size + 3)))
                for model in _family_models(ref):
                    pos, neg = _one_pass_tally_sum(np.asarray(dist.probs), 1.0, dist, model)
                    assert exact_cpt_discrete(dist, model).hex() == (pos - neg).hex()
                    pos, neg = _one_pass_tally_sum(counts.astype(float), counts.sum(), dist, model)
                    est = estimate_cpt_discrete(counts, dist, model)
                    assert _bits(est) == (int(counts.sum()), pos.hex(), neg.hex())


@st.composite
def cached_batches(draw):
    """A tie-free batch of 2..bound+1 samples around a reference, maybe with a
    signed zero or the reference itself among them, and a model of any
    weight family at that reference."""
    ref = draw(st.sampled_from((0.0, -0.0)) | REFERENCES)
    model = draw(models())
    model = CptModel(
        dataclasses.replace(model.utility, reference=ref), model.weight_plus, model.weight_minus
    )
    n = draw(st.integers(2, _CACHED_MAX_N + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = ref + rng.normal(0.0, draw(st.sampled_from((0.01, 1.0, 50.0))), n)
    for x in draw(st.lists(st.sampled_from((0.0, -0.0, ref)), max_size=2, unique=True)):
        if x not in samples:  # -0.0 == 0.0, so at most one zero: no tie
            samples[draw(st.integers(0, n - 1))] = x
    return samples, model


def _cache_key(model, n):
    w_plus, w_minus = model.weight_plus, model.weight_minus
    return (w_plus.kind, w_plus.eta, w_minus.kind, w_minus.eta, n)


class TestIncrementCache:
    """Small tie-free batches take their weight increments from a cache."""

    @given(case=cached_batches())
    @settings(max_examples=300, deadline=None)
    def test_cached_estimate_matches_per_sample_estimate_bit_for_bit(self, case):
        samples, model = case
        assert np.unique(samples).size == samples.size
        want = _bits(_per_sample_estimate(samples, model))
        estimator._INCREMENTS.clear()
        assert _bits(estimate_cpt(samples, model)) == want  # a miss fills the entry
        assert _bits(estimate_cpt(samples[::-1], model)) == want  # a hit reads it
        if samples.size <= _CACHED_MAX_N:
            assert _cache_key(model, samples.size) in estimator._INCREMENTS
        else:
            assert not estimator._INCREMENTS

    def test_entries_are_keyed_by_both_weights_and_n(self):
        estimator._INCREMENTS.clear()
        rng = np.random.default_rng(4)
        utility = UtilitySpec.piecewise_power(0.7, 0.9, 2.25)
        weights = [WeightSpec.tversky_kahneman(0.61), WeightSpec.tversky_kahneman(0.69),
                   WeightSpec.prelec(0.65), WeightSpec.identity()]
        for _ in range(2):  # the second pass reads every entry the first one made
            for n in (10, 11, _CACHED_MAX_N):
                samples = rng.normal(0.0, 1.0, n)
                for w_plus, w_minus in itertools.product(weights, repeat=2):
                    model = CptModel(utility, w_plus, w_minus)
                    want = _bits(_per_sample_estimate(samples, model))
                    assert _bits(estimate_cpt(samples, model)) == want
        assert len(estimator._INCREMENTS) == 3 * len(weights) ** 2

    def test_equal_specs_share_an_entry_and_distinct_etas_never_do(self):
        estimator._INCREMENTS.clear()
        samples = np.random.default_rng(5).normal(0.0, 1.0, 40)
        eta = 0.61
        first, equal = tk_model(eta, eta), tk_model(eta, eta)
        assert first.weight_plus is not equal.weight_plus and first.weight_plus == equal.weight_plus
        estimate_cpt(samples, first)
        entry = estimator._INCREMENTS[_cache_key(first, 40)]
        assert _bits(estimate_cpt(samples, equal)) == _bits(_per_sample_estimate(samples, equal))
        assert len(estimator._INCREMENTS) == 1
        assert estimator._INCREMENTS[_cache_key(equal, 40)] is entry
        # the next eta up, on either side, reads its own increments
        near = math.nextafter(eta, 1.0)
        for model in (tk_model(near, eta), tk_model(eta, near), tk_model(near, near)):
            want = _bits(_per_sample_estimate(samples, model))
            assert _bits(estimate_cpt(samples, model)) == want
        assert len(estimator._INCREMENTS) == 4
        assert estimator._INCREMENTS[_cache_key(first, 40)] is entry

    def test_entries_hold_gain_increments_reversed_and_contiguous(self):
        estimator._INCREMENTS.clear()
        model = tk_model(0.61, 0.69)
        estimate_cpt(np.random.default_rng(0).normal(0.0, 1.0, 30), model)
        d_plus, d_minus = estimator._INCREMENTS[_cache_key(model, 30)]
        want_plus, want_minus = _grid_increments(model, 30)
        assert d_plus.tobytes() == want_plus[::-1].tobytes()
        assert d_minus.tobytes() == want_minus.tobytes()
        assert d_plus.flags.c_contiguous and d_minus.flags.c_contiguous

    def test_entries_are_read_only(self):
        estimator._INCREMENTS.clear()
        model = tk_model(0.61, 0.69)
        estimate_cpt(np.random.default_rng(0).normal(0.0, 1.0, 30), model)
        for d in estimator._INCREMENTS[_cache_key(model, 30)]:
            assert d.shape == (30,) and not d.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                d[0] = 1.0

    def test_cache_stays_within_its_cap(self):
        estimator._INCREMENTS.clear()
        rng = np.random.default_rng(1)
        model = tk_model()
        for n in range(_CACHED_MAX_N, _CACHED_MAX_N - 2 * _INCREMENTS_MAX - 7, -1):
            estimate_cpt(rng.normal(0.0, 1.0, n), model)
            assert 1 <= len(estimator._INCREMENTS) <= _INCREMENTS_MAX
            held = sum(d.nbytes for entry in estimator._INCREMENTS.values() for d in entry)
            assert held <= 4 * 2**20

    def test_only_small_tie_free_batches_are_cached(self):
        estimator._INCREMENTS.clear()
        rng = np.random.default_rng(2)
        model = tk_model()
        estimate_cpt(rng.normal(0.0, 1.0, _CACHED_MAX_N + 1), model)
        estimate_cpt(np.round(rng.normal(0.0, 1.0, 40)), model)  # tied
        dist = DiscreteDist.from_outcomes((-1.0, 2.0), (0.5, 0.5))
        estimate_cpt_discrete([3, 4], dist, model)
        exact_cpt_discrete(dist, model)
        assert not estimator._INCREMENTS

    def test_equal_weight_specs_share_an_entry(self):
        estimator._INCREMENTS.clear()
        samples = np.random.default_rng(3).normal(0.0, 1.0, 25)
        a = estimate_cpt(samples, tk_model(0.61, 0.69))
        entry = next(iter(estimator._INCREMENTS.values()))
        other = CptModel(
            UtilitySpec.piecewise_power(0.5, 0.5, 2.0, reference=0.1),
            WeightSpec.from_json(WeightSpec.tversky_kahneman(0.61).to_json()),
            WeightSpec("tversky_kahneman", 0.69),
        )
        b = estimate_cpt(samples, other)
        assert len(estimator._INCREMENTS) == 1
        assert all(x is y for x, y in zip(next(iter(estimator._INCREMENTS.values())), entry))
        assert a != b  # the utilities differ; only the weights are shared


def _grid_increments(model, n):
    """Both sides' weight increments w((j+1)/n) - w(j/n), j = 0..n-1, in grid
    order: the cache's values, whatever its layout."""
    grid = np.arange(n + 1) / n
    return tuple(np.diff(w.apply(grid)) for w in (model.weight_plus, model.weight_minus))


def _verbatim_tie_free_sum(xs, k, m, model):
    """The tie-free small-batch sum as it was before it wrote the utilities
    over ``xs`` itself, copied verbatim but for its increments, which come in
    grid order: through ``gain_values`` and ``loss_values``."""
    n, u = xs.size, model.utility
    d_plus, d_minus = _grid_increments(model, n)
    # the j-th gain from the top pairs with w+((j+1)/n) - w+(j/n)
    np.multiply(u.gain_values(xs[k:]), d_plus[: n - k][::-1], xs[k:])
    np.multiply(u.loss_values(xs[:m]), d_minus[:m], xs[:m])
    return CptEstimate(n, float(np.add.reduce(xs[k:])), float(np.add.reduce(xs[:m])))


def _planted_no_loss_aversion(xs, k, m, model):
    """A faulty in-place sum: the loss aversion is left out."""
    n, u = xs.size, model.utility
    d_plus, d_minus = _grid_increments(model, n)
    gains, losses = xs[k:], xs[:m]
    np.power(gains - u.reference, u.sigma_plus, gains)
    np.multiply(gains, d_plus[: n - k][::-1], gains)
    np.power(u.reference - losses, u.sigma_minus, losses)
    np.multiply(losses, d_minus[:m], losses)
    return CptEstimate(n, float(np.add.reduce(gains)), float(np.add.reduce(losses)))


def _planted_unreversed_gains(xs, k, m, model):
    """A faulty in-place sum: the lowest gain takes the top gain's increment."""
    n, u = xs.size, model.utility
    d_plus, d_minus = _grid_increments(model, n)
    np.multiply(u.gain_values(xs[k:]), d_plus[: n - k], xs[k:])
    np.multiply(u.loss_values(xs[:m]), d_minus[:m], xs[:m])
    return CptEstimate(n, float(np.add.reduce(xs[k:])), float(np.add.reduce(xs[:m])))


IN_PLACE_REFERENCES = (0.0, 0.4, -0.4)


def _in_place_batch(n, side, ref, seed):
    """A tie-free batch of ``n`` samples around ``ref``: mixed, all gains
    (strictly above ``ref``) or all losses (strictly below it)."""
    rng = np.random.default_rng(seed)
    offsets = rng.normal(0.0, rng.choice((1e-3, 1.0, 30.0)), n)
    if side == "gains":
        offsets = np.abs(offsets) + 1e-9
    elif side == "losses":
        offsets = -np.abs(offsets) - 1e-9
    samples = ref + offsets
    assert np.unique(samples).size == n
    return samples


def _in_place_mismatches(tie_free_sum, cases):
    """The (n, side, reference, model) cases where ``tie_free_sum`` on the
    sorted copy gives other bits than the verbatim sum."""
    bad = []
    for n, side, ref, seed in cases:
        samples = _in_place_batch(n, side, ref, seed)
        xs = np.sort(samples)
        for model in _family_models(ref):
            k = int(xs.searchsorted(ref, "right"))
            m = int(xs.searchsorted(ref, "left"))
            want = _bits(_verbatim_tie_free_sum(xs.copy(), k, m, model))
            if _bits(tie_free_sum(xs.copy(), k, m, model)) != want:
                bad.append((n, side, ref, model))
            elif tie_free_sum is estimator._tie_free_sum:
                assert _bits(estimate_cpt(samples, model)) == want
    return bad


IN_PLACE_EDGE_CASES = [
    (n, side, ref, 17)
    for n in (2, 3, 10, 60, 142, _CACHED_MAX_N - 1, _CACHED_MAX_N)
    for side in ("mixed", "gains", "losses")
    for ref in IN_PLACE_REFERENCES
]


class TestInPlaceTieFreeSum:
    """The small tie-free sum writes the utilities over the sorted copy in
    place, with the bits of ``gain_values`` and ``loss_values``."""

    def test_edge_sizes_match_the_verbatim_sum(self):
        assert _in_place_mismatches(estimator._tie_free_sum, IN_PLACE_EDGE_CASES) == []

    @given(
        n=st.integers(2, _CACHED_MAX_N),
        side=st.sampled_from(("mixed", "gains", "losses")),
        ref=st.sampled_from(IN_PLACE_REFERENCES),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_batches_match_the_verbatim_sum(self, n, side, ref, seed):
        assert _in_place_mismatches(estimator._tie_free_sum, [(n, side, ref, seed)]) == []

    @pytest.mark.parametrize("planted", [_planted_no_loss_aversion, _planted_unreversed_gains])
    def test_a_planted_fault_is_caught(self, planted):
        assert _in_place_mismatches(planted, IN_PLACE_EDGE_CASES) != []

    @pytest.mark.parametrize("sigmas", [(0.88, 0.88), (0.7, 0.9)])
    def test_sorted_samples_at_the_reference_are_neither_gain_nor_loss(self, sigmas):
        # the sample equal to the reference scores zero: its distance, 0, is
        # written over it, and no power or weight touches it
        utility = UtilitySpec.piecewise_power(*sigmas, 2.25, reference=0.4)
        model = CptModel(
            utility, WeightSpec.tversky_kahneman(0.61), WeightSpec.tversky_kahneman(0.69)
        )
        xs = np.array([-1.0, 0.4, 2.0])
        est = estimator._tie_free_sum(xs, 2, 1, model)
        assert xs[1] == 0.0
        assert _bits(est) == _bits(_verbatim_tie_free_sum(np.array([-1.0, 0.4, 2.0]), 2, 1, model))


def _per_side_tie_free_sum(xs, k, m, model):
    """The small tie-free sum as it was before both sides shared one power and
    the cache reversed w+'s increments, copied verbatim but for its
    increments, which come in grid order: each side its own distance and
    power."""
    n, u = xs.size, model.utility
    d_plus, d_minus = _grid_increments(model, n)
    gains, losses = xs[k:], xs[:m]
    np.subtract(gains, u.reference, gains)
    if u.sigma_plus != 1.0:
        np.power(gains, u.sigma_plus, gains)
    # the j-th gain from the top pairs with w+((j+1)/n) - w+(j/n)
    np.multiply(gains, d_plus[: n - k][::-1], gains)
    np.subtract(u.reference, losses, losses)
    if u.sigma_minus != 1.0:
        np.power(losses, u.sigma_minus, losses)
    if u.loss_aversion != 1.0:  # a product with 1.0 is exact
        np.multiply(losses, u.loss_aversion, losses)
    np.multiply(losses, d_minus[:m], losses)
    return CptEstimate(n, float(np.add.reduce(gains)), float(np.add.reduce(losses)))


def _per_side_small_estimate(samples, model):
    """``estimate_cpt`` on a small tie-free batch as it was: both split
    indices from their own ``searchsorted``, then the verbatim sum."""
    xs = np.sort(np.asarray(samples, dtype=float))
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))
    m = int(xs.searchsorted(ref, "left"))
    return _per_side_tie_free_sum(xs, k, m, model)


def _utility_models(ref):
    """Models over every exponent case at reference ``ref``: a shared exponent
    not 1, split exponents (either one 1), unit exponents, with and without
    loss aversion."""
    utilities = [
        UtilitySpec.identity(ref),
        UtilitySpec.piecewise_power(1.0, 1.0, 2.25, ref),
        UtilitySpec.piecewise_power(0.88, 0.88, 2.25, ref),
        UtilitySpec.piecewise_power(0.5, 0.5, 1.0, ref),
        UtilitySpec.piecewise_power(0.7, 0.9, 2.25, ref),
        UtilitySpec.piecewise_power(1.0, 0.6, 1.5, ref),
        UtilitySpec.piecewise_power(0.6, 1.0, 1.0, ref),
    ]
    weights = [
        (WeightSpec.identity(), WeightSpec.identity()),
        (WeightSpec.tversky_kahneman(0.61), WeightSpec.tversky_kahneman(0.69)),
        (WeightSpec.prelec(0.65), WeightSpec.power(2.0)),
    ]
    return [CptModel(u, *w) for u in utilities for w in weights]


def _small_path_mismatches(samples, estimate=estimate_cpt):
    """The (reference, model) pairs at which ``estimate`` of the tie-free
    ``samples``, shifted to the reference, has other bits than the earlier
    small-batch path."""
    bad = []
    for ref in (0.0, 0.4, -0.4):
        for model in _utility_models(ref):
            want = _bits(_per_side_small_estimate(samples + ref, model))
            if _bits(estimate(samples + ref, model)) != want:
                bad.append((ref, model))
    return bad


def _planted_unreversed_cache(samples, model):
    """A faulty small path: w+'s increments read in grid order at [k:]."""
    xs = np.sort(samples)
    ref = model.utility.reference
    k = int(xs.searchsorted(ref, "right"))
    m = int(xs.searchsorted(ref, "left"))
    d_plus, d_minus = _grid_increments(model, xs.size)
    gains, losses = model.utility.gain_values(xs[k:]), model.utility.loss_values(xs[:m])
    pos = float(np.add.reduce(gains * d_plus[k:]))
    return CptEstimate(xs.size, pos, float(np.add.reduce(losses * d_minus[:m])))


def _planted_loss_count_is_gain_count(samples, model):
    """A faulty small path: a sample at the reference counted as a loss."""
    xs = np.sort(samples)
    k = int(xs.searchsorted(model.utility.reference, "right"))
    return estimator._tie_free_sum(xs, k, k, model)


class TestSmallTieFreePath:
    """A tie-free batch of n <= 1024 shares one power between both sides when
    their exponents agree, reads w+'s increments reversed from the cache and
    takes the loss count from the gain count: the estimate keeps the bits of
    the per-side path, where each side takes its own distance and power."""

    @pytest.mark.parametrize("n", [2, 3, 10, 32, 142, _CACHED_MAX_N - 1, _CACHED_MAX_N])
    @pytest.mark.parametrize("side", ["mixed", "gains", "losses"])
    @pytest.mark.parametrize("at_reference", [False, True], ids=["off-ref", "at-ref"])
    def test_edge_batches_match_the_per_side_path(self, n, side, at_reference):
        offsets = _in_place_batch(n, side, 0.0, n)
        if at_reference:
            offsets[n // 2] = 0.0  # one sample exactly at the reference
        assert _small_path_mismatches(offsets) == []

    @pytest.mark.parametrize("zero, ref", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_signed_zero_at_the_reference(self, zero, ref):
        samples = np.array([-2.0, zero, 0.5, 3.0])
        for model in _utility_models(ref):
            want = _bits(_per_side_small_estimate(samples, model))
            assert _bits(estimate_cpt(samples, model)) == want
            assert _bits(estimate_cpt(samples[::-1], model)) == want

    @given(
        n=st.integers(2, _CACHED_MAX_N),
        side=st.sampled_from(("mixed", "gains", "losses")),
        seed=st.integers(0, 2**32 - 1),
        at_reference=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_batches_match_the_per_side_path(self, n, side, seed, at_reference):
        offsets = _in_place_batch(n, side, 0.0, seed)
        if at_reference:
            offsets[seed % n] = 0.0
        assert _small_path_mismatches(offsets) == []

    @pytest.mark.parametrize(
        "planted", [_planted_unreversed_cache, _planted_loss_count_is_gain_count]
    )
    def test_a_planted_fault_is_caught(self, planted):
        # among them seven losses and a sample at the reference: a sum of
        # eight terms is pairwise, one of seven is not
        caught = []
        for n, side in itertools.product((3, 8, 9, 10), ("mixed", "losses")):
            offsets = _in_place_batch(n, side, 0.0, n)
            offsets[-1] = 0.0
            caught += _small_path_mismatches(offsets, planted)
        assert caught != []


class TestSampleSizeCalculators:
    def test_unit_parameters(self):
        assert required_samples_holder(1.0, np.exp(-1.0), 1.0, 1.0, 1.0) == 4

    def test_holder_half(self):
        assert required_samples_holder(0.5, np.exp(-1.0), 1.0, 1.0, 0.5) == 64

    def test_lipschitz_oracle_value(self):
        assert required_samples_lipschitz(0.1, 0.05, 2.0, 10.0) == N_LIPSCHITZ_ORACLE

    def test_alpha_one_equals_lipschitz(self):
        for eps, delta, c, m in [(1.0, 0.5, 1.0, 1.0), (0.2, 0.01, 3.0, 7.0)]:
            assert required_samples_holder(eps, delta, c, m, 1.0) == (
                required_samples_lipschitz(eps, delta, c, m)
            )

    def test_doubling_m_quadruples_n(self):
        base = np.log(1 / 0.3) * 4 * 1.5**2 * 2.0**2 / 0.25**2
        assert base * 4 == np.log(1 / 0.3) * 4 * 1.5**2 * 4.0**2 / 0.25**2
        n1 = required_samples_lipschitz(0.25, 0.3, 1.5, 2.0)
        n4 = required_samples_lipschitz(0.25, 0.3, 1.5, 4.0)
        assert np.ceil(base) == n1 and np.ceil(4 * base) == n4

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            required_samples_holder(0.0, 0.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            required_samples_holder(1.0, 1.5, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            required_samples_holder(1.0, 0.5, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            required_samples_holder(1.0, 0.5, 1.0, 1.0, 1.5)

    def test_lipschitz_checks_its_own_constant(self):
        with pytest.raises(ValueError, match="^lipschitz_const must be positive, got -1.0"):
            required_samples_lipschitz(0.1, 0.1, -1.0, 1)

    @pytest.mark.parametrize(
        "args",
        [(1e-300, 0.1, 1.0, 1.0, 0.5), (0.1, 0.1, 1e200, 1e200, 1.0), (0.1, 0.1, 1e150, 1e150, 1.0),
         (0.1, 0.1, 10**200, 10**200, 1.0)],
        ids=["eps-underflows", "constants-overflow", "product-overflows", "int-constants"],
    )
    def test_count_beyond_the_float_range_is_a_value_error(self, args):
        with pytest.raises(ValueError, match="required sample count is not a finite number"):
            required_samples_holder(*args)

    def test_numpy_float32_arguments_are_computed_in_double(self):
        # 1e20 squared overflows float32 but not a double
        big = np.float32(1e20)
        assert required_samples_holder(np.float32(0.1), 0.1, big, big, 1.0) == (
            required_samples_holder(float(np.float32(0.1)), 0.1, float(big), float(big), 1.0)
        )
