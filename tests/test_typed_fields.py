"""Construction checks every int and float field by its annotation.

Each config dataclass passes its fields through ``_codec.check_fields``: a
bool, a numeric string, NaN or an infinity fails at construction with an
error naming the field, an integer given for a float field is kept as an
integer, and a numpy scalar is stored as the equal Python int or float.  The
public functions' scalar arguments follow the same rules, and their array
arguments pass through ``_codec.as_array``: integer and float arrays give the
bits of float64 input, and a bool, string, complex or object array, a
non-finite entry or a wrong shape fails naming the argument.
"""

import dataclasses
import importlib
import math
import pkgutil
import re
import typing
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cptopt
from cptopt import (
    BoxConstraint,
    CptModel,
    DiscreteDist,
    ExperimentConfig,
    GaussianMeanEnv,
    SpsaSchedules,
    UtilitySpec,
    WeightSpec,
    ascend,
    ascend_newton,
    composite_cpt,
    counts_from_samples,
    cpt_value_quadrature,
    estimate_cpt,
    psd_project,
    required_samples_holder,
    required_samples_lipschitz,
    spsa_gradient,
    spsa_n_estimates,
)
from cptopt._codec import JsonRecord
from cptopt.envs.ssp import BoltzmannPolicy, SspMdp, boltzmann_probs, two_state_chain
from cptopt.envs.traffic import BoltzmannSignPolicy, TrafficConfig, TrafficEpisode, TrafficGrid
from cptopt.estimator import CptEstimate
from cptopt.harness import TrafficObjective
from cptopt.models import Exponential, Gaussian, TwoPoint, Uniform
from cptopt.spsa import IterationRecord

# a valid record of each checked class; float fields are whole numbers where
# the class allows it, so the integer test can take them
VALID = {
    UtilitySpec: lambda: UtilitySpec("piecewise_power", 1.0, 1.0, 2.0, 0.0),
    WeightSpec: lambda: WeightSpec("power", 2.0),
    Uniform: lambda: Uniform(0.0, 1.0),
    Gaussian: lambda: Gaussian(0.0, 1.0),
    TwoPoint: lambda: TwoPoint(0.0, 1.0, 1.0),
    Exponential: lambda: Exponential(1.0),
    SpsaSchedules: lambda: SpsaSchedules(1.0, 50.0, 2.0, 0.101, 10.0, 1.0, 1.0),
    BoxConstraint: lambda: BoxConstraint((0.0, 1.0), (2.0, 3.0)),
    TrafficConfig: lambda: TrafficConfig(
        arrival_rates=(1.0, 1.0, 0.0, 0.0), ew_rate=1.0, ns_rate=0.0, burst_prob=0.0
    ),
    SspMdp: two_state_chain,
    ExperimentConfig: lambda: ExperimentConfig(mu=(1.0, 0.0, 0.0, 0.0)),
}

# dataclasses the code builds itself, per iteration or per batch, and the
# discrete law, whose support and probabilities are checked as arrays
UNCHECKED = {IterationRecord, CptEstimate, TrafficEpisode, BoltzmannPolicy, DiscreteDist}

BAD = {"bool": True, "string": "1", "nan": math.nan, "inf": math.inf}


def numeric_fields(cls: type) -> list[tuple[str, type, int]]:
    """(name, int or float, how many tuples deep it sits) for each such field of
    ``cls``."""
    out = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp, depth = hints[f.name], 0
        if typing.get_origin(tp) is typing.Union:  # Optional[X]
            tp = typing.get_args(tp)[0]
        while typing.get_origin(tp) is tuple:
            tp, depth = typing.get_args(tp)[0], depth + 1
        if tp in (int, float):
            out.append((f.name, tp, depth))
    return out


FIELDS = [(cls, *field) for cls in VALID for field in numeric_fields(cls)]


def field_id(case) -> str:
    return f"{case[0].__name__}.{case[1]}"


def with_first_item(value, item, depth: int):
    """``value`` with its first item, ``depth`` tuples deep, replaced by ``item``."""
    if depth == 0:
        return item
    return (with_first_item(value[0], item, depth - 1), *value[1:])


def replaced(record, name: str, value, depth: int):
    """``record`` rebuilt with ``value`` for the field (its first item, for a tuple)."""
    value = with_first_item(getattr(record, name), value, depth)
    return dataclasses.replace(record, **{name: value})


def test_every_numeric_config_dataclass_is_checked():
    found = set()
    for info in pkgutil.walk_packages(cptopt.__path__, "cptopt."):
        for obj in vars(importlib.import_module(info.name)).values():
            if (
                isinstance(obj, type)
                and dataclasses.is_dataclass(obj)
                and obj.__module__.startswith("cptopt.")
                and numeric_fields(obj)
            ):
                found.add(obj)
    assert found - UNCHECKED == set(VALID)


@pytest.mark.parametrize("case", FIELDS, ids=field_id)
@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
def test_bad_field_value_is_rejected_naming_the_field(case, bad):
    cls, name, tp, depth = case
    record = VALID[cls]()
    error = ValueError if tp is float and isinstance(bad, float) else TypeError
    with pytest.raises(error, match=rf"^{name} must be "):
        replaced(record, name, bad, depth)


def first(record, name: str, depth: int):
    """The field's value, or its first item for a tuple, nested or not."""
    value = getattr(record, name)
    for _ in range(depth):
        value = value[0]
    return value


WHOLE_FLOAT_FIELDS = [
    case
    for case in FIELDS
    if case[2] is float and float(first(VALID[case[0]](), case[1], case[3])).is_integer()
]


@pytest.mark.parametrize("case", WHOLE_FLOAT_FIELDS, ids=field_id)
def test_an_integer_stays_an_integer_in_a_float_field(case):
    cls, name, _, depth = case
    whole = int(first(VALID[cls](), name, depth))
    record = replaced(VALID[cls](), name, whole, depth)
    assert type(first(record, name, depth)) is int
    if isinstance(record, JsonRecord):
        # what ``to_json`` writes, ``from_json`` reads back
        assert cls.from_json(record.to_json()) == record


# a numpy float for every float field of a JSON record, a numpy integer where
# the record's value is whole
NUMPY_CASES = [
    (case, scalar)
    for case in FIELDS
    if case[2] is float and issubclass(case[0], JsonRecord)
    for scalar in (np.float64, np.float32, np.int64)
    if scalar is not np.int64 or case in WHOLE_FLOAT_FIELDS
]


@pytest.mark.parametrize(
    "case, scalar", NUMPY_CASES, ids=lambda v: v.__name__ if isinstance(v, type) else field_id(v)
)
def test_a_numpy_scalar_is_stored_as_the_equal_python_number(case, scalar):
    cls, name, _, depth = case
    value = scalar(first(VALID[cls](), name, depth))
    record = replaced(VALID[cls](), name, value, depth)
    stored = first(record, name, depth)
    assert type(stored) is (int if scalar is np.int64 else float) and stored == value
    assert cls.from_json(record.to_json()) == record


def _newton_with(**argument):
    box = BoxConstraint.cube(0.0, 1.0, 1)
    return ascend_newton(
        lambda theta, m, rng: 0.0, SpsaSchedules(), box, np.array([0.5]), 0, 0, **argument
    )


ARGUMENTS = {
    "from_outcomes.reference": lambda v: DiscreteDist.from_outcomes((0.0, 1.0), (0.5, 0.5), v),
    "cpt_value_quadrature.tol": lambda v: cpt_value_quadrature(Uniform(), CptModel(), v),
    "spsa_gradient.c_plus": lambda v: spsa_gradient(v, 0.0, 0.1, np.array([1.0])),
    "spsa_gradient.c_minus": lambda v: spsa_gradient(1.0, v, 0.1, np.array([1.0])),
    "spsa_gradient.delta": lambda v: spsa_gradient(1.0, 0.0, v, np.array([1.0])),
    "spsa_n_estimates.c_plus": lambda v: spsa_n_estimates(v, 0.0, 0.5, 0.1, [1.0], [1.0]),
    "spsa_n_estimates.c_minus": lambda v: spsa_n_estimates(1.0, v, 0.5, 0.1, [1.0], [1.0]),
    "spsa_n_estimates.c_center": lambda v: spsa_n_estimates(1.0, 0.0, v, 0.1, [1.0], [1.0]),
    "psd_project.kappa": lambda v: psd_project(np.eye(2), v),
    "ascend_newton.hessian_scale": lambda v: _newton_with(hessian_scale=v),
    "ascend_newton.pd_floor": lambda v: _newton_with(pd_floor=v),
    "required_samples_holder.eps": lambda v: required_samples_holder(v, 0.1, 1, 1, 1),
    "required_samples_holder.delta": lambda v: required_samples_holder(0.1, v, 1, 1, 1),
    "required_samples_holder.holder_const": lambda v: required_samples_holder(0.1, 0.1, v, 1, 1),
    "required_samples_holder.utility_bound": lambda v: required_samples_holder(0.1, 0.1, 1, v, 1),
    "required_samples_holder.alpha": lambda v: required_samples_holder(0.1, 0.1, 1, 1, v),
    "required_samples_lipschitz.eps": lambda v: required_samples_lipschitz(v, 0.1, 1, 1),
    "required_samples_lipschitz.delta": lambda v: required_samples_lipschitz(0.1, v, 1, 1),
    "required_samples_lipschitz.lipschitz_const": lambda v: required_samples_lipschitz(
        0.1, 0.1, v, 1
    ),
    "required_samples_lipschitz.utility_bound": lambda v: required_samples_lipschitz(
        0.1, 0.1, 1, v
    ),
    "GaussianMeanEnv.noise_std": lambda v: GaussianMeanEnv(noise_std=v),
}


@pytest.mark.parametrize("where", ARGUMENTS)
@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
def test_bad_scalar_argument_is_rejected_naming_it(where, bad):
    name = where.split(".")[1]
    error = ValueError if isinstance(bad, float) else TypeError
    with pytest.raises(error, match=rf"^{name} must be "):
        ARGUMENTS[where](bad)


def test_holder_sample_count_takes_no_bool():
    # True once passed for eps = 1 and gave 10 samples
    with pytest.raises(TypeError, match="eps must be a number, got True"):
        required_samples_holder(True, 0.1, 1, 1, 1)
    assert required_samples_holder(1, 0.1, 1, 1, 1) == 10


@pytest.mark.parametrize("split", [True, 1.5, "1"])
def test_discrete_split_must_be_an_integer(split):
    with pytest.raises(TypeError, match="split must be an integer"):
        DiscreteDist((0.0, 1.0), (0.5, 0.5), split)


def test_gaussian_env_curvatures_must_fit_the_optimum():
    with pytest.raises(ValueError, match=r"curvatures of shape \(3,\) do not fit \(2,\)"):
        GaussianMeanEnv(optimum=(1, 2), curvatures=(1, 2, 3))
    assert GaussianMeanEnv(optimum=(1, 2), curvatures=(3,)).dim == 2


# array arguments: each entry is a valid value of small whole numbers whose
# first entry is 1 and a call that returns what the argument decides
_THREE_ATOMS = DiscreteDist((1.0, 2.0, 3.0), (0.2, 0.3, 0.5), 0)
_BOX = BoxConstraint((0.0, 0.0), (3.0, 3.0))
_TRAFFIC = TrafficGrid(TrafficConfig())
_PATH_SAMPLES = [[1.0, 2.0], [3.0, 5.0], [0.5, 0.25], [2.0, 2.0]]


def _dist_bits(dist: DiscreteDist) -> tuple:
    return (*dist.support, *dist.probs, dist.split)


def _estimate_bits(est: CptEstimate) -> tuple:
    return est.n, est.positive_part, est.negative_part


def _gaussian_draws(**arrays) -> np.ndarray:
    env = GaussianMeanEnv(**{"optimum": (2, 1), "curvatures": (1, 2), **arrays})
    return env.sample_returns(np.array([0.5, 1.5]), 4, np.random.default_rng(0))


def _ascend_from(theta0) -> np.ndarray:
    trace = ascend(lambda theta, m, rng: float(theta.sum()), SpsaSchedules(), _BOX, theta0, 2, 0)
    return np.concatenate([trace.thetas().ravel(), trace.final_theta])


ARRAY_ARGUMENTS = {
    "DiscreteDist.support": (
        (1, 2, 3), lambda v: _dist_bits(DiscreteDist(v, (0.5, 0.25, 0.25), 1))
    ),
    "DiscreteDist.probs": ((1, 0), lambda v: _dist_bits(DiscreteDist((1.0, 2.0), v, 1))),
    "DiscreteDist.from_outcomes.support": (
        (1, 2, 3), lambda v: _dist_bits(DiscreteDist.from_outcomes(v, (0.5, 0.25, 0.25), 1.5))
    ),
    "DiscreteDist.from_outcomes.probs": (
        (1, 0), lambda v: _dist_bits(DiscreteDist.from_outcomes((1.0, 2.0), v))
    ),
    "counts_from_samples.samples": (
        (1, 3, 3, 2), lambda v: counts_from_samples(v, _THREE_ATOMS).astype(float)
    ),
    "estimate_cpt.samples": (
        (1, 5, 2, 2, 0),
        lambda v: _estimate_bits(estimate_cpt(v, CptModel.tversky_kahneman(reference=2.0))),
    ),
    "BoxConstraint.contains.theta": ((1, 2), _BOX.contains),
    "BoxConstraint.project.theta": ((1, 5), _BOX.project),
    "spsa_gradient.perturb": ((1, 1), lambda v: spsa_gradient(2.0, 0.5, 0.25, v)),
    "spsa_n_estimates.perturb_hat": (
        (1, 1),
        lambda v: np.concatenate(
            [e.ravel() for e in spsa_n_estimates(2.0, 0.5, 1.0, 0.25, np.array([1.0, -1.0]), v)]
        ),
    ),
    "psd_project.h": (((1, 3), (0, 2)), lambda v: psd_project(v, 0.5)),
    "ascend.theta0": ((1, 2), _ascend_from),
    "ReturnEnv.sample_returns.theta": (
        (1, 2),
        lambda v: GaussianMeanEnv((2.0, 1.0)).sample_returns(v, 4, np.random.default_rng(0)),
    ),
    "GaussianMeanEnv.optimum": ((1, 3), lambda v: _gaussian_draws(optimum=v)),
    "GaussianMeanEnv.curvatures": ((1, 4), lambda v: _gaussian_draws(curvatures=v)),
    "BoltzmannSignPolicy.theta": (
        (1,) + (0,) * 11 + (2,) * (_TRAFFIC.feature_dim - 12),
        lambda v: BoltzmannSignPolicy(v, _TRAFFIC).p_ns_table(_TRAFFIC.n_junctions),
    ),
    "BoltzmannPolicy.theta": (
        (1, 3),
        lambda v: boltzmann_probs(BoltzmannPolicy(v, two_state_chain()), 1),
    ),
    "composite_cpt.mu": (
        (1, 0, 0, 0), lambda v: composite_cpt(_PATH_SAMPLES, v, CptModel.tversky_kahneman())
    ),
    "TrafficObjective.mu": (
        (1, 0, 0, 0),
        lambda v: TrafficObjective(_TRAFFIC, v, CptModel.identity(), 20)(
            np.ones(_TRAFFIC.feature_dim), 40, np.random.default_rng(0)
        ),
    ),
}


def with_first(value, first):
    """``value`` as nested lists of Python floats, its first entry replaced."""
    nested = np.asarray(value, dtype=np.float64).tolist()
    inner = nested
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = first
    return nested


def as_tuples(value):
    return tuple(map(as_tuples, value)) if isinstance(value, (list, tuple)) else value


SAME_BITS = {
    "int list": lambda v: np.asarray(v).tolist(),
    "int tuple": lambda v: as_tuples(np.asarray(v).tolist()),
    "float32": lambda v: np.asarray(v, dtype=np.float32),
    "int64": lambda v: np.asarray(v, dtype=np.int64),
    "uint8": lambda v: np.asarray(v, dtype=np.uint8),
    "bool and float": lambda v: with_first(v, True),  # numpy reads [True, 2.5] as float64
}


def bits(result) -> bytes:
    return np.asarray(result, dtype=np.float64).tobytes()


@pytest.mark.parametrize("where", ARRAY_ARGUMENTS)
@pytest.mark.parametrize("spelling", SAME_BITS)
def test_array_argument_gives_the_bits_of_float64_input(where, spelling):
    valid, call = ARRAY_ARGUMENTS[where]
    assert with_first(valid, 1.0) == np.asarray(valid, dtype=np.float64).tolist()
    assert bits(call(SAME_BITS[spelling](valid))) == bits(
        call(np.asarray(valid, dtype=np.float64))
    )


REJECTED = {
    "bool": (TypeError, lambda v: np.ones_like(np.asarray(v), dtype=bool)),
    "numeric strings": (TypeError, lambda v: np.asarray(v).astype(str).tolist()),
    "complex": (TypeError, lambda v: np.asarray(v, dtype=complex)),
    "Fractions": (TypeError, lambda v: np.frompyfunc(Fraction, 1, 1)(np.asarray(v))),
    "nan": (ValueError, lambda v: with_first(v, math.nan)),
    "inf": (ValueError, lambda v: with_first(v, math.inf)),
    "wrong shape": (ValueError, lambda v: [np.asarray(v, dtype=np.float64).tolist()]),
}
# a point with a NaN or an infinity is simply outside the box
NON_FINITE_READ = {"BoxConstraint.contains.theta"}


@pytest.mark.parametrize("where", ARRAY_ARGUMENTS)
@pytest.mark.parametrize("spelling", REJECTED)
def test_bad_array_argument_is_rejected_naming_it(where, spelling):
    valid, call = ARRAY_ARGUMENTS[where]
    error, spell = REJECTED[spelling]
    if where in NON_FINITE_READ and spelling in ("nan", "inf"):
        assert call(spell(valid)) is False
        return
    name = where.split(".")[-1]
    with pytest.raises(error, match=rf"^{name} "):
        call(spell(valid))


# ``np.asarray(x, dtype=float)`` reads bools, numeric strings and complex
# numbers as floats; outside the models' internal paths, arrays go through
# ``as_array``
_FLOAT_ASARRAY = re.compile(
    r"np\.asarray\((?:[^()]|\([^()]*\))*?,\s*(?:dtype\s*=\s*)?float\s*\)"
)


def test_array_arguments_are_read_by_as_array_only():
    src = Path(cptopt.__file__).parent
    found = [
        f"{path.relative_to(src)}: {match.group()}"
        for path in sorted(src.rglob("*.py"))
        if path.name != "models.py"
        for match in _FLOAT_ASARRAY.finditer(path.read_text())
    ]
    assert found == []


def test_float_asarray_pattern():
    for text in ("np.asarray(x, dtype=float)", "np.asarray(x, float)",
                 "np.asarray(self.theta, float)", "np.asarray(f(a, b), dtype=float)",
                 "np.asarray(\n    x, dtype=float)"):
        assert _FLOAT_ASARRAY.search(text), text
    for text in ("np.asarray(x)", "np.asarray(x, dtype=np.float32)", "np.asarray(x) + float(y)"):
        assert not _FLOAT_ASARRAY.search(text), text


def test_nested_tuple_items_are_stored_as_python_numbers():
    mdp = dataclasses.replace(two_state_chain(), rewards=[[np.float32(0.5), 1]])
    assert mdp.rewards == ((0.5, 1),) and type(mdp.rewards[0][0]) is float
