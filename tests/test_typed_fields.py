"""Construction checks every int and float field by its annotation.

Each config dataclass passes its fields through ``_codec.check_fields``: a
bool, a numeric string, NaN or an infinity fails at construction with an
error naming the field, an integer given for a float field is kept as an
integer, and a numpy scalar is stored as the equal Python int or float.  The
public functions' scalar arguments follow the same rules.
"""

import dataclasses
import importlib
import math
import pkgutil
import typing

import numpy as np
import pytest

import cptopt
from cptopt import (
    BoxConstraint,
    CptModel,
    ExperimentConfig,
    GaussianMeanEnv,
    SpsaSchedules,
    UtilitySpec,
    WeightSpec,
    ascend_newton,
    cpt_value_quadrature,
    eval_utility,
    psd_project,
    required_samples_holder,
    required_samples_lipschitz,
    spsa_gradient,
)
from cptopt._codec import JsonRecord
from cptopt.envs.ssp import BoltzmannPolicy, SspMdp, two_state_chain
from cptopt.envs.traffic import TrafficConfig, TrafficEpisode
from cptopt.estimator import CptEstimate, DiscreteDist
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


def numeric_fields(cls: type) -> list[tuple[str, type, bool]]:
    """(name, int or float, is a tuple of it) for each such field of ``cls``."""
    out = []
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        if typing.get_origin(tp) is typing.Union:  # Optional[X]
            tp = typing.get_args(tp)[0]
        is_tuple = typing.get_origin(tp) is tuple
        tp = typing.get_args(tp)[0] if is_tuple else tp
        if tp in (int, float):
            out.append((f.name, tp, is_tuple))
    return out


FIELDS = [(cls, *field) for cls in VALID for field in numeric_fields(cls)]


def field_id(case) -> str:
    return f"{case[0].__name__}.{case[1]}"


def replaced(record, name: str, value, is_tuple: bool):
    """``record`` rebuilt with ``value`` for the field (its first item, for a tuple)."""
    if is_tuple:
        value = (value, *getattr(record, name)[1:])
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
    cls, name, tp, is_tuple = case
    record = VALID[cls]()
    error = ValueError if tp is float and isinstance(bad, float) else TypeError
    with pytest.raises(error, match=rf"^{name} must be "):
        replaced(record, name, bad, is_tuple)


def first(record, name: str, is_tuple: bool):
    """The field's value, or its first item for a tuple."""
    value = getattr(record, name)
    return value[0] if is_tuple else value


WHOLE_FLOAT_FIELDS = [
    case
    for case in FIELDS
    if case[2] is float and float(first(VALID[case[0]](), case[1], case[3])).is_integer()
]


@pytest.mark.parametrize("case", WHOLE_FLOAT_FIELDS, ids=field_id)
def test_an_integer_stays_an_integer_in_a_float_field(case):
    cls, name, _, is_tuple = case
    whole = int(first(VALID[cls](), name, is_tuple))
    record = replaced(VALID[cls](), name, whole, is_tuple)
    assert type(first(record, name, is_tuple)) is int
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
    cls, name, _, is_tuple = case
    value = scalar(first(VALID[cls](), name, is_tuple))
    record = replaced(VALID[cls](), name, value, is_tuple)
    stored = first(record, name, is_tuple)
    assert type(stored) is (int if scalar is np.int64 else float) and stored == value
    assert cls.from_json(record.to_json()) == record


def _newton_with(**argument):
    box = BoxConstraint.cube(0.0, 1.0, 1)
    return ascend_newton(
        lambda theta, m, rng: 0.0, SpsaSchedules(), box, np.array([0.5]), 0, 0, **argument
    )


ARGUMENTS = {
    "eval_utility.x": lambda v: eval_utility(v, UtilitySpec()),
    "cpt_value_quadrature.tol": lambda v: cpt_value_quadrature(Uniform(), CptModel(), v),
    "spsa_gradient.delta": lambda v: spsa_gradient(1.0, 0.0, v, np.array([1.0])),
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
