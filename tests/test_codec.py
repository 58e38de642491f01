"""The JSON codec shared by the model, traffic and experiment configs."""

import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptopt import CptModel, ExperimentConfig, SpsaSchedules, UtilitySpec, WeightSpec
from cptopt._codec import as_array
from cptopt.envs.traffic import TrafficConfig

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "cls, doc, where",
    [
        (ExperimentConfig, {"sigma": "0.88"}, "sigma"),
        (ExperimentConfig, {"master_seed": 1.5}, "master_seed"),
        (ExperimentConfig, {"train_iters": None}, "train_iters"),
        (ExperimentConfig, {"traffic": {"rows": 2.5}}, "traffic.rows"),
        (ExperimentConfig, {"traffic": {"rows": True}}, "traffic.rows"),
        (ExperimentConfig, {"traffic": {"queue_bins": [4]}}, "traffic.queue_bins"),
        (ExperimentConfig, {"traffic": {"arrival_rates": 5}}, "traffic.arrival_rates"),
        (ExperimentConfig, {"mu": 5}, "mu"),
        (ExperimentConfig, {"mu": [0.25, 0.25, 0.25, "0.25"]}, "mu[3]"),
        (ExperimentConfig, {"schedules": {"m0": "15"}}, "schedules.m0"),
        (CptModel, {"weight_plus": {"eta": "2"}}, "weight_plus.eta"),
        (CptModel, {"weight_plus": {"kind": "power", "eta": "2"}}, "weight_plus.eta"),
        (CptModel, {"utility": {"kind": "piecewise_power", "lambda": "2"}}, "utility.lambda"),
        (TrafficConfig, {"queue_bins": [4, 12, 20]}, "queue_bins"),
    ],
)
def test_wrongly_typed_value_names_the_key(cls, doc, where):
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{re.escape(where)} must be "):
        cls.from_dict(doc)


@pytest.mark.parametrize("value", [False, True, "no"])
def test_removed_include_top_key_is_unknown(value):
    with pytest.raises(ValueError, match=r"unknown ExperimentConfig key\(s\) 'include_top'"):
        ExperimentConfig.from_dict({"include_top": value})


def test_integers_stay_valid_and_uncoerced_for_float_fields():
    config = ExperimentConfig.from_dict({"schedules": {"alpha": 0.61, "m0": 15}, "sigma": 1})
    assert config.schedules.m0 == 15 and type(config.schedules.m0) is int
    assert config.to_dict()["schedules"]["m0"] == 15 and config.to_dict()["sigma"] == 1
    model = CptModel.from_dict({"weight_plus": {"kind": "power", "eta": 1}})
    assert model.weight_plus.eta == 1 and type(model.weight_plus.eta) is int


@pytest.mark.parametrize(
    "cls, text, where",
    [
        (TrafficConfig, '{"ew_rate": 1' + "0" * 400 + "}", "ew_rate"),
        (ExperimentConfig, '{"mu": [1' + "0" * 400 + ", 0, 0, 0]}", "mu[0]"),
        (CptModel, '{"utility": {"lambda": -1' + "0" * 309 + "}}", "utility.lambda"),
    ],
)
def test_integer_beyond_the_float_range_names_the_key(cls, text, where):
    with pytest.raises(
        ValueError, match=rf"^{cls.__name__}\.{re.escape(where)} must be within the float range"
    ):
        cls.from_json(text)


def test_golden_records_keep_their_key_order():
    """The golden generators write ``to_dict()`` without ``sort_keys``."""
    traffic = json.loads((DATA / "traffic_golden_2x3.json").read_text())["config"]
    assert json.dumps(TrafficConfig.from_dict(traffic).to_dict()) == json.dumps(traffic)
    for case in json.loads((DATA / "spsa_golden.json").read_text()):
        model = case["model"]
        assert json.dumps(CptModel.from_dict(model).to_dict()) == json.dumps(model)


# -- round trips over random valid records ------------------------------------

unit = st.floats(0.05, 1.0)
utilities = st.one_of(
    st.builds(UtilitySpec.identity, st.floats(-5, 5)),
    st.builds(UtilitySpec.piecewise_power, unit, unit, st.floats(1.0, 4.0), st.floats(-5, 5)),
)
weights = st.one_of(
    st.just(WeightSpec.identity()),
    st.builds(WeightSpec.tversky_kahneman, st.floats(0.3, 1.0)),
    st.builds(WeightSpec.prelec, unit),
    st.builds(WeightSpec.power, st.floats(0.05, 3.0)),
)
models = st.builds(CptModel, utilities, weights, weights)


@st.composite
def traffic_configs(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rates = st.lists(st.floats(0.0, 2.0), min_size=rows + cols, max_size=rows + cols)
    low = draw(st.integers(0, 10))
    return TrafficConfig(
        rows=rows,
        cols=cols,
        arrival_rates=draw(st.none() | rates.map(tuple)),
        burst_prob=draw(st.floats(0.0, 1.0)),
        queue_bins=(low, low + draw(st.integers(1, 10))),
    )


@st.composite
def schedules(draw):
    # alpha at most the default cpt weights' Holder order, min(0.61, 0.69)
    alpha, nu = draw(st.floats(0.2, 0.61)), draw(st.floats(0.5, 2.0))
    delta_exp = draw(st.floats(0.01, 0.99)) * min(0.5, nu * alpha / 2)
    return SpsaSchedules(m0=draw(st.floats(1.0, 20.0)), nu=nu, alpha=alpha, delta_exp=delta_exp)


@st.composite
def experiment_configs(draw):
    traffic = draw(traffic_configs())
    n = traffic.rows + traffic.cols
    # path weights: nonnegative, summing to 1
    mu = (
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        .filter(lambda w: sum(w) > 0.0)
        .map(lambda w: tuple(v / sum(w) for v in w))
    )
    return ExperimentConfig(
        traffic=traffic,
        master_seed=draw(st.integers(0, 2**31)),
        train_iters=draw(st.integers(0, 50)),
        loss_aversion=draw(st.floats(1.0, 4.0)),
        theta_init=draw(st.floats(0.2, 9.9)),
        schedules=draw(schedules()),
        mu=draw(st.none() | mu),
    )


def _keys(record) -> list:
    return ["lambda" if f.name == "loss_aversion" else f.name for f in fields(record)]


def _check_key_order(record, doc):
    assert list(doc) == _keys(record)
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            _check_key_order(value, doc[f.name])


def _check_partial(record, names, spell_loss_aversion="lambda"):
    """``from_dict`` of some of ``record``'s keys equals the constructor on them."""
    kwargs = {name: getattr(record, name) for name in names}
    full = dict(zip([f.name for f in fields(record)], record.to_dict().values()))
    doc = {
        spell_loss_aversion if name == "loss_aversion" else name: full[name]
        for name in names
    }
    cls = type(record)
    try:
        expected = cls(**kwargs)
    except ValueError:
        with pytest.raises(ValueError):
            cls.from_dict(doc)
    else:
        assert cls.from_dict(doc) == expected


def _subsets(cls):
    return st.sets(st.sampled_from([f.name for f in fields(cls)]))


@settings(max_examples=150, deadline=None)
@given(
    experiment_configs(),
    _subsets(ExperimentConfig),
    _subsets(TrafficConfig),
    st.sampled_from(["lambda", "loss_aversion"]),
)
def test_experiment_config_round_trip(config, names, traffic_names, spelling):
    assert ExperimentConfig.from_json(config.to_json()) == config
    _check_key_order(config, config.to_dict())
    _check_partial(config, names, spelling)
    _check_partial(config.traffic, traffic_names)


@settings(max_examples=150, deadline=None)
@given(models, _subsets(CptModel), _subsets(UtilitySpec))
def test_model_round_trip(model, names, utility_names):
    assert CptModel.from_json(model.to_json()) == model
    _check_key_order(model, model.to_dict())
    _check_partial(model, names)
    _check_partial(model.utility, utility_names)


def test_as_array_returns_float64_of_the_shape():
    given = np.array([[1.0, 2.0]])
    assert as_array("x", given, 2) is given  # float64 is not copied
    assert as_array("x", given, (1, 2)) is given
    for value in ([1, 2], (1, 2), np.array([1, 2], np.uint8), np.array([1, 2], np.float32)):
        arr = as_array("x", value, 1)
        assert arr.dtype == np.float64 and arr.tolist() == [1.0, 2.0]
    assert as_array("x", [np.nan, np.inf], 1, finite=False).tolist()[1] == np.inf


@pytest.mark.parametrize(
    "value, shape, error, message",
    [
        ([True, False], 1, TypeError, "x must be an array of real numbers, got dtype bool"),
        (["1", "2"], 1, TypeError, "x must be an array of real numbers, got dtype <U1"),
        ([1j, 2], 1, TypeError, "x must be an array of real numbers, got dtype complex128"),
        ([2**64, 1], 1, TypeError, "x must be an array of real numbers, got dtype object"),
        ([1.0, 2.0], 2, ValueError, r"x has shape \(2,\), expected a 2-d array"),
        ([1.0, 2.0], (3,), ValueError, r"x has shape \(2,\), expected \(3,\)"),
        (2.0, (1,), ValueError, r"x has shape \(\), expected \(1,\)"),
        ([1.0, np.nan], 1, ValueError, "x must be finite"),
        ([[-np.inf]], 2, ValueError, "x must be finite"),
    ],
)
def test_as_array_rejects_naming_the_argument(value, shape, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        as_array("x", value, shape)
