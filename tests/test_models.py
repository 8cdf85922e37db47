import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ltvbench.exceptions import DataFormatError
from ltvbench.models import LtvModel, load_model, save_model


def test_matrix_pair_validation():
    with pytest.raises(ValueError):
        LtvModel.from_constant(np.zeros((2, 3)), np.zeros((2, 1)), 3, 0.1)
    with pytest.raises(ValueError):
        LtvModel.from_constant(np.eye(2), np.zeros((3, 1)), 3, 0.1)
    model = LtvModel.from_constant(np.eye(2), np.zeros((2, 1)), 3, 0.1)
    assert (model.n_steps, model.p, model.q) == (3, 2, 1)


def test_ltv_model_validation():
    with pytest.raises(ValueError):
        LtvModel(A=np.zeros((0, 2, 2)), B=np.zeros((0, 2, 1)), dt=0.1)
    with pytest.raises(ValueError):
        LtvModel(A=np.zeros((3, 2, 2)), B=np.zeros((2, 2, 1)), dt=0.1)
    with pytest.raises(ValueError):
        LtvModel(A=np.zeros((3, 2, 2)), B=np.zeros((3, 2, 1)), dt=0.0)


def test_stacked_round_trip(constant_model):
    blocks = constant_model.stacked()
    assert blocks.shape == (constant_model.n_steps, 3, 2)
    back = LtvModel.from_stacked(blocks, q=1, dt=constant_model.dt)
    assert_allclose(back.A, constant_model.A)
    assert_allclose(back.B, constant_model.B)
    # block layout is [A^T; B^T]
    assert_allclose(blocks[0][:2, :], constant_model.A[0].T)
    assert_allclose(blocks[0][2:, :], constant_model.B[0].T)


def test_model_file_round_trip(tmp_path, constant_model):
    rng = np.random.default_rng(0)
    model = LtvModel(
        A=rng.normal(size=(4, 2, 2)),
        B=rng.normal(size=(4, 2, 1)),
        dt=0.05,
        method="cosmic",
        hyperparams={"lam": 0.125},
        preconditioning={"state_scale": [1.0, 2.0], "input_scale": [0.5], "zero_variance": []},
    )
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.B, model.B)
    assert loaded.dt == model.dt
    assert loaded.method == model.method
    assert loaded.hyperparams == model.hyperparams
    assert loaded.preconditioning == model.preconditioning


def test_load_model_errors(tmp_path):
    with pytest.raises(DataFormatError):
        load_model(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError):
        load_model(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"format": "something-else"}')
    with pytest.raises(DataFormatError):
        load_model(wrong)


GOOD_PAYLOAD = {"format": "ltv-model/1", "p": 1, "q": 1, "n_steps": 1, "dt": 0.1,
                "A": [[[0.5]]], "B": [[[1.0]]]}


def _without(key):
    return {k: v for k, v in GOOD_PAYLOAD.items() if k != key}


@pytest.mark.parametrize(
    "payload",
    [
        _without("p"),
        _without("q"),
        _without("n_steps"),
        [1, 2, 3],
        "ltv-model/1",
        None,
        {**GOOD_PAYLOAD, "dt": None},
    ],
    ids=["no-p", "no-q", "no-n_steps", "list", "string", "null", "null-dt"],
)
def test_load_model_malformed_payloads_are_typed(tmp_path, payload):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_PAYLOAD))
    assert load_model(good).n_steps == 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError):
        load_model(path)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    p, q, n = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 12))
    preconditioning = draw(
        st.none()
        | st.fixed_dictionaries(
            {
                "state_scale": st.lists(finite, min_size=p, max_size=p),
                "input_scale": st.lists(finite, min_size=q, max_size=q),
                "zero_variance": st.lists(st.integers(0, p + q - 1), unique=True),
            }
        )
    )
    return LtvModel(
        A=draw(arrays(np.float64, (n, p, p), elements=finite)),
        B=draw(arrays(np.float64, (n, p, q), elements=finite)),
        dt=draw(st.floats(min_value=1e-300, max_value=1e300)),
        method=draw(st.text()),
        hyperparams=draw(st.dictionaries(st.text(), finite | st.integers())),
        preconditioning=preconditioning,
    )


@settings(max_examples=60, deadline=None)
@given(model=models())
def test_model_file_round_trip_is_exact(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.A.tobytes() == model.A.tobytes()
    assert loaded.B.tobytes() == model.B.tobytes()
    assert loaded.A.shape == model.A.shape and loaded.B.shape == model.B.shape
    assert loaded.dt == model.dt
    assert loaded.method == model.method
    assert loaded.hyperparams == model.hyperparams
    assert loaded.preconditioning == model.preconditioning
