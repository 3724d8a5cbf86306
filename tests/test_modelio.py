"""Round-trip fidelity and error reporting for the text model format."""
import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import sparse

from adhocpo.domains import build
from adhocpo.modelio import (
    ModelFormatError,
    dump_model,
    dumps_model,
    load_model,
    loads_model,
    model_digest,
)
from adhocpo.pomdp import TabularPomdp

from conftest import random_pomdp


def test_round_trip_is_byte_identical(rng):
    for zeros in (0.0, 0.4):
        model = random_pomdp(rng, num_states=6, num_actions=3, num_observations=4, zeros=zeros)
        model.label = "round trip with spaces"
        text = dumps_model(model)
        again = dumps_model(loads_model(text))
        assert text == again


def test_round_trip_preserves_values_exactly(rng):
    model = random_pomdp(rng, num_states=5, num_actions=2, num_observations=3)
    model.reward[2, 1] = -1.0 / 3.0
    loaded = loads_model(dumps_model(model))
    assert loaded.num_states == model.num_states
    assert loaded.discount == model.discount
    assert np.array_equal(loaded.reward, model.reward)
    assert np.array_equal(loaded.initial_belief, model.initial_belief)
    for a in range(model.num_actions):
        assert np.array_equal(loaded.dense_transition(a), model.dense_transition(a))
        assert np.array_equal(loaded.dense_observation(a), model.dense_observation(a))


def test_file_round_trip(tmp_path, rng):
    model = random_pomdp(rng)
    path = tmp_path / "model.txt"
    dump_model(model, path)
    loaded = load_model(path)
    assert dumps_model(loaded) == dumps_model(model)


def test_sparse_threshold_respected(rng):
    model = random_pomdp(rng, num_states=6)
    text = dumps_model(model)
    loaded = loads_model(text)
    # Loaded tables follow the storage rule: 512 rows or fewer is dense.
    assert not any(map(sparse.issparse, loaded.transition + loaded.observation))
    # Storage form does not leak into the serialization.
    csr_twin = dataclasses.replace(
        loaded,
        transition=[sparse.csr_array(t) for t in loaded.transition],
        observation=[sparse.csr_array(o) for o in loaded.observation],
    )
    assert dumps_model(csr_twin) == text


def test_digest_tracks_content(rng):
    model = random_pomdp(rng)
    d1 = model_digest(model)
    assert d1 == model_digest(loads_model(dumps_model(model)))
    model.reward[0, 0] += 1.0
    assert model_digest(model) != d1


def test_errors_carry_line_numbers(rng):
    model = random_pomdp(rng, num_states=3)
    lines = dumps_model(model).splitlines()

    with pytest.raises(ModelFormatError, match="line 1"):
        loads_model("not-a-model v9\n")

    broken = list(lines)
    broken[2] = "states lots"
    with pytest.raises(ModelFormatError, match="line 3"):
        loads_model("\n".join(broken))

    with pytest.raises(ModelFormatError, match="unexpected end"):
        loads_model("\n".join(lines[:4]))

    # A declared count larger than the lines present must not parse.
    broken = list(lines)
    t_at = next(i for i, l in enumerate(broken) if l.startswith("T "))
    broken[t_at] = "T 99999"
    with pytest.raises(ModelFormatError):
        loads_model("\n".join(broken))


def _hand_built_csr():
    """CSR tables with unsorted column indices and explicit 0.0 and -0.0."""
    def csr(data, cols, indptr, shape):
        return sparse.csr_array((np.array(data), np.array(cols), np.array(indptr)), shape=shape)

    transition = [
        csr([0.5, 0.0, 0.5, -0.0, 1.0], [2, 0, 1, 1, 0], [0, 3, 4, 5], (3, 3)),
        csr([1.0, 0.25, 0.75], [2, 1, 0], [0, 1, 2, 3], (3, 3)),
    ]
    obs = csr([-0.0, 1.0, 0.3, 0.7, 1.0], [1, 0, 1, 0, 1], [0, 2, 4, 5], (3, 2))
    reward = np.array([[1.0, -0.0], [0.0, -2.5], [1e-300, 3.0]])
    return TabularPomdp(
        3, 2, 2, transition, [obs, obs], reward, 0.95, np.array([0.5, 0.0, 0.5]),
        label="hand-built csr",
    )


# sha256 hex digests recorded from the repr-text serializer the cache was
# first keyed on.  A change here invalidates every existing policy cache.
PINNED_DIGESTS = [
    (("gridworld", dict(size=3, tasks=2)), [
        "cf71e58d8fcd9052a557f343501f0cbaa0a8b6b239012a51bd0882d41c39c523",
        "485b700e340613052eb3fcf9c9c503f8ac3447fe20837f08c7c9df7fc54325cf",
    ]),
    (("power-plant", {}), [
        "38e4e5f21ad96ab726148c7c6409b78f74bc8331bff0f9bfdc755c70818589ef",
        "25a70029504303d839a0cad9bd63aa05ce5eb7bc2263d40f0f2b61a45d526193",
    ]),
    (("pursuit-both", dict(size=3)), [
        "4147f9a89768cc4ae2f32a985031511e2ba2d51a17b63fa0514a956a224e9755",
        "a2a46c4f38a95ad17040b48886778ecfbadfa558de4a4102d2738571f1a250a3",
        "46a866c84ce0234259ac8f38f572a5e1264d46aa8fe690ec3925e4f4b6228bc3",
        "e31715a73ded015100d0af4d7064d6f452b992f7649c6681bb74d27cf6e3be10",
        "2f2b9344ece3b67d4b74196364f2b73efa27650c2a40c114a7678ae0116a4f30",
        "d8ac155b972b1ea09b0e9fd4310891650f4c77dc243b3dea321e6c8e122986f7",
        "3fb57d05e1c0f070d103852c319f720f4c1fa1311a73078c3cb3d73795cca0d4",
        "d1535fec7ba4a8e4d42458d7f1144a1cadb0e43385802911fe72b3d04509b7bf",
    ]),
]


def test_digests_are_pinned_and_hash_the_exported_file(tmp_path):
    models = [
        (model, expected)
        for (name, overrides), digests in PINNED_DIGESTS
        for model, expected in zip(build(name, **overrides).models, digests, strict=True)
    ]
    models.append(
        (_hand_built_csr(), "a8a63a0af386ab5ac0b977ef9d972407cbf88075062670a0387a625e3af42a8c")
    )
    for model, expected in models:
        assert model_digest(model) == expected, model.label
        path = tmp_path / "model.model"
        dump_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, model.label

