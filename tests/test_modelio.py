"""Round-trip fidelity and error reporting for the text model format, and
the model digests that key the policy cache."""
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import adhocpo
from adhocpo import modelio
from adhocpo.domains import build
from adhocpo.modelio import (
    FORMAT_TAG,
    ModelFormatError,
    dump_model,
    dumps_model,
    load_model,
    loads_model,
    model_digest,
    model_digests,
)
from adhocpo.pomdp import TabularPomdp

from conftest import dense, random_pomdp, stored_as_given


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
        assert np.array_equal(dense(loaded.transition[a]), dense(model.transition[a]))
        assert np.array_equal(dense(loaded.observation[a]), dense(model.observation[a]))


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
    # Loaded tables follow the storage rule: a 6-state model has fewer
    # than 2**15 zeros in any table, so every table is dense.
    assert not any(map(sparse.issparse, loaded.transition + loaded.observation))
    # Storage form does not leak into the serialization.
    with stored_as_given():
        csr_twin = dataclasses.replace(
            loaded,
            transition=[sparse.csr_array(t) for t in loaded.transition],
            observation=[sparse.csr_array(o) for o in loaded.observation],
        )
    assert all(map(sparse.issparse, csr_twin.transition + csr_twin.observation))
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

    def at(prefix):
        return next(i for i, l in enumerate(lines) if l.startswith(prefix))

    r_at, b_at = at("R "), at("b0 ")
    cases = [
        (1, "label", "labelfoo bar", "expected 'label"),
        (5, "discount", "discount abc", "discount is not a number"),
        (5, "discount", "discount 1.5", r"discount must lie in \[0, 1\), got 1.5"),
        (5, "discount", "discount 1", r"discount must lie in \[0, 1\), got 1.0"),
        (5, "discount", "discount -0.1", r"discount must lie in \[0, 1\), got -0.1"),
        (5, "discount", "discount nan", r"discount must lie in \[0, 1\), got nan"),
        (t_at, "T", "T -1", "T is negative"),
        (t_at + 1, "", "0 0 999 0.5", "T index out of range"),
        (t_at + 1, "", "7 0 0 0.5", "T index out of range"),
        (at("O ") + 1, "", "0 0 3 0.5", "O index out of range"),
        (r_at + 1, "", "0 9 1.0", "R index out of range"),
        (b_at + 1, "", "-1 0.5", "b0 index out of range"),
    ]
    for i, prefix, line, message in cases:
        assert lines[i].startswith(prefix)
        broken = list(lines)
        broken[i] = line
        with pytest.raises(ModelFormatError, match=f"^line {i + 1}: {message}"):
            loads_model("\n".join(broken))

    # A model without actions is refused where the count is read.
    broken = list(lines)
    broken[3] = "actions 0"
    with pytest.raises(ModelFormatError, match="^line 4: a model needs at least one action"):
        loads_model("\n".join(broken))

    # An empty label is written as "label " and also read back from a bare "label".
    bare = list(lines)
    bare[1] = "label"
    assert loads_model("\n".join(bare)).label == ""


def test_a_file_that_is_not_utf8_names_the_file_and_line(tmp_path, rng):
    text = dumps_model(random_pomdp(rng, num_states=3)).encode()
    path = tmp_path / "bad.model"
    # A byte that is not UTF-8 in the label, and one in the last section.
    for at, line in ((text.index(b"\nlabel ") + 7, 2), (text.rindex(b"\nend") + 1, text.count(b"\n"))):
        path.write_bytes(text[:at] + b"\xff\xfe" + text[at:])
        with pytest.raises(ModelFormatError, match=f"^{path}: line {line}: not UTF-8 \\(byte 0xff\\)$"):
            load_model(path)


def _holds(model, transition, observation) -> bool:
    """Whether the model stores these very table objects."""
    return all(
        s is g for s, g in zip(model.transition + model.observation, transition + observation, strict=True)
    )


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
    with stored_as_given():
        model = TabularPomdp(
            transition, [obs, obs], reward, 0.95, np.array([0.5, 0.0, 0.5]), label="hand-built csr"
        )
    assert _holds(model, transition, [obs, obs])
    return model


# sha256 hex digests of the exported files, recorded from the repr-text
# serializer; a change here changes every model file written.
PINNED_FILES = [
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
    (("overcooked", {}), [
        "8224298e48b7731c619e3d642b6deb661e58c489552490836af500b11b5b1926",
        "e50440bb445ce20f987262dfad95d1f7d9eccbe4669d970dcf0a2c3814d9a395",
        "64b3c6238d2894d72ec8c2d0dce4f6551610a01dd31d59d402a48e3b13d96417",
        "4edb4ea608793ea3cfbfdabcbcd1e024be68c73ceee1db1fa9c6d348bb373787",
    ]),
    (("isr", dict(map_name="test3x3", tasks=2)), [
        "e44776bde188cd5a7f189788c9268e57ca6689d31b808d1a0bda7f1d72e0328b",
        "b2bd7ce3d69a577e428042ae29b961bdf0b235842939053c8bf7369c020dce67",
    ]),
    # The full-scale maps; the benchmark's warm policy caches are keyed on isr's.
    (("isr", {}), [
        "fc64609ec1ce1e1fc6f9b220ce42f6d40b1bb7c3308688c26b9c007acf56c5ee",
        "88ab7dc990bb7c83915454ffe50bcd6be97ac90e01c812fa823dd4f9360746cd",
        "ee4523a9a7c34f3c648338ffe9f58e433c3fb31d40906c5a01ff46a9d58fbc10",
    ]),
    # At epsilon 0 the sensor table is stored as CSR, one object for the library.
    (("isr", dict(epsilon=0.0)), [
        "25598df755cb0ed65c1e74f181f93cd5c417df276a206fb059aebdc5a78ae397",
        "c3a8b4843c6debc5e1e52945307ed6056fa2e123cd2b793f72ae9d539ca2a5c4",
        "830096677b345e21b642ff0711f8709d502267889f0e03c4598da360670a9a71",
    ]),
    (("ntu", {}), [
        "6bbd6e95eb8d670b8cc63872b2e48e4e440d75d4b01d63485ffa8e880b489b90",
        "ea0c1aed5d90543a1f5e7e38e9adc0a49d70ca1917b7e23f6fd9e0d0faa48546",
        "8121a2c04e9bec358b7a1e6bbb314adf32b91759ae43e02cbb9e7586340cf85a",
        "3ccb6a5f647302ba2a24b2f274391faca08adf1fc07e7056ce6cfd73622ae043",
    ]),
    # The K=8 4x4 grid keys the benchmark's online-grid caches and is the
    # acceptance desk library.
    (("gridworld", dict(size=4, tasks=8)), [
        "ce7fd10c6f17709a09e391265c8d15cfa5f4525477c9042e75baa07791020212",
        "1aa63411b2d4fb3ba942d74c88ec91ba75c8fb633387f167b1d6007c9c2e3926",
        "b434d2ed706940619d8b79ac2ae00e95d883ae5a3770c7ad57c91b7b31421574",
        "39434273663d2a199783138a429ae8fa1e2bc83d1123d63d303a8dc6b03a7e15",
        "7ff118d0183a2bbdf8015b36b4d228d09438360b253b9361b5703b4de113bec7",
        "658d0e0c52acaab44d1b3c32eb799720e681758ceb5016e9c24f6c9f4339dbf6",
        "67a237c456fd6e53530bb5081b2e3b39c078e521d5beb5d0b93deb8d31ab3ac3",
        "4a55cd8e5bde872a7d07d193cbb82d5211f9a9aefce33c83308b397b99ad4045",
    ]),
    (("gridworld", {}), [
        "e30ecd06836ed0a09eb317405717d9187c398347ac4b9372138f9f30f5b6fef5",
        "558f7945ff63585154bac1a0f4e789c2e2fe5cc629dcf75695f8c197adc60fb2",
    ]),
    # Full-scale pursuit; 'teammate' is the first two candidates of 'both'.
    (("pursuit-task", {}), [
        "07faca5ba4de7716ffe0d01f6cf43da822674b1eddac9466db25040d2d31225a",
        "b94a261edd32089b2b123c71dfea4888f4b4c28be17686de2541d7dc71b525ce",
        "f802325422a18065bbd2fc72352bc94bee51fe86c63c6811dbcec6c6f1a737a2",
        "366bd4204439b2569bbe83e65a19e31d34ec1f4671aecca8a0430f085f9518de",
    ]),
    (("pursuit-teammate", {}), [
        "92aa70fd40cff855e14143c52e9358091ec4c421c13aaf0c28cfc0fd8e9f5daa",
        "18e5801854e04911964311bf91f1fd036341926e570ec5783a0e01c894363701",
    ]),
    (("pursuit-both", {}), [
        "92aa70fd40cff855e14143c52e9358091ec4c421c13aaf0c28cfc0fd8e9f5daa",
        "18e5801854e04911964311bf91f1fd036341926e570ec5783a0e01c894363701",
        "1a2d236af5b7220a3da2298cadd704f8496620f4c99bf16d8a3cb59c6ec334c1",
        "d4287ce85dc80b45185e72696232564f77421c6ad6f12a01b4f881c7ec9dff81",
        "d09601cf1bfc28128582f19ef19f6de2906313a3b67f9892423250782aa8e226",
        "422d39d201898e5cc9221a4b41e7ade06c51d04d3d847783388ccc5576fdfe43",
        "9057bfa23ea17ab57015dae022f02f186be5e5084e276100a38506e54c884d50",
        "69407fb209c46672563a53209e566199cdf6f746945b1f18f9583d01b7b50374",
    ]),
]


_HAND_BUILT_FILE = "a8a63a0af386ab5ac0b977ef9d972407cbf88075062670a0387a625e3af42a8c"


def test_exported_files_are_pinned(tmp_path):
    libraries = [(build(name, **overrides).models, files) for (name, overrides), files in PINNED_FILES]
    libraries.append(([_hand_built_csr()], [_HAND_BUILT_FILE]))
    path = tmp_path / "model.model"
    for models, files in libraries:
        for model, expected in zip(models, files, strict=True):
            dump_model(model, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, model.label


# model_digest values, which key the policy cache: a change here misses
# every cached policy.  The full-scale isr and the K=8 4x4 grid libraries
# key the benchmark's warm caches; the grid is also the acceptance desk library.
PINNED_DIGESTS = [
    (("isr", {}), [
        "3b169d14430d20c1b05c9bbab5c658076209ff2b47d2afeafd48bd144e9abee6",
        "78937d12d9db009a86af1d15d7d17f866c067f217ee806ea4e40abd902d748e6",
        "ba0bcfe0cdeee74d9786d86116181f0ac0c630f844a82173a2eece4b432902bd",
    ]),
    (("gridworld", dict(size=4, tasks=8)), [
        "ba30f9574aadd59bb5d53925738df57bfa51aacc87824d0388385012633ed11a",
        "1f508687031998f026f8261d21428c791a655a6e95e4ffb61f9a771382979bce",
        "7dd6e3ab55fa56ac597737ac064e17f2c9de1ea1b973546ab73a2369dcd4dc94",
        "76989973688d4f8e4de1a6f53b9f0d6e90e427671da4b379e605cc0e18e377a0",
        "120248b34436d5a0f5f84c582c3235db7b5c7f8dcaf176c098f8ee3e0fbe92e4",
        "e71db592548e31a032fbf73e87b78526cfe49886b783c8e2f26d759d4a56953b",
        "ef2567e738112cdb647722dd060c1bfee7ca5a31275fd55b7502d90f7be17fed",
        "45f8aa02059581fc95f1cddc4024805f062304aa51634b6c0ae846eb73fb98e0",
    ]),
]
_HAND_BUILT_DIGEST = "03409f7188920696b439b91e4f6ec545b3dc9a845372a351ab3acb53ee036127"


def test_digests_are_pinned():
    libraries = [(build(name, **overrides).models, digests) for (name, overrides), digests in PINNED_DIGESTS]
    hand_built = _hand_built_csr()
    libraries.append(([hand_built], [_HAND_BUILT_DIGEST]))
    for models, digests in libraries:
        assert model_digests(models) == digests, models[0].label
        assert [model_digest(m) for m in models] == digests, models[0].label
    assert _plain_digest(hand_built) == _HAND_BUILT_DIGEST


# The grid and pursuit libraries at desk size and at full scale.
_HASH_SEED_BUILDS = [
    ("gridworld", dict(size=4, tasks=8)),
    ("gridworld", {}),
    ("pursuit-both", dict(size=3)),
    ("pursuit-both", {}),
]

_DIGEST_SCRIPT = """
import json, sys
from adhocpo.domains import build
from adhocpo.modelio import model_digests
builds = json.loads(sys.argv[1])
print(json.dumps([model_digests(build(name, **overrides).models) for name, overrides in builds]))
"""


def test_digests_do_not_depend_on_the_hash_seed():
    # A table laid out in set or dict-of-set order would change with the
    # interpreter's hash seed and miss every cached policy in a new process.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(adhocpo.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _DIGEST_SCRIPT, json.dumps(_HASH_SEED_BUILDS)],
            env={**env, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = (json.loads(out) for out in outputs)
    assert first == second
    assert [len(digests) for digests in first] == [8, 2, 8, 8]


# -- each distinct table is walked once per digest ---------------------------


def test_digest_formats_each_distinct_table_once(monkeypatch):
    calls = []
    original = modelio._entries

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(modelio, "_entries", counting)
    # The grid: five transition tables, one sensor table shared by all five
    # actions.  The random model: actions 0 and 2 share a transition table
    # with action 1's in between, and one observation table serves all.
    grid = build("gridworld", size=3, tasks=1).models[0]
    base = random_pomdp(np.random.default_rng(4), num_states=4, num_actions=3)
    t0, t1 = base.transition[:2]
    interleaved = dataclasses.replace(
        base, transition=[t0, t1, t0], observation=[base.observation[1]] * 3
    )
    for model, tables in ((grid, 5 + 1), (interleaved, 2 + 1)):
        distinct = len({id(t) for t in model.transition}) + len({id(t) for t in model.observation})
        assert distinct == tables
        # The digest walks each distinct table once, and so does the text.
        for write in (model_digest, dumps_model):
            calls.clear()
            write(model)
            assert len(calls) == distinct + 2  # and one each for R and b0
    # A batch walks each distinct table object of the whole library once:
    # the grid library's sensor table serves every action of both models.
    library = [*build("gridworld", size=3, tasks=2).models, interleaved, grid, interleaved]
    assert library[0].observation[0] is library[1].observation[4]
    distinct = {
        id(t) for m in library for t in (*m.transition, *m.observation, m.reward, m.initial_belief)
    }
    calls.clear()
    model_digests(library)
    assert len(calls) == len(distinct)


def test_shared_tables_serialize_like_equal_copies(rng):
    base = random_pomdp(rng, num_states=5, num_actions=3, num_observations=4, zeros=0.3)
    csr_t = sparse.csr_array(base.transition[0])
    for t, o in ((base.transition[0], base.observation[2]), (csr_t, base.observation[2])):
        with stored_as_given():
            shared = dataclasses.replace(base, transition=[t] * 3, observation=[o] * 3)
            copies = dataclasses.replace(
                base, transition=[t.copy() for _ in range(3)], observation=[o.copy() for _ in range(3)]
            )
        assert all(type(m.transition[a]) is type(t) for m in (shared, copies) for a in range(3))
        text = dumps_model(shared)
        assert text == dumps_model(copies)
        assert model_digest(shared) == model_digest(copies)


def _csr(data, cols, indptr, shape):
    return sparse.csr_array((np.array(data), np.array(cols), np.array(indptr)), shape=shape)


def _empty_and_signed_tables():
    """An observation table with no entries and one with an explicit -0.0."""
    return _csr([], [], [0, 0, 0, 0], (3, 2)), _csr([-0.0, 1.0], [1, 0], [0, 1, 1, 2], (3, 2))


def test_shared_empty_and_negative_zero_tables_write_their_text():
    base = _hand_built_csr()
    empty, signed = _empty_and_signed_tables()
    for o, section in (
        (empty, "O 0\nR "),
        (signed, "O 4\n0 0 1 -0.0\n0 2 0 1.0\n1 0 1 -0.0\n1 2 0 1.0\nR "),
    ):
        with stored_as_given():
            model = dataclasses.replace(base, observation=[o, o])
        assert _holds(model, base.transition, [o, o])
        assert section in dumps_model(model)


# -- a library is digested together ------------------------------------------


def test_batch_digests_equal_one_model_digests(rng):
    grid = build("gridworld", size=3, tasks=2).models
    base = _hand_built_csr()
    empty, signed = _empty_and_signed_tables()
    # Shared across models and actions: the empty and -0.0 tables.
    with stored_as_given():
        odd = [
            dataclasses.replace(base, observation=[empty, empty], label="empty"),
            dataclasses.replace(base, observation=[signed, signed], label="signed"),
            dataclasses.replace(base, observation=[empty, signed], label="both"),
        ]
    assert all(map(sparse.issparse, [t for m in odd for t in m.transition + m.observation]))
    # Action counts differ, and one observation table serves both models.
    three = random_pomdp(rng, num_states=4, num_actions=3, num_observations=3)
    two = dataclasses.replace(
        three,
        transition=three.transition[1:],
        observation=[three.observation[0]] * 2,
        reward=three.reward[:, :2],
        label="two actions",
    )
    for models in (grid, grid[:1], [grid[1], grid[0], grid[1]], odd, [three, two], [two, three, grid[0]]):
        assert model_digests(models) == [model_digest(m) for m in models]
    assert model_digests([]) == []


def _text_sha256(model) -> str:
    """sha256 of the text that dump_model writes, hashed chunk by chunk."""
    h = hashlib.sha256()
    for chunk in modelio._text(model):
        h.update(chunk)
    return h.hexdigest()


def test_equal_digests_exactly_when_equal_texts(rng):
    # Every pinned library; pursuit-teammate's two models are pursuit-both's first two.
    models = [m for (name, overrides), _ in PINNED_FILES for m in build(name, **overrides).models]
    hand = _hand_built_csr()
    empty, signed = _empty_and_signed_tables()
    grid = build("gridworld", size=3, tasks=1).models[0]
    base = random_pomdp(rng, num_states=5, num_actions=3, num_observations=4, zeros=0.3)
    csr_t = sparse.csr_array(base.transition[0])

    def reward_with(value, at=(2, 0)):
        reward = hand.reward.copy()
        reward[at] = value
        return reward

    with stored_as_given():
        models += [
            hand,
            _many_block_model(),
            # The empty and -0.0 tables, shared across actions.
            dataclasses.replace(hand, observation=[empty, empty], label="empty"),
            dataclasses.replace(hand, observation=[signed, signed], label="signed"),
            dataclasses.replace(hand, observation=[empty, signed], label="both"),
            # Tables shared across actions and their equal copies.
            *(
                dataclasses.replace(base, transition=ts, observation=[base.observation[2]] * 3)
                for t in (base.transition[0], csr_t)
                for ts in ([t] * 3, [t.copy() for _ in range(3)])
            ),
            # A CSR twin of a dense model.
            dataclasses.replace(
                grid,
                transition=[sparse.csr_array(t) for t in grid.transition],
                observation=[sparse.csr_array(grid.observation[0])] * grid.num_actions,
            ),
            # One ulp of one reward, one ulp of the discount, the label.
            dataclasses.replace(hand, reward=reward_with(np.nextafter(1e-300, 1.0))),
            dataclasses.replace(hand, discount=np.nextafter(hand.discount, 1.0)),
            dataclasses.replace(hand, label="hand-built csr, renamed"),
            # A dense -0.0 is no entry, so it writes as 0.0 does.
            dataclasses.replace(hand, reward=reward_with(0.0, at=(0, 1))),
            # Every NaN writes as "nan".
            dataclasses.replace(hand, reward=reward_with(np.nan)),
            dataclasses.replace(hand, reward=reward_with(-np.nan)),
            dataclasses.replace(
                hand, reward=reward_with(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
            ),
        ]
    texts = [_text_sha256(m) for m in models]
    digests = model_digests(models)
    # Nine models repeat another's text: pursuit-teammate's two, a shared
    # table's copy twice, the CSR twin, the dense -0.0 and two of the NaNs.
    assert (len(models), len(set(texts))) == (69, 60)
    # Equal digests exactly when equal texts: each text has one digest and each digest one text.
    assert len(set(zip(texts, digests))) == len(set(texts)) == len(set(digests))


def test_a_fresh_table_memo_sees_a_changed_table(rng):
    model = random_pomdp(rng, label="model")
    memo: dict = {}
    before = model_digest(model, memo)
    assert len(memo) == 2 * model.num_actions + 2  # T and O per action, R, b0
    model.reward[0, 0] += 1.0
    # A memo stands for one batch of unchanged models: it still holds the
    # old reward's digest, and a fresh memo hashes the reward as it is now.
    assert model_digest(model, memo) == before
    assert model_digest(model, {}) == model_digest(model) == model_digests([model])[0] != before


# -- the text is made in blocks ----------------------------------------------


def _table_entries(table):
    """A table's entries in text order, one (row, column, value) at a time.

    CSR: every stored entry, row by row, stably sorted by column.  Dense:
    the nonzeros in row-major order.
    """
    if sparse.issparse(table):
        for x in range(table.shape[0]):
            span = range(table.indptr[x], table.indptr[x + 1])
            for j in sorted(span, key=lambda j: table.indices[j]):
                yield x, int(table.indices[j]), float(table.data[j])
    else:
        for x, row in enumerate(table.tolist()):
            yield from ((x, y, v) for y, v in enumerate(row) if v != 0)


def _belief_entries(model):
    return ((x, v) for x, v in enumerate(model.initial_belief.tolist()) if v != 0)


def _plain_text(model):
    """The canonical text written entry by entry, straight from the format."""
    out = [
        FORMAT_TAG,
        f"label {model.label}",
        f"states {model.num_states}",
        f"actions {model.num_actions}",
        f"observations {model.num_observations}",
        f"discount {model.discount!r}",
    ]
    for key, tables in (("T", model.transition), ("O", model.observation)):
        lines = [f"{a} {x} {y} {v!r}" for a, t in enumerate(tables) for x, y, v in _table_entries(t)]
        out += [f"{key} {len(lines)}", *lines]
    lines = [f"{x} {a} {v!r}" for x, a, v in _table_entries(model.reward)]
    out += [f"R {len(lines)}", *lines]
    lines = [f"{x} {v!r}" for x, v in _belief_entries(model)]
    out += [f"b0 {len(lines)}", *lines, "end"]
    return "\n".join(out) + "\n"


def _plain_digest(model):
    """The model digest built entry by entry, straight from its definition:
    the text's header and count lines, and for each table its prefix and
    the sha256 of its (row, column, value bits) or (index, value bits)
    records, little-endian, with every NaN read back as float("nan")."""
    def table(entries):
        h = hashlib.sha256()
        for *index, v in entries:
            h.update(struct.pack(f"<{len(index)}qd", *index, float("nan") if v != v else v))
        return h.digest()

    # Entry lines start with a row index; the rest are header, count and end lines.
    head = [line.encode() for line in _plain_text(model).splitlines(keepends=True) if not line[0].isdigit()]
    parts = head[:7]
    parts += [f"{a} ".encode() + table(_table_entries(t)) for a, t in enumerate(model.transition)]
    parts += [head[7]]
    parts += [f"{a} ".encode() + table(_table_entries(o)) for a, o in enumerate(model.observation)]
    parts += [head[8], table(_table_entries(model.reward)), head[9], table(_belief_entries(model)), head[10]]
    return hashlib.sha256(b"".join(parts)).hexdigest()


def _many_block_model():
    """A model each of whose tables spans several text blocks."""
    rng = np.random.default_rng(18)
    n = modelio._BLOCK + 8

    def dense_table(cols):
        # Many distinct values, with zeros, -0.0 and a row of zeros.
        table = rng.random((n, cols))
        table[rng.random((n, cols)) < 0.2] = 0.0
        table[rng.random((n, cols)) < 0.05] = -0.0
        table[7] = 0.0
        return table

    def csr():
        # Three stored entries a row in unsorted column order, explicit 0.0
        # and -0.0 among them, duplicate columns, an empty row and a row of
        # explicit zeros.
        cols = rng.integers(0, n, size=(n, 3))
        cols[::11, 1] = cols[::11, 0]
        data = rng.random((n, 3))
        data[::5, 2] = 0.0
        data[::7, 0] = -0.0
        data[3] = 0.0
        counts = np.full(n, 3)
        counts[9] = 0
        keep = np.arange(3) < counts[:, None]
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return _csr(data[keep], cols[keep], indptr, (n, n))

    t0, t1, o0, o1 = csr(), csr(), dense_table(3), dense_table(3)
    b0 = rng.random(n)
    b0[[0, 100, n - 1]] = 0.0
    with stored_as_given():
        model = TabularPomdp(
            [t0, t1, t0, t1], [o0, o1, o0, o1], dense_table(4), 0.95, b0 / b0.sum(), label="many blocks"
        )
    assert _holds(model, [t0, t1, t0, t1], [o0, o1, o0, o1])
    return model


def _first_difference(got: str, expected: str):
    """None for equal texts, else (line number, got line, expected line),
    which keeps a failure's report short."""
    if got == expected:
        return None
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    pairs = zip(got_lines, expected_lines)
    i = next((i for i, (g, e) in enumerate(pairs) if g != e), min(len(got_lines), len(expected_lines)))
    return i + 1, got_lines[i : i + 1], expected_lines[i : i + 1]


def test_text_matches_a_per_entry_formatter_across_blocks(tmp_path):
    model = _many_block_model()
    for table in (*model.transition, *model.observation, model.reward, model.initial_belief):
        assert len(list(modelio._body(table))) > 1
    assert model.transition[0] is model.transition[2]
    text = _plain_text(model)
    assert " -0.0\n" in text and " 0.0\n" in text
    assert _first_difference(dumps_model(model), text) is None
    path = tmp_path / "blocks.model"
    dump_model(model, path)
    assert _first_difference(path.read_text(), text) is None
    # The digest walks the same blocks.
    digest = _plain_digest(model)
    assert model_digests([model, model]) == [digest, digest]
    assert model_digest(model) == digest


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_digest_and_dump_hold_no_more_than_about_one_table_text(tmp_path):
    # The full-scale isr library as the benchmark builds it; its 1807x81
    # sensor table, shared by every action of every model, has the largest
    # text (about 4.3 MB).
    models = build("isr", belief_set_size=100).models
    tables = {id(t): t for m in models for t in (*m.transition, *m.observation, m.reward)}
    largest = max(sum(map(len, modelio._body(t))) for t in tables.values())
    assert largest > 4_000_000
    assert _traced_peak(lambda: model_digests(models)) < 2 * largest
    assert _traced_peak(lambda: dump_model(models[0], tmp_path / "isr.model")) < 2 * largest
