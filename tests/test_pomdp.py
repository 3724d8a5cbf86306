"""Belief filtering against an exhaustive path-sum oracle, plus model checks."""
import dataclasses
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

import adhocpo
from adhocpo import modelio, pomdp
from adhocpo.csr import CsrTable
from adhocpo.domains import build
from adhocpo.pomdp import (
    TabularPomdp,
    back_project,
    belief_update,
    induced_mdp,
    row_sums,
    _sample_row,
    sample_initial_state,
    simulate_step,
    validate,
    weighted_draw,
)
from adhocpo.rowclass import RowClassTable
from adhocpo.solvers import SolverSettings, collect_beliefs, perseus_solve, point_backup, policy_q_all

from conftest import (
    bits_equal, dense, exhaustive_filter, is_canonical, is_csr, random_pomdp, random_stochastic, stored_as_given,
)


def _random_history(model, rng, length):
    # Histories drawn by simulation are guaranteed to have positive likelihood.
    x = sample_initial_state(model, rng)
    history = []
    for _ in range(length):
        a = int(rng.integers(model.num_actions))
        x, z, _ = simulate_step(model, x, a, rng)
        history.append((a, z))
    return history


def test_belief_update_matches_path_sum_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        model = random_pomdp(
            rng,
            num_states=int(rng.integers(2, 5)),
            num_actions=int(rng.integers(1, 4)),
            num_observations=int(rng.integers(2, 4)),
            zeros=0.3 if trial % 2 else 0.0,
        )
        history = _random_history(model, rng, int(rng.integers(1, 5)))
        expected, expected_mass = exhaustive_filter(model, history)

        b = model.initial_belief
        mass = 1.0
        for a, z in history:
            b, lik = belief_update(model, b, a, z)
            mass *= lik
        assert np.allclose(b, expected, atol=1e-10)
        assert mass == pytest.approx(expected_mass, abs=1e-12)


def test_belief_update_zero_likelihood_holds_belief():
    # Observation 1 is impossible everywhere under action 0: the step hands
    # back the very belief it was given, and likelihood 0.0.
    t = [np.eye(2)]
    o = [np.array([[1.0, 0.0], [1.0, 0.0]])]
    r = np.zeros((2, 1))
    model = TabularPomdp(t, o, r, 0.9, np.array([0.5, 0.5]))
    belief = model.initial_belief.copy()
    held, likelihood = belief_update(model, belief, 0, 1)
    assert held is belief and likelihood == 0.0
    assert np.array_equal(belief, [0.5, 0.5])
    # A belief whose support cannot reach observation 1 holds as well, while
    # one that can moves on.
    o = [np.array([[1.0, 0.0], [0.0, 1.0]])]
    model = TabularPomdp(t, o, r, 0.9, np.array([0.5, 0.5]))
    belief = np.array([1.0, 0.0])
    held, likelihood = belief_update(model, belief, 0, 1)
    assert held is belief and likelihood == 0.0
    moved, likelihood = belief_update(model, model.initial_belief, 0, 1)
    assert np.array_equal(moved, [0.0, 1.0]) and likelihood == 0.5


def test_package_exports_are_the_pomdp_names():
    # `tests/test_domains.py::test_exported_names_resolve` checks that each
    # name resolves; each is also the very object of `adhocpo.pomdp`.
    assert adhocpo.__all__ and all(getattr(adhocpo, name) is getattr(pomdp, name) for name in adhocpo.__all__)
    assert not hasattr(adhocpo, "ZeroLikelihood") and not hasattr(pomdp, "ZeroLikelihood")


def test_observation_likelihoods_sum_to_one(rng):
    for _ in range(10):
        model = random_pomdp(rng, num_states=5, num_actions=2, num_observations=4)
        b = rng.random(5)
        b /= b.sum()
        for a in range(model.num_actions):
            liks = [belief_update(model, b, a, z)[1] for z in range(4)]
            assert sum(liks) == pytest.approx(1.0, abs=1e-12)


def test_likelihood_matches_marginal(rng):
    model = random_pomdp(rng, num_states=6, num_actions=3, num_observations=5)
    b = model.initial_belief
    for a in range(3):
        # P(z | b, a) for every observation z at once.
        liks = b @ dense(model.transition[a]) @ dense(model.observation[a])
        for z in range(5):
            _, lik = belief_update(model, b, a, z)
            assert lik == pytest.approx(liks[z], abs=1e-14)


def test_dense_and_sparse_storage_agree(rng):
    for _ in range(5):
        dense_model = random_pomdp(rng, num_states=8, num_actions=2, num_observations=3, zeros=0.5)
        with stored_as_given():
            sparse_model = dataclasses.replace(
                dense_model,
                transition=[CsrTable.from_dense(t) for t in dense_model.transition],
                observation=[CsrTable.from_dense(o) for o in dense_model.observation],
            )
        assert all(map(is_csr, sparse_model.transition + sparse_model.observation))
        assert not any(map(is_csr, dense_model.transition + dense_model.observation))
        history = _random_history(dense_model, rng, 4)
        bd, bs = dense_model.initial_belief, sparse_model.initial_belief
        for a, z in history:
            bd, lik_d = belief_update(dense_model, bd, a, z)
            bs, lik_s = belief_update(sparse_model, bs, a, z)
            assert np.allclose(bd, bs, atol=1e-12)
            assert lik_d == pytest.approx(lik_s, abs=1e-12)
        for x in range(8):
            assert np.allclose(dense_model.transition_row(x, 1), sparse_model.transition_row(x, 1))
            assert np.allclose(dense_model.observation_row(x, 0), sparse_model.observation_row(x, 0))


def test_constructor_stores_only_dense_arrays_and_csr_arrays(rng):
    # Whatever form a table is handed in, it is stored as an ndarray or a
    # float64 CsrTable in canonical form.
    n = 600
    big = random_stochastic(rng, n, n, zeros=0.995)
    small = random_stochastic(rng, n, 4)
    canonical = CsrTable.from_dense(big)
    # A CSR table with every entry split in two: duplicates are summed.
    halves = CsrTable(np.repeat(canonical.data / 2, 2), np.repeat(canonical.indices, 2), 2 * canonical.indptr,
                      (n, n))
    # A CSR table with each row's column indices reversed, and a CSR table
    # of integers: both are stored canonical and float64, and the input
    # is left as it was.
    order = np.lexsort((-canonical.indices, canonical.rows))
    shuffled = CsrTable(canonical.data[order], canonical.indices[order], canonical.indptr, (n, n))
    assert not is_canonical(shuffled) and not is_canonical(halves)
    kept = shuffled.indices.copy()
    whole = np.zeros((n, n))
    rows, cols = np.nonzero(big)
    whole[rows, cols] = 3.0
    forms = [big, canonical, halves, shuffled, CsrTable(np.full(canonical.nnz, 3), canonical.indices,
                                                        canonical.indptr, (n, n))]
    model = TabularPomdp(
        forms,
        [small, CsrTable.from_dense(small), small, small, small],
        np.zeros((n, 5)),
        0.9,
        np.full(n, 1.0 / n),
    )
    assert [type(t) for t in model.transition] == [CsrTable] * 5
    assert [type(o) for o in model.observation] == [np.ndarray] * 5
    for table in model.transition:
        assert table.data.dtype == np.float64 and is_canonical(table)
    for a in range(5):
        assert np.array_equal(dense(model.transition[a]), whole if a == 4 else big)
        assert np.array_equal(dense(model.observation[a]), small)
    assert np.array_equal(shuffled.indices, kept)
    # SciPy's sparse tables are not a form the constructor reads: numpy
    # refuses to make a float array of one.
    for form in (sparse.csr_array, sparse.coo_matrix):
        for transition, observation in ((form(big), small), (big, form(small))):
            with pytest.raises(ValueError):
                TabularPomdp([transition], [observation], np.zeros((n, 1)), 0.9, np.full(n, 1.0 / n))


def test_hand_made_csr_tables_are_stored_canonical(rng):
    # A CsrTable built straight from arrays may hold a row's columns out of
    # order or one cell twice; it is re-stored through from_coo, which sums
    # the repeats in stored order.  A canonical one stays the very object.
    n = 200
    big = random_stochastic(rng, n, n, zeros=0.99)
    canonical = CsrTable.from_dense(big)
    reversed_rows = np.lexsort((-canonical.indices, canonical.rows))
    unsorted = CsrTable(canonical.data[reversed_rows], canonical.indices[reversed_rows], canonical.indptr, (n, n))
    # Row 0's first entry split in two, the halves side by side.
    half = canonical.data[0] / 2
    data = np.concatenate(([half, canonical.data[0] - half], canonical.data[1:]))
    indices = np.concatenate(([canonical.indices[0]], canonical.indices))
    repeated = CsrTable(data, indices, canonical.indptr + np.r_[0, np.ones(n, dtype=np.intp)], (n, n))
    assert not is_canonical(unsorted) and not is_canonical(repeated)
    model = TabularPomdp([canonical, unsorted, repeated], [np.ones((n, 1))] * 3, np.zeros((n, 3)), 0.9,
                         np.full(n, 1.0 / n))
    assert model.transition[0] is canonical
    for stored, given in zip(model.transition[1:], (unsorted, repeated)):
        assert is_csr(stored) and is_canonical(stored) and stored is not given
        assert bits_equal(stored.data, CsrTable.from_coo(given.data, given.rows, given.indices, (n, n)).data)
    assert np.array_equal(model.transition[1].indices, canonical.indices)
    assert bits_equal(model.transition[1].data, canonical.data)
    assert model.transition[2].nnz == canonical.nnz
    assert model.transition[2].data[0] == half + (canonical.data[0] - half)
    # The inputs are left as they were.
    assert np.array_equal(repeated.indices, indices) and bits_equal(repeated.data, data)


def test_each_table_picks_its_own_storage(rng):
    # 600 rows: a transition table with about 3 nonzeros per row is CSR; a
    # fully nonzero observation table stays dense and shared across actions.
    n = 600
    transition = [random_stochastic(rng, n, n, zeros=0.995) for _ in range(2)]
    obs = random_stochastic(rng, n, 4)
    model = TabularPomdp(transition, [obs, obs], np.zeros((n, 2)), 0.9, np.full(n, 1.0 / n))
    assert all(map(is_csr, model.transition))
    assert model.observation[0] is obs and model.observation[1] is obs
    for a in range(2):
        assert np.array_equal(dense(model.transition[a]), transition[a])
    # A table handed in as it is stored, CSR as well as dense, is kept as
    # that very object: models that share it store it once.
    again = TabularPomdp(
        model.transition[::-1], [obs, obs], np.zeros((n, 2)), 0.9, np.full(n, 1.0 / n)
    )
    assert again.transition[0] is model.transition[1] and again.transition[1] is model.transition[0]

    # CSR needs at least 2**15 zeros as well as fewer than half nonzero.
    # 128 x 257 observation tables with one nonzero per row have exactly
    # 2**15 zeros: CSR.  One more nonzero leaves 2**15 - 1 zeros: dense.
    rows, cols = 128, 257
    one_per_row = np.zeros((rows, cols))
    one_per_row[np.arange(rows), np.arange(rows)] = 1.0
    one_more = one_per_row.copy()
    one_more[0, :2] = 0.5
    for obs, stored_sparse in ((one_per_row, True), (one_more, False)):
        model = TabularPomdp([np.eye(rows)], [obs], np.zeros((rows, 1)), 0.9, np.full(rows, 1.0 / rows))
        assert rows * cols - np.count_nonzero(obs) == 2**15 - (not stored_sparse)
        assert is_csr(model.observation[0]) == stored_sparse
        # 128 x 128 has fewer than 2**15 entries: dense, however sparse.
        assert not is_csr(model.transition[0])

    # Exactly half nonzero is not "fewer than half": dense, whatever the
    # number of zeros.
    half = np.zeros((n, n))
    half[:, : n // 2] = 2.0 / n
    model = TabularPomdp([half], [np.ones((n, 1))], np.zeros((n, 1)), 0.9, np.full(n, 1.0 / n))
    assert model.transition[0] is half

    # On the desk configurations only the 4x4 grid's transitions (257
    # states, under 1% nonzero) are CSR; the observations and the 3x3
    # grid and pursuit tables are dense.
    grid4 = build("gridworld", size=4, tasks=2).models
    assert all(is_csr(t) for m in grid4 for t in m.transition)
    assert not any(is_csr(o) for m in grid4 for o in m.observation)
    for name in ("gridworld", "pursuit-task"):
        for m in build(name, size=3).models:
            assert not any(map(is_csr, m.transition + m.observation)), name


def test_desk_grid_library_tables_fit_in_two_megabytes():
    # The K=8 4x4 library took about 21 MB while its 257 x 257 transitions
    # (1.74 entries per row) were stored dense.  Every distinct stored
    # table counts once, with the arrays a CSR table derives.
    tables = {}
    for m in build("gridworld", size=4, tasks=8).models:
        for a in range(m.num_actions):
            m.observation_column(a, 0)
        for t in m.transition + m.observation:
            tables[id(t)] = t
    stored = sum(_csr_bytes(t) if is_csr(t) else t.nbytes for t in tables.values())
    assert stored < 2 * 2**20


# Entries each registered sensor saves in the row-class form: X * Z
# against R * Z distinct-row entries plus X index entries.
ROW_CLASS_SAVINGS = {"gridworld": 47_326, "isr": 141_806, "mit": 170_043, "pentagon": 209_081, "cit": 383_483}


def test_observation_tables_store_repeated_rows_once(tmp_path):
    # The registered forms: the full-scale grid and map sensors keep their
    # distinct rows; ntu (241 x 81) would save only 16,283 entries and the
    # 4x4 desk grid's 20,817 entries cannot save 2**15, so both stay dense.
    for name, saved in ROW_CLASS_SAVINGS.items():
        models = build(name).models
        sensor = models[0].observation[0]
        assert isinstance(sensor, RowClassTable), name
        assert sensor.shape[0] * sensor.shape[1] - sensor.data.size - sensor.index.size == saved
        assert len(sensor.data) <= 39
        # Handed on to the later candidates as stored, it stays one object.
        assert {id(o) for m in models for o in m.observation} == {id(sensor)}
    for name, settings, form in (
        ("ntu", {}, np.ndarray),
        ("gridworld", {"size": 4, "tasks": 2}, np.ndarray),
        ("power-plant", {}, np.ndarray),
        ("pursuit-task", {}, CsrTable),
        ("overcooked", {}, CsrTable),
        ("isr", {"epsilon": 0.0}, CsrTable),
    ):
        for m in build(name, **settings).models:
            assert all(type(o) is form for o in m.observation), name

    # The floor: 32772 x 2 with two distinct rows saves exactly 2**15
    # entries; a third distinct row saves two fewer.
    n = 32772
    two = np.tile([[0.25, 0.75], [0.5, 0.5]], (n // 2, 1))
    three = two.copy()
    three[-1] = [0.125, 0.875]
    identity = CsrTable.from_coo(np.ones(n), np.arange(n), np.arange(n), (n, n))
    for obs, factored in ((two, True), (three, False)):
        model = TabularPomdp([identity], [obs], np.zeros((n, 1)), 0.9, np.full(n, 1.0 / n))
        assert isinstance(model.observation[0], RowClassTable) == factored
        assert bits_equal(dense(model.observation[0]), obs)
    # Only a C-ordered table is factored, and a transition table never is;
    # a factored table handed in is kept as that very object.
    m = 600
    uniform = np.full((m, m), 1 / m)
    model = TabularPomdp([uniform] * 2, [np.asfortranarray(uniform), uniform], np.zeros((m, 2)), 0.9, uniform[0])
    assert [type(t) for t in model.transition + model.observation] == [np.ndarray] * 3 + [RowClassTable]
    again = TabularPomdp([model.observation[1]] * 2, [model.observation[1]] * 2, np.zeros((m, 2)), 0.9, uniform[0])
    assert type(again.transition[0]) is np.ndarray and again.observation[0] is model.observation[1]

    # Every model of a library reads the one factored table, so a batch
    # digests it once.
    models = build("isr").models
    seen = []
    real = modelio._table_digest
    with mock.patch.object(modelio, "_table_digest", lambda t: seen.append(id(t)) or real(t)):
        digests = modelio.model_digests(models)
    assert seen.count(id(models[0].observation[0])) == 1

    # A loaded file stores each action's sensor copy factored, and the
    # text and digest come back the same.
    path = tmp_path / "isr.model"
    modelio.dump_model(models[0], path)
    loaded = modelio.load_model(path)
    assert all(isinstance(o, RowClassTable) for o in loaded.observation)
    assert len({id(o) for o in loaded.observation}) == loaded.num_actions
    assert modelio.model_digest(loaded) == digests[0]
    assert modelio.dumps_model(loaded) == path.read_text()


@pytest.mark.parametrize(
    "name, overrides, form",
    [
        ("gridworld", {"size": 4}, np.ndarray),
        ("ntu", {}, np.ndarray),
        ("gridworld", {}, RowClassTable),
        ("isr", {}, RowClassTable),
        ("cit", {}, RowClassTable),
        ("pursuit-both", {}, CsrTable),
        ("overcooked", {}, CsrTable),
    ],
)
def test_back_projection_matches_the_whole_product_bit_for_bit(rng, name, overrides, form):
    # back[x] = sum_z O[x, z] * vectors[picks[z], x], made block by block,
    # gives the floats of the whole (|X|, |Z|) product summed by rows; a
    # CSR sensor sums its entries in stored order, as SciPy's COO sum does.
    sensor = build(name, **overrides).models[0].observation[0]
    assert type(sensor) is form
    if form is CsrTable:
        table = sparse.csr_array((sensor.data, sensor.indices, sensor.indptr), shape=sensor.shape)
    else:
        table = dense(sensor)
    for count in (15, 100, 400):
        vectors = rng.standard_normal((count, sensor.shape[0]))
        picks = rng.integers(0, count, size=sensor.shape[1])
        want = (table * vectors[picks].T).sum(axis=1)
        assert bits_equal(back_project(sensor, vectors, picks), want)
        if form is RowClassTable:
            # The dense form of a table of many blocks.
            assert bits_equal(back_project(dense(sensor), vectors, picks), want)


def test_back_projection_blocks_cover_every_row(rng):
    # A last block of one row, and rows wider than a block.
    for shape in ((809, 81), (3, 40000)):
        table = rng.random(shape)
        vectors = rng.standard_normal((7, shape[0]))
        picks = rng.integers(0, 7, size=shape[1])
        assert bits_equal(back_project(table, vectors, picks), (table * vectors[picks].T).sum(axis=1))


def test_row_class_reads_match_the_dense_table_bit_for_bit(rng):
    # Every read of a factored sensor gives the dense table's floats: the
    # filter, the sampler, the validator, the digest and the solver.
    model = build("isr").models[0]
    sensor = model.observation[0]
    table = dense(sensor)
    with stored_as_given():
        twin = dataclasses.replace(model, observation=[table] * model.num_actions)
    assert type(twin.observation[0]) is np.ndarray
    n, nz = table.shape
    for x in range(0, n, 97):
        assert bits_equal(model.observation_row(x, 2), twin.observation_row(x, 2))
    for z in range(nz):
        assert bits_equal(model.observation_column(1, z), twin.observation_column(1, z))
    assert bits_equal(row_sums(sensor), table.sum(axis=1))
    assert sensor.min() == table.min() and sensor.nnz == np.count_nonzero(table)
    support = np.flatnonzero(rng.random(n) < 0.3)
    assert bits_equal(sensor[support], table[support]) and bits_equal(sensor[5:900], table[5:900])
    vectors = rng.random((20, n))
    picks = rng.integers(0, 20, size=nz)
    assert bits_equal(back_project(sensor, vectors, picks), (table * vectors[picks].T).sum(axis=1))
    assert modelio.dumps_model(model) == modelio.dumps_model(twin)
    assert modelio.model_digest(model) == modelio.model_digest(twin)

    settings = SolverSettings(belief_set_size=12, horizon=20, stage_cap=3)
    ours, theirs = perseus_solve(model, settings), perseus_solve(twin, settings)
    assert bits_equal(ours.vectors, theirs.vectors) and np.array_equal(ours.actions, theirs.actions)
    assert ours.stage_values == theirs.stage_values
    beliefs = collect_beliefs(model, 12, 20, np.random.default_rng(3))
    assert bits_equal(beliefs, collect_beliefs(twin, 12, 20, np.random.default_rng(3)))
    for b in beliefs:
        assert bits_equal(policy_q_all(model, ours, b), policy_q_all(twin, ours, b))
        alpha, a = point_backup(model, b, ours.vectors)
        twin_alpha, twin_a = point_backup(twin, b, ours.vectors)
        assert a == twin_a and bits_equal(alpha, twin_alpha)

    # Rows are told apart by their bits: a row that differs from another
    # only by a -0.0, or by a NaN's payload, is a row of its own, and
    # validate names the same rows as for the dense table.
    broken = table.copy()
    broken[-2] = table[-1]  # the absorbing row's blank reading
    broken[-1, 1] = -0.0
    broken[8] = broken[7]
    broken[7, 2] = np.nan
    broken[8, 2] = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    broken[5, 3] = -0.5
    broken[9, 0] += 0.25
    made = dataclasses.replace(model, observation=[broken] * model.num_actions)
    stored = made.observation[0]
    assert isinstance(stored, RowClassTable) and bits_equal(dense(stored), broken)
    assert stored.index[-1] != stored.index[-2] and stored.index[7] != stored.index[8]
    with stored_as_given():
        broken_twin = dataclasses.replace(model, observation=[broken] * model.num_actions)
    problems = validate(made)
    assert problems == validate(broken_twin)
    assert {"observation[0] row 5: negative entry", "observation[0] row 7: non-finite entry"} <= set(problems)
    assert any(p.startswith("observation[0] row 9: sums to") for p in problems)
    assert modelio.dumps_model(made) == modelio.dumps_model(broken_twin)


def _csr_bytes(table) -> int:
    """Bytes of a CSR table's arrays, its derived ones included."""
    arrays = [table.data, table.indices, table.indptr, table.rows, *vars(table).get("_by_column", ())]
    return sum(array.nbytes for array in arrays)


def test_csr_kernels_match_scipy_bit_for_bit(rng):
    # propagate and the row and column reads of CSR tables must give the
    # floats of SciPy's own products and slices of the same arrays.
    n, nz = 600, 5
    shared, other = (random_stochastic(rng, n, n, zeros=0.99) for _ in range(2))
    obs = random_stochastic(rng, n, nz, zeros=0.8)
    base = TabularPomdp([shared, shared, other], [obs] * 3, np.zeros((n, 3)), 0.9, np.full(n, 1.0 / n))
    # The twin is CSR whatever the storage rule picks for these tables.
    shared, other, obs = (CsrTable.from_dense(t) for t in (shared, other, obs))
    with stored_as_given():
        model = dataclasses.replace(base, transition=[shared, shared, other], observation=[obs] * 3)
    assert all(map(is_csr, model.transition + model.observation))

    beliefs = rng.random((20, n)) * (rng.random((20, n)) < 0.3)
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    for a in range(3):
        T, O = (
            sparse.csr_array((t.data, t.indices, t.indptr), shape=t.shape)
            for t in (model.transition[a], model.observation[a])
        )
        for b in beliefs:
            assert bits_equal(model.propagate(b, a), b @ T)
        for x in range(0, n, 7):
            assert bits_equal(model.transition_row(x, a), T[[x], :].toarray()[0])
            assert bits_equal(model.observation_row(x, a), O[[x], :].toarray()[0])
        for z in range(nz):
            assert bits_equal(model.observation_column(a, z), O[:, [z]].toarray()[:, 0])
    # The column order is derived once, on the table object every action
    # and every model sharing the table reads.
    by_column = obs._by_column
    assert all(o._by_column is by_column for o in model.observation)

    # A model made from another's tables reads those very objects, derived
    # arrays included.
    with stored_as_given():
        swapped = dataclasses.replace(model, transition=model.transition[::-1])
    assert swapped.observation[0]._by_column is by_column
    for a in range(3):
        for b in beliefs:
            assert bits_equal(swapped.propagate(b, a), model.propagate(b, 2 - a))


def test_simulate_step_frequencies():
    rng = np.random.default_rng(99)
    model = random_pomdp(rng, num_states=3, num_actions=2, num_observations=3)
    x, a = 1, 0
    n = 20000
    next_counts = np.zeros(3)
    for _ in range(n):
        nxt, _, r = simulate_step(model, x, a, rng)
        assert r == model.reward[x, a]
        next_counts[nxt] += 1
    p = dense(model.transition[a])[x]
    # Binomial three-sigma envelope per outcome.
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(next_counts / n - p) <= 3 * sigma + 1e-9).all()


def test_observation_sampled_from_landing_state():
    # Deterministic chain: from 0, action 0 goes to 1; state 1 always emits 1.
    t = [np.array([[0.0, 1.0], [0.0, 1.0]])]
    o = [np.array([[1.0, 0.0], [0.0, 1.0]])]
    model = TabularPomdp(t, o, np.zeros((2, 1)), 0.9, np.array([1.0, 0.0]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        nxt, z, _ = simulate_step(model, 0, 0, rng)
        assert (nxt, z) == (1, 1)


def test_sampling_treats_negative_dust_as_zero(rng):
    # -1e-12 is within validate's tolerance, so simulation must accept it:
    # the entry is never drawn, and nothing fails inside numpy.
    model = random_pomdp(rng, num_states=3, num_actions=1, num_observations=3)
    obs = dense(model.observation[0])
    obs[:, 1] += obs[:, 0] + 1e-12
    obs[:, 0] = -1e-12
    dusty = dataclasses.replace(model, observation=[obs])
    assert validate(dusty) == []
    x = sample_initial_state(dusty, rng)
    for _ in range(200):
        x, z, _ = simulate_step(dusty, x, 0, rng)
        assert z != 0


def test_weighted_draw_matches_generator_choice(rng):
    # Same draws, and the same generator state after them, as
    # Generator.choice with p: dense rows, sparse rows with -1e-12 dust
    # (sampled as model rows are), one-hot rows and unnormalised mixtures.
    for i in range(12000):
        n = int(rng.integers(1, 40))
        row = rng.random(n) * (rng.random(n) < 0.6)
        row[rng.integers(n)] += 0.5
        if i % 4 == 1:
            row = np.eye(n)[rng.integers(n)]
        if i % 4 == 2 and (row == 0.0).any():
            row[np.flatnonzero(row == 0.0)[0]] = -1e-12
        seed = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        clipped = np.maximum(row, 0.0)
        assert _sample_row(row, ours) == theirs.choice(n, p=clipped / clipped.sum())
        # A posterior mixture sums to one only up to rounding.
        mix = np.bincount(rng.integers(n, size=5), weights=rng.dirichlet(np.ones(5)), minlength=n)
        assert weighted_draw(mix, ours) == theirs.choice(n, p=mix)
        assert ours.random() == theirs.random()


def test_weighted_draw_refuses_a_row_without_mass(rng):
    for row in (np.zeros(4), np.array([0.0, -1e-12, 0.0]), np.array([np.nan, 1.0])):
        with pytest.raises(ValueError, match="without positive mass"):
            _sample_row(row, rng)
    with pytest.raises(ValueError, match="without positive mass"):
        weighted_draw(np.zeros(3), rng)


def test_sample_initial_state_frequencies():
    rng = np.random.default_rng(3)
    model = random_pomdp(rng, num_states=4)
    counts = np.zeros(4)
    n = 20000
    for _ in range(n):
        counts[sample_initial_state(model, rng)] += 1
    p = model.initial_belief
    sigma = np.sqrt(p * (1 - p) / n)
    assert (np.abs(counts / n - p) <= 3 * sigma + 1e-9).all()


def test_validate_accepts_good_and_names_bad_rows(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2)
    assert validate(model) == []

    broken = random_pomdp(rng, num_states=4, num_actions=2)
    broken.transition[1][2, :] *= 0.5
    broken.observation[0][1, :] *= 2.0
    problems = validate(broken)
    assert any("transition[1] row 2" in p for p in problems)
    assert any("observation[0] row 1" in p for p in problems)
    # Negative and non-finite entries are named too (a NaN row sums to
    # NaN, which no sum check catches), and CSR tables give the same list.
    broken.transition[0][3, :2] = [-0.5, 1.5]
    broken.transition[1][0, 1] = np.nan
    broken.observation[1][2, 0] = np.inf
    problems = validate(broken)
    assert "transition[0] row 3: negative entry" in problems
    assert "transition[1] row 0: non-finite entry" in problems
    assert "observation[1] row 2: non-finite entry" in problems
    with stored_as_given():
        csr_twin = dataclasses.replace(
            broken,
            transition=[CsrTable.from_dense(t) for t in broken.transition],
            observation=[CsrTable.from_dense(o) for o in broken.observation],
        )
    assert all(map(is_csr, csr_twin.transition + csr_twin.observation))
    assert validate(csr_twin) == problems

    lopsided = random_pomdp(rng, num_states=3)
    lopsided.initial_belief = np.array([0.7, 0.2, 0.2])
    assert any("initial belief" in p for p in validate(lopsided))
    lopsided.initial_belief = np.array([np.nan, 0.5, 0.5])
    assert validate(lopsided) == ["initial belief: non-finite entry"]


def test_induced_mdp_shares_tables(rng):
    model = random_pomdp(rng, num_states=5, num_actions=3)
    mdp = induced_mdp(model)
    assert (mdp.num_states, mdp.num_actions) == (5, 3)
    assert mdp.reward is model.reward
    assert all(t is u for t, u in zip(mdp.transition, model.transition, strict=True))


# -- one way to make a model -------------------------------------------------


def test_replace_stores_any_table_form_by_the_rule(rng):
    # A CSR transition or observation handed to dataclasses.replace is
    # stored as the constructor stores it, so the model plays and backs up
    # exactly like the original.
    small = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3, zeros=0.3)
    n = 600
    large = TabularPomdp(
        [random_stochastic(rng, n, n, zeros=0.995) for _ in range(2)],
        [random_stochastic(rng, n, 3, zeros=0.3) for _ in range(2)],
        rng.uniform(-1.0, 1.0, size=(n, 2)),
        0.9,
        np.full(n, 1.0 / n),
    )
    for model in (small, large):
        twins = [
            dataclasses.replace(model, transition=[CsrTable.from_dense(dense(t)) for t in model.transition]),
            dataclasses.replace(model, observation=[CsrTable.from_dense(dense(o)) for o in model.observation]),
        ]
        for twin in twins:
            for stored, original in zip(twin.transition + twin.observation, model.transition + model.observation):
                assert type(stored) is type(original)
                assert np.array_equal(dense(stored), dense(original))
            assert (twin.num_states, twin.num_actions, twin.num_observations) == (
                model.num_states, model.num_actions, model.num_observations,
            )
            ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
            x = y = 0
            for step in range(50):
                a = step % 2
                (x, zx, rx), (y, zy, ry) = simulate_step(model, x, a, ours), simulate_step(twin, y, a, theirs)
                assert (x, zx, rx) == (y, zy, ry)
            vectors = rng.uniform(-1.0, 1.0, size=(3, model.num_states))
            for b in (model.initial_belief, np.eye(model.num_states)[1]):
                alpha, act = point_backup(model, b, vectors)
                twin_alpha, twin_act = point_backup(twin, b, vectors)
                assert act == twin_act and np.array_equal(alpha, twin_alpha)


def test_mis_shaped_tables_are_refused(rng):
    model = random_pomdp(rng, num_states=4, num_actions=2, num_observations=3)
    t, o = model.transition, model.observation
    cases = [
        (dict(transition=[t[0], np.eye(5)]), r"transition\[1\] has shape \(5, 5\), expected \(4, 4\)"),
        (dict(transition=[t[0], np.ones(4) / 4]), r"transition\[1\] has shape \(4,\)"),
        (dict(observation=[o[0], np.ones((5, 3)) / 3]), r"observation\[1\] has shape \(5, 3\)"),
        # Every observation table must have as many columns as the first.
        (dict(observation=[o[0], np.ones((4, 2)) / 2]), r"observation\[1\] has shape \(4, 2\), expected \(4, 3\)"),
        (dict(observation=[o[0]]), "2 transition tables but 1 observation tables"),
        (dict(reward=np.zeros((4, 3))), r"reward table has shape \(4, 3\), expected \(4, 2\)"),
        (dict(reward=np.zeros(4)), "reward table has shape"),
        (dict(initial_belief=np.full(5, 0.2)), r"initial belief has shape \(5,\), expected \(4,\)"),
        (dict(transition=[], observation=[], reward=np.zeros((4, 0))), "at least one action"),
    ]
    for changes, message in cases:
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, **changes)
    # The counts are read off the tables, never handed in.
    with pytest.raises(ValueError, match="num_actions"):
        dataclasses.replace(model, num_actions=2)
    with pytest.raises(TypeError):
        TabularPomdp(3, 2, 2, t, o, model.reward, 0.9, model.initial_belief)
