"""The numpy CSR kernels against SciPy's sparse arrays, bit for bit."""
import numpy as np
import pytest
from scipy import sparse

from adhocpo.csr import CsrTable
from adhocpo.domains import build
from adhocpo.pomdp import back_project

from conftest import bits_equal

# Entries per row: empty rows, single entries, and rows on either side of
# the 8 at which numpy's reduceat turns pairwise.  SciPy sorts a row of
# more than 16 entries unstably, so no row is longer.
ROW_LENGTHS = (0, 1, 7, 8, 9, 16)


def _random_triples(rng, num_rows, num_cols):
    """Shuffled (values, rows, cols) with duplicate cells and explicit zeros."""
    lengths = rng.choice(ROW_LENGTHS, size=num_rows)
    rows = np.repeat(np.arange(num_rows), lengths)
    cols = rng.integers(0, num_cols, size=len(rows))
    values = rng.random(len(rows)) * (rng.random(len(rows)) < 0.85)
    order = rng.permutation(len(rows))
    return values[order], rows[order], cols[order]


@pytest.mark.parametrize("seed", range(40))
def test_kernels_match_scipy_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    shape = num_rows, num_cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    values, rows, cols = _random_triples(rng, num_rows, num_cols)
    table = CsrTable.from_coo(values, rows, cols, shape)
    ref = sparse.csr_array(sparse.coo_array((values, (rows, cols)), shape=shape))

    # Canonical CSR: the same entries, explicit zeros and duplicate sums included.
    assert np.array_equal(table.indptr, ref.indptr) and np.array_equal(table.indices, ref.indices)
    assert bits_equal(table.data, ref.data)
    assert bits_equal(table.toarray(), ref.toarray())

    x, y = rng.standard_normal(num_cols), rng.standard_normal(num_rows)
    assert bits_equal(table @ x, ref @ x)
    assert bits_equal(y @ table, y @ ref)
    # Row sums in both of SciPy's orders: reduceat, and its COO sum.
    assert bits_equal(table.row_sums(), ref.sum(axis=1))
    # The back-projection: SciPy's COO sum of the entries' products.
    picked_from = rng.standard_normal((int(rng.integers(1, 9)), num_rows))
    picks = rng.integers(0, len(picked_from), size=num_cols)
    assert bits_equal(back_project(table, picked_from, picks), (ref * picked_from[picks].T).sum(axis=1))

    vectors = rng.standard_normal((int(rng.integers(1, 9)), num_rows))
    for support in (np.flatnonzero(rng.random(num_rows) < 0.6), np.arange(num_rows)):
        weights = rng.random(len(support)) + 0.1
        want = vectors[:, support] @ (weights[:, None] * ref[support])
        assert bits_equal(table.scores(vectors, support, weights), want)

    for r in range(num_rows):
        assert bits_equal(table.row(r), ref[[r], :].toarray()[0])
    for c in range(num_cols):
        assert bits_equal(table.column(c), ref[:, [c]].toarray()[:, 0])
    assert table.min() == ref.min()


def test_from_coo_keeps_a_single_negative_zero_and_refuses_stray_entries():
    table = CsrTable.from_coo([-0.0, 0.5, 0.5], [1, 0, 0], [0, 2, 2], (2, 3))
    assert table.indptr.tolist() == [0, 1, 2] and table.indices.tolist() == [2, 0]
    assert bits_equal(table.data, [1.0, -0.0])
    for rows, cols in (([2], [0]), ([0], [3]), ([-1], [0])):
        with pytest.raises(ValueError, match="outside the table's shape"):
            CsrTable.from_coo([1.0], rows, cols, (2, 3))


def _add_at_dense(table: CsrTable) -> np.ndarray:
    """The dense table by np.add.at: each stored entry added into zeros in stored order."""
    out = np.zeros(table.shape)
    np.add.at(out, (table.rows, table.indices), table.data)
    return out


def test_toarray_adds_entries_in_stored_order_bit_for_bit():
    # Hand-made tables in any order, with repeated cells, -0.0 and NaN, and
    # the power plant's 12 transition tables, which its builder makes as
    # CSR and the model stores dense.
    rng = np.random.default_rng(5)
    tables = []
    for _ in range(50):
        shape = num_rows, num_cols = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        lengths = rng.integers(0, 6, size=num_rows)
        rows = np.repeat(np.arange(num_rows), lengths)
        cols = rng.integers(0, num_cols, size=len(rows))
        values = rng.standard_normal(len(rows))
        values[rng.random(len(rows)) < 0.1] = -0.0
        values[rng.random(len(rows)) < 0.05] = np.nan
        tables.append(CsrTable(values, cols, np.concatenate(([0], np.cumsum(lengths))), shape))
    plant = [t for m in build("power-plant").models for t in m.transition]
    assert len({id(t) for t in plant}) == 12 and all(isinstance(t, np.ndarray) for t in plant)
    tables += [CsrTable.from_dense(t) for t in plant]
    for table in tables:
        assert bits_equal(table.toarray(), _add_at_dense(table))
    for table, dense in zip(tables[50:], plant):
        assert bits_equal(table.toarray(), dense)
