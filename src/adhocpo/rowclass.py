"""Dense tables whose rows repeat, stored as their distinct rows.

A sensor table gives each state the distribution of what it reads, and
many states read alike: the full-scale map sensors have 34 to 39
distinct rows among 1807 to 4831.  A `RowClassTable` keeps a table's
distinct rows once (`data`, R x Z) and each row's class (`index`, one
entry per row): row x is data[index[x]].

Every read gives the floats the dense table gives, in the same order.
A read of rows gathers them into a new dense array and does on it what
the dense read does (`table[rows]`, `weighted_row_sums`); `column` takes
the class column, then one entry per row.  A per-row reduction
(`row_sums`) is made once per distinct row: numpy reduces each row of a
C-ordered array by the same steps wherever the row sits, so the form
holds only C-ordered float64 tables.  Products that mix rows, `table @ x`
and `x @ table`, are refused: BLAS rounds a row by its position, so no
product of the distinct rows could equal them.  A table is read-only
once made.
"""
from __future__ import annotations

import numpy as np

# Entries compared per step of the exact row check.
_BLOCK = 2**13


class RowClassTable:
    """A 2-D table stored as its distinct rows `data` and, per row, the
    row `index[x]` of `data` it equals bit for bit."""

    ndim = 2
    # numpy's operators return NotImplemented, so `x * table` is a TypeError
    # rather than a silent dense copy.
    __array_ufunc__ = None

    def __init__(self, data, index):
        self.data = np.asarray(data, dtype=float)
        self.index = np.asarray(index, dtype=np.intp)
        self.shape = (len(self.index), self.data.shape[1])

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "RowClassTable | None":
        """The table of a C-ordered float64 array, its classes in order of first row.

        Rows are grouped by a wrapping integer hash of their bit patterns,
        which needs no float arithmetic and so keys equal rows alike
        wherever they sit.  Each row is then compared bit for bit with its
        class, so -0.0 and 0.0, and NaNs of other payloads, are other
        rows; a hash collision, never seen, gives None.
        """
        bits = array.view(np.uint64)
        mix = np.frombuffer(np.random.default_rng(0).bytes(8 * array.shape[1]), dtype=np.uint64)
        _, first, index = np.unique(bits @ mix, return_index=True, return_inverse=True)
        order = np.argsort(first)
        table = cls(array[first[order]], np.argsort(order)[index])
        classes = table.data.view(np.uint64)
        step = max(1, _BLOCK // array.shape[1])
        for lo in range(0, len(array), step):
            if not np.array_equal(bits[lo:lo + step], classes[table.index[lo:lo + step]]):
                return None
        return table

    def row_nonzeros(self) -> np.ndarray:
        """The number of nonzero entries of each row."""
        return np.count_nonzero(self.data, axis=1)[self.index]

    @property
    def nnz(self) -> int:
        """Number of nonzero entries of the dense table."""
        return int(self.row_nonzeros().sum())

    def min(self) -> float:
        """The smallest entry."""
        return float(self.data.min())

    def toarray(self) -> np.ndarray:
        """The dense table as a new array."""
        return self.data[self.index]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.toarray() if dtype is None else self.toarray().astype(dtype, copy=False)

    def __getitem__(self, rows) -> np.ndarray:
        """The rows `rows` (an index array or a slice) as a new dense array."""
        return self.data[self.index[rows]]

    def row(self, x: int) -> np.ndarray:
        """Row x as a new dense array."""
        return self.data[self.index[x]].copy()

    def column(self, z: int) -> np.ndarray:
        """Column z as a new dense array: the class column first, then one gather."""
        return self.data[:, z][self.index]

    def row_sums(self) -> np.ndarray:
        """table.sum(axis=1), one pairwise sum per distinct row."""
        return self.data.sum(axis=1)[self.index]

    def weighted_row_sums(self, dense: np.ndarray) -> np.ndarray:
        """(table * dense).sum(axis=1), multiplied in place in one gathered buffer."""
        product = self.toarray()
        product *= dense
        return product.sum(axis=1)

    def rows_with(self, mask: np.ndarray) -> np.ndarray:
        """The rows, ascending, holding an entry where `mask`, shaped as `data`, is true."""
        return np.flatnonzero(mask.any(axis=1)[self.index])
