"""Compressed sparse row tables in numpy, with SciPy's summation orders.

A `CsrTable` holds a table's entries row by row in the arrays SciPy's CSR
uses (`data`, `indices`, `indptr`, `shape`), plus `rows`, the row of each
entry, derived once per table object.  It makes the few products the
package needs with numpy alone, and each adds its terms in the order
SciPy's own product adds them, so every float equals SciPy's:

- `table @ x` and `x @ table` sum each output's products one after
  another in stored order (`np.bincount`), as SciPy's `csr_matvec` and
  its transposed product do;
- `row_sums` is `np.add.reduceat` over the non-empty rows, the call
  SciPy's `sum(axis=1)` makes;
- `scores`, and `pomdp.back_project` on a CSR table, sum the entries of
  SciPy's COO product one after another in stored order, as its COO sum
  and `coo_matmat_dense` do;
- `from_coo` sorts triples stably by row, then column, and sums the
  duplicates of one cell one after another, as SciPy's `tocsr` does;
- `toarray` adds each cell's entries into 0.0 in stored order, in one
  `np.bincount` over the cells, as SciPy's `toarray` does.

Importing SciPy's sparse package costs every process about 16 MB and
0.16 s, for these few operations.  A table is read-only once made: the
derived arrays would go stale.
"""
from __future__ import annotations

import functools

import numpy as np


class CsrTable:
    """A 2-D table stored by rows: the entries of row x are data[lo:hi] in
    the columns indices[lo:hi], with lo, hi = indptr[x], indptr[x + 1].

    The constructor keeps the arrays it is given; `from_coo` and
    `from_dense` make canonical ones, each row's columns ascending and
    distinct, which is the form every stored model table has: a model
    re-makes a table that is not canonical through `from_coo`.
    """

    ndim = 2
    # numpy's operators return NotImplemented, so `x @ table` reaches __rmatmul__.
    __array_ufunc__ = None

    def __init__(self, data, indices, indptr, shape):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.shape = (int(shape[0]), int(shape[1]))
        self.rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @classmethod
    def from_coo(cls, data, rows, cols, shape) -> "CsrTable":
        """The canonical table of (value, row, column) triples.

        Triples are sorted stably by row, then column, and the duplicates
        of one cell summed one after another in input order.  SciPy does
        the same, but sorts a row of more than 16 entries unstably, so its
        duplicates there may be summed in another order.
        """
        data = np.asarray(data, dtype=float)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        num_rows, num_cols = shape
        if rows.size and not (
            0 <= rows.min() and rows.max() < num_rows and 0 <= cols.min() and cols.max() < num_cols
        ):
            raise ValueError(f"an entry lies outside the table's shape {tuple(shape)}")
        cells = rows * num_cols + cols
        order = np.argsort(cells, kind="stable")
        data, rows, cols = data[order], rows[order], cols[order]
        first = np.flatnonzero(np.diff(cells[order], prepend=-1))
        if len(first) < len(data):
            runs = np.diff(first, append=len(data))
            sums = data[first]
            for k in range(1, runs.max()):
                more = runs > k
                sums[more] += data[first[more] + k]
            data, rows, cols = sums, rows[first], cols[first]
        indptr = np.zeros(num_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
        return cls(data, cols, indptr, shape)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "CsrTable":
        """The canonical table of a dense array's nonzero entries."""
        rows, cols = np.nonzero(array)
        return cls.from_coo(array[rows, cols], rows, cols, array.shape)

    @property
    def nnz(self) -> int:
        """Number of stored entries, explicit zeros included."""
        return len(self.data)

    def min(self) -> float:
        """The smallest entry, the zeros outside the stored entries included."""
        implicit = 0.0 if self.nnz < self.shape[0] * self.shape[1] else np.inf
        return float(self.data.min(initial=implicit))

    def toarray(self) -> np.ndarray:
        """The dense table: entries added into zeros in stored order, as
        SciPy's `toarray` does, so an entry -0.0 reads 0.0."""
        num_rows, num_cols = self.shape
        cells = self.rows * num_cols + self.indices
        return np.bincount(cells, weights=self.data, minlength=num_rows * num_cols).reshape(self.shape)

    def row(self, x: int) -> np.ndarray:
        """Row x as a new dense array."""
        lo, hi = self.indptr[x], self.indptr[x + 1]
        return np.bincount(self.indices[lo:hi], weights=self.data[lo:hi], minlength=self.shape[1])

    def column(self, z: int) -> np.ndarray:
        """Column z as a new dense array."""
        indptr, rows, data = self._by_column
        lo, hi = indptr[z], indptr[z + 1]
        return np.bincount(rows[lo:hi], weights=data[lo:hi], minlength=self.shape[0])

    @functools.cached_property
    def _by_column(self) -> tuple:
        """(indptr, rows, data) of the entries column by column, in stored
        order within a column: the transpose's CSR arrays, made by the
        first column read and shared by every model holding this table."""
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(self.shape[1] + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.indices, minlength=self.shape[1]), out=indptr[1:])
        return indptr, self.rows[order], self.data[order]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """table @ x for a 1-D x."""
        return np.bincount(self.rows, weights=self.data * x[self.indices], minlength=self.shape[0])

    def __rmatmul__(self, x: np.ndarray) -> np.ndarray:
        """x @ table for a 1-D x: each column's products in ascending rows."""
        return np.bincount(self.indices, weights=self.data * x[self.rows], minlength=self.shape[1])

    def row_sums(self) -> np.ndarray:
        """table.sum(axis=1): pairwise within a row of 8 or more entries."""
        out = np.zeros(self.shape[0])
        filled = np.flatnonzero(np.diff(self.indptr))
        if filled.size:
            out[filled] = np.add.reduceat(self.data, self.indptr[filled])
        return out

    def rows_with(self, mask: np.ndarray) -> np.ndarray:
        """The row of each stored entry where `mask`, shaped as `data`, is true, ascending."""
        return self.rows[mask]

    def scores(self, vectors: np.ndarray, support: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """vectors @ (weights[:, None] * table[support]), shape (n, columns).

        Entry (i, z) adds (weights[p] * table[support[p], z]) * vectors[i, support[p]]
        over the stored entries of the rows support[p], p ascending.
        """
        lo = self.indptr[support]
        counts = self.indptr[support + 1] - lo
        # Position in `data` of each entry of the gathered rows, in order.
        at = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        products = np.repeat(weights, counts) * self.data[at]
        n, width = len(vectors), self.shape[1]
        terms = vectors.T[self.rows[at]] * products[:, None]  # (entries, n)
        cells = self.indices[at][:, None] + np.arange(0, n * width, width)
        return np.bincount(cells.ravel(), weights=terms.ravel(), minlength=n * width).reshape(n, width)
