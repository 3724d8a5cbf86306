"""Versioned plain-text serialization for tabular models, and their digests.

The format is line oriented: a fixed header, then sparse triple sections for
the transition, observation, and reward tables, then the initial belief.
Floats are written with repr(), so a load/dump round trip reproduces the
file byte for byte.

One walk, `_entries`, yields a table's entries in text order, in array
blocks of about `_BLOCK` entries cut at row boundaries.  The text is
written one table at a time, and a table's blocks are kept while the
next actions name that same table object: a table shared by consecutive
actions, as every builder shares one, is formatted once, and only its
action prefix is repeated.  So the text alive at once is one table's
blocks and one prefixed copy of a block, never a model's whole text.

`model_digest` hashes the same blocks as packed int64 records instead of
text: one sha256 per table, combined with the header and count lines.
Two models have equal digests exactly when they have equal texts.  A
table memo passed to every call of a batch hashes each distinct table
object once; `model_digests` keeps one for its batch, so a table shared
across actions and models (the grid and map sensor table) is hashed once
per library.  The digest is a plain value: `solvers.solve_many` computes
a library's digests once and hands them to the policy cache.

    adhocpo-model v1
    label <free text>
    states <N>
    actions <A>
    observations <Z>
    discount <g>
    T <count>       followed by:  a x x' p
    O <count>       followed by:  a x' z p
    R <count>       followed by:  x a r
    b0 <count>      followed by:  x p
    end
"""
from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

import numpy as np

from adhocpo.csr import CsrTable
from adhocpo.pomdp import TabularPomdp

FORMAT_TAG = "adhocpo-model v1"
# Entries per block of a table's walk, which the text formats and the
# digest hashes.  Blocks are cut by entry count, not by rows: a few rows of
# a sparse table make a block too small to pay for its numpy calls.
_BLOCK = 2**13


class ModelFormatError(ValueError):
    """Raised on malformed model files; message carries the line number."""


def _lines(rows, cols, values) -> bytes:
    """One text line per entry of a block: row, column (if any), then value.

    Each distinct float64 is formatted once, keyed by its bit pattern so
    that -0.0 and 0.0 keep their own repr; each distinct line tail
    (column and value) is formatted once too.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, tail_id = np.unique(bits, return_inverse=True)
    tails = [repr(v) + "\n" for v in distinct.view(np.float64).tolist()]
    if cols is not None:
        pairs = np.asarray(cols, dtype=np.int64) * len(distinct) + tail_id
        pairs, tail_id = np.unique(pairs, return_inverse=True)
        col_of, value_of = np.divmod(pairs, len(distinct))
        tails = [f"{c} {tails[v]}" for c, v in zip(col_of.tolist(), value_of.tolist())]
    first = int(rows[0])
    heads = [f"{x} " for x in range(first, int(rows[-1]) + 1)]
    text = np.array(heads, dtype=object)[rows - first] + np.array(tails, dtype=object)[tail_id]
    return "".join(text.tolist()).encode()


def _pieces(model: TabularPomdp):
    """A model's canonical text as (prefix, table) pieces, in order.

    A piece without a table is its prefix alone; otherwise it is the lines
    of the table, each led by the prefix.
    """
    yield (
        f"{FORMAT_TAG}\n"
        f"label {model.label}\n"
        f"states {model.num_states}\n"
        f"actions {model.num_actions}\n"
        f"observations {model.num_observations}\n"
        f"discount {float(model.discount)!r}\n"
    ).encode(), None
    for key, tables in (("T", model.transition), ("O", model.observation)):
        # A table shared by several actions is counted once.
        counts = {id(t): _entry_count(t) for t in {id(t): t for t in tables}.values()}
        yield f"{key} {sum(counts[id(t)] for t in tables)}\n".encode(), None
        for a, table in enumerate(tables):
            yield f"{a} ".encode(), table
    for key, table in (("R", model.reward), ("b0", model.initial_belief)):
        yield f"{key} {_entry_count(table)}\n".encode(), None
        yield b"", table
    yield b"end\n", None


def _entry_count(table) -> int:
    """The number of entries `_entries` yields for one table."""
    return int(np.count_nonzero(table)) if isinstance(table, np.ndarray) else table.nnz


def _entries(table):
    """The entries of one table, or of the initial belief, in text order:
    (rows, cols, values) array blocks, with cols None for the belief.

    Each block holds whole rows and about _BLOCK entries (a longer row is
    a block of its own); the initial belief is cut by index.  CSR tables
    keep every stored entry, explicit zeros included; dense tables keep
    their nonzeros.  The sort within a row is stable, so duplicates keep
    their stored order.
    """
    if table.ndim == 1:
        idx = np.flatnonzero(table)
        for start in range(0, len(idx), _BLOCK):
            part = idx[start : start + _BLOCK]
            yield part, None, table[part]
        return
    csr = isinstance(table, CsrTable)
    # ends[x]: the number of entries before row x.
    if csr:
        ends = table.indptr
    else:
        counts = np.count_nonzero(table, axis=1) if isinstance(table, np.ndarray) else table.row_nonzeros()
        ends = np.concatenate(([0], np.cumsum(counts)))
    # Each block starts at the row that holds entry 0, _BLOCK, 2 _BLOCK, ...
    # (rows ascending).  A plain 1-D np.unique(a) would import numpy.ma (1.2
    # MB, 10 ms; numpy 2.4); its return_index and return_inverse forms do not.
    starts = list(dict.fromkeys((np.searchsorted(ends, np.arange(0, ends[-1], _BLOCK), side="right") - 1).tolist()))
    for lo, hi in zip(starts, starts[1:] + [len(ends) - 1]):
        if csr:
            span = slice(ends[lo], ends[hi])
            rows, cols, values = table.rows[span], table.indices[span], table.data[span]
            order = np.lexsort((cols, rows))
            yield rows[order], cols[order], values[order]
        else:
            part = table[lo:hi]
            rows, cols = np.nonzero(part)
            yield rows + lo, cols, part[rows, cols]


def _text(model: TabularPomdp):
    """A model's canonical text, as bytes chunks.

    A table is formatted once per run of consecutive pieces that name it;
    each action's prefixed copy of a block is built just before it is
    yielded.
    """
    last = blocks = None
    for prefix, table in _pieces(model):
        if table is None:
            yield prefix
            continue
        if table is not last:
            last, blocks = table, None  # drop the last table's text before formatting this one
            blocks = [_lines(*block) for block in _entries(table)]
        for block in blocks:
            if prefix:
                yield prefix
                yield memoryview(block.replace(b"\n", b"\n" + prefix))[: -len(prefix)]
            else:
                yield block


def dumps_model(model: TabularPomdp) -> str:
    return b"".join(_text(model)).decode()


def dump_model(model: TabularPomdp, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_text(model))


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def fail(self, message: str):
        raise ModelFormatError(f"line {self.pos}: {message}")


def _header_int(lines: _Lines, key: str) -> int:
    line = lines.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        lines.fail(f"expected '{key} <value>', got {line!r}")
    try:
        value = int(parts[1])
    except ValueError:
        lines.fail(f"{key} is not an integer: {parts[1]!r}")
    if value < 0:
        lines.fail(f"{key} is negative: {value}")
    return value


def loads_model(text: str) -> TabularPomdp:
    lines = _Lines(text)
    tag = lines.next()
    if tag.strip() != FORMAT_TAG:
        lines.fail(f"unknown format tag {tag!r}, expected {FORMAT_TAG!r}")
    label_line = lines.next()
    if label_line != "label" and not label_line.startswith("label "):
        lines.fail(f"expected 'label ...', got {label_line!r}")
    label = label_line[len("label "):]

    n = _header_int(lines, "states")
    num_actions = _header_int(lines, "actions")
    if num_actions == 0:
        lines.fail("a model needs at least one action")
    num_obs = _header_int(lines, "observations")
    disc_line = lines.next().split()
    if len(disc_line) != 2 or disc_line[0] != "discount":
        lines.fail("expected 'discount <value>'")
    try:
        discount = float(disc_line[1])
    except ValueError:
        lines.fail(f"discount is not a number: {disc_line[1]!r}")
    if not 0.0 <= discount < 1.0:
        lines.fail(f"discount must lie in [0, 1), got {discount!r}")

    def read_section(key: str, bounds: tuple, sums: bool = True):
        """Entries of one section: integer indices below `bounds`, then a value.
        Repeated indices add up, as in a COO table, unless `sums` is False:
        then a repeat is refused rather than silently replacing the earlier value."""
        count = _header_int(lines, key)
        rows = []
        first_line = {}
        for _ in range(count):
            parts = lines.next().split()
            if len(parts) != len(bounds) + 1:
                lines.fail(f"{key} entry needs {len(bounds) + 1} fields, got {len(parts)}")
            try:
                index = tuple(int(p) for p in parts[:-1])
                value = float(parts[-1])
            except ValueError:
                lines.fail(f"bad {key} entry: {' '.join(parts)!r}")
            if not all(0 <= i < b for i, b in zip(index, bounds)):
                lines.fail(f"{key} index out of range in entry {' '.join(parts)!r}")
            if not sums and first_line.setdefault(index, lines.pos) != lines.pos:
                lines.fail(f"repeated {key} entry {' '.join(parts[:-1])}, first on line {first_line[index]}")
            rows.append(index + (value,))
        return rows

    t_rows = read_section("T", (num_actions, n, n))
    o_rows = read_section("O", (num_actions, n, num_obs))
    r_rows = read_section("R", (n, num_actions), sums=False)
    b_rows = read_section("b0", (n,), sums=False)
    if lines.next().strip() != "end":
        lines.fail("expected 'end'")

    def build_tables(rows, cols: int):
        per_action = [[] for _ in range(num_actions)]
        for a, i, j, p in rows:
            per_action[a].append((i, j, p))
        tables = []
        for triples in per_action:
            ii, jj, vv = zip(*triples) if triples else ((), (), ())
            tables.append(CsrTable.from_coo(vv, ii, jj, (n, cols)))
        return tables

    reward = np.zeros((n, num_actions))
    for x, a, r in r_rows:
        reward[x, a] = r
    b0 = np.zeros(n)
    for x, p in b_rows:
        b0[x] = p

    return TabularPomdp(
        build_tables(t_rows, n),
        build_tables(o_rows, num_obs),
        reward,
        discount,
        b0,
        label=label,
    )


def read_text(path, error=ModelFormatError) -> str:
    """A file's UTF-8 text; a byte that is not UTF-8 raises `error`
    naming the file and the line, one plus the newlines before it."""
    data = Path(path).read_bytes()
    try:
        return data.decode()
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 (byte {data[err.start]:#04x})") from None


def load_model(path) -> TabularPomdp:
    return loads_model(read_text(path))


def _table_digest(table) -> bytes:
    """sha256 of one table's entries in text order, as little-endian int64
    records (row, column, float64 bits), or (index, float64 bits) for the
    initial belief."""
    h = hashlib.sha256()
    for rows, cols, values in _entries(table):
        # Every NaN is written as "nan" and read back as this one, so it
        # is hashed as this one: equal texts give equal digests.
        bits = np.where(np.isnan(values), np.nan, values).view(np.int64)
        fields = (rows, bits) if cols is None else (rows, cols, bits)
        h.update(np.column_stack(fields).astype("<i8", copy=False).tobytes())
    return h.digest()


def model_digest(model: TabularPomdp, tables: Optional[dict] = None) -> str:
    """Content hash of one model; keys the policy cache.

    The sha256 of its text's header and section-count lines, with each
    table's lines replaced by its action prefix and the 32-byte
    `_table_digest` of the table.  Two models therefore have equal digests
    exactly when `dump_model` writes equal files.  `tables` is a memo
    {id(table): its digest} that a batch passes to every model's call, so
    a table shared across actions and models is hashed once per batch; the
    batch's models keep each table alive, so no id is reused.
    """
    if tables is None:
        tables = {}
    h = hashlib.sha256()
    for prefix, table in _pieces(model):
        h.update(prefix)
        if table is not None:
            if id(table) not in tables:
                tables[id(table)] = _table_digest(table)
            h.update(tables[id(table)])
    return h.hexdigest()


def model_digests(models) -> list:
    """model_digest of each model, in order, with one table memo for the batch."""
    tables: dict = {}
    return [model_digest(model, tables) for model in models]
