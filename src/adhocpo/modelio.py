"""Versioned plain-text serialization for tabular models.

The format is line oriented: a fixed header, then sparse triple sections for
the transition, observation, and reward tables, then the initial belief.
Floats are written with repr(), so a load/dump round trip reproduces the
file byte for byte.  Writing formats each distinct table object once: a
table shared by several actions is formatted without its action column,
which is then put in front of every line for each action that uses it.
`model_digests` hashes a whole library this way, so a table shared across
models too (the grid and map sensor table serves every action of every
model) is formatted once per batch.

A table's text is made in bytes blocks of about `_BLOCK` lines, each cut
at a row boundary.  A table used once is formatted, written or hashed and
dropped block by block; a shared table's blocks are held until its last
use, and an action's prefix goes into one block at a time.  So the text
alive at once is that of the shared tables still to come plus one block
and its prefixed copy, never a model's whole text.

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

import contextlib
import contextvars
import hashlib

import numpy as np
from scipy import sparse

from adhocpo.pomdp import TabularPomdp, entry_count

FORMAT_TAG = "adhocpo-model v1"
# Entries per block of table text.  Blocks are cut by entry count, not by
# rows: a few rows of a sparse table make a block too small to pay for its
# numpy calls.
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
    """A model's canonical text as (slot, prefix, table) pieces, in order.

    A piece without a table is its prefix alone; otherwise it is the lines
    of the table, each led by the prefix.  The slot, (section, action),
    orders the pieces of every model alike.
    """
    yield (0, 0), (
        f"{FORMAT_TAG}\n"
        f"label {model.label}\n"
        f"states {model.num_states}\n"
        f"actions {model.num_actions}\n"
        f"observations {model.num_observations}\n"
        f"discount {float(model.discount)!r}\n"
    ).encode(), None
    for s, (key, tables) in enumerate((("T", model.transition), ("O", model.observation)), start=1):
        yield (s, -1), f"{key} {sum(entry_count(t) for t in tables)}\n".encode(), None
        for a, table in enumerate(tables):
            yield (s, a), f"{a} ".encode(), table
    for s, (key, table) in enumerate((("R", model.reward), ("b0", model.initial_belief)), start=3):
        yield (s, -1), f"{key} {entry_count(table)}\n".encode(), None
        yield (s, 0), b"", table
    yield (5, 0), b"end\n", None


def _body(table):
    """The lines of one table, or of the initial belief, without a prefix:
    bytes blocks in row-major order, each formatted when it is asked for.

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
            yield _lines(part, None, table[part])
        return
    csr = sparse.issparse(table)
    # ends[x]: the number of entries before row x.
    ends = table.indptr if csr else np.concatenate(([0], np.cumsum(np.count_nonzero(table, axis=1))))
    # Each block starts at the row that holds entry 0, _BLOCK, 2 _BLOCK, ...
    starts = np.unique(np.searchsorted(ends, np.arange(0, ends[-1], _BLOCK), side="right") - 1).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(ends) - 1]):
        if csr:
            span = slice(ends[lo], ends[hi])
            rows = np.repeat(np.arange(lo, hi), np.diff(ends[lo : hi + 1]))
            cols, values = table.indices[span], table.data[span]
            order = np.lexsort((cols, rows))
            yield _lines(rows[order], cols[order], values[order])
        else:
            part = table[lo:hi]
            rows, cols = np.nonzero(part)
            yield _lines(rows + lo, cols, part[rows, cols])


def _texts(models):
    """The canonical texts of several models, walked together.

    Yields (chunk, ks): the next piece of the text of every models[k] with
    k in ks.  A table object is formatted once however many actions and
    models use it, and its blocks are held only until its last use; each
    action's prefixed copy of a block is built once, just before it is
    yielded.  So the transient text is the held tables' blocks plus one
    block and one prefixed copy of it.
    """
    slots: dict = {}
    for k, model in enumerate(models):
        for slot, prefix, table in _pieces(model):
            slots.setdefault(slot, {}).setdefault((prefix, id(table)), (table, []))[1].append(k)
    order = sorted(slots)
    last_use = {id(table): i for i, slot in enumerate(order) for table, _ in slots[slot].values()}
    held: dict = {}
    for i, slot in enumerate(order):
        for (prefix, key), (table, ks) in slots[slot].items():
            if table is None:
                yield prefix, ks
                continue
            body = held.pop(key, None)
            if body is None:
                body = _body(table)
            if last_use[key] > i:
                held[key] = body = list(body)
            for block in body:
                if prefix:
                    yield prefix, ks
                    yield memoryview(block.replace(b"\n", b"\n" + prefix))[: -len(prefix)], ks
                else:
                    yield block, ks


def dumps_model(model: TabularPomdp) -> str:
    return b"".join(chunk for chunk, _ in _texts([model])).decode()


def dump_model(model: TabularPomdp, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(chunk for chunk, _ in _texts([model]))


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

    def read_section(key: str, bounds: tuple):
        """Entries of one section: integer indices below `bounds`, then a value."""
        count = _header_int(lines, key)
        rows = []
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
            rows.append(index + (value,))
        return rows

    t_rows = read_section("T", (num_actions, n, n))
    o_rows = read_section("O", (num_actions, n, num_obs))
    r_rows = read_section("R", (n, num_actions))
    b_rows = read_section("b0", (n,))
    if lines.next().strip() != "end":
        lines.fail("expected 'end'")

    def build_tables(rows, cols: int):
        per_action = [[] for _ in range(num_actions)]
        for a, i, j, p in rows:
            per_action[a].append((i, j, p))
        tables = []
        for triples in per_action:
            ii, jj, vv = zip(*triples) if triples else ((), (), ())
            tables.append(sparse.coo_array((vv, (ii, jj)), shape=(n, cols)))
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


def load_model(path) -> TabularPomdp:
    with open(path, encoding="utf-8") as fh:
        return loads_model(fh.read())


def model_digests(models) -> list:
    """Content hash of each model's canonical serialization, in order.

    Equal to the sha256 of the file dump_model writes; each text is hashed
    piece by piece and never held whole.  The models are hashed together,
    so a table they share is formatted once for all of them.
    """
    hashers = [hashlib.sha256() for _ in models]
    for chunk, ks in _texts(models):
        for k in ks:
            hashers[k].update(chunk)
    return [h.hexdigest() for h in hashers]


# {id(model): (model, digest)} for the models of the innermost digests_held block.
_held: contextvars.ContextVar = contextvars.ContextVar("held model digests", default={})


@contextlib.contextmanager
def digests_held(models):
    """Digest `models` together; inside the block, model_digest of one of
    these very objects returns its digest from here.

    The models must not change inside the block.
    """
    token = _held.set({id(m): (m, d) for m, d in zip(models, model_digests(models))})
    try:
        yield
    finally:
        _held.reset(token)


def model_digest(model: TabularPomdp) -> str:
    """Content hash of the canonical serialization; keys the policy cache.

    `model_digests` of this model alone, or the digest that the innermost
    `digests_held` block made for this very object.
    """
    held, digest = _held.get().get(id(model), (None, None))
    return digest if held is model else model_digests([model])[0]
