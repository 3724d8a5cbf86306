"""Versioned plain-text serialization for tabular models.

The format is line oriented: a fixed header, then sparse triple sections for
the transition, observation, and reward tables, then the initial belief.
Floats are written with repr(), so a load/dump round trip reproduces the
file byte for byte.

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

import numpy as np
from scipy import sparse

from adhocpo.pomdp import TabularPomdp

FORMAT_TAG = "adhocpo-model v1"


class ModelFormatError(ValueError):
    """Raised on malformed model files; message carries the line number."""


def _entries(table):
    """Stored entries of one table in row-major order: (rows, cols, values).

    CSR tables keep every stored entry, explicit zeros included; dense
    tables keep their nonzeros.  The sort is stable, so duplicates keep
    their stored order.
    """
    if sparse.issparse(table):
        coo = table.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]
    rows, cols = np.nonzero(table)
    return rows, cols, np.asarray(table)[rows, cols]


def _entry_count(table) -> int:
    return table.nnz if sparse.issparse(table) else int(np.count_nonzero(table))


def _lines(prefix: str, rows, cols, values) -> str:
    """One text line per entry: prefix, row, column (if any), then value.

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
    heads = [f"{prefix}{x} " for x in range(int(rows.max()) + 1 if len(rows) else 0)]
    text = np.array(heads, dtype=object)[rows] + np.array(tails, dtype=object)[tail_id]
    return "".join(text.tolist())


def _model_chunks(model: TabularPomdp):
    """The canonical text of a model, in pieces of at most one table each."""
    yield (
        f"{FORMAT_TAG}\n"
        f"label {model.label}\n"
        f"states {model.num_states}\n"
        f"actions {model.num_actions}\n"
        f"observations {model.num_observations}\n"
        f"discount {float(model.discount)!r}\n"
    )
    for key, tables in (("T", model.transition), ("O", model.observation)):
        yield f"{key} {sum(_entry_count(t) for t in tables)}\n"
        for a, table in enumerate(tables):
            yield _lines(f"{a} ", *_entries(table))
    yield f"R {_entry_count(model.reward)}\n"
    yield _lines("", *_entries(model.reward))
    b_idx = np.flatnonzero(model.initial_belief)
    yield f"b0 {len(b_idx)}\n"
    yield _lines("", b_idx, None, model.initial_belief[b_idx])
    yield "end\n"


def dumps_model(model: TabularPomdp) -> str:
    return "".join(_model_chunks(model))


def dump_model(model: TabularPomdp, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_model_chunks(model))


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
        return int(parts[1])
    except ValueError:
        lines.fail(f"{key} is not an integer: {parts[1]!r}")


def loads_model(text: str) -> TabularPomdp:
    lines = _Lines(text)
    tag = lines.next()
    if tag.strip() != FORMAT_TAG:
        lines.fail(f"unknown format tag {tag!r}, expected {FORMAT_TAG!r}")
    label_line = lines.next()
    if not label_line.startswith("label"):
        lines.fail(f"expected 'label ...', got {label_line!r}")
    label = label_line[len("label "):] if len(label_line) > 5 else ""

    n = _header_int(lines, "states")
    num_actions = _header_int(lines, "actions")
    num_obs = _header_int(lines, "observations")
    disc_line = lines.next().split()
    if len(disc_line) != 2 or disc_line[0] != "discount":
        lines.fail("expected 'discount <value>'")
    discount = float(disc_line[1])

    def read_section(key: str, width: int):
        count = _header_int(lines, key)
        rows = []
        for _ in range(count):
            parts = lines.next().split()
            if len(parts) != width:
                lines.fail(f"{key} entry needs {width} fields, got {len(parts)}")
            try:
                rows.append(tuple(int(p) for p in parts[:-1]) + (float(parts[-1]),))
            except ValueError:
                lines.fail(f"bad {key} entry: {' '.join(parts)!r}")
        return rows

    t_rows = read_section("T", 4)
    o_rows = read_section("O", 4)
    r_rows = read_section("R", 3)
    b_rows = read_section("b0", 2)
    if lines.next().strip() != "end":
        lines.fail("expected 'end'")

    def build_tables(rows, cols: int):
        per_action = [[] for _ in range(num_actions)]
        for a, i, j, p in rows:
            if not (0 <= a < num_actions and 0 <= i < n and 0 <= j < cols):
                raise ModelFormatError(f"index out of range in entry {(a, i, j)}")
            per_action[a].append((i, j, p))
        tables = []
        for entries in per_action:
            if entries:
                ii, jj, vv = zip(*entries)
            else:
                ii, jj, vv = (), (), ()
            m = sparse.coo_array((vv, (ii, jj)), shape=(n, cols)).tocsr()
            tables.append(m)
        return tables

    reward = np.zeros((n, num_actions))
    for x, a, r in r_rows:
        if not (0 <= x < n and 0 <= a < num_actions):
            raise ModelFormatError(f"reward index out of range: {(x, a)}")
        reward[x, a] = r
    b0 = np.zeros(n)
    for x, p in b_rows:
        if not 0 <= x < n:
            raise ModelFormatError(f"belief index out of range: {x}")
        b0[x] = p

    return TabularPomdp.from_tables(
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


def model_digest(model: TabularPomdp) -> str:
    """Content hash of the canonical serialization; keys the policy cache.

    Equal to the sha256 of the file dump_model writes; the text is hashed
    piece by piece and never held whole.
    """
    digest = hashlib.sha256()
    for chunk in _model_chunks(model):
        digest.update(chunk.encode())
    return digest.hexdigest()
