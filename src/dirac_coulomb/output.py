"""Deterministic JSON and CSV rendering.

All reals are written with 17 significant digits, which round-trips
doubles bit-faithfully; key order is insertion order and nothing
time- or environment-dependent is ever emitted, so identical inputs
produce byte-identical output.  Tables are rendered column by column
(emit_table): callers format only the values a row prints, and the rows
are filled into a template in blocks.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat

import numpy as np

__all__ = ["format_value", "format_reals", "token", "emit_json", "emit_csv", "emit_table"]

_BLOCK_ROWS = 16  # table rows per % of emit_table; larger blocks raised the state ops' peak RSS


def format_value(value) -> str:
    """Canonical rendering of a float, None, bool, int or str, shared by both formats; else TypeError."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def format_reals(values) -> list[str]:
    """format_value of each element, for an array of reals."""
    return [format(v, ".17g") for v in np.asarray(values, dtype=float).ravel().tolist()]


def token(value, fmt: str) -> str:
    """One scalar as emit_json (fmt "json") or else emit_csv writes it: csv.writer
    quotes a string that holds a ',', a '"' or its line terminator, doubling each '"'."""
    if isinstance(value, str):
        if fmt == "json":
            return json.dumps(value)
        return '"' + value.replace('"', '""') + '"' if "," in value or '"' in value or "\n" in value else value
    if value is None and fmt == "json":
        return "null"
    return format_value(value)


def _json_value(value, indent: int, pieces: list[str]) -> None:
    if isinstance(value, dict):
        brackets, items = "{}", ((f"{json.dumps(str(key))}: ", item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", zip(repeat(""), value)
    else:
        pieces.append(token(value, "json"))
        return
    if not value:
        pieces.append(brackets)
        return
    pad = "\n" + "  " * indent
    sep = brackets[0] + pad + "  "
    for label, item in items:
        pieces.append(sep + label)
        _json_value(item, indent + 1, pieces)
        sep = "," + pad + "  "
    pieces.append(pad + brackets[1])


def emit_json(document: dict) -> str:
    pieces: list[str] = []
    _json_value(document, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def emit_csv(rows: list[dict]) -> str:
    """Header plus one line per row; UTF-8, '.' decimals, comma separator."""
    buf = io.StringIO()
    if not rows:
        return ""
    writer = csv.writer(buf, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(row[key]) for key in header])
    return buf.getvalue()


def emit_table(fmt: str, meta: dict, keys, fixed: dict, columns, reports=()) -> str:
    """emit_json({"meta": meta, "rows": ..., "reports": list(reports)}) for fmt "json", else
    emit_csv, of non-empty rows whose keys need no CSV quoting, without a dict or tuple per
    row: the `fixed` values are rendered once into a row template, and `columns` holds one
    list of tokens per other key, in key order: the text each row prints, so a caller formats
    only what is shown (a spectrum table's E/m and a only in ok rows).  The template is filled for
    _BLOCK_ROWS rows per `%`, and head, blocks and tail are joined once."""
    slots = [token(fixed[k], fmt).replace("%", "%%") if k in fixed else "%s" for k in keys]
    if fmt != "json":
        head, sep, tail = ",".join(keys) + "\n", "", ""
        template = ",".join(slots) + "\n"
    else:
        head = emit_json({"meta": meta})[:-len("\n}\n")] + ',\n  "rows": [\n'
        sep, tail = ",\n", "\n  ],\n" + emit_json({"reports": list(reports)})[len("{\n"):]
        template = "    {\n" + ",\n".join(
            f"      {json.dumps(k).replace('%', '%%')}: {slot}" for k, slot in zip(keys, slots)) + "\n    }"
    width, rows = len(columns), len(columns[0])
    tokens = [None] * (rows * width)  # row by row
    for i, column in enumerate(columns):
        tokens[i::width] = column
    block, pieces = sep.join([template] * _BLOCK_ROWS), []
    for start in range(0, rows, _BLOCK_ROWS):
        if rows - start < _BLOCK_ROWS:
            block = sep.join([template] * (rows - start))
        pieces += [sep, block % tuple(tokens[start * width:(start + _BLOCK_ROWS) * width])]
    pieces[0] = head  # in place of the first separator
    return "".join(pieces + [tail])
