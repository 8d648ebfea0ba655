"""Reference cell-by-cell writers, kept as the oracle for aoi_access.results.

write_csv() formats every cell of every row through _csv_cell, and
write_json() turns each row into a dict of _json_value cells and hands it
to json.dumps. The column-wise encoder of aoi_access.results must write
the same bytes for every row this module can write.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from aoi_access.results import COLUMN_NAMES, COLUMNS, SCHEMA_VERSION

_TYPES = dict(COLUMNS)


def _csv_cell(name: str, value) -> str:
    if value is None:
        return ""
    kind = _TYPES[name]
    if kind == "f":
        return "inf" if math.isinf(value) else repr(float(value))
    if kind in ("i", "s"):
        return str(value)
    if kind == "b":
        return "true" if value else "false"
    return json.dumps(value, separators=(",", ":"))


def write_csv(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMN_NAMES)
        for row in rows:
            writer.writerow(_csv_cell(name, row[name]) for name in COLUMN_NAMES)


def _json_value(name: str, value):
    if value is None:
        return None
    kind = _TYPES[name]
    if kind == "f" and math.isinf(value):
        return {"unbounded": True}
    if kind in ("jff", "jii"):
        return {str(k): v for k, v in value.items()}
    return value


def write_json(path: str | Path, rows: list[dict]) -> None:
    lines = ",\n".join(
        json.dumps({name: _json_value(name, row[name]) for name in COLUMN_NAMES}) for row in rows
    )
    doc = f'{{"schema_version": {SCHEMA_VERSION}, "rows": [\n{lines}\n]}}\n'
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(doc)
