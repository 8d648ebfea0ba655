"""Flat result rows with exact-round-trip CSV and JSON serialization.

Every row carries the full column set in a fixed order so files from
different runs line up; simulation columns are empty when a run was
analytical only. COLUMNS declares each column once, with its type and
the report attribute it is read from, so adding a column is one COLUMNS
entry: the row builders, the encoder and the readers all follow it.
encode_rows() encodes a list of rows once, one column at a time, and
write_csv() and write_json() both write that one encoding. A float is
written as its shortest round-trip repr, the same text in both files.
An unbounded average age is written as "inf" in CSV and as the tagged
object {"unbounded": true} in JSON; NaN is written as "nan" in CSV and
NaN in JSON. Vector-valued fields (stationary vector, occupancy,
histogram, violation curve) are embedded as compact JSON inside their
CSV cell. Writes are atomic: a temp file in the target directory is
renamed into place, so a failed run never leaves a partial file.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .sim import SimulationReport
from .system import AnalyticalReport

SCHEMA_VERSION = 1

# (column name, type tag, source). Type tags: f float (inf-able), i int,
# s str, b bool, jf json list of floats, jff json dict int->float, jii
# json dict int->int, jsi json dict str->int, jsf json dict str->float.
# The source is an attribute path into the AnalyticalReport, or into the
# SimulationReport for a sim_ column; a column without one is filled
# from analytical_row's own arguments, in order.
COLUMNS: tuple[tuple[str, str, str | None], ...] = (
    ("schema_version", "i", None),
    ("sweep_axis", "s", None),
    ("sweep_value", "f", None),
    ("q1", "f", "params.q1"),
    ("q2", "f", "params.q2"),
    ("arrival_prob", "f", "params.arrival_prob"),
    ("deadline", "i", "params.deadline"),
    ("tx_power_w_1", "f", "params.link1.tx_power"),
    ("distance_m_1", "f", "params.link1.distance"),
    ("path_loss_exp_1", "f", "params.link1.path_loss_exp"),
    ("fading_scale_1", "f", "params.link1.fading_scale"),
    ("sinr_threshold_1", "f", "params.link1.sinr_threshold"),
    ("tx_power_w_2", "f", "params.link2.tx_power"),
    ("distance_m_2", "f", "params.link2.distance"),
    ("path_loss_exp_2", "f", "params.link2.path_loss_exp"),
    ("fading_scale_2", "f", "params.link2.fading_scale"),
    ("sinr_threshold_2", "f", "params.link2.sinr_threshold"),
    ("noise_w", "f", "params.rx.noise_power"),
    ("p_1_solo", "f", "sp.p_1_solo"),
    ("p_1_joint", "f", "sp.p_1_joint"),
    ("p_2_solo", "f", "sp.p_2_solo"),
    ("p_2_joint", "f", "sp.p_2_joint"),
    ("delta", "f", "delta"),
    ("mpr_strong", "b", "mpr_strong"),
    ("p1", "f", "p1"),
    ("p2", "f", "p2"),
    ("mu1", "f", "mu1"),
    ("mu2", "f", "mu2"),
    ("ana_drop_rate", "f", "queue.drop_rate"),
    ("ana_per_packet_drop_prob", "f", "queue.per_packet_drop_prob"),
    ("ana_throughput", "f", "queue.throughput"),
    ("ana_busy_prob", "f", "queue.busy_prob"),
    ("ana_stationary", "jf", "queue.stationary.probs"),
    ("ana_aoi_average", "f", "aoi_average"),
    ("ana_aoi_violation", "jff", "aoi_violation"),
    ("sim_mode", "s", "mode"),
    ("sim_seed", "i", "seed"),
    ("sim_slots", "i", "slots"),
    ("sim_warmup_slots", "i", "warmup_slots"),
    ("sim_replications", "i", "replications"),
    ("sim_drop_rate", "f", "drop_rate"),
    ("sim_throughput", "f", "throughput"),
    ("sim_busy_prob", "f", "busy_prob"),
    ("sim_per_packet_drop_prob", "f", "per_packet_drop_prob"),
    ("sim_aoi_average", "f", "aoi_average"),
    ("sim_aoi_violation", "jff", "aoi_violation"),
    ("sim_occupancy", "jf", "waiting_time_occupancy"),
    ("sim_aoi_histogram", "jii", "aoi_histogram"),
    ("sim_ci_halfwidth", "jsf", "ci_halfwidth"),
    ("sim_counts", "jsi", "counts"),
)

COLUMN_NAMES = tuple(name for name, _, _ in COLUMNS)
_TYPES = {name: kind for name, kind, _ in COLUMNS}
_EMPTY_ROW = dict.fromkeys(COLUMN_NAMES)
_ARGUMENT_COLUMNS = tuple(name for name, _, source in COLUMNS if source is None)


def _reader(sim: bool):
    """The names of the columns that one kind of report fills, one
    attrgetter over their sources, and a copy for each container column,
    so that no row shares a container with its report."""
    columns = [c for c in COLUMNS if c[2] is not None and c[0].startswith("sim_") == sim]
    copies = tuple(
        (name, (lambda v: [float(x) for x in v]) if kind == "jf" else dict)
        for name, kind, _ in columns
        if kind.startswith("j")
    )
    return tuple(c[0] for c in columns), operator.attrgetter(*(c[2] for c in columns)), copies


def _fill(row: dict, reader, report) -> dict:
    names, get, copies = reader
    row.update(zip(names, get(report)))
    for name, copy in copies:
        row[name] = copy(row[name])
    return row


_ANALYTICAL = _reader(sim=False)
_SIMULATION = _reader(sim=True)


def analytical_row(
    report: AnalyticalReport, sweep_axis: str | None = None, sweep_value: float | None = None
) -> dict:
    """Flatten an analytical report into a full row (sim columns None)."""
    row = _fill(_EMPTY_ROW.copy(), _ANALYTICAL, report)
    sweep_value = None if sweep_value is None else float(sweep_value)
    row.update(zip(_ARGUMENT_COLUMNS, (SCHEMA_VERSION, sweep_axis, sweep_value)))
    return row


def attach_simulation(row: dict, report: SimulationReport) -> dict:
    """Fill the sim_* columns of a row from a simulation report."""
    return _fill(dict(row), _SIMULATION, report)


def _atomic_write(path: Path, write_fn) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# Every JSON text goes through one of two C encoders: the JSON file's
# default separators, or the compact ones of a CSV container cell.
_JSON = json.JSONEncoder()
_COMPACT = json.JSONEncoder(separators=(",", ":"))
_UNBOUNDED = _JSON.encode({"unbounded": True})
# one JSON row: each column's quoted name and a %s for its value's text
_JSON_ROW = "{" + ", ".join(f"{_JSON.encode(name)}: %s" for name in COLUMN_NAMES) + "}"
# scalar kinds whose exact type's CSV text is also its JSON text
_SELF_ENCODED = {"i": int, "b": bool}


@dataclass(frozen=True)
class EncodedRows:
    """Rows encoded once for both files: a tuple of CSV cell texts and a
    JSON object text per row."""

    csv_rows: list[tuple[str, ...]]
    json_rows: list[str]


def _float_column(values: list, memo: dict) -> tuple[list[str], list[str]]:
    """CSV and JSON texts of an f column.

    memo maps a finite nonzero number to repr of it as a float. Zeros stay
    out of it, since 0.0 == -0.0 and each keeps its own text. A number
    that is no float (an int, a bool) shares the CSV text of the float it
    equals but keeps its own JSON text, 1 against 1.0.
    """
    csv_cells, json_cells = [], []
    for v in values:
        text = memo.get(v)
        if text is None:
            if v is None:
                csv_cells.append("")
                json_cells.append("null")
                continue
            if v != v:
                csv_cells.append("nan")
                json_cells.append("NaN")
                continue
            if math.isinf(v):
                csv_cells.append("inf")
                json_cells.append(_UNBOUNDED)
                continue
            text = repr(float(v))
            if v:
                memo[v] = text
        csv_cells.append(text)
        json_cells.append(text if isinstance(v, float) else _JSON.encode(v))
    return csv_cells, json_cells


def _scalar_column(kind: str, values: list) -> tuple[list[str], list[str]]:
    """CSV and JSON texts of an i, s or b column."""
    self_encoded = _SELF_ENCODED.get(kind)
    csv_cells, json_cells = [], []
    for v in values:
        if v is None:
            csv_cells.append("")
            json_cells.append("null")
            continue
        text = ("true" if v else "false") if kind == "b" else str(v)
        csv_cells.append(text)
        json_cells.append(text if v.__class__ is self_encoded else _JSON.encode(v))
    return csv_cells, json_cells


def _container_column(values: list) -> tuple[list[str], list[str]]:
    """CSV and JSON texts of a j* column.

    The dicts of jff and jii columns have int keys, which the C encoders
    write as str(key) writes them.
    """
    csv_cells = ["" if v is None else _COMPACT.encode(v) for v in values]
    json_cells = ["null" if v is None else _JSON.encode(v) for v in values]
    return csv_cells, json_cells


def encode_rows(rows: list[dict]) -> EncodedRows:
    """Encode every row for both files, one column at a time.

    Each distinct float is formatted once per call, and its text serves
    the CSV cell and the JSON value alike.
    """
    memo: dict = {}
    csv_columns, json_columns = [], []
    for name, kind, _ in COLUMNS:
        values = [row[name] for row in rows]
        if kind == "f":
            cells = _float_column(values, memo)
        elif kind.startswith("j"):
            cells = _container_column(values)
        else:
            cells = _scalar_column(kind, values)
        csv_columns.append(cells[0])
        json_columns.append(cells[1])
    return EncodedRows(
        csv_rows=list(zip(*csv_columns)),
        json_rows=[_JSON_ROW % cells for cells in zip(*json_columns)],
    )


def _csv_parse(name: str, text: str):
    if text == "":
        return None
    kind = _TYPES[name]
    if kind == "f":
        return float(text)
    if kind == "i":
        return int(text)
    if kind == "s":
        return text
    if kind == "b":
        return text == "true"
    return _json_parse(name, json.loads(text))


def write_csv(path: str | Path, table: EncodedRows) -> None:
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(COLUMN_NAMES)
        writer.writerows(table.csv_rows)

    _atomic_write(Path(path), emit)


def read_csv(path: str | Path) -> list[dict]:
    """The rows of a write_csv file.

    A histogram cell can outgrow the csv module's field limit, so the
    limit is raised to the file's size, which no cell exceeds, for the
    read and then restored; it is never lowered.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        limit = csv.field_size_limit()
        csv.field_size_limit(max(limit, os.fstat(fh.fileno()).st_size))
        try:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header) != COLUMN_NAMES:
                raise ValueError(f"{path}: unexpected column set")
            return [
                {name: _csv_parse(name, cell) for name, cell in zip(header, line)}
                for line in reader
            ]
        finally:
            csv.field_size_limit(limit)


def _json_parse(name: str, value):
    if value is None:
        return None
    kind = _TYPES[name]
    if kind == "f":
        if isinstance(value, dict):
            return math.inf if value.get("unbounded") else None
        return float(value)
    if kind in ("jff", "jii"):
        cast = float if kind == "jff" else int
        return {int(k): cast(v) for k, v in value.items()}
    return value


def write_json(path: str | Path, table: EncodedRows) -> None:
    """{"schema_version": ..., "rows": [...]} with one row per line."""
    lines = ",\n".join(table.json_rows)
    doc = f'{{"schema_version": {SCHEMA_VERSION}, "rows": [\n{lines}\n]}}\n'
    _atomic_write(Path(path), lambda fh: fh.write(doc))


def read_json(path: str | Path) -> list[dict]:
    """The rows of a write_json file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [
        {name: _json_parse(name, row.get(name)) for name in COLUMN_NAMES}
        for row in doc["rows"]
    ]
