"""Flat result rows with exact-round-trip CSV and JSON serialization.

Every row carries the full column set in a fixed order so files from
different runs line up; simulation columns are empty when a run was
analytical only. encode_rows() encodes a list of rows once, one column
at a time, and write_csv() and write_json() both write that one
encoding. A float is written as its shortest round-trip repr, the same
text in both files. An unbounded average age is written as "inf" in CSV
and as the tagged object {"unbounded": true} in JSON; NaN is written as
"nan" in CSV and NaN in JSON. Vector-valued fields (stationary vector, occupancy, histogram,
violation curve) are embedded as compact JSON inside their CSV cell.
Writes are atomic: a temp file in the target directory is renamed into
place, so a failed run never leaves a partial file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .sim import SimulationReport
from .system import AnalyticalReport

SCHEMA_VERSION = 1

# column name -> type tag: f float (inf-able), i int, s str, b bool,
# jf json list of floats, jff json dict int->float, jii json dict int->int,
# jsi json dict str->int, jsf json dict str->float
COLUMNS: tuple[tuple[str, str], ...] = (
    ("schema_version", "i"),
    ("sweep_axis", "s"),
    ("sweep_value", "f"),
    ("q1", "f"),
    ("q2", "f"),
    ("arrival_prob", "f"),
    ("deadline", "i"),
    ("tx_power_w_1", "f"),
    ("distance_m_1", "f"),
    ("path_loss_exp_1", "f"),
    ("fading_scale_1", "f"),
    ("sinr_threshold_1", "f"),
    ("tx_power_w_2", "f"),
    ("distance_m_2", "f"),
    ("path_loss_exp_2", "f"),
    ("fading_scale_2", "f"),
    ("sinr_threshold_2", "f"),
    ("noise_w", "f"),
    ("p_1_solo", "f"),
    ("p_1_joint", "f"),
    ("p_2_solo", "f"),
    ("p_2_joint", "f"),
    ("delta", "f"),
    ("mpr_strong", "b"),
    ("p1", "f"),
    ("p2", "f"),
    ("mu1", "f"),
    ("mu2", "f"),
    ("ana_drop_rate", "f"),
    ("ana_per_packet_drop_prob", "f"),
    ("ana_throughput", "f"),
    ("ana_busy_prob", "f"),
    ("ana_stationary", "jf"),
    ("ana_aoi_average", "f"),
    ("ana_aoi_violation", "jff"),
    ("sim_mode", "s"),
    ("sim_seed", "i"),
    ("sim_slots", "i"),
    ("sim_warmup_slots", "i"),
    ("sim_replications", "i"),
    ("sim_drop_rate", "f"),
    ("sim_throughput", "f"),
    ("sim_busy_prob", "f"),
    ("sim_per_packet_drop_prob", "f"),
    ("sim_aoi_average", "f"),
    ("sim_aoi_violation", "jff"),
    ("sim_occupancy", "jf"),
    ("sim_aoi_histogram", "jii"),
    ("sim_ci_halfwidth", "jsf"),
    ("sim_counts", "jsi"),
)

COLUMN_NAMES = tuple(name for name, _ in COLUMNS)
_TYPES = dict(COLUMNS)


def analytical_row(
    report: AnalyticalReport, sweep_axis: str | None = None, sweep_value: float | None = None
) -> dict:
    """Flatten an analytical report into a full row (sim columns None)."""
    p = report.params
    row = {name: None for name in COLUMN_NAMES}
    row.update(
        schema_version=SCHEMA_VERSION,
        sweep_axis=sweep_axis,
        sweep_value=None if sweep_value is None else float(sweep_value),
        q1=p.q1,
        q2=p.q2,
        arrival_prob=p.arrival_prob,
        deadline=p.deadline,
        tx_power_w_1=p.link1.tx_power,
        distance_m_1=p.link1.distance,
        path_loss_exp_1=p.link1.path_loss_exp,
        fading_scale_1=p.link1.fading_scale,
        sinr_threshold_1=p.link1.sinr_threshold,
        tx_power_w_2=p.link2.tx_power,
        distance_m_2=p.link2.distance,
        path_loss_exp_2=p.link2.path_loss_exp,
        fading_scale_2=p.link2.fading_scale,
        sinr_threshold_2=p.link2.sinr_threshold,
        noise_w=p.rx.noise_power,
        p_1_solo=report.sp.p_1_solo,
        p_1_joint=report.sp.p_1_joint,
        p_2_solo=report.sp.p_2_solo,
        p_2_joint=report.sp.p_2_joint,
        delta=report.delta,
        mpr_strong=report.mpr_strong,
        p1=report.p1,
        p2=report.p2,
        mu1=report.mu1,
        mu2=report.mu2,
        ana_drop_rate=report.queue.drop_rate,
        ana_per_packet_drop_prob=report.queue.per_packet_drop_prob,
        ana_throughput=report.queue.throughput,
        ana_busy_prob=report.queue.busy_prob,
        ana_stationary=[float(v) for v in report.queue.stationary.probs],
        ana_aoi_average=report.aoi_average,
        ana_aoi_violation=dict(report.aoi_violation),
    )
    return row


def attach_simulation(row: dict, report: SimulationReport) -> dict:
    """Fill the sim_* columns of a row from a simulation report."""
    row = dict(row)
    row.update(
        sim_mode=report.mode,
        sim_seed=report.seed,
        sim_slots=report.slots,
        sim_warmup_slots=report.warmup_slots,
        sim_replications=report.replications,
        sim_drop_rate=report.drop_rate,
        sim_throughput=report.throughput,
        sim_busy_prob=report.busy_prob,
        sim_per_packet_drop_prob=report.per_packet_drop_prob,
        sim_aoi_average=report.aoi_average,
        sim_aoi_violation=dict(report.aoi_violation),
        sim_occupancy=list(report.waiting_time_occupancy),
        sim_aoi_histogram=dict(report.aoi_histogram),
        sim_ci_halfwidth=dict(report.ci_halfwidth),
        sim_counts=dict(report.counts),
    )
    return row


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
    for name, kind in COLUMNS:
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
