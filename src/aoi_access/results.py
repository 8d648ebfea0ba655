"""Flat result rows with exact-round-trip CSV and JSON serialization.

Every row carries the full column set in a fixed order so files from
different runs line up; simulation columns are empty when a run was
analytical only. Vector-valued fields (stationary vector, occupancy,
histogram, violation curve) are embedded as JSON inside their CSV cell.
An unbounded average age is written as "inf" in CSV and as the tagged
object {"unbounded": true} in JSON. Writes are atomic: a temp file in
the target directory is renamed into place, so a failed run never leaves
a partial file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
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
    value = json.loads(text)
    if kind in ("jff", "jii"):
        cast = float if kind == "jff" else int
        return {int(k): cast(v) for k, v in value.items()}
    return value


def write_csv(path: str | Path, rows: list[dict]) -> None:
    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(COLUMN_NAMES)
        for row in rows:
            writer.writerow(_csv_cell(name, row[name]) for name in COLUMN_NAMES)

    _atomic_write(Path(path), emit)


def read_csv(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != COLUMN_NAMES:
            raise ValueError(f"{path}: unexpected column set")
        return [
            {name: _csv_parse(name, cell) for name, cell in zip(header, line)}
            for line in reader
        ]


def _json_value(name: str, value):
    if value is None:
        return None
    kind = _TYPES[name]
    if kind == "f" and math.isinf(value):
        return {"unbounded": True}
    if kind in ("jff", "jii"):
        return {str(k): v for k, v in value.items()}
    return value


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


def write_json(path: str | Path, rows: list[dict]) -> None:
    """{"schema_version": ..., "rows": [...]} with one row per line.

    Each row goes through json.dumps without indent, which takes the C
    encoder; json.dump and any indent take the pure-Python one.
    """
    lines = ",\n".join(
        json.dumps({name: _json_value(name, row[name]) for name in COLUMN_NAMES}) for row in rows
    )
    doc = f'{{"schema_version": {SCHEMA_VERSION}, "rows": [\n{lines}\n]}}\n'
    _atomic_write(Path(path), lambda fh: fh.write(doc))


def read_json(path: str | Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [
        {name: _json_parse(name, row.get(name)) for name in COLUMN_NAMES}
        for row in doc["rows"]
    ]
