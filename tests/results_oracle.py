"""Reference row builders and cell-by-cell writers, kept as the oracle for aoi_access.results.

analytical_row() and attach_simulation() name every column and the
report field it holds by hand; the table-driven builders of
aoi_access.results must fill the same rows. write_csv() formats every
cell of every row through _csv_cell, and write_json() turns each row
into a dict of _json_value cells and hands it to json.dumps. The
column-wise encoder of aoi_access.results must write the same bytes for
every row this module can write.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from aoi_access.results import COLUMN_NAMES, COLUMNS, SCHEMA_VERSION

_TYPES = {name: kind for name, kind, _ in COLUMNS}


def analytical_row(report, sweep_axis=None, sweep_value=None) -> dict:
    p, q = report.params, report.queue
    row = dict.fromkeys(COLUMN_NAMES)
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
        ana_drop_rate=q.drop_rate,
        ana_per_packet_drop_prob=q.per_packet_drop_prob,
        ana_throughput=q.throughput,
        ana_busy_prob=q.busy_prob,
        ana_stationary=[float(v) for v in q.stationary.probs],
        ana_aoi_average=report.aoi_average,
        ana_aoi_violation=dict(report.aoi_violation),
    )
    return row


def attach_simulation(row: dict, report) -> dict:
    return row | dict(
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
