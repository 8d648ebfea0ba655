"""Scenario documents: JSON with explicit unit suffixes.

Powers may be given as *_dbm or *_w, SINR thresholds as sinr_threshold_db
or sinr_threshold_linear; exactly one of each pair is required so a file
can never be misread in the wrong unit. Unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .channel import LinkParams, ReceiverParams, db_to_linear, dbm_to_watts
from .errors import ParameterError, ScenarioError
from .sim import MODES
from .system import SWEEP_AXES, SystemParams

_LINK_KEYS = {
    "tx_power_dbm",
    "tx_power_w",
    "distance_m",
    "path_loss_exp",
    "fading_scale",
    "sinr_threshold_db",
    "sinr_threshold_linear",
}
_RECEIVER_KEYS = {"noise_dbm", "noise_w"}
_ACCESS_KEYS = {"q1", "q2", "arrival_prob", "deadline"}
# the sim block's keys: each is a SimConfig keyword and the dest of a CLI sim flag
SIM_KEYS = ("slots", "warmup_slots", "seed", "replications", "mode")
_SWEEP_KEYS = {"axis", "values"}
_TOP_KEYS = {"link1", "link2", "receiver", "access", "sim", "sweep"}

# the SimConfig fields without a default of their own
SIM_DEFAULTS = {"slots": 1_000_000, "seed": 1}


@dataclass(frozen=True)
class Scenario:
    """params, and sim: SimConfig's keyword arguments besides params."""

    params: SystemParams
    sim: dict
    sweep_axis: str | None
    sweep_values: tuple | None


class _Problems:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, msg: str) -> None:
        self.items.append(f"{path}: {msg}")

    def raise_if_any(self) -> None:
        if self.items:
            raise ScenarioError(self.items)


def _check_unknown(doc: dict, allowed: set, path: str, problems: _Problems) -> None:
    for key in doc:
        if key not in allowed:
            problems.add(f"{path}.{key}" if path else key, "unknown key")


def _number(doc: dict, key: str, path: str, problems: _Problems, required=True):
    if key not in doc:
        if required:
            problems.add(f"{path}.{key}", "missing")
        return None
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        problems.add(f"{path}.{key}", f"must be a number, got {v!r}")
        return None
    return v


def _one_of(doc: dict, keys: tuple[str, str], path: str, problems: _Problems):
    """Exactly one of the two unit-suffixed keys must be present."""
    present = [k for k in keys if k in doc]
    if len(present) != 1:
        problems.add(path, f"exactly one of {keys[0]!r} / {keys[1]!r} is required")
        return None, None
    return present[0], _number(doc, present[0], path, problems)


def _parse_link(doc, path: str, problems: _Problems) -> LinkParams | None:
    if not isinstance(doc, dict):
        problems.add(path, "must be an object")
        return None
    _check_unknown(doc, _LINK_KEYS, path, problems)
    pkey, power = _one_of(doc, ("tx_power_dbm", "tx_power_w"), path, problems)
    gkey, gamma = _one_of(doc, ("sinr_threshold_db", "sinr_threshold_linear"), path, problems)
    distance = _number(doc, "distance_m", path, problems)
    alpha = _number(doc, "path_loss_exp", path, problems)
    fading = _number(doc, "fading_scale", path, problems, required=False)
    if None in (power, gamma, distance, alpha):
        return None
    try:
        return LinkParams(
            tx_power=dbm_to_watts(power) if pkey == "tx_power_dbm" else float(power),
            distance=float(distance),
            path_loss_exp=float(alpha),
            fading_scale=1.0 if fading is None else float(fading),
            sinr_threshold=db_to_linear(gamma) if gkey == "sinr_threshold_db" else float(gamma),
        )
    except ParameterError as exc:
        problems.add(path, str(exc))
        return None


def _parse_receiver(doc, problems: _Problems) -> ReceiverParams | None:
    path = "receiver"
    if not isinstance(doc, dict):
        problems.add(path, "must be an object")
        return None
    _check_unknown(doc, _RECEIVER_KEYS, path, problems)
    nkey, noise = _one_of(doc, ("noise_dbm", "noise_w"), path, problems)
    if noise is None:
        return None
    try:
        return ReceiverParams(
            noise_power=dbm_to_watts(noise) if nkey == "noise_dbm" else float(noise)
        )
    except ParameterError as exc:
        problems.add(path, str(exc))
        return None


def _parse_sim(doc, problems: _Problems) -> dict | None:
    path = "sim"
    merged = dict(SIM_DEFAULTS)
    if doc is not None:
        if not isinstance(doc, dict):
            problems.add(path, "must be an object")
            return None
        _check_unknown(doc, SIM_KEYS, path, problems)
        merged.update(doc)
    ok = True
    for key in ("slots", "seed", "replications", "warmup_slots"):
        # a null warmup_slots is SimConfig's default warm-up
        if key not in merged or (key == "warmup_slots" and merged[key] is None):
            continue
        v = merged[key]
        if isinstance(v, bool) or not isinstance(v, int):
            problems.add(f"{path}.{key}", f"must be an integer, got {v!r}")
            ok = False
    if "mode" in merged and merged["mode"] not in MODES:
        problems.add(f"{path}.mode", f"must be one of {MODES}, got {merged['mode']!r}")
        ok = False
    return merged if ok else None


def _parse_sweep(doc, problems: _Problems):
    path = "sweep"
    if doc is None:
        return None, None
    if not isinstance(doc, dict):
        problems.add(path, "must be an object")
        return None, None
    _check_unknown(doc, _SWEEP_KEYS, path, problems)
    axis = doc.get("axis")
    values = doc.get("values")
    if axis is None or axis not in SWEEP_AXES:
        problems.add(f"{path}.axis", f"must be one of {SWEEP_AXES}, got {axis!r}")
        axis = None
    if not isinstance(values, list) or not values or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        problems.add(f"{path}.values", "must be a non-empty list of numbers")
        values = None
    if axis is None or values is None:
        return None, None
    return axis, tuple(values)


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build typed parameters from it."""
    problems = _Problems()
    if not isinstance(doc, dict):
        problems.add("", "scenario must be a JSON object")
        problems.raise_if_any()
    _check_unknown(doc, _TOP_KEYS, "", problems)

    link1 = _parse_link(doc.get("link1"), "link1", problems) if "link1" in doc else None
    link2 = _parse_link(doc.get("link2"), "link2", problems) if "link2" in doc else None
    rx = _parse_receiver(doc.get("receiver"), problems) if "receiver" in doc else None
    for key, val in (("link1", link1), ("link2", link2), ("receiver", rx)):
        if key not in doc:
            problems.add(key, "missing")

    access = doc.get("access")
    q1 = q2 = lam = deadline = None
    if not isinstance(access, dict):
        problems.add("access", "missing or not an object")
    else:
        _check_unknown(access, _ACCESS_KEYS, "access", problems)
        q1 = _number(access, "q1", "access", problems)
        q2 = _number(access, "q2", "access", problems)
        lam = _number(access, "arrival_prob", "access", problems)
        deadline = access.get("deadline")
        if deadline is None:
            problems.add("access.deadline", "missing")
        elif isinstance(deadline, bool) or not isinstance(deadline, int):
            problems.add("access.deadline", f"must be an integer, got {deadline!r}")
            deadline = None

    sim = _parse_sim(doc.get("sim"), problems)
    sweep_axis, sweep_values = _parse_sweep(doc.get("sweep"), problems)

    params = None
    if None not in (link1, link2, rx, q1, q2, lam, deadline):
        try:
            params = SystemParams(
                link1=link1,
                link2=link2,
                rx=rx,
                q1=float(q1),
                q2=float(q2),
                arrival_prob=float(lam),
                deadline=deadline,
            )
        except ParameterError as exc:
            problems.add("access", str(exc))

    problems.raise_if_any()
    assert params is not None and sim is not None
    return Scenario(params=params, sim=sim, sweep_axis=sweep_axis, sweep_values=sweep_values)


def load_scenario(path: str | Path) -> Scenario:
    """Read and validate a scenario file; errors carry line/field diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}")
    return parse_scenario(doc)
