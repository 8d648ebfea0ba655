"""The row builders and the column-wise encoder against the hand-written ones of results_oracle."""

import csv
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoi_access import results
from aoi_access.scenarios import load_scenario
from aoi_access.sim import SimConfig, simulate
from aoi_access.system import analyze

import results_oracle
from conftest import scenario_doc

ODD_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308, 1e16, 1e-5, 0.1, 1.0)
ODD_STRINGS = ("", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "naïve ångström ∞", "%s %d")

floats = st.one_of(st.sampled_from(ODD_FLOATS), st.floats(allow_subnormal=True))
# an f column may also hold an int or a bool, written as 1 in JSON and 1.0 in CSV
numbers = st.one_of(floats, st.integers(-(2**64), 2**64), st.booleans())
texts = st.one_of(st.sampled_from(ODD_STRINGS), st.text(max_size=12))
VALUES = {
    "f": numbers,
    "i": st.integers(-(2**64), 2**64),
    "s": texts,
    "b": st.booleans(),
    "jf": st.lists(floats, max_size=5),
    "jff": st.dictionaries(st.integers(-5, 10**6), floats, max_size=5),
    "jii": st.dictionaries(st.integers(-5, 10**6), st.integers(0, 2**40), max_size=5),
    "jsf": st.dictionaries(texts, floats, max_size=3),
    "jsi": st.dictionaries(texts, st.integers(), max_size=3),
}
rows_strategy = st.lists(
    st.fixed_dictionaries(
        {name: st.one_of(st.none(), VALUES[kind]) for name, kind, _ in results.COLUMNS}
    ),
    max_size=4,
)


def assert_files_match_oracle(rows, directory):
    table = results.encode_rows(rows)
    for suffix, write, write_oracle in (
        (".csv", results.write_csv, results_oracle.write_csv),
        (".json", results.write_json, results_oracle.write_json),
    ):
        got, want = directory / f"got{suffix}", directory / f"want{suffix}"
        write(got, table)
        write_oracle(want, rows)
        assert got.read_bytes() == want.read_bytes(), suffix


@settings(max_examples=100, deadline=None)
@given(rows=rows_strategy)
def test_files_match_oracle_on_generated_rows(rows, tmp_path_factory):
    assert_files_match_oracle(rows, tmp_path_factory.mktemp("rows"))


def test_odd_values_share_one_column(tmp_path):
    # one column holds every special case, in both orders where a memo could mix them up
    values = [None, math.inf, -math.inf, math.nan, 0.0, -0.0, 0, False, -0.0, 0.0,
              5e-324, 1e16, 1e-5, 1, 1.0, True, 1, 2.5, 2.5, None]
    names = results.COLUMN_NAMES
    rows = [{name: None for name in names} | {"sweep_value": v, "q1": 1.0, "deadline": 3}
            for v in values]
    assert_files_match_oracle(rows, tmp_path)
    csv_cells = [row[names.index("sweep_value")] for row in results.encode_rows(rows).csv_rows]
    assert csv_cells[:10] == ["", "inf", "inf", "nan", "0.0", "-0.0", "0.0", "0.0", "-0.0", "0.0"]


def test_large_histogram_row_matches_oracle(write_scenario, tmp_path):
    report = analyze(load_scenario(write_scenario(scenario_doc(q2=0.0))).params)
    row = results.analytical_row(report)
    row.update(
        sim_mode="coupled",
        sim_seed=5,
        sim_aoi_average=math.inf,
        sim_aoi_histogram={age: 3 for age in range(1, 180_001)},
        sim_counts={"arrivals": 10, "delivered": 7},
        sim_ci_halfwidth={"drop_rate": 0.01},
    )
    assert_files_match_oracle([row], tmp_path)


@pytest.mark.parametrize("q2", [0.5, 0.0])
def test_rows_match_the_hand_written_builders(write_scenario, q2):
    doc = scenario_doc(q2=q2)
    # unequal links, so that no column can read the other link's field
    doc["link2"].update(tx_power_w=0.3, distance_m=41.0, path_loss_exp=3.5, fading_scale=2.0)
    doc["link2"]["sinr_threshold_db"] = -2.0
    params = load_scenario(write_scenario(doc)).params
    report = analyze(params)
    sim = simulate(SimConfig(params=params, slots=2_000, seed=1, replications=2))
    row = results.attach_simulation(results.analytical_row(report, "q2", 1), sim)
    want = results_oracle.attach_simulation(results_oracle.analytical_row(report, "q2", 1), sim)
    assert tuple(row) == results.COLUMN_NAMES
    assert row == want
    assert [name for name, value in row.items() if value is None] == []
    # containers are copies: a list of Python floats for jf, a dict otherwise
    containers = {
        "ana_stationary": report.queue.stationary.probs,
        "ana_aoi_violation": report.aoi_violation,
        "sim_occupancy": sim.waiting_time_occupancy,
        "sim_aoi_histogram": sim.aoi_histogram,
    }
    for name, source in containers.items():
        assert row[name] is not source
    assert {type(v) for v in row["ana_stationary"] + row["sim_occupancy"]} == {float}


def test_read_csv_never_lowers_the_callers_field_limit(tmp_path):
    rows = [{name: None for name in results.COLUMN_NAMES} | {"q1": 0.5, "deadline": 3}]
    path = tmp_path / "small.csv"
    results.write_csv(path, results.encode_rows(rows))
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(path.stat().st_size * 1000)
        with mock.patch.object(csv, "field_size_limit", wraps=csv.field_size_limit) as spy:
            assert results.read_csv(path)[0]["q1"] == 0.5
        assert all(c.args[0] >= path.stat().st_size * 1000 for c in spy.call_args_list if c.args)
        assert csv.field_size_limit() == path.stat().st_size * 1000
    finally:
        csv.field_size_limit(limit)
