import csv
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from aoi_access import cli, results
from aoi_access.scenarios import load_scenario
from aoi_access.sim import default_warmup
from aoi_access.system import analyze
from aoi_access.validate import MIN_SLOTS, run_validation

from conftest import scenario_doc


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_analyze_prints_delta_and_writes_both_files(write_scenario, tmp_path, capsys):
    path = write_scenario(scenario_doc(gamma_db=-5.0))
    out = tmp_path / "ana"
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "delta: 1.5195" in printed
    assert "strong MPR" in printed

    rows_csv = results.read_csv(out.with_suffix(".csv"))
    rows_json = results.read_json(out.with_suffix(".json"))
    assert rows_csv == rows_json
    assert len(rows_csv) == 1
    assert rows_csv[0]["delta"] == pytest.approx(1.5195, abs=5e-4)
    assert rows_csv[0]["mpr_strong"] is True
    assert rows_csv[0]["sim_mode"] is None


def test_analyze_weak_mpr_classification(write_scenario, tmp_path, capsys):
    path = write_scenario(scenario_doc(gamma_db=1.0))
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "w")]) == 0
    assert "weak MPR" in capsys.readouterr().out


def test_round_trip_reproduces_in_memory_row(write_scenario, tmp_path):
    path = write_scenario(scenario_doc())
    scenario = load_scenario(path)
    expected = results.analytical_row(analyze(scenario.params))

    out = tmp_path / "rt"
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
    assert results.read_csv(out.with_suffix(".csv")) == [expected]
    assert results.read_json(out.with_suffix(".json")) == [expected]


def test_no_traffic_scenario_reports_zero_drop_and_finite_aoi(write_scenario, tmp_path):
    path = write_scenario(scenario_doc(arrival_prob=0.0))
    out = tmp_path / "zero"
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
    row = results.read_csv(out.with_suffix(".csv"))[0]
    assert row["ana_drop_rate"] == 0.0
    assert row["ana_aoi_average"] < float("inf")


def test_unbounded_aoi_serialization(write_scenario, tmp_path):
    path = write_scenario(scenario_doc(q2=0.0))
    out = tmp_path / "inf"
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(out)]) == 0
    text = out.with_suffix(".csv").read_text()
    assert ",inf," in text
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["rows"][0]["ana_aoi_average"] == {"unbounded": True}
    row = results.read_csv(out.with_suffix(".csv"))[0]
    assert row["ana_aoi_average"] == float("inf")
    assert results.read_json(out.with_suffix(".json"))[0] == row


def test_simulated_unbounded_age_row_reads_back_from_csv(write_scenario, tmp_path):
    # at q2=0 the age never resets: a 180,000-entry histogram in one cell,
    # past the csv module's default field limit
    sim = {"slots": 200_000, "seed": 3, "replications": 3}
    path = write_scenario(scenario_doc(q2=0.0, sim=sim))
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    limit = csv.field_size_limit()
    rows = results.read_csv(out.with_suffix(".csv"))
    assert csv.field_size_limit() == limit
    assert len(rows[0]["sim_aoi_histogram"]) == 180_000
    assert rows == results.read_json(out.with_suffix(".json"))


def test_invalid_probability_names_the_field(write_scenario, tmp_path, capsys):
    path = write_scenario(scenario_doc(q1=1.2))
    code = cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "q1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze"], ["sweep", "--axis", "lambda", "--values", "0.5,1"]])
def test_unsolvable_chain_is_an_error_line(write_scenario, tmp_path, capsys, command):
    # user 1 always succeeds and always has a packet: every age from 1 up is absorbing
    doc = scenario_doc(gamma_db=-3000.0, q1=1.0, q2=0.0, arrival_prob=1.0, deadline=3)
    path = write_scenario(doc)
    assert cli.main(command + ["--scenario", str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err == "error: chain has multiple closed classes; stationary vector not unique\n"


def test_parse_error_carries_line_info(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "link1": {,}\n}\n', encoding="utf-8")
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_scenario_that_is_not_utf8_is_a_scenario_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"note": "café"}'.encode("latin-1"))
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"scenario error:\n  {path}: not UTF-8 text at byte 13\n"


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_unwritable_output_path_is_an_error_line(
    monkeypatch, write_scenario, tmp_path, capsys, command
):
    verdict = {"checks": [{"name": "x", "passed": True}]}
    monkeypatch.setattr(cli, "run_validation", lambda **_: (True, verdict))
    args = ["--scenario", str(write_scenario(scenario_doc()))] if command == "analyze" else []
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main([command, *args, "--out", str(blocker / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err and "Traceback" not in err


def test_unknown_keys_rejected(write_scenario, tmp_path, capsys):
    doc = scenario_doc()
    doc["access"]["retry_limit"] = 4
    doc["typo_block"] = {}
    path = write_scenario(doc)
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "access.retry_limit" in err
    assert "typo_block" in err


def test_missing_unit_suffix_rejected(write_scenario, tmp_path, capsys):
    doc = scenario_doc()
    doc["link1"].pop("tx_power_w")
    doc["link1"]["tx_power"] = 0.005
    path = write_scenario(doc)
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "tx_power" in err


def test_unit_forms_give_identical_reports(write_scenario, tmp_path):
    from aoi_access.channel import db_to_linear, dbm_to_watts

    dbm = 6.9897000433601875
    gamma_db = -3.0
    doc_db = scenario_doc()
    for link in ("link1", "link2"):
        doc_db[link] = {
            "tx_power_dbm": dbm,
            "distance_m": 30.0,
            "path_loss_exp": 4.0,
            "sinr_threshold_db": gamma_db,
        }
    doc_db["receiver"] = {"noise_dbm": -100.0}

    doc_lin = scenario_doc()
    for link in ("link1", "link2"):
        doc_lin[link] = {
            "tx_power_w": dbm_to_watts(dbm),
            "distance_m": 30.0,
            "path_loss_exp": 4.0,
            "sinr_threshold_linear": db_to_linear(gamma_db),
        }
    doc_lin["receiver"] = {"noise_w": dbm_to_watts(-100.0)}

    out_db, out_lin = tmp_path / "db", tmp_path / "lin"
    assert cli.main(["analyze", "--scenario", str(write_scenario(doc_db, "a.json")), "--out", str(out_db)]) == 0
    assert cli.main(["analyze", "--scenario", str(write_scenario(doc_lin, "b.json")), "--out", str(out_lin)]) == 0
    assert out_db.with_suffix(".csv").read_bytes() == out_lin.with_suffix(".csv").read_bytes()


def test_simulate_is_byte_deterministic(write_scenario, tmp_path, capsys):
    path = write_scenario(
        scenario_doc(sim={"slots": 20_000, "seed": 42, "mode": "decoupled"})
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out_b)]) == 0
    assert sha256(out_a.with_suffix(".csv")) == sha256(out_b.with_suffix(".csv"))
    assert sha256(out_a.with_suffix(".json")) == sha256(out_b.with_suffix(".json"))
    assert "seed=42" in capsys.readouterr().out


def test_simulate_flag_overrides_and_ci_columns(write_scenario, tmp_path):
    path = write_scenario(scenario_doc(sim={"slots": 50_000, "seed": 1, "mode": "coupled"}))
    out = tmp_path / "s"
    assert (
        cli.main(
            [
                "simulate",
                "--scenario", str(path),
                "--out", str(out),
                "--slots", "10000",
                "--seed", "9",
                "--replications", "8",
                "--mode", "decoupled",
            ]
        )
        == 0
    )
    row = results.read_csv(out.with_suffix(".csv"))[0]
    assert row["sim_slots"] == 10_000
    assert row["sim_seed"] == 9
    assert row["sim_replications"] == 8
    assert row["sim_mode"] == "decoupled"
    assert row["sim_ci_halfwidth"]["drop_rate"] > 0.0
    counts = row["sim_counts"]
    assert counts["arrivals"] == counts["delivered"] + counts["dropped"] + counts["queue_residual"]


def test_sim_flags_reach_simulate_and_every_sweep_row(write_scenario, tmp_path):
    path = write_scenario(scenario_doc(sim={"slots": 50_000, "seed": 1, "mode": "coupled"}))
    out = tmp_path / "s"
    argv = ["simulate", "--scenario", str(path), "--out", str(out), "--slots", "8000"]
    assert cli.main([*argv, "--warmup", "1234"]) == 0
    assert results.read_csv(out.with_suffix(".csv"))[0]["sim_warmup_slots"] == 1234

    out = tmp_path / "sw"
    flags = {"slots": 6000, "warmup": 700, "seed": 11, "replications": 2, "mode": "decoupled"}
    argv = ["sweep", "--scenario", str(path), "--out", str(out), "--axis", "q2",
            "--values", "0.3,0.6,0.9", "--with-sim"]
    assert cli.main([*argv, *(f"--{k}={v}" for k, v in flags.items())]) == 0
    rows = results.read_csv(out.with_suffix(".csv"))
    assert len(rows) == 3
    for row in rows:
        assert {k: row["sim_warmup_slots" if k == "warmup" else f"sim_{k}"] for k in flags} == flags


def test_consecutive_calls_leak_no_option(write_scenario, tmp_path):
    # main reuses one parser, so an option given in one call must not reach the next
    assert cli.make_parser() is cli.make_parser()
    path = write_scenario(scenario_doc(sim={"slots": 8000, "seed": 1, "mode": "coupled"}))
    out = tmp_path / "s"
    argv = ["simulate", "--scenario", str(path), "--out", str(out)]
    assert cli.main([*argv, "--warmup", "1234"]) == 0
    assert cli.main(argv) == 0
    assert results.read_csv(out.with_suffix(".csv"))[0]["sim_warmup_slots"] == default_warmup(8000)

    argv = ["sweep", "--scenario", str(path), "--out", str(out), "--axis", "q2", "--values", "0.3,0.6"]
    assert cli.main([*argv, "--with-sim"]) == 0
    assert cli.main(argv) == 0
    for row in results.read_csv(out.with_suffix(".csv")):
        assert all(row[name] is None for name in results.COLUMN_NAMES if name.startswith("sim_"))


def test_sweep_q2_tradeoff_in_emitted_rows(write_scenario, tmp_path):
    out = tmp_path / "sweep"
    values = ",".join(str(round(0.1 * k, 1)) for k in range(1, 11))
    curves = {}
    for name, gamma_db in (("weak", 1.0), ("strong", -5.0)):
        path = write_scenario(scenario_doc(gamma_db=gamma_db), f"{name}.json")
        assert (
            cli.main(
                ["sweep", "--scenario", str(path), "--axis", "q2", "--values", values,
                 "--out", str(out / name)]
            )
            == 0
        )
        curves[name] = results.read_csv((out / name).with_suffix(".csv"))

    rows = curves["weak"]
    assert len(rows) == 10
    assert [r["sweep_value"] for r in rows] == [pytest.approx(0.1 * k) for k in range(1, 11)]
    assert all(r["sweep_axis"] == "q2" for r in rows)
    aoi = [r["ana_aoi_average"] for r in rows]
    drops = [r["ana_drop_rate"] for r in rows]
    assert all(a > b for a, b in zip(aoi, aoi[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(drops, drops[1:]))
    # an error-prone channel keeps the age higher at every sampling rate
    weak_aoi = aoi
    strong_aoi = [r["ana_aoi_average"] for r in curves["strong"]]
    assert all(w > s for w, s in zip(weak_aoi, strong_aoi))


def test_sweep_past_solo_success_underflow_leaves_delta_empty(tmp_path):
    # at 90 dB both solo success probabilities underflow to 0
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "reference.json"
    out = tmp_path / "gamma"
    assert cli.main(
        ["sweep", "--scenario", str(scenario), "--axis", "gamma_db", "--values", "0,30,60,90",
         "--out", str(out)]
    ) == 0
    for rows in (results.read_csv(out.with_suffix(".csv")), results.read_json(out.with_suffix(".json"))):
        assert len(rows) == 4
        assert [r["delta"] is None for r in rows] == [False, False, False, True]
        assert rows[3]["mpr_strong"] is None
        assert rows[3]["p_1_solo"] == 0.0
    assert json.loads(out.with_suffix(".json").read_text())["rows"][3]["delta"] is None


def test_sweep_from_scenario_block_with_sim(write_scenario, tmp_path):
    doc = scenario_doc(
        sim={"slots": 20_000, "seed": 3, "mode": "decoupled"},
        sweep={"axis": "d", "values": [1, 3]},
    )
    out = tmp_path / "dsweep"
    assert cli.main(["sweep", "--scenario", str(write_scenario(doc)), "--with-sim", "--out", str(out)]) == 0
    rows = results.read_csv(out.with_suffix(".csv"))
    assert [r["deadline"] for r in rows] == [1, 3]
    assert all(r["sim_drop_rate"] is not None for r in rows)
    assert all(len(r["sim_occupancy"]) == r["deadline"] + 1 for r in rows)


def test_sweep_empty_values_is_an_error(write_scenario, tmp_path, capsys):
    path = write_scenario(scenario_doc())
    code = cli.main(
        ["sweep", "--scenario", str(path), "--axis", "q2", "--values", "", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "values" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["1.5,2.7", "3,inf", "nan"])
def test_fractional_deadline_sweep_is_an_error(write_scenario, tmp_path, capsys, values):
    path = write_scenario(scenario_doc())
    out = tmp_path / "d"
    code = cli.main(["sweep", "--scenario", str(path), "--axis", "d", "--values", values,
                     "--out", str(out)])
    assert code == 1
    assert "integers" in capsys.readouterr().err
    assert not out.with_suffix(".csv").exists() and not out.with_suffix(".json").exists()


def test_sweep_without_axis_is_an_error(write_scenario, tmp_path):
    path = write_scenario(scenario_doc())
    assert cli.main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "x")]) == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze"])  # missing --scenario
    assert exc.value.code == 2


def test_default_out_dir_from_environment(monkeypatch, write_scenario, tmp_path):
    outdir = tmp_path / "envout"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(outdir))
    path = write_scenario(scenario_doc(), "ref.json")
    assert cli.main(["analyze", "--scenario", str(path)]) == 0
    assert (outdir / "analyze_ref.csv").exists()
    assert (outdir / "analyze_ref.json").exists()


def test_validate_small_grid_passes(tmp_path, capsys):
    assert cli.main(["validate", "--slots", "60000", "--seed", "5", "--out", str(tmp_path / "v")]) == 0
    printed = capsys.readouterr().out
    assert "overall: PASS" in printed
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert verdict["passed"] is True
    assert {c["name"] for c in verdict["checks"]} == {
        "analytical_vs_decoupled",
        "lumpability",
        "occupancy_vs_stationary",
        "transition_frequencies",
    }


@pytest.mark.parametrize("slots", ["0", "-5", "1", "9999"])
def test_validate_rejects_a_horizon_below_one_slot(tmp_path, capsys, slots):
    out = tmp_path / "v"
    assert cli.main(["validate", "--slots", slots, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"slots must be an integer of at least {MIN_SLOTS}" in err
    assert not out.with_suffix(".json").exists()


def test_validate_detects_injected_fault():
    def negate_drop_rate(report):
        return replace(report, queue=replace(report.queue, drop_rate=-report.queue.drop_rate))

    passed, verdict = run_validation(slots=60_000, seed=5, analytical_tweak=negate_drop_rate)
    assert passed is False
    by_name = {c["name"]: c for c in verdict["checks"]}
    assert by_name["analytical_vs_decoupled"]["passed"] is False
    assert by_name["lumpability"]["passed"] is True
