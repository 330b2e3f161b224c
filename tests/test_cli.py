import csv
import dataclasses
import io
import json
import math
from pathlib import Path
from xml.etree import ElementTree

import pytest
from click.testing import CliRunner

from v2ibeam.cli import main
from v2ibeam.harness import CSV_COLUMNS, TrialRecord

DATA = Path(__file__).parent / "data"

TINY_SCENARIO = {
    "name": "tiny",
    "seed": 5,
    "trials": 2,
    "horizon": 12,
    "omega": 4,
    "geometry": {"rsu_height_m": 7.5, "lane_offset_m": 8.5, "range_m": [-75.0, 75.0]},
    "array": {"num_antennas": 8, "num_rf_chains": 2, "carrier_ghz": 28.0,
              "bandwidth_mhz": 20.0, "pathloss_exponent": 2.0, "tx_power_dbm": 20.0},
    "motion": {"ts_ms": 10.0, "steering_angle_rad": 0.0245, "sigma_omega": 0.0316},
    "initial_state": {"x_m": -50.0, "y_m": 8.5, "speed_kmh": 70.0},
    "sigma_eps": 0.0316,
    "fading": {"k_factor_db": 13.0, "block_length": 1},
    "tracking": {"tracker": "proposed", "combiner_mode": "optimal"},
    "beam": {"scheme": "dft2"},
}


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, prog_name="v2ibeam",
                         env={"COLUMNS": "80"}, catch_exceptions=False, **kwargs)


def write_scenario(tmp_path, doc=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc or TINY_SCENARIO))
    return str(path)


@pytest.mark.parametrize("cmd,golden", [
    ([], "help_root.txt"),
    (["design-codebook"], "help_design_codebook.txt"),
    (["simulate"], "help_simulate.txt"),
    (["track-demo"], "help_track_demo.txt"),
    (["report"], "help_report.txt"),
])
def test_help_golden(runner, cmd, golden):
    result = invoke(runner, cmd + ["--help"])
    assert result.exit_code == 0
    assert result.output == (DATA / golden).read_text()


def test_design_codebook_writes_file_and_is_deterministic(runner, tmp_path):
    out1 = tmp_path / "book1.json"
    out2 = tmp_path / "book2.json"
    args = ["design-codebook", "--antennas", "8", "--rf-chains", "2",
            "--codewords", "4", "--seed", "3"]
    r1 = invoke(runner, args + ["--out", str(out1), "--workers", "1"])
    assert r1.exit_code == 0, r1.output
    assert "partition max gap" in r1.output
    assert "gain-pattern mass" in r1.output
    r2 = invoke(runner, args + ["--out", str(out2), "--workers", "1"])
    assert r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["M"] == 8 and doc["Q"] == 4
    assert isinstance(doc["codewords"][0][0][0], str)  # decimal-string floats


def test_design_codebook_multiresolution(runner, tmp_path):
    out = tmp_path / "multi.json"
    r = invoke(runner, ["design-codebook", "--antennas", "8", "--rf-chains", "2",
                        "--codewords", "4", "--codewords", "8",
                        "--out", str(out), "--workers", "1"])
    assert r.exit_code == 0, r.output
    doc = json.loads(out.read_text())
    assert doc["Q"] == 12
    assert doc["resolutions"] == [4, 8]


@pytest.mark.parametrize("antennas", ["0", "-2"])
def test_design_codebook_rejects_array_without_antennas(runner, tmp_path, antennas):
    out = tmp_path / "x.json"
    r = runner.invoke(main, ["design-codebook", "--antennas", antennas, "--codewords", "4",
                             "--workers", "1", "--out", str(out)], prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "num_antennas" in err["message"]
    assert not out.exists()


def test_design_codebook_rejects_bad_geometry(runner, tmp_path):
    r = runner.invoke(main, ["design-codebook", "--antennas", "8",
                             "--codewords", "4", "--rsu-height", "-1",
                             "--out", str(tmp_path / "x.json")],
                      prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"


def test_simulate_writes_outputs(runner, tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    r = invoke(runner, ["simulate", scen, "--workers", "1",
                        "--out-dir", str(out), "--format", "csv", "--format", "svg"])
    assert r.exit_code == 0, r.output
    assert (out / "tiny_results.csv").exists()
    assert (out / "tiny_summary.csv").exists()
    assert (out / "tiny_summary.svg").exists()
    assert "nmse_x=" in r.output


def _wrote(output: str) -> list[str]:
    return [line.removeprefix("wrote ") for line in output.splitlines()
            if line.startswith("wrote ")]


def test_each_written_file_is_named_once(runner, tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    r = invoke(runner, ["simulate", scen, "--workers", "1", "--tx-power", "0",
                        "--tx-power", "20", "--out-dir", str(out),
                        "--format", "csv", "--format", "svg"])
    assert r.exit_code == 0, r.output
    names = ["tiny_0dBm_results.csv", "tiny_20dBm_results.csv", "tiny_summary.csv",
             "tiny_summary.svg"]
    assert _wrote(r.output) == [str(out / name) for name in names]
    assert sorted(p.name for p in out.iterdir()) == names
    trace = tmp_path / "trace.csv"
    r = invoke(runner, ["track-demo", "--steps", "10", "--csv", str(trace)])
    assert r.exit_code == 0, r.output
    assert _wrote(r.output) == [str(trace)] and trace.exists()
    summary, svg = tmp_path / "summary.csv", tmp_path / "summary.svg"
    r = invoke(runner, ["report", str(trace), "--out", str(summary), "--svg", str(svg)])
    assert r.exit_code == 0, r.output
    assert _wrote(r.output) == [str(summary), str(svg)]
    assert summary.read_text().startswith("metric,scenario,value")
    assert svg.read_text().startswith("<svg")


def test_simulate_deterministic_under_seed(runner, tmp_path):
    scen = write_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        r = invoke(runner, ["simulate", scen, "--workers", "1", "--seed", "7",
                            "--out-dir", str(out)])
        assert r.exit_code == 0
    assert (out1 / "tiny_results.csv").read_bytes() == (out2 / "tiny_results.csv").read_bytes()
    assert (out1 / "tiny_summary.csv").read_bytes() == (out2 / "tiny_summary.csv").read_bytes()


def test_simulate_sweep_tags_outputs(runner, tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "sweep"
    r = invoke(runner, ["simulate", scen, "--workers", "1",
                        "--tx-power", "0", "--tx-power", "20",
                        "--out-dir", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "tiny_0dBm_results.csv").exists()
    assert (out / "tiny_20dBm_results.csv").exists()


@pytest.mark.parametrize("powers", [["10", "10"], ["10", "10.0000001"], ["0", "20", "20.0"]])
def test_simulate_rejects_power_labels_that_collide(runner, tmp_path, powers):
    scen = write_scenario(tmp_path)
    args = [arg for power in powers for arg in ("--tx-power", power)]
    r = runner.invoke(main, ["simulate", scen, "--workers", "1", *args,
                             "--out-dir", str(tmp_path / "out")], prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "label" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("power", ["nan", "inf", "-inf"])
def test_simulate_rejects_a_tx_power_that_is_not_finite(runner, tmp_path, power):
    r = runner.invoke(main, ["simulate", write_scenario(tmp_path), "--workers", "1",
                             "--tx-power", power, "--out-dir", str(tmp_path / "out")],
                      prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "tx_power_dbm" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "{scen}", "--out-dir", "{out}"],
    ["design-codebook", "--antennas", "8", "--codewords", "4", "--out", "{out}"],
])
@pytest.mark.parametrize("workers,env,source", [
    ("0", None, "workers"),
    ("-3", None, "workers"),
    (None, "0", "V2I_THREADS"),
    (None, "-2", "V2I_THREADS"),
    (None, "abc", "V2I_THREADS"),
])
def test_worker_counts_below_one_exit_2(runner, tmp_path, command, workers, env, source):
    out = tmp_path / "out"
    args = [a.format(scen=write_scenario(tmp_path), out=out) for a in command]
    if workers is not None:
        args += ["--workers", workers]
    r = runner.invoke(main, args, prog_name="v2ibeam", env={"V2I_THREADS": env})
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert source in err["message"]
    assert not out.exists()


def test_simulate_unknown_scenario_exits_2(runner, tmp_path):
    r = runner.invoke(main, ["simulate", str(tmp_path / "nope.json")],
                      prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "bundled" in err["message"]


@pytest.mark.parametrize("command,message", [
    (["simulate", "{dir}"], "is neither a file nor a bundled name"),
    (["track-demo", "--scenario", "{dir}"], "is neither a file nor a bundled name"),
    (["simulate", "{scen}", "--codebook", "{dir}"], "is a directory"),
    (["simulate", "{book_scen}"], "scenario key 'codebook_path'"),
    (["simulate", "{not_json}"], "Expecting"),
    (["simulate", "{book_scen}", "--codebook", "{not_json}"], "Expecting"),
], ids=["simulate-dir", "track-demo-dir", "codebook-option-dir", "codebook-key-dir",
        "scenario-not-json", "codebook-not-json"])
def test_an_unreadable_input_file_exits_2(runner, tmp_path, command, message):
    directory = tmp_path / "adir"
    directory.mkdir()
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{")
    (tmp_path / "book").mkdir()
    book_doc = dict(TINY_SCENARIO, beam={"scheme": "codebook", "codebook_path": str(directory)})
    paths = dict(dir=directory, scen=write_scenario(tmp_path), not_json=not_json,
                 book_scen=write_scenario(tmp_path / "book", book_doc))
    out = tmp_path / "out"
    args = [a.format(**paths) for a in command] + (
        ["--csv", str(out)] if command[0] == "track-demo" else ["--out-dir", str(out)])
    r = runner.invoke(main, args, prog_name="v2ibeam")
    assert r.exit_code == 2, r.output
    assert message in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("section,key,value", [
    ("tracking", "combiner_mod", "hybrid"),
    (None, "horizonn", 40),
    ("motion", "coherence_steps", 0),
    ("motion", "coherence_steps", 2.5),
    ("tracking", "feedback_period", 0),
    ("tracking", "feedback_period", -2),
    ("array", "tx_power_dbm", []),
    (None, "sigma_eps", None),
    (None, "trials", [2]),
    (None, "trials", 2.7),
    (None, "omega", 20.9),
    ("array", "num_antennas", 64.9),
    ("fading", "block_length", 1.5),
    (None, "sigma_eps", True),
    (None, "sigma_eps", "0.03"),
    ("array", "tx_power_dbm", [True]),
    (None, "noise_free", "false"),
    (None, "name", 5),
    ("beam", "codewords", ["4"]),
    ("beam", "codebook_path", 1),
    ("array", "bandwidth_mhz", 0),
    ("array", "carrier_ghz", 0),
    ("array", "pathloss_exponent", -2.0),
    ("array", "pathloss_exponent", 0),
    ("tracking", "accel_min_step", -5),
    ("tracking", "accel_min_step", 0),
    ("initial_state", "speed_kmh", -10.0),
    (None, "seed", -1),
    ("array", "tx_power_dbm", [10, 10.0000001]),
    (None, "sigma_eps", math.nan),
    ("tracking", "alpha_thres", math.nan),
    ("motion", "ts_ms", math.nan),
    ("array", "tx_power_dbm", math.inf),
    (None, "sigma_eps", -0.1),
    ("tracking", "alpha_thres", 0),
    ("tracking", "alpha_thres", -1),
    ("motion", "ts_ms", 0),
    ("motion", "sigma_alpha", -1),
    ("motion", "sigma_omega", -1),
    ("motion", "steering_angle_rad", 3),
    ("geometry", "range_m", [10, -10]),
    ("beam", "codewords", [7]),
    ("beam", "codewords", []),
    ("beam", "codewords", [4, 0]),
])
def test_simulate_malformed_scenario_exits_2(runner, tmp_path, section, key, value):
    doc = json.loads(json.dumps(TINY_SCENARIO))
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    r = runner.invoke(main, ["simulate", write_scenario(tmp_path, doc), "--workers", "1",
                             "--out-dir", str(tmp_path / "out")], prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert key in err["message"]
    assert not (tmp_path / "out").exists()


_BOOK_ARGS = ["design-codebook", "--antennas", "8", "--codewords", "4", "--workers", "1",
              "--out", "{out}"]


@pytest.mark.parametrize("command,key", [
    (["simulate", "{scen}", "--seed", "-1", "--workers", "1", "--out-dir", "{out}"], "seed"),
    (["track-demo", "--scenario", "{scen}", "--seed", "-1", "--csv", "{out}"], "seed"),
    (_BOOK_ARGS + ["--seed", "-1"], "seed"),
    (_BOOK_ARGS + ["--lane-offset", "nan"], "lane_offset_m"),
    (_BOOK_ARGS + ["--rsu-height", "nan"], "rsu_height_m"),
    (_BOOK_ARGS + ["--range", "nan", "75"], "range_m"),
    (_BOOK_ARGS + ["--range", "-inf", "inf"], "range_m"),
    (_BOOK_ARGS + ["--range", "-60", "75"], "range_m"),
    (_BOOK_ARGS + ["--codewords", "7"], "codewords"),
])
def test_an_option_is_checked_as_the_scenario_key_it_sets(runner, tmp_path, command, key):
    out = tmp_path / "out"
    args = [a.format(scen=write_scenario(tmp_path), out=out) for a in command]
    r = runner.invoke(main, args, prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert f"scenario key {key!r}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("doc,option,where", [
    ([TINY_SCENARIO], ["--seed", "1"], "top level"),
    (dict(TINY_SCENARIO, tracking=["proposed"]), ["--tracker", "proposed"], "'tracking'"),
    (dict(TINY_SCENARIO, array=None), ["--tx-power", "10"], "'array'"),
])
def test_an_option_leaves_a_part_that_is_not_an_object_to_the_reader(runner, tmp_path, doc,
                                                                    option, where):
    r = runner.invoke(main, ["simulate", write_scenario(tmp_path, doc), *option,
                             "--workers", "1", "--out-dir", str(tmp_path / "out")],
                      prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert f"{where} must be an object" in err["message"]
    assert not (tmp_path / "out").exists()


def test_simulate_options_match_the_scenario_keys_they_set(runner, tmp_path):
    doc = json.loads(json.dumps(TINY_SCENARIO))
    doc.update(seed=7, trials=2, horizon=30)
    doc["array"]["tx_power_dbm"] = [0, 20]
    doc["tracking"] = {"tracker": "manifold-baseline", "combiner_mode": "hybrid"}
    (tmp_path / "keys").mkdir()
    by_keys = invoke(runner, ["simulate", write_scenario(tmp_path / "keys", doc),
                              "--workers", "1", "--out-dir", str(tmp_path / "by_keys")])
    by_options = invoke(runner, [
        "simulate", write_scenario(tmp_path), "--seed", "7", "--trials", "2",
        "--horizon", "30", "--tx-power", "0", "--tx-power", "20",
        "--tracker", "manifold-baseline", "--combiner", "hybrid",
        "--workers", "1", "--out-dir", str(tmp_path / "by_options")])
    assert by_keys.exit_code == by_options.exit_code == 0, by_options.output
    names = sorted(p.name for p in (tmp_path / "by_keys").iterdir())
    assert names == ["tiny_0dBm_results.csv", "tiny_20dBm_results.csv", "tiny_summary.csv"]
    assert names == sorted(p.name for p in (tmp_path / "by_options").iterdir())
    for name in names:
        assert (tmp_path / "by_keys" / name).read_bytes() == \
            (tmp_path / "by_options" / name).read_bytes()
    assert by_keys.output.replace("by_keys", "by_options") == by_options.output


def test_simulate_reads_no_codebook_for_a_scheme_without_one(runner, tmp_path):
    # --codebook sets beam.codebook_path, which the dft2 scheme never reads
    book = tmp_path / "not_a_book.json"
    book.write_text("{}")
    r = invoke(runner, ["simulate", write_scenario(tmp_path), "--codebook", str(book),
                        "--workers", "1", "--out-dir", str(tmp_path / "out")])
    assert r.exit_code == 0, r.output


def test_single_trial_bundled_run_is_fast(runner, tmp_path):
    import time

    t0 = time.monotonic()
    r = invoke(runner, ["simulate", "nmse_m96", "--trials", "1", "--seed", "7",
                        "--workers", "1", "--out-dir", str(tmp_path)])
    elapsed = time.monotonic() - t0
    assert r.exit_code == 0, r.output
    assert elapsed < 5.0


def test_simulate_bundled_name_resolves(runner, tmp_path):
    r = invoke(runner, ["simulate", "track_demo", "--trials", "1",
                        "--horizon", "20", "--workers", "1",
                        "--out-dir", str(tmp_path)])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "track_demo_results.csv").exists()


def test_track_demo_stdout(runner):
    r = invoke(runner, ["track-demo", "--steps", "12", "--every", "4"])
    assert r.exit_code == 0, r.output
    assert "x_hat" in r.output
    assert len(r.output.splitlines()) >= 3


def test_track_demo_table_matches_its_csv(runner, tmp_path):
    # rows at multiples of --every and at the last step, alpha_hat as "-"
    # until the gate accepts (step 69 of this trial), numbers at the printed
    # precision of the --csv values
    trace = tmp_path / "trace.csv"
    r = invoke(runner, ["track-demo", "--steps", "97", "--csv", str(trace)])
    assert r.exit_code == 0, r.output
    with trace.open(newline="") as fh:
        rows = {int(row["step"]): row for row in csv.DictReader(fh)}
    r = invoke(runner, ["track-demo", "--steps", "97", "--every", "20"])
    assert r.exit_code == 0, r.output
    header, *lines = r.output.splitlines()
    assert header == " step    t[s]         x     x_hat        v    v_hat alpha_hat"
    want = []
    for step in (20, 40, 60, 80, 97):
        row = {key: float(cell) for key, cell in rows[step].items() if cell}
        alpha = f"{row['alpha_hat']:9.4f}" if "alpha_hat" in row else "-"
        want.append(f"{step:>5} {row['time_s']:7.2f} {row['x_true']:9.3f} {row['x_hat']:9.3f} "
                    f"{row['v_true']:8.3f} {row['v_hat']:8.3f} {alpha:>9}")
    assert lines == want
    assert [line.endswith(" -") for line in lines] == [True, True, True, False, False]


@pytest.mark.parametrize("every", ["0", "-3"])
def test_track_demo_rejects_every_below_one(runner, every):
    r = runner.invoke(main, ["track-demo", "--steps", "4", "--every", every],
                      prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert "--every" in err["message"]


def test_track_demo_csv(runner, tmp_path):
    path = tmp_path / "trace.csv"
    r = invoke(runner, ["track-demo", "--steps", "10", "--csv", str(path)])
    assert r.exit_code == 0, r.output
    assert path.exists()
    assert len(path.read_text().splitlines()) == 11


def test_single_power_simulate_matches_track_demo(runner, tmp_path):
    # 3 dBm does not survive a dBm -> mW -> dBm round trip, so the run must
    # use the power the file gives, not one recovered from the array
    doc = json.loads(json.dumps(TINY_SCENARIO))
    doc["array"]["tx_power_dbm"] = 3.0
    scen = write_scenario(tmp_path, doc)
    out, trace = tmp_path / "out", tmp_path / "trace.csv"
    r = invoke(runner, ["simulate", scen, "--trials", "1", "--workers", "1",
                        "--out-dir", str(out)])
    assert r.exit_code == 0, r.output
    r = invoke(runner, ["track-demo", "--scenario", scen, "--csv", str(trace)])
    assert r.exit_code == 0, r.output
    assert (out / "tiny_results.csv").read_bytes() == trace.read_bytes()


def test_track_demo_custom_scenario(runner, tmp_path):
    scen = write_scenario(tmp_path)
    r = invoke(runner, ["track-demo", "--scenario", scen, "--steps", "8",
                        "--every", "2"])
    assert r.exit_code == 0, r.output


def test_report_roundtrip(runner, tmp_path):
    scen = write_scenario(tmp_path)
    out = tmp_path / "out"
    r = invoke(runner, ["simulate", scen, "--workers", "1", "--out-dir", str(out)])
    assert r.exit_code == 0
    results = out / "tiny_results.csv"
    r = invoke(runner, ["report", str(results), "--label", "tiny@20dBm"])
    assert r.exit_code == 0, r.output
    assert r.output.splitlines()[0] == "metric,scenario,value"
    # the recomputed nmse matches the simulate-time summary line for line
    sim_summary = (out / "tiny_summary.csv").read_text().splitlines()
    rep_lines = r.output.splitlines()
    assert rep_lines[1].split(",")[2] == sim_summary[1].split(",")[2]
    svg = tmp_path / "report.svg"
    r = invoke(runner, ["report", str(results), "--svg", str(svg)])
    assert r.exit_code == 0
    assert svg.read_text().startswith("<svg")


def _results_csv(rows) -> str:
    """The results CSV of these TrialRecords, written by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(dataclasses.astuple, rows))
    return buf.getvalue()


_STEP_ZERO = _results_csv([
    TrialRecord(0, 0, 0.0, -50.0, 8.5, 19.4, -50.1, 8.5, 19.5, None, None, None, None),
    TrialRecord(0, 1, 0.01, -49.8, 8.5, 19.4, -49.9, 8.5, 19.5, None, None, None, None),
])


_GAIN_WITHOUT_RATE = _results_csv([
    TrialRecord(0, 1, 0.01, -49.8, 8.5, 19.4, -49.9, 8.5, 19.5, None, 3, 0.9, None),
])


@pytest.mark.parametrize("text,message", [
    ("a,b,c\n1,2,3\n", "missing columns"),
    (_STEP_ZERO, "line 2: bad step cell '0'"),
    (_GAIN_WITHOUT_RATE, "line 2: beam_index, gain_norm and rate_bps_hz must be all set"),
], ids=["foreign-header", "step-zero", "gain-without-rate"])
def test_report_rejects_malformed_csv(runner, tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    r = runner.invoke(main, ["report", str(bad)], prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert message in err["message"]


@pytest.mark.parametrize("command,option,work", [
    (["design-codebook", "--antennas", "8", "--codewords", "4", "--out", "{parent}/x.json"],
     "--out", "resolve_codebook"),
    (["track-demo", "--steps", "4", "--csv", "{parent}/x.csv"], "--csv", "run_trial"),
    (["report", "{results}", "--out", "{parent}/x.csv"], "--out", "records_from_csv"),
    (["report", "{results}", "--svg", "{parent}/x.svg"], "--svg", "records_from_csv"),
], ids=["design-codebook-out", "track-demo-csv", "report-out", "report-svg"])
@pytest.mark.parametrize("parent", ["nodir", "afile"])
def test_an_output_outside_an_existing_directory_exits_2_before_the_work(
        runner, tmp_path, monkeypatch, command, option, work, parent):
    import v2ibeam.cli as cli_mod

    calls = []
    real = getattr(cli_mod, work)
    monkeypatch.setattr(cli_mod, work, lambda *a, **k: calls.append(a) or real(*a, **k))
    results = tmp_path / "results.csv"
    results.write_text(_results_csv([
        TrialRecord(0, 1, 0.01, -49.8, 8.5, 19.4, -49.9, 8.5, 19.5, None, None, None, None),
    ]))
    (tmp_path / "afile").write_text("")
    args = [a.format(parent=tmp_path / parent, results=results) for a in command]
    r = runner.invoke(main, args, prog_name="v2ibeam")
    assert r.exit_code == 2, r.output
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert err["message"].startswith(option + " ")
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "results.csv"]


def test_numerical_failure_exits_3(runner, tmp_path, monkeypatch):
    import numpy as np

    import v2ibeam.cli as cli_mod

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic blow-up")

    monkeypatch.setattr(cli_mod, "run_experiment", explode)
    scen = write_scenario(tmp_path)
    r = runner.invoke(main, ["simulate", scen, "--workers", "1",
                             "--out-dir", str(tmp_path)], prog_name="v2ibeam")
    assert r.exit_code == 3
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "numerical"


def test_a_programming_error_is_not_reported_as_bad_input(runner, tmp_path, monkeypatch):
    import v2ibeam.cli as cli_mod

    def broken(*args, **kwargs):
        raise KeyError("synthetic slip")

    monkeypatch.setattr(cli_mod, "run_experiment", broken)
    r = runner.invoke(main, ["simulate", write_scenario(tmp_path), "--workers", "1",
                             "--out-dir", str(tmp_path / "out")], prog_name="v2ibeam")
    assert r.exit_code != 2
    assert isinstance(r.exception, KeyError)
    assert '"validation"' not in r.stderr


def test_codebook_pipeline_design_simulate_report(runner, tmp_path):
    book = tmp_path / "book8.json"
    r = invoke(runner, ["design-codebook", "--antennas", "8", "--rf-chains", "2",
                        "--codewords", "4", "--seed", "1",
                        "--out", str(book), "--workers", "1"])
    assert r.exit_code == 0, r.output
    doc = dict(TINY_SCENARIO, beam={"scheme": "codebook"})
    scen = write_scenario(tmp_path, doc)
    out = tmp_path / "cb"
    r = invoke(runner, ["simulate", scen, "--workers", "1",
                        "--codebook", str(book), "--out-dir", str(out)])
    assert r.exit_code == 0, r.output
    assert "gain=" in r.output
    r = invoke(runner, ["report", str(out / "tiny_results.csv")])
    assert r.exit_code == 0
    assert "mean_gain_norm" in r.output


def test_simulate_rejects_codebook_missing_a_region(runner, tmp_path):
    book = tmp_path / "book8.json"
    r = invoke(runner, ["design-codebook", "--antennas", "8", "--rf-chains", "2",
                        "--codewords", "4", "--seed", "1",
                        "--out", str(book), "--workers", "1"])
    assert r.exit_code == 0, r.output
    doc = json.loads(book.read_text())
    doc["regions"].pop()
    book.write_text(json.dumps(doc))
    scen = write_scenario(tmp_path, dict(TINY_SCENARIO, beam={"scheme": "codebook"}))
    r = runner.invoke(main, ["simulate", scen, "--workers", "1", "--codebook", str(book),
                             "--out-dir", str(tmp_path / "out")], prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert "'regions' counts 3 codewords, 'Q' is 4" in err["message"]
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_codebook_height_no_reader_would_take(runner, tmp_path, monkeypatch):
    # float("7_5") is 75.0, but 7_5 is no spelling save_codebook writes
    import v2ibeam.harness as harness_mod

    book = tmp_path / "book8.json"
    r = invoke(runner, ["design-codebook", "--antennas", "8", "--rf-chains", "2",
                        "--codewords", "4", "--seed", "1",
                        "--out", str(book), "--workers", "1"])
    assert r.exit_code == 0, r.output
    doc = json.loads(book.read_text())
    doc["h"] = "7_5"
    book.write_text(json.dumps(doc))
    trials = []
    monkeypatch.setattr(harness_mod, "run_trial", lambda *args, **kwargs: trials.append(args))
    scen = write_scenario(tmp_path, dict(TINY_SCENARIO, beam={"scheme": "codebook"}))
    r = runner.invoke(main, ["simulate", scen, "--workers", "1", "--codebook", str(book),
                             "--out-dir", str(tmp_path / "out")], prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err["error"] == "validation"
    assert "key 'h' = '7_5'" in err["message"]
    assert trials == []
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_codebook_grid_below_antennas(runner, tmp_path):
    book = tmp_path / "book8.json"
    r = invoke(runner, ["design-codebook", "--antennas", "8", "--rf-chains", "2",
                        "--codewords", "4", "--seed", "1",
                        "--out", str(book), "--workers", "1"])
    assert r.exit_code == 0, r.output
    doc = json.loads(book.read_text())
    doc["L"] = 4
    book.write_text(json.dumps(doc))
    scen = write_scenario(tmp_path, dict(TINY_SCENARIO, beam={"scheme": "codebook"}))
    r = runner.invoke(main, ["simulate", scen, "--workers", "1", "--codebook", str(book),
                             "--out-dir", str(tmp_path / "out")], prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert "grid_size (L) = 4" in err["message"] and "num_antennas (M) = 8" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme", ["codebook", "random"])
@pytest.mark.parametrize("source", ["option", "scenario"])
def test_simulate_rejects_codebook_of_other_antenna_count(runner, tmp_path, scheme, source):
    book = tmp_path / "book16.json"
    r = invoke(runner, ["design-codebook", "--antennas", "16", "--rf-chains", "2",
                        "--codewords", "2", "--seed", "1",
                        "--out", str(book), "--workers", "1"])
    assert r.exit_code == 0, r.output
    beam = {"scheme": scheme}
    args = ["--codebook", str(book)]
    if source == "scenario":
        beam["codebook_path"], args = str(book), []
    scen = write_scenario(tmp_path, dict(TINY_SCENARIO, beam=beam))
    r = runner.invoke(main, ["simulate", scen, "--workers", "1", "--trials", "1",
                             "--out-dir", str(tmp_path / "out")] + args, prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert "codebook has M=16 antennas but scenario 'tiny' has M=8" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["option", "scenario"])
def test_simulate_rejects_codebook_of_more_rf_chains(runner, tmp_path, source):
    book = tmp_path / "book_n4.json"
    r = invoke(runner, ["design-codebook", "--antennas", "8", "--rf-chains", "4",
                        "--codewords", "2", "--seed", "1",
                        "--out", str(book), "--workers", "1"])
    assert r.exit_code == 0, r.output
    beam = {"scheme": "codebook"}
    args = ["--codebook", str(book)]
    if source == "scenario":
        beam["codebook_path"], args = str(book), []
    scen = write_scenario(tmp_path, dict(TINY_SCENARIO, beam=beam))
    r = runner.invoke(main, ["simulate", scen, "--workers", "1", "--trials", "1",
                             "--out-dir", str(tmp_path / "out")] + args, prog_name="v2ibeam")
    assert r.exit_code == 2
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert "codebook needs N=4 RF chains but scenario 'tiny' has N=2" in err["message"]
    assert not (tmp_path / "out").exists()


def test_svg_output_deterministic(runner, tmp_path):
    scen = write_scenario(tmp_path)
    outs = []
    for sub in ("s1", "s2"):
        out = tmp_path / sub
        r = invoke(runner, ["simulate", scen, "--workers", "1",
                            "--out-dir", str(out), "--format", "svg"])
        assert r.exit_code == 0
        outs.append((out / "tiny_summary.svg").read_bytes())
    assert outs[0] == outs[1]


def test_svg_of_zero_nmse_has_empty_lines(runner, tmp_path):
    """A noise-free run from the exact state has NMSE 0 at every step; the
    log-axis chart leaves those points out and still writes a valid SVG."""
    doc = dict(TINY_SCENARIO, sigma_eps=0.0, noise_free=True, beam={"scheme": "none"},
               motion=dict(TINY_SCENARIO["motion"], sigma_alpha=0.0, sigma_omega=0.0))
    out = tmp_path / "out"
    r = invoke(runner, ["simulate", write_scenario(tmp_path, doc), "--workers", "1",
                        "--out-dir", str(out), "--format", "svg"])
    assert r.exit_code == 0, r.output
    assert "nmse_x=0 nmse_v=0" in r.output
    root = ElementTree.parse(out / "tiny_summary.svg").getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    assert len(lines) == 1 and lines[0].get("points") == ""
