import json
from pathlib import Path
from xml.etree import ElementTree

import pytest
from click.testing import CliRunner

from v2ibeam.cli import main
from v2ibeam.harness import RecordBlock, TrialRecord, records_to_csv

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


_STEP_ZERO = records_to_csv(RecordBlock.from_rows([
    TrialRecord(0, 0, 0.0, -50.0, 8.5, 19.4, -50.1, 8.5, 19.5, None, None, None, None),
    TrialRecord(0, 1, 0.01, -49.8, 8.5, 19.4, -49.9, 8.5, 19.5, None, None, None, None),
]))


_GAIN_WITHOUT_RATE = records_to_csv(RecordBlock.from_rows([
    TrialRecord(0, 1, 0.01, -49.8, 8.5, 19.4, -49.9, 8.5, 19.5, None, 3, 0.9, 7.2),
])).replace(",7.2\n", ",\n")


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
