import csv
import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2ibeam import codebook, harness
from v2ibeam.array_channel import array_response, spatial_frequency
from v2ibeam.codebook import build_codebook
from v2ibeam.harness import (
    CSV_COLUMNS,
    NMSE_DENOM_FLOOR,
    RecordBlock,
    TrialRecord,
    bundled_scenario,
    records_from_csv,
    records_to_csv,
    run_experiment,
    run_trial,
    scenario_from_dict,
    summaries_to_csv,
    summarize,
)

SMALL_DOC = {
    "name": "unit_small",
    "seed": 3,
    "trials": 4,
    "horizon": 24,
    "omega": 8,
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


def small_scenario(**overrides):
    return dataclasses.replace(scenario_from_dict(json.loads(json.dumps(SMALL_DOC))), **overrides)


def _csv(rows) -> str:
    """The results CSV of these TrialRecords, written by csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(dataclasses.astuple, rows))
    return buf.getvalue()


def _block(rows) -> RecordBlock:
    """The block of these TrialRecords, read back from their results CSV."""
    return records_from_csv(_csv(rows))


def test_scenario_units_and_defaults():
    s = scenario_from_dict(SMALL_DOC)
    assert s.t0.v == pytest.approx(70 * 1000 / 3600)
    assert s.motion.ts == pytest.approx(0.01)
    # noise power defaults to thermal noise over the 20 MHz band
    assert 10 * math.log10(s.array.noise_power_mw) == pytest.approx(-100.9897, abs=1e-3)
    # sigma_alpha defaults to a tenth of the initial speed in m/s
    assert s.motion.sigma_alpha == pytest.approx(0.1 * s.t0.v)
    assert s.tx_powers_dbm == (20.0,)


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(trials=0)
    with pytest.raises(ValueError):
        small_scenario(horizon=4)  # below omega
    with pytest.raises(ValueError):
        small_scenario(tracker="flying")
    with pytest.raises(ValueError):
        small_scenario(beam_scheme="mystery")
    for period in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="feedback_period"):
            small_scenario(feedback_period=period)
    with pytest.raises(ValueError, match="dft1"):
        small_scenario(beam_scheme="dft1", omega=7)
    for section, key, value in [
        ("array", "tx_power_dbm", []),
        (None, "sigma_eps", None),
        (None, "trials", [2]),
        ("tracking", "feedback_period", None),
        ("geometry", "range_m", 75.0),
    ]:
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(_doc_with(section, key, value))


def _doc_with(section, key, value):
    doc = json.loads(json.dumps(SMALL_DOC))
    (doc if section is None else doc.setdefault(section, {}))[key] = value
    return doc


@pytest.mark.parametrize("section,key", [
    (None, "horizonn"),
    ("geometry", "rsu_heigth_m"),
    ("array", "num_antenna"),
    ("motion", "coherence_step"),
    ("initial_state", "speed_kph"),
    ("fading", "k_factor"),
    ("tracking", "combiner_mod"),
    ("beam", "schem"),
])
def test_scenario_rejects_unknown_keys(section, key):
    with pytest.raises(ValueError, match=key):
        scenario_from_dict(_doc_with(section, key, 1))


def test_scenario_rejects_non_object_section():
    with pytest.raises(ValueError, match="tracking"):
        scenario_from_dict(dict(SMALL_DOC, tracking=["proposed"]))


# A scenario document that writes out every key; the sets below give each key's kind.
FULL_DOC = {
    "name": "unit_full", "seed": 3, "trials": 2, "horizon": 24, "omega": 8,
    "sigma_eps": 0.0316, "noise_free": False,
    "geometry": {"rsu_height_m": 7.5, "lane_offset_m": 8.5, "range_m": [-75.0, 75.0]},
    "array": {"num_antennas": 8, "num_rf_chains": 2, "carrier_ghz": 28.0,
              "bandwidth_mhz": 20.0, "pathloss_exponent": 2.0, "noise_power_dbm": -100.0,
              "tx_power_dbm": [0.0, 20.0]},
    "motion": {"ts_ms": 10.0, "steering_angle_rad": 0.0245, "sigma_alpha": 1.9,
               "sigma_omega": 0.0316, "coherence_steps": 6},
    "initial_state": {"x_m": -50.0, "y_m": 8.5, "speed_kmh": 70.0},
    "fading": {"k_factor_db": 13.0, "block_length": 2},
    "tracking": {"tracker": "proposed", "combiner_mode": "optimal", "feedback_period": 5,
                 "accel_min_step": 10, "alpha_thres": 0.03},
    "beam": {"scheme": "codebook", "codebook_path": "book.json", "codewords": [4, 8]},
}
STRINGS = {"name", "tracker", "combiner_mode", "scheme", "codebook_path"}
INTEGERS = {"seed", "trials", "horizon", "omega", "num_antennas", "num_rf_chains",
            "coherence_steps", "block_length", "feedback_period", "accel_min_step"}
LISTS = {"range_m", "tx_power_dbm", "codewords"}
NULLABLE = [("motion", "sigma_alpha"), ("array", "noise_power_dbm"),
            ("motion", "coherence_steps"), ("beam", "codebook_path"), ("beam", "codewords")]
SECTIONS = ("geometry", "array", "motion", "initial_state", "fading", "tracking", "beam")
ALL_KEYS = [(None, k) for k in FULL_DOC if k not in SECTIONS] + [
    (section, k) for section in SECTIONS for k in FULL_DOC[section]]

_fractions = st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
_numbers = st.integers(-10**6, 10**6) | st.floats(allow_nan=False)
WRONG = {
    "integer": _fractions | st.booleans(),
    "number": st.booleans() | st.just("0.03") | _numbers.map(str),
    "string": _numbers,
    "noise_free": st.just("false") | st.integers(0, 1),
    "range_m": st.lists(_numbers, max_size=5).filter(lambda v: len(v) != 2)
    | st.tuples(st.booleans() | st.just("1.0"), _numbers).map(list) | _numbers,
    "tx_power_dbm": st.just([]) | st.lists(st.booleans() | st.just("20"), min_size=1)
    | st.text(max_size=3),
    "codewords": st.lists(st.just("4") | _fractions | st.booleans(), min_size=1)
    | st.integers(1, 64),
}


def _kind(key):
    if key in LISTS or key == "noise_free":
        return key
    return "string" if key in STRINGS else "integer" if key in INTEGERS else "number"


def _full_doc_with(section, key, value):
    doc = json.loads(json.dumps(FULL_DOC))
    (doc if section is None else doc[section])[key] = value
    return doc


def test_full_doc_loads_every_key():
    s = scenario_from_dict(FULL_DOC)
    assert (s.name, s.noise_free, s.coherence_steps) == ("unit_full", False, 6)
    assert (s.tx_powers_dbm, s.codebook_codewords) == ((0.0, 20.0), (4, 8))
    assert 10 * math.log10(s.array.noise_power_mw) == pytest.approx(-100.0)


@pytest.mark.parametrize("section,key", ALL_KEYS, ids=[k for _, k in ALL_KEYS])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_scenario_rejects_a_value_of_the_wrong_kind(section, key, data):
    wrong = WRONG[_kind(key)]
    if (section, key) not in NULLABLE:
        wrong = wrong | st.none()
    value = data.draw(wrong)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        scenario_from_dict(_full_doc_with(section, key, value))


NUMBER_KEYS = [(section, key) for section, key in ALL_KEYS
               if _kind(key) in ("number", "range_m", "tx_power_dbm")]


@pytest.mark.parametrize("section,key", NUMBER_KEYS, ids=[k for _, k in NUMBER_KEYS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int_beyond_float"])
def test_scenario_rejects_a_number_that_is_not_finite(section, key, bad):
    # through JSON, as a file would spell it: NaN, Infinity, -Infinity, 1000...0
    value = FULL_DOC[section][key] if section else FULL_DOC[key]
    value = [bad, *value[1:]] if isinstance(value, list) else bad
    doc = json.loads(json.dumps(_full_doc_with(section, key, value)))
    if key == "k_factor_db" and bad in (math.inf, -math.inf):
        # documented: -Infinity is pure Rayleigh fading, Infinity pure line of sight
        assert scenario_from_dict(doc).fading.k_factor_db == bad
        return
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        scenario_from_dict(doc)


@pytest.mark.parametrize("section,key", NULLABLE, ids=[k for _, k in NULLABLE])
def test_scenario_null_means_default(section, key):
    omitted = json.loads(json.dumps(FULL_DOC))
    del omitted[section][key]
    assert scenario_from_dict(_full_doc_with(section, key, None)) == scenario_from_dict(omitted)


@pytest.mark.parametrize("section,key,value", [
    ("initial_state", "speed_kmh", 0.0),
    (None, "seed", 0),
    ("tracking", "accel_min_step", 1),
    (None, "sigma_eps", 0.0),
    ("motion", "sigma_alpha", 0.0),
    ("motion", "sigma_omega", 0.0),
    ("motion", "steering_angle_rad", math.pi / 2),
    ("motion", "steering_angle_rad", -math.pi / 2),
])
def test_scenario_accepts_range_edges(section, key, value):
    scenario_from_dict(_doc_with(section, key, value))


@pytest.mark.parametrize("section,key,value", [
    (None, "sigma_eps", -0.1),
    ("tracking", "alpha_thres", 0),
    ("tracking", "alpha_thres", -1),
    ("motion", "ts_ms", 0),
    ("motion", "sigma_alpha", -1),
    ("motion", "sigma_omega", -1),
    ("motion", "steering_angle_rad", 3),
    ("motion", "steering_angle_rad", -1.6),
    ("geometry", "range_m", [10, -10]),
    ("geometry", "range_m", [10, 10]),
    # whatever the beam scheme: SMALL_DOC steers DFT beams and fits no codebook
    ("beam", "codewords", [7]),
    ("beam", "codewords", []),
    ("beam", "codewords", [4, 0]),
    ("beam", "codewords", [-2]),
    (None, "trials", 0),
    (None, "horizon", 0),
    (None, "horizon", 4),  # below omega
    (None, "omega", 0),
    ("tracking", "feedback_period", 0),
    ("tracking", "accel_min_step", 0),
    ("motion", "coherence_steps", 0),
    ("fading", "block_length", 0),
    ("array", "num_antennas", 0),
    ("array", "num_rf_chains", 9),
    ("geometry", "rsu_height_m", 0),
    ("geometry", "lane_offset_m", -1),
    ("tracking", "tracker", "flying"),
    ("tracking", "combiner_mode", "x"),
    ("beam", "scheme", "mystery"),
])
def test_scenario_names_a_key_out_of_range(section, key, value):
    with pytest.raises(ValueError, match=re.escape(f"scenario key {key!r} = {value!r}")):
        scenario_from_dict(_doc_with(section, key, value))


@pytest.mark.parametrize("value", [0, -1, 2.5, True, "5"])
def test_scenario_rejects_bad_coherence_steps(value):
    with pytest.raises(ValueError, match="coherence_steps"):
        scenario_from_dict(_doc_with("motion", "coherence_steps", value))
    with pytest.raises(ValueError, match="coherence_steps"):
        small_scenario(coherence_steps=value)


@pytest.mark.parametrize("value", [None, 1, 7])
def test_scenario_accepts_coherence_steps(value):
    s = scenario_from_dict(_doc_with("motion", "coherence_steps", value))
    assert s.coherence_steps == value


def test_bundled_scenarios_load():
    for name in harness.bundled_scenario_names():
        s = bundled_scenario(name)
        assert s.name == name


def test_zero_noise_perfect_init_tracks_exactly():
    s = small_scenario(
        sigma_eps=0.0,
        noise_free=True,
        motion=dataclasses.replace(small_scenario().motion, sigma_alpha=0.0, sigma_omega=0.0),
    )
    records = run_trial(s, 0)
    for r in records:
        assert r.x_hat == pytest.approx(r.x_true, abs=1e-9)
        assert r.v_hat == pytest.approx(r.v_true, abs=1e-9)
    summary = summarize(records, "t", s.horizon)
    assert summary.nmse_x == 0.0


def test_gain_bounds_and_rate():
    s = small_scenario(trials=2)
    for rec in run_trial(s, 0):
        assert rec.gain_norm is not None
        assert 0.0 <= rec.gain_norm <= 1.0 + 1e-6
        assert rec.rate_bps_hz >= 0.0


def test_feedback_baseline_beam_metrics_use_true_direction():
    # the feedback baseline logs no direction of its own, so the downlink
    # gain must come from the true state like for every other tracker
    s = small_scenario(tracker="feedback", trials=1)
    h = s.geometry.rsu_height_m
    for rec in run_trial(s, 0):
        psi = spatial_frequency(rec.x_true, rec.y_true, h)
        beam = -math.pi + (rec.beam_index - 1) * 2 * math.pi / 8
        c = array_response(8, beam) / math.sqrt(8)
        expected = abs(np.vdot(array_response(8, psi), c)) ** 2 / 8
        assert rec.gain_norm == pytest.approx(expected, rel=1e-9)
        assert math.isfinite(rec.rate_bps_hz) and rec.rate_bps_hz > 0.0
    summary = run_experiment(s, workers=1)[0].summary
    assert summary.mean_gain > 0.5
    assert math.isfinite(summary.mean_rate)


def test_gain_formula_matched_beamformer():
    # gamma = |h^H c|^2 / ||h||^2 equals one when c is the matched filter
    rng = np.random.default_rng(0)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    c = h / np.linalg.norm(h)
    gamma = abs(np.vdot(h, c)) ** 2 / np.linalg.norm(h) ** 2
    assert gamma == pytest.approx(1.0)
    # and the rate is zero when the projection is zero
    assert math.log2(1.0 + 10.0 * 0.0) == 0.0


def test_run_trial_deterministic():
    s = small_scenario()
    r1 = run_trial(s, 1)
    r2 = run_trial(s, 1)
    assert records_to_csv(r1) == records_to_csv(r2)


def test_experiment_deterministic_and_worker_invariant():
    # one pool serves every (power, trial) pair, so powers interleave in it
    s = small_scenario(tx_powers_dbm=(0.0, 20.0))
    res1 = run_experiment(s, workers=1)
    res2 = run_experiment(s, workers=2)
    assert [r.tx_power_dbm for r in res2] == [0.0, 20.0]
    for a, b in zip(res1, res2, strict=True):
        assert records_to_csv(a.records) == records_to_csv(b.records)
        assert a.summary == b.summary
    assert records_to_csv(res1[0].records) != records_to_csv(res1[1].records)


def test_tracking_columns_do_not_depend_on_the_beam_scheme():
    # the random scheme draws from a child stream, so every scheme sees the
    # same trajectories and the same tracking
    geom = small_scenario().geometry
    book = build_codebook(geom, 8.5, 8, 2, 4, seed=0, workers=1)
    tracking = CSV_COLUMNS[:CSV_COLUMNS.index("alpha_hat") + 1]
    columns = {}
    for scheme in ("none", "dft2", "codebook", "random"):
        records = run_experiment(small_scenario(beam_scheme=scheme, trials=2),
                                 workers=1, book=book)[0].records
        columns[scheme] = [tuple(getattr(r, c) for c in tracking) for r in records]
    assert columns["dft2"] == columns["none"]
    assert columns["codebook"] == columns["none"]
    assert columns["random"] == columns["none"]


def test_trial_reordering_leaves_aggregates():
    s = small_scenario()
    per_trial = [run_trial(s, t) for t in range(s.trials)]
    fwd = [r for t in per_trial for r in t]
    # execute "out of order", aggregate in trial order
    rev = [r for t in reversed(per_trial) for r in t]
    rev_sorted = sorted(rev, key=lambda r: (r.trial, r.step))
    a = summarize(_block(fwd), "s", s.horizon)
    b = summarize(_block(rev_sorted), "s", s.horizon)
    assert a.nmse_x == pytest.approx(b.nmse_x, abs=1e-12)
    assert a.nmse_v == pytest.approx(b.nmse_v, abs=1e-12)


def test_power_sweep_produces_one_result_per_power():
    s = small_scenario(tx_powers_dbm=(0.0, 20.0), trials=2)
    res = run_experiment(s, workers=1)
    assert [r.tx_power_dbm for r in res] == [0.0, 20.0]
    assert res[0].summary.scenario == "unit_small@0dBm"
    assert res[1].summary.scenario == "unit_small@20dBm"


def test_summarize_excludes_near_zero_denominators():
    rows = _block([
        TrialRecord(0, 1, 0.01, 0.1, 8.5, 19.0, 5.0, 8.5, 19.0, None, None, None, None),
        TrialRecord(0, 2, 0.02, 10.0, 8.5, 19.0, 11.0, 8.5, 19.0, None, None, None, None),
    ])
    s = summarize(rows, "t", 2)
    assert s.excluded_x == 1
    assert s.nmse_x == pytest.approx(((10.0 - 11.0) / 10.0) ** 2)


def test_csv_schema():
    s = small_scenario(trials=1, horizon=8)
    text = records_to_csv(run_trial(s, 0))
    header = text.splitlines()[0]
    assert header == ("trial,step,time_s,x_true,y_true,v_true,"
                      "x_hat,y_hat,v_hat,alpha_hat,beam_index,gain_norm,rate_bps_hz")
    assert len(text.splitlines()) == 9


_cells = st.one_of(st.floats(), st.floats().map(np.float64))


def _row(beam, **fields) -> TrialRecord:
    """A TrialRecord whose beam cells are all set (beam = (index, gain, rate))
    or all None (beam = None)."""
    index, gain, rate = beam or (None, None, None)
    return TrialRecord(beam_index=index, gain_norm=gain, rate_bps_hz=rate, **fields)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(
    _row,
    trial=st.integers(0, 2**63 - 1),
    step=st.integers(1, 2**63 - 1),
    time_s=_cells, x_true=_cells, y_true=_cells, v_true=_cells,
    x_hat=_cells, y_hat=_cells, v_hat=_cells,
    alpha_hat=st.none() | _cells,
    beam=st.none() | st.tuples(st.integers(-2**63, 2**63 - 1), _cells, _cells),
), max_size=5))
def test_results_csv_roundtrip_is_byte_identical(records):
    text = _csv(records)
    block = records_from_csv(text)
    assert records_to_csv(block) == text
    assert _csv(block) == text  # through the row view


@pytest.mark.parametrize("scheme", ["dft2", "none"])
def test_results_csv_reader_rebuilds_the_trial_block(scheme):
    block = run_trial(small_scenario(beam_scheme=scheme), 0)
    assert block.has_alpha.any() and not block.has_alpha.all()
    assert block.has_beam.all() == (scheme != "none")
    read = records_from_csv(records_to_csv(block))
    assert list(read.columns) == list(block.columns) == list(CSV_COLUMNS)
    for name, column in block.columns.items():
        assert read.columns[name].dtype == column.dtype, name
        assert read.columns[name].tobytes() == column.tobytes(), name
    assert read.has_alpha.tobytes() == block.has_alpha.tobytes()
    assert read.has_beam.tobytes() == block.has_beam.tobytes()


def test_results_csv_reader_allows_empty_cells_only_in_optional_columns():
    row = TrialRecord(0, 1, 0.01, 1.0, 8.5, 19.0, 1.1, 8.4, 19.2, None, None, None, None)
    text = _csv([row])
    assert list(records_from_csv(text)) == [row]
    header, line = text.splitlines()
    cells = line.split(",")
    cells[harness.CSV_COLUMNS.index("x_hat")] = ""
    with pytest.raises(ValueError, match="x_hat"):
        records_from_csv(header + "\n" + ",".join(cells) + "\n")


_BEAM_ROW = TrialRecord(0, 2, 0.02, 1.0, 8.5, 19.0, 1.1, 8.4, 19.2, None, 3, 0.9, 7.5)


@pytest.mark.parametrize("column,cell,message", [
    ("rate_bps_hz", "", "beam_index, gain_norm and rate_bps_hz must be all set or all empty"),
    ("beam_index", "", "beam_index, gain_norm and rate_bps_hz must be all set or all empty"),
    ("trial", str(2**63), f"bad trial cell '{2**63}'"),
    ("beam_index", str(-2**63 - 1), f"bad beam_index cell '{-2**63 - 1}'"),
    ("step", " 1_0 ", "bad step cell ' 1_0 '"),
    ("step", "10 ", "bad step cell '10 '"),
    ("x_true", "1_000.5", "bad x_true cell '1_000.5'"),
    ("x_true", " 1.5", "bad x_true cell ' 1.5'"),
    ("step", "+1", "bad step cell '+1'"),
    ("step", "\u0661", "bad step cell '\u0661'"),
    ("trial", "01", "bad trial cell '01'"),
    ("trial", "-0", "bad trial cell '-0'"),
    ("x_true", "Infinity", "bad x_true cell 'Infinity'"),
    ("x_true", "1E2", "bad x_true cell '1E2'"),
    ("x_true", "1.50", "bad x_true cell '1.50'"),
])
def test_results_csv_reader_rejects_a_bad_row_by_line(column, cell, message):
    # the bad row is the third data row, after a blank line: line 5
    good = TrialRecord(0, 1, 0.01, 1.0, 8.5, 19.0, 1.1, 8.4, 19.2, None, 3, 0.8, 7.0)
    header, *lines = _csv([good, good, _BEAM_ROW]).splitlines()
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index(column)] = cell
    text = "\n".join([header, lines[0], "", lines[1], ",".join(cells)]) + "\n"
    with pytest.raises(ValueError, match=re.escape(f"line 5: {message}")):
        records_from_csv(text)


def test_record_block_row_view(monkeypatch):
    s = small_scenario(trials=2, horizon=7, omega=7, beam_scheme="dft2")
    block = run_experiment(s, workers=1)[0].records
    rows = list(block)
    assert len(block) == len(rows) == 14
    assert [(r.trial, r.step) for r in rows] == [(t, k) for t in range(2) for k in range(1, 8)]
    text = records_to_csv(block)
    # chunk boundaries change neither the rows nor the bytes
    monkeypatch.setattr(harness, "ROWS_PER_CHUNK", 3)
    assert list(block) == rows
    assert records_to_csv(block) == text
    assert list(records_from_csv(text)) == rows


def _summarize_per_record(records, scenario_label, horizon):
    """The per-record summarize loop that array summarize replaced, kept as its
    bit-for-bit oracle."""
    sq_x = [0.0] * horizon
    n_x = [0] * horizon
    sq_v = [0.0] * horizon
    n_v = [0] * horizon
    excl_x = excl_v = 0
    gains, rates = [], []
    for r in records:
        i = r.step - 1
        if abs(r.x_true) >= NMSE_DENOM_FLOOR:
            sq_x[i] += ((r.x_true - r.x_hat) / r.x_true) ** 2
            n_x[i] += 1
        else:
            excl_x += 1
        if abs(r.v_true) >= NMSE_DENOM_FLOOR:
            sq_v[i] += ((r.v_true - r.v_hat) / r.v_true) ** 2
            n_v[i] += 1
        else:
            excl_v += 1
        if r.gain_norm is not None:
            gains.append(r.gain_norm)
            rates.append(r.rate_bps_hz)
    series_x = tuple(s / c if c else math.nan for s, c in zip(sq_x, n_x))
    series_v = tuple(s / c if c else math.nan for s, c in zip(sq_v, n_v))
    return harness.MetricSummary(
        scenario=scenario_label,
        nmse_x=sum(sq_x) / max(sum(n_x), 1),
        nmse_v=sum(sq_v) / max(sum(n_v), 1),
        mean_gain=float(np.mean(gains)) if gains else math.nan,
        mean_rate=float(np.mean(rates)) if rates else math.nan,
        excluded_x=excl_x,
        excluded_v=excl_v,
        nmse_x_series=series_x,
        nmse_v_series=series_v,
    )


def _same(a, b) -> bool:
    """a == b, with NaN equal to NaN, element by element for tuples."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


_HORIZON = 6
_true = st.one_of(
    st.floats(-1e4, 1e4),
    st.floats(-NMSE_DENOM_FLOOR, NMSE_DENOM_FLOOR),  # excluded
    st.sampled_from([NMSE_DENOM_FLOOR, -NMSE_DENOM_FLOOR,
                     math.nextafter(NMSE_DENOM_FLOOR, 0.0), 0.0, -0.0, math.nan]),
)
_estimate = st.floats(-1e4, 1e4) | st.just(math.nan)
_metric = st.floats(0.0, 1e3) | st.just(math.nan)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.builds(
    _row,
    trial=st.integers(0, 4),  # any trial order, repeated steps allowed
    step=st.integers(1, _HORIZON),
    time_s=st.just(0.0), y_true=st.just(8.5), y_hat=st.just(8.5),
    x_true=_true, v_true=_true, x_hat=_estimate, v_hat=_estimate,
    alpha_hat=st.none(),
    beam=st.none() | st.tuples(st.integers(1, 64), _metric, _metric),
), max_size=60))
def test_summarize_matches_the_per_record_loop_bit_for_bit(rows):
    got = summarize(_block(rows), "p", _HORIZON)
    want = _summarize_per_record(rows, "p", _HORIZON)
    for name in (f.name for f in dataclasses.fields(harness.MetricSummary)):
        assert _same(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("step", [0, 3])
def test_summarize_rejects_a_step_outside_the_horizon(step):
    block = _block([_BEAM_ROW])
    rows = RecordBlock(dict(block.columns, step=np.array([step])), block.has_alpha,
                       block.has_beam)
    with pytest.raises(ValueError, match=r"1\.\.2"):
        summarize(rows, "t", 2)


def test_summary_csv_schema():
    s = small_scenario(trials=1, horizon=8)
    res = run_experiment(s, workers=1)
    text = summaries_to_csv([r.summary for r in res])
    lines = text.splitlines()
    assert lines[0] == "metric,scenario,value"
    metrics = {line.split(",")[0] for line in lines[1:]}
    assert {"nmse_x", "nmse_v", "mean_gain_norm", "mean_rate_bps_hz"} <= metrics


def test_feedback_baseline_beats_proposed_on_average():
    base = small_scenario(trials=24, horizon=40, beam_scheme="none",
                          tx_powers_dbm=(20.0,))
    prop = run_experiment(base, workers=1)[0].summary
    fb = run_experiment(dataclasses.replace(base, tracker="feedback"), workers=1)[0].summary
    assert fb.nmse_x <= prop.nmse_x


def test_manifold_baseline_configuration_equivalence():
    # the modified reference tracker is the proposed loop with the manifold
    # combiner and no acceleration estimation, whatever combiner_mode says
    s = small_scenario(trials=1, horizon=20, tracker="manifold-baseline")
    rng = np.random.default_rng(0)
    for mode in harness.COMBINER_MODES:
        tracker = harness.make_tracker(dataclasses.replace(s, combiner_mode=mode), rng)
        assert tracker.combiner_mode == "manifold"
        assert tracker.estimate_accel is False
    records = run_trial(s, 0)
    assert all(np.isfinite(r.x_hat) for r in records)
    assert all(r.alpha_hat is None for r in records)


def test_fitted_codebook_needs_a_symmetric_range(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a codebook fit was started")

    monkeypatch.setattr(harness, "build_codebook", no_fit)
    doc = dict(SMALL_DOC, beam={"scheme": "codebook", "codewords": [4]},
               geometry=dict(SMALL_DOC["geometry"], range_m=[-60.0, 75.0]))
    with pytest.raises(ValueError, match=re.escape("scenario key 'range_m' = [-60.0, 75.0]")):
        harness.resolve_codebook(scenario_from_dict(doc))


def test_random_scheme_requires_codebook():
    s = small_scenario(beam_scheme="random")
    with pytest.raises(ValueError):
        run_trial(s, 0)


def test_codebook_scheme_runs_with_prebuilt_book():
    geom = small_scenario().geometry
    book = build_codebook(geom, 8.5, 8, 2, 4, seed=0, workers=1)
    s = small_scenario(beam_scheme="codebook")
    records = run_trial(s, 0, book=book)
    assert all(r.beam_index is not None for r in records)
    assert all(1 <= r.beam_index <= 4 for r in records)


def test_codebook_fitted_in_the_run_follows_its_worker_count(monkeypatch):
    # a serial fit must also hand out the arrays a pool fit returns: a
    # strided codeword rounds np.vdot differently in the last bit
    s = small_scenario(beam_scheme="codebook", codebook_codewords=(4,), trials=2)
    pooled = run_experiment(s, workers=2)[0].records

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(codebook, "ProcessPoolExecutor", no_pool)
    serial = run_experiment(s, workers=1)[0].records
    assert records_to_csv(serial) == records_to_csv(pooled)
    assert all(1 <= r.beam_index <= 4 for r in serial)


def test_experiment_with_random_scheme_and_book():
    geom = small_scenario().geometry
    book = build_codebook(geom, 8.5, 8, 2, 4, seed=0, workers=1)
    s = small_scenario(beam_scheme="random", trials=3)
    res = run_experiment(s, workers=1, book=book)
    assert math.isfinite(res[0].summary.mean_gain)


def test_coherence_period_resamples_acceleration():
    # with zero process noise, the true velocity is piecewise linear with a
    # new slope per coherence period
    s = small_scenario(
        trials=1, horizon=15, coherence_steps=5, sigma_eps=0.0, noise_free=True,
        motion=dataclasses.replace(small_scenario().motion, sigma_omega=0.0),
    )
    records = run_trial(s, 0)
    v = [s.t0.v] + [r.v_true for r in records]
    slopes = np.diff(v)
    for blk in range(3):
        block = slopes[5 * blk:5 * blk + 5]
        np.testing.assert_allclose(block, block[0], rtol=1e-9)
    assert abs(slopes[0] - slopes[5]) > 1e-6
    assert abs(slopes[5] - slopes[10]) > 1e-6


def test_track_demo_converges_toward_truth():
    # single-trajectory qualitative check: the position estimate approaches
    # the truth as sounding accumulates, despite the initial feedback error
    s = dataclasses.replace(bundled_scenario("track_demo"), horizon=400)
    records = list(run_trial(s, 0))
    first = abs(records[0].x_true - records[0].x_hat)
    tail = [abs(r.x_true - r.x_hat) for r in records[-50:]]
    assert np.mean(tail) < first
    assert np.mean(tail) < 0.2


def test_hybrid_combiner_scenario_runs():
    s = dataclasses.replace(
        bundled_scenario("track_demo_hybrid"), horizon=30, trials=1
    )
    records = run_trial(s, 0)
    assert all(np.isfinite(r.x_hat) for r in records)


def test_beam_none_leaves_gain_columns_empty():
    s = small_scenario(beam_scheme="none", trials=1, horizon=8)
    records = run_trial(s, 0)
    assert all(r.gain_norm is None for r in records)
    text = records_to_csv(records)
    assert text.splitlines()[1].endswith(",,,")


def test_dft2_runs_with_odd_omega():
    # scheme 2 steers at the current estimate, so any switching period works
    s = small_scenario(beam_scheme="dft2", omega=7, trials=1)
    m, h = s.array.num_antennas, s.geometry.rsu_height_m
    initial = harness.make_tracker(
        s, np.random.default_rng(np.random.SeedSequence([s.seed, 0]))
    ).belief
    records = list(run_trial(s, 0))
    for tau in range(0, s.horizon, s.omega):
        if tau == 0:
            x_hat, y_hat = float(initial.mean[0]), float(initial.mean[1])
        else:
            x_hat, y_hat = records[tau - 1].x_hat, records[tau - 1].y_hat
        psi = spatial_frequency(x_hat, y_hat, h)
        expected = round((psi + math.pi) / (2.0 * math.pi / m)) % m + 1
        assert {r.beam_index for r in records[tau:tau + s.omega]} == {expected}


def test_dft1_beam_index_names_the_steered_beam():
    # scheme 1 steers at the midpoint prediction, so the reported DFT bin must
    # reproduce the logged gain; the bin of the current estimate would not
    s = dataclasses.replace(bundled_scenario("gain_m64_dft1"), trials=2)
    m, h = s.array.num_antennas, s.geometry.rsu_height_m
    records = run_experiment(s, workers=1)[0].records
    for rec in records:
        psi_q = -math.pi + (rec.beam_index - 1) * 2.0 * math.pi / m
        c = array_response(m, psi_q) / math.sqrt(m)
        d = array_response(m, spatial_frequency(rec.x_true, rec.y_true, h))
        assert abs(np.vdot(d, c)) ** 2 / m == pytest.approx(rec.gain_norm, rel=1e-9, abs=1e-12)
