import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2ibeam import harness
from v2ibeam.array_channel import array_response, spatial_frequency
from v2ibeam.codebook import build_codebook
from v2ibeam.harness import (
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


def test_scenario_units_and_defaults():
    s = scenario_from_dict(SMALL_DOC)
    assert s.t0.v == pytest.approx(70 * 1000 / 3600)
    assert s.motion.ts == pytest.approx(0.01)
    # noise power defaults to thermal noise over the 20 MHz band
    assert 10 * math.log10(s.array.noise_power_mw) == pytest.approx(-100.9897, abs=1e-3)
    # sigma_alpha defaults to a tenth of the initial speed in m/s
    assert s.motion.sigma_alpha == pytest.approx(0.1 * s.t0.v)
    assert s.tx_powers_dbm == ()


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
    summary = summarize(records, "t", 20.0, s.horizon)
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
    s = small_scenario()
    res1 = run_experiment(s, workers=1)
    res2 = run_experiment(s, workers=2)
    csv1 = records_to_csv(res1[0].records)
    csv2 = records_to_csv(res2[0].records)
    assert csv1 == csv2
    assert res1[0].summary == res2[0].summary


def test_trial_reordering_leaves_aggregates():
    s = small_scenario()
    per_trial = [run_trial(s, t) for t in range(s.trials)]
    fwd = [r for t in per_trial for r in t]
    # execute "out of order", aggregate in trial order
    rev = [r for t in reversed(per_trial) for r in t]
    rev_sorted = sorted(rev, key=lambda r: (r.trial, r.step))
    a = summarize(fwd, "s", 20.0, s.horizon)
    b = summarize(rev_sorted, "s", 20.0, s.horizon)
    assert a.nmse_x == pytest.approx(b.nmse_x, abs=1e-12)
    assert a.nmse_v == pytest.approx(b.nmse_v, abs=1e-12)


def test_power_sweep_produces_one_result_per_power():
    s = small_scenario(tx_powers_dbm=(0.0, 20.0), trials=2)
    res = run_experiment(s, workers=1)
    assert [r.tx_power_dbm for r in res] == [0.0, 20.0]
    assert res[0].summary.scenario == "unit_small@0dBm"
    assert res[1].summary.scenario == "unit_small@20dBm"


def test_summarize_excludes_near_zero_denominators():
    rows = [
        TrialRecord(0, 1, 0.01, 0.1, 8.5, 19.0, 5.0, 8.5, 19.0, None, None, None, None),
        TrialRecord(0, 2, 0.02, 10.0, 8.5, 19.0, 11.0, 8.5, 19.0, None, None, None, None),
    ]
    s = summarize(rows, "t", 0.0, 2)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(
    TrialRecord,
    trial=st.integers(0, 10**6),
    step=st.integers(1, 10**6),
    time_s=_cells, x_true=_cells, y_true=_cells, v_true=_cells,
    x_hat=_cells, y_hat=_cells, v_hat=_cells,
    alpha_hat=st.none() | _cells,
    beam_index=st.none() | st.integers(1, 4096),
    gain_norm=st.none() | _cells,
    rate_bps_hz=st.none() | _cells,
), max_size=5))
def test_results_csv_roundtrip_is_byte_identical(records):
    text = records_to_csv(records)
    assert records_to_csv(records_from_csv(text)) == text


def test_results_csv_reader_allows_empty_cells_only_in_optional_columns():
    row = TrialRecord(0, 1, 0.01, 1.0, 8.5, 19.0, 1.1, 8.4, 19.2, None, None, None, None)
    text = records_to_csv([row])
    assert records_from_csv(text) == [row]
    header, line = text.splitlines()
    cells = line.split(",")
    cells[harness.CSV_COLUMNS.index("x_hat")] = ""
    with pytest.raises(ValueError, match="x_hat"):
        records_from_csv(header + "\n" + ",".join(cells) + "\n")


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
                          tx_powers_dbm=())
    prop = run_experiment(base, workers=1)[0].summary
    fb = run_experiment(dataclasses.replace(base, tracker="feedback"), workers=1)[0].summary
    assert fb.nmse_x <= prop.nmse_x


def test_manifold_baseline_configuration_equivalence():
    # the modified reference tracker is the proposed loop with the manifold
    # combiner and no acceleration estimation, whatever combiner_mode says
    s = small_scenario(trials=1, horizon=20, tracker="manifold-baseline")
    rng = np.random.default_rng(0)
    for mode in harness.COMBINER_MODES:
        tracker = harness.make_tracker(dataclasses.replace(s, combiner_mode=mode), s.array, rng)
        assert tracker.combiner_mode == "manifold"
        assert tracker.estimate_accel is False
    records = run_trial(s, 0)
    assert all(np.isfinite(r.x_hat) for r in records)
    assert all(r.alpha_hat is None for r in records)


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
    records = run_trial(s, 0)
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
    initial, steps = harness.simulate_tracking_trial(
        s, np.random.default_rng(np.random.SeedSequence([s.seed, 0])), s.array
    )
    records = run_trial(s, 0)
    for tau in range(0, s.horizon, s.omega):
        belief = initial if tau == 0 else steps[tau - 1].belief
        psi = spatial_frequency(float(belief.mean[0]), float(belief.mean[1]), h)
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
