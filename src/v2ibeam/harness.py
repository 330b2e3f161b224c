"""Monte-Carlo experiment engine.

A scenario bundles road geometry, array and link budget, vehicle kinematics,
fading, the tracking variant, and a downlink beam scheme. Each trial owns an
independent RNG substream derived from (seed, trial index), so results are
reproducible bit-for-bit regardless of worker count or execution order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import selector as selector_mod
from .array_channel import (
    ArrayConfig,
    FadingProcess,
    RicianConfig,
    RoadGeometry,
    average_snr,
    channel_vector,
    spatial_frequency,
)
from .codebook import (
    Codebook,
    build_codebook,
    default_workers,
    load_codebook,
    single_blas_thread,
)
from .ekf import StateBelief, Tracker, TrackStep, init_belief, predict
from .motion import MotionModel, StateVector, step_truth
from .units import carrier_to_wavelength, dbm_to_mw, kmh_to_ms

TRACKERS = ("proposed", "manifold-baseline", "feedback")
BEAM_SCHEMES = ("none", "codebook", "dft1", "dft2", "random")
NMSE_DENOM_FLOOR = 0.5  # meters / m-per-s; excludes near-zero crossings

CSV_COLUMNS = [
    "trial", "step", "time_s",
    "x_true", "y_true", "v_true",
    "x_hat", "y_hat", "v_hat",
    "alpha_hat", "beam_index", "gain_norm", "rate_bps_hz",
]


@dataclass(frozen=True)
class Scenario:
    name: str
    geometry: RoadGeometry
    array: ArrayConfig
    motion: MotionModel
    t0: StateVector
    sigma_eps: float
    fading: RicianConfig
    omega: int
    trials: int
    horizon: int
    seed: int
    tracker: str = "proposed"
    combiner_mode: str = "optimal"
    feedback_period: int = 5
    accel_min_step: int = 10
    alpha_thres: float = 0.03
    coherence_steps: int | None = None
    beam_scheme: str = "none"
    codebook_path: str | None = None
    codebook_codewords: tuple[int, ...] | None = None
    tx_powers_dbm: tuple[float, ...] = ()
    noise_free: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.omega < 1:
            raise ValueError("omega must be >= 1")
        if self.horizon < self.omega:
            raise ValueError("horizon must cover at least one beam period")
        if self.tracker not in TRACKERS:
            raise ValueError(f"unknown tracker {self.tracker!r}")
        if self.beam_scheme not in BEAM_SCHEMES:
            raise ValueError(f"unknown beam scheme {self.beam_scheme!r}")
        if self.combiner_mode not in ("optimal", "hybrid"):
            raise ValueError(f"unknown combiner_mode {self.combiner_mode!r}")
        if self.coherence_steps is not None and (
            isinstance(self.coherence_steps, bool)
            or not isinstance(self.coherence_steps, numbers.Integral)
            or self.coherence_steps < 1
        ):
            raise ValueError(
                f"coherence_steps must be a positive integer, got {self.coherence_steps!r}"
            )


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    step: int
    time_s: float
    x_true: float
    y_true: float
    v_true: float
    x_hat: float
    y_hat: float
    v_hat: float
    alpha_hat: float | None
    beam_index: int | None
    gain_norm: float | None
    rate_bps_hz: float | None


@dataclass(frozen=True)
class MetricSummary:
    scenario: str
    tx_power_dbm: float
    nmse_x: float
    nmse_v: float
    mean_gain: float
    mean_rate: float
    excluded_x: int
    excluded_v: int
    nmse_x_series: tuple[float, ...] = field(repr=False, default=())
    nmse_v_series: tuple[float, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class ExperimentResult:
    tx_power_dbm: float
    records: list[TrialRecord]
    summary: MetricSummary


class FeedbackTracker:
    """Baseline: the exact state is fed back every `period` sounding steps;
    between feedbacks the belief is propagated by prediction only."""

    def __init__(self, model: MotionModel, t0: StateVector, period: int):
        self.model = model
        self.period = period
        self.belief = init_belief(t0, 0.0, None)
        self.alpha_applied: float | None = None
        self.step_index = 0

    def step(self, truth: StateVector, beta: complex, rng) -> TrackStep:
        self.step_index += 1
        if self.step_index % self.period == 0:
            self.belief = init_belief(truth, 0.0, None)
        else:
            self.belief = predict(self.belief, self.model, None)
        return TrackStep(
            step=self.step_index,
            truth=truth,
            belief=self.belief,
            beta=beta,
            alpha_applied=None,
        )


def make_tracker(scenario: Scenario, array: ArrayConfig, rng):
    if scenario.tracker == "feedback":
        return FeedbackTracker(scenario.motion, scenario.t0, scenario.feedback_period)
    if scenario.tracker == "manifold-baseline":
        return baseline_manifold_tracker(scenario, array, rng)
    return Tracker(
        scenario.geometry,
        array,
        scenario.motion,
        scenario.t0,
        scenario.sigma_eps,
        rng,
        combiner_mode=scenario.combiner_mode,
        estimate_accel=True,
        accel_min_step=scenario.accel_min_step,
        alpha_thres=scenario.alpha_thres,
    )


def baseline_manifold_tracker(scenario: Scenario, array: ArrayConfig | None = None, rng=None) -> Tracker:
    """EKF variant sounding through the array-manifold combiner, with the
    acceleration estimator disabled; update equations are unchanged."""
    return Tracker(
        scenario.geometry,
        array if array is not None else scenario.array,
        scenario.motion,
        scenario.t0,
        scenario.sigma_eps,
        rng,
        combiner_mode="manifold",
        estimate_accel=False,
    )


def _run_tracking(
    scenario: Scenario, rng: np.random.Generator, array: ArrayConfig
) -> tuple[StateBelief, list[TrackStep]]:
    tracker = make_tracker(scenario, array, rng)
    initial_belief = tracker.belief
    fading = FadingProcess(rng, scenario.fading)
    coherence = scenario.coherence_steps or scenario.horizon
    sounding_rng = None if scenario.noise_free else rng

    truth = scenario.t0
    alpha = rng.normal(0.0, scenario.motion.sigma_alpha)
    steps: list[TrackStep] = []
    for step_idx in range(1, scenario.horizon + 1):
        if step_idx > 1 and (step_idx - 1) % coherence == 0:
            alpha = rng.normal(0.0, scenario.motion.sigma_alpha)
        truth = step_truth(rng, scenario.motion, truth, alpha)
        beta = fading.step()
        steps.append(tracker.step(truth, beta, sounding_rng))
    return initial_belief, steps


def simulate_tracking_trial(
    scenario: Scenario,
    rng: np.random.Generator,
    array: ArrayConfig | None = None,
) -> list[TrackStep]:
    """Run the tracking loop over one simulated trajectory.

    Per step: advance the truth, draw fading, design the combiner, take the
    sounding sample, update the belief, and (for the proposed tracker) refresh
    the acceleration estimate.
    """
    _, steps = _run_tracking(scenario, rng, array if array is not None else scenario.array)
    return steps


def _assign_beams(
    scenario: Scenario,
    steps: list[TrackStep],
    book: Codebook | None,
    rng: np.random.Generator,
    initial_belief: StateBelief,
    num_antennas: int,
):
    """Choose the downlink beamformer at each switching instant and map it
    onto the steps it serves. Returns per-step (index, vector) or None."""
    scheme = scenario.beam_scheme
    if scheme == "none":
        return [None] * len(steps)
    h = scenario.geometry.rsu_height_m
    assignments: list[tuple[int, np.ndarray] | None] = [None] * len(steps)
    for tau in range(0, len(steps), scenario.omega):
        belief = initial_belief if tau == 0 else steps[tau - 1].belief
        alpha_hat = None if tau == 0 else steps[tau - 1].alpha_applied
        span = range(tau, min(tau + scenario.omega, len(steps)))
        if scheme == "codebook":
            preds = selector_mod.extrapolate(
                belief, scenario.motion, alpha_hat, scenario.omega
            )
            dirs = [
                selector_mod.direction_distribution(mean, cov, h, t=t + 1)
                for t, (mean, cov) in enumerate(preds)
            ]
            ideal = selector_mod.ideal_bp(dirs, num_antennas, book.grid_size)
            q_hat, word = selector_mod.select(book, ideal)
            choice = (q_hat, word.u)
        elif scheme == "random":
            q_hat = int(rng.integers(0, book.size)) + 1
            choice = (q_hat, book.codewords[q_hat - 1].u)
        else:
            psi_mid, psi_now = selector_mod.dft_scheme_directions(
                belief, scenario.motion, scenario.omega, h, alpha_hat
            )
            psi = psi_mid if scheme == "dft1" else psi_now
            choice = (
                selector_mod.dft_bin(psi, num_antennas) + 1,
                selector_mod.dft_codeword(psi, num_antennas),
            )
        for idx in span:
            assignments[idx] = choice
    return assignments


def run_trial(
    scenario: Scenario,
    trial_idx: int,
    array: ArrayConfig | None = None,
    book: Codebook | None = None,
) -> list[TrialRecord]:
    """One independent trial: tracking plus periodic beam selection."""
    array = array if array is not None else scenario.array
    if book is None:
        book = resolve_codebook(scenario)
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, trial_idx]))
    initial_belief, steps = _run_tracking(scenario, rng, array)

    assignments = _assign_beams(
        scenario, steps, book, rng, initial_belief, array.num_antennas
    )

    h = scenario.geometry.rsu_height_m
    records: list[TrialRecord] = []
    for st, beam in zip(steps, assignments):
        gain = rate = None
        beam_index = None
        if beam is not None:
            beam_index, c_vec = beam
            psi_true = spatial_frequency(st.truth.x, st.truth.y, h)
            hvec = channel_vector(st.beta, psi_true, array.num_antennas)
            power = abs(np.vdot(hvec, c_vec)) ** 2
            norm2 = float(np.real(np.vdot(hvec, hvec)))
            gain = power / norm2 if norm2 > 0 else 0.0
            d_true = math.sqrt(st.truth.x**2 + st.truth.y**2 + h**2)
            rho = average_snr(array, d_true)
            rate = math.log2(1.0 + rho * power)
        records.append(
            TrialRecord(
                trial=trial_idx,
                step=st.step,
                time_s=st.step * scenario.motion.ts,
                x_true=st.truth.x,
                y_true=st.truth.y,
                v_true=st.truth.v,
                x_hat=float(st.belief.mean[0]),
                y_hat=float(st.belief.mean[1]),
                v_hat=float(st.belief.mean[2]),
                alpha_hat=st.alpha_applied,
                beam_index=beam_index,
                gain_norm=gain,
                rate_bps_hz=rate,
            )
        )
    return records


def summarize(
    records: list[TrialRecord], scenario_label: str, tx_power_dbm: float, horizon: int
) -> MetricSummary:
    """Aggregate NMSE / gain / rate. Steps whose true denominator is within
    NMSE_DENOM_FLOOR of zero are excluded (count reported)."""
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
    total_x = sum(sq_x) / max(sum(n_x), 1)
    total_v = sum(sq_v) / max(sum(n_v), 1)
    return MetricSummary(
        scenario=scenario_label,
        tx_power_dbm=tx_power_dbm,
        nmse_x=total_x,
        nmse_v=total_v,
        mean_gain=float(np.mean(gains)) if gains else math.nan,
        mean_rate=float(np.mean(rates)) if rates else math.nan,
        excluded_x=excl_x,
        excluded_v=excl_v,
        nmse_x_series=series_x,
        nmse_v_series=series_v,
    )


_WORKER_STATE: dict = {}


def _init_worker(scenario: Scenario, array: ArrayConfig, book: Codebook | None):
    single_blas_thread()
    _WORKER_STATE["args"] = (scenario, array, book)


def _worker_trial(trial_idx: int) -> list[TrialRecord]:
    scenario, array, book = _WORKER_STATE["args"]
    return run_trial(scenario, trial_idx, array=array, book=book)


def resolve_codebook(scenario: Scenario, book: Codebook | None = None) -> Codebook | None:
    if book is not None or scenario.beam_scheme not in ("codebook", "random"):
        return book
    if scenario.codebook_path:
        return load_codebook(scenario.codebook_path)
    if scenario.codebook_codewords:
        return build_codebook(
            scenario.geometry,
            scenario.t0.y,
            scenario.array.num_antennas,
            scenario.array.num_rf_chains,
            list(scenario.codebook_codewords),
            seed=scenario.seed,
        )
    raise ValueError(
        f"beam scheme {scenario.beam_scheme!r} needs a codebook path or build parameters"
    )


def run_experiment(
    scenario: Scenario,
    workers: int | None = None,
    book: Codebook | None = None,
) -> list[ExperimentResult]:
    """Run all trials for each transmit-power setting of the scenario.

    Trials execute on a process pool (size from V2I_THREADS or the CPU
    count); aggregation folds in trial order so the output is identical for
    any worker count.
    """
    book = resolve_codebook(scenario, book)
    powers = scenario.tx_powers_dbm or (10.0 * math.log10(scenario.array.tx_power_mw),)
    workers = default_workers() if workers is None else workers
    results = []
    for power in powers:
        array = replace(scenario.array, tx_power_mw=dbm_to_mw(power))
        if workers > 1 and scenario.trials > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(scenario, array, book),
            ) as pool:
                per_trial = list(
                    pool.map(_worker_trial, range(scenario.trials), chunksize=8)
                )
        else:
            per_trial = [
                run_trial(scenario, t, array=array, book=book)
                for t in range(scenario.trials)
            ]
        records = [r for trial in per_trial for r in trial]
        label = f"{scenario.name}@{power:g}dBm"
        summary = summarize(records, label, power, scenario.horizon)
        results.append(
            ExperimentResult(tx_power_dbm=power, records=records, summary=summary)
        )
    return results


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, plain float repr
    return str(value)


def records_to_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.trial, r.step, _cell(r.time_s),
                _cell(r.x_true), _cell(r.y_true), _cell(r.v_true),
                _cell(r.x_hat), _cell(r.y_hat), _cell(r.v_hat),
                _cell(r.alpha_hat), _cell(r.beam_index),
                _cell(r.gain_norm), _cell(r.rate_bps_hz),
            ]
        )
    return buf.getvalue()


def summaries_to_csv(summaries: list[MetricSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "scenario", "value"])
    for s in summaries:
        for metric, value in [
            ("nmse_x", s.nmse_x),
            ("nmse_v", s.nmse_v),
            ("mean_gain_norm", s.mean_gain),
            ("mean_rate_bps_hz", s.mean_rate),
            ("excluded_x", float(s.excluded_x)),
            ("excluded_v", float(s.excluded_v)),
        ]:
            writer.writerow([metric, s.scenario, _cell(float(value))])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Scenario (de)serialization. The JSON uses field units (km/h, dBm, GHz, ms);
# everything becomes SI / linear at load time.
# ---------------------------------------------------------------------------

# Every key a scenario document may use, per section (None: the top level).
SCENARIO_KEYS = {
    None: {"name", "seed", "trials", "horizon", "omega", "sigma_eps", "noise_free",
           "geometry", "array", "motion", "initial_state", "fading", "tracking", "beam"},
    "geometry": {"rsu_height_m", "lane_offset_m", "range_m"},
    "array": {"num_antennas", "num_rf_chains", "carrier_ghz", "bandwidth_mhz",
              "pathloss_exponent", "noise_power_dbm", "tx_power_dbm"},
    "motion": {"ts_ms", "steering_angle_rad", "sigma_alpha", "sigma_omega",
               "coherence_steps"},
    "initial_state": {"x_m", "y_m", "speed_kmh"},
    "fading": {"k_factor_db", "block_length"},
    "tracking": {"tracker", "combiner_mode", "feedback_period", "accel_min_step",
                 "alpha_thres"},
    "beam": {"scheme", "codebook_path", "codewords"},
}


def _check_keys(doc: dict) -> None:
    """Reject keys a scenario document does not define, so a misspelt key
    fails instead of silently falling back to its default."""
    for section, allowed in SCENARIO_KEYS.items():
        part = doc if section is None else doc.get(section, {})
        where = "top level" if section is None else f"section {section!r}"
        if not isinstance(part, dict):
            raise ValueError(f"scenario {where} must be an object")
        unknown = sorted(set(part) - allowed)
        if unknown:
            raise ValueError(f"unknown scenario keys at {where}: {', '.join(unknown)}")


def scenario_from_dict(doc: dict, name: str | None = None) -> Scenario:
    _check_keys(doc)
    geo = doc["geometry"]
    rng_lb, rng_ub = geo.get("range_m", (-75.0, 75.0))
    geometry = RoadGeometry(
        rsu_height_m=float(geo.get("rsu_height_m", 7.5)),
        lane_offset_m=float(geo.get("lane_offset_m", 8.5)),
        range_lb_m=float(rng_lb),
        range_ub_m=float(rng_ub),
    )
    arr = doc["array"]
    bandwidth_hz = float(arr.get("bandwidth_mhz", 20.0)) * 1e6
    noise_dbm = arr.get("noise_power_dbm")
    if noise_dbm is None:
        noise_dbm = -174.0 + 10.0 * math.log10(bandwidth_hz)
    tx = arr.get("tx_power_dbm", 10.0)
    tx_list = tuple(float(v) for v in tx) if isinstance(tx, (list, tuple)) else (float(tx),)
    array = ArrayConfig(
        num_antennas=int(arr["num_antennas"]),
        num_rf_chains=int(arr.get("num_rf_chains", 4)),
        wavelength_m=carrier_to_wavelength(float(arr.get("carrier_ghz", 28.0)) * 1e9),
        pathloss_exponent=float(arr.get("pathloss_exponent", 2.0)),
        noise_power_mw=dbm_to_mw(float(noise_dbm)),
        tx_power_mw=dbm_to_mw(tx_list[0]),
    )
    mot = doc.get("motion", {})
    init = doc.get("initial_state", {})
    v0 = kmh_to_ms(float(init.get("speed_kmh", 70.0)))
    sigma_alpha = mot.get("sigma_alpha")
    if sigma_alpha is None:
        # follows the reference setup: 0.1 * (v0_kmh * 1000 / 3600)
        sigma_alpha = 0.1 * v0
    motion = MotionModel(
        ts=float(mot.get("ts_ms", 10.0)) / 1e3,
        steering_angle=float(mot.get("steering_angle_rad", math.pi / 2**7)),
        sigma_alpha=float(sigma_alpha),
        sigma_omega=float(mot.get("sigma_omega", 10.0**-1.5)),
    )
    t0 = StateVector(
        x=float(init.get("x_m", -50.0)),
        y=float(init.get("y_m", geometry.lane_offset_m)),
        v=v0,
    )
    fad = doc.get("fading", {})
    fading = RicianConfig(
        k_factor_db=float(fad.get("k_factor_db", 13.0)),
        block_length=int(fad.get("block_length", 1)),
    )
    trk = doc.get("tracking", {})
    beam = doc.get("beam", {})
    codewords = beam.get("codewords")
    return Scenario(
        name=name or doc.get("name", "scenario"),
        geometry=geometry,
        array=array,
        motion=motion,
        t0=t0,
        sigma_eps=float(doc.get("sigma_eps", 0.0)),
        fading=fading,
        omega=int(doc.get("omega", 10)),
        trials=int(doc.get("trials", 1)),
        horizon=int(doc.get("horizon", 100)),
        seed=int(doc.get("seed", 0)),
        tracker=trk.get("tracker", "proposed"),
        combiner_mode=trk.get("combiner_mode", "optimal"),
        feedback_period=int(trk.get("feedback_period", 5)),
        accel_min_step=int(trk.get("accel_min_step", 10)),
        alpha_thres=float(trk.get("alpha_thres", 0.03)),
        coherence_steps=mot.get("coherence_steps"),
        beam_scheme=beam.get("scheme", "none"),
        codebook_path=beam.get("codebook_path"),
        codebook_codewords=tuple(codewords) if codewords else None,
        tx_powers_dbm=tx_list if len(tx_list) > 1 else (),
        noise_free=bool(doc.get("noise_free", False)),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc)


def bundled_scenario_path(name: str) -> str:
    here = os.path.dirname(__file__)
    path = os.path.join(here, "scenarios", f"{name}.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return path


def bundled_scenario_names() -> list[str]:
    here = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(p[:-5] for p in os.listdir(here) if p.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
