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
import operator
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import selector as selector_mod
from .array_channel import (
    ArrayConfig,
    FadingProcess,
    RicianConfig,
    RoadGeometry,
    channel_vector,
    vehicle_link,
)
from .codebook import (
    Codebook,
    build_codebook,
    default_workers,
    load_codebook,
    single_blas_thread,
)
from .ekf import StateBelief, Tracker, TrackStep, g_of_state, init_belief, predict
from .motion import MotionModel, StateVector, step_truth
from .units import carrier_to_wavelength, dbm_to_mw, kmh_to_ms

TRACKERS = ("proposed", "manifold-baseline", "feedback")
# sounding combiners a scenario may choose; the manifold-baseline tracker
# always sounds through the array-manifold combiner
COMBINER_MODES = ("optimal", "hybrid")
BEAM_SCHEMES = ("none", "codebook", "dft1", "dft2", "random")
NMSE_DENOM_FLOOR = 0.5  # meters / m-per-s; excludes near-zero crossings


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    tracker: str
    combiner_mode: str
    feedback_period: int
    accel_min_step: int
    alpha_thres: float
    coherence_steps: int | None
    beam_scheme: str
    codebook_path: str | None
    codebook_codewords: tuple[int, ...] | None
    tx_powers_dbm: tuple[float, ...]
    noise_free: bool

    def __post_init__(self):
        coherence = 1 if self.coherence_steps is None else self.coherence_steps
        for key, value in [("trials", self.trials), ("omega", self.omega),
                           ("feedback_period", self.feedback_period),
                           ("accel_min_step", self.accel_min_step),
                           ("coherence_steps", coherence)]:
            if not (_is_integer(value) and value >= 1):
                raise ValueError(f"{key} must be a positive integer, got {value!r}")
        if self.horizon < self.omega:
            raise ValueError("horizon must cover at least one beam period")
        if self.tracker not in TRACKERS:
            raise ValueError(f"unknown tracker {self.tracker!r}")
        if self.beam_scheme not in BEAM_SCHEMES:
            raise ValueError(f"unknown beam scheme {self.beam_scheme!r}")
        if self.beam_scheme == "dft1" and self.omega % 2:
            raise ValueError(f"beam scheme 'dft1' needs an even omega, got {self.omega}")
        if self.combiner_mode not in COMBINER_MODES:
            raise ValueError(f"unknown combiner_mode {self.combiner_mode!r}")
        if not self.tx_powers_dbm:
            raise ValueError("tx_powers_dbm needs at least one transmit power")


@dataclass(frozen=True)
class TrialRecord:
    """One row of the results CSV: the fields, in order, are its columns."""

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


CSV_COLUMNS = tuple(typing.get_type_hints(TrialRecord))


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


def make_tracker(scenario: Scenario, rng):
    """The tracker the scenario names. The manifold baseline is the proposed
    EKF sounding through the array-manifold combiner with the acceleration
    estimator disabled; its update equations are unchanged."""
    if scenario.tracker == "feedback":
        return FeedbackTracker(scenario.motion, scenario.t0, scenario.feedback_period)
    baseline = scenario.tracker == "manifold-baseline"
    return Tracker(
        scenario.geometry,
        scenario.array,
        scenario.motion,
        scenario.t0,
        scenario.sigma_eps,
        rng,
        combiner_mode="manifold" if baseline else scenario.combiner_mode,
        estimate_accel=not baseline,
        accel_min_step=scenario.accel_min_step,
        alpha_thres=scenario.alpha_thres,
    )


def simulate_tracking_trial(
    scenario: Scenario, rng: np.random.Generator
) -> tuple[StateBelief, list[TrackStep]]:
    """Run the tracking loop over one simulated trajectory.

    Per step: advance the truth, draw fading, design the combiner, take the
    sounding sample, update the belief, and (for the proposed tracker) refresh
    the acceleration estimate. Returns the tracker's initial belief and the
    per-step log.
    """
    tracker = make_tracker(scenario, rng)
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


def _assign_beams(
    scenario: Scenario,
    steps: list[TrackStep],
    book: Codebook | None,
    rng: np.random.Generator,
    initial_belief: StateBelief,
):
    """Choose the downlink beamformer at each switching instant and map it
    onto the steps it serves. Returns per-step (index, vector) or None."""
    scheme = scenario.beam_scheme
    if scheme == "none":
        return [None] * len(steps)
    h = scenario.geometry.rsu_height_m
    num_antennas = scenario.array.num_antennas
    assignments: list[tuple[int, np.ndarray] | None] = [None] * len(steps)
    for tau in range(0, len(steps), scenario.omega):
        belief = initial_belief if tau == 0 else steps[tau - 1].belief
        alpha_hat = None if tau == 0 else steps[tau - 1].alpha_applied
        span = range(tau, min(tau + scenario.omega, len(steps)))
        if scheme == "codebook":
            preds = selector_mod.extrapolate(
                belief, scenario.motion, alpha_hat, scenario.omega
            )
            dirs = [selector_mod.direction_distribution(mean, cov, h) for mean, cov in preds]
            ideal = selector_mod.ideal_bp(dirs, num_antennas, book.grid_size)
            q_hat, word = selector_mod.select(book, ideal)
            choice = (q_hat, word.u)
        elif scheme == "random":
            q_hat = int(rng.integers(0, book.size)) + 1
            choice = (q_hat, book.codewords[q_hat - 1].u)
        else:
            if scheme == "dft1":
                psi = selector_mod.dft_midpoint_direction(
                    belief, scenario.motion, scenario.omega, h, alpha_hat
                )
            else:
                psi = g_of_state(belief.mean, h)
            index, codeword = selector_mod.dft_beam(psi, num_antennas)
            choice = (index + 1, codeword)
        for idx in span:
            assignments[idx] = choice
    return assignments


def run_trial(
    scenario: Scenario,
    trial_idx: int,
    book: Codebook | None = None,
) -> list[TrialRecord]:
    """One independent trial: tracking plus periodic beam selection."""
    if book is None:
        book = resolve_codebook(scenario)
    rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, trial_idx]))
    initial_belief, steps = simulate_tracking_trial(scenario, rng)
    assignments = _assign_beams(scenario, steps, book, rng, initial_belief)

    array = scenario.array
    h = scenario.geometry.rsu_height_m
    records: list[TrialRecord] = []
    for st, beam in zip(steps, assignments):
        gain = rate = None
        beam_index = None
        if beam is not None:
            beam_index, c_vec = beam
            psi_true, rho = vehicle_link(array, st.truth.x, st.truth.y, h)
            hvec = channel_vector(st.beta, psi_true, array.num_antennas)
            power = abs(np.vdot(hvec, c_vec)) ** 2
            norm2 = float(np.real(np.vdot(hvec, hvec)))
            gain = power / norm2 if norm2 > 0 else 0.0
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


def _init_worker(scenario: Scenario, book: Codebook | None):
    single_blas_thread()
    _WORKER_STATE["args"] = (scenario, book)


def _worker_trial(trial_idx: int) -> list[TrialRecord]:
    scenario, book = _WORKER_STATE["args"]
    return run_trial(scenario, trial_idx, book=book)


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
    workers = default_workers() if workers is None else workers
    results = []
    for power in scenario.tx_powers_dbm:
        at_power = replace(
            scenario, array=replace(scenario.array, tx_power_mw=dbm_to_mw(power))
        )
        if workers > 1 and scenario.trials > 1:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(at_power, book),
            ) as pool:
                per_trial = list(
                    pool.map(_worker_trial, range(scenario.trials), chunksize=8)
                )
        else:
            per_trial = [run_trial(at_power, t, book=book) for t in range(scenario.trials)]
        records = [r for trial in per_trial for r in trial]
        label = f"{scenario.name}@{power:g}dBm"
        summary = summarize(records, label, power, scenario.horizon)
        results.append(
            ExperimentResult(tx_power_dbm=power, records=records, summary=summary)
        )
    return results


def records_to_csv(records: list[TrialRecord]) -> str:
    """Results CSV: csv.writer leaves None cells empty and writes every float
    in its shortest round-trip form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(operator.attrgetter(*CSV_COLUMNS), records))
    return buf.getvalue()


def _column_rules():
    """(column, parse, optional) per results-CSV column, from TrialRecord's
    field types: `float | None` parses as float and may be empty."""
    for name, hint in typing.get_type_hints(TrialRecord).items():
        kinds = typing.get_args(hint) or (hint,)
        parse = next(k for k in kinds if k is not type(None))
        yield name, parse, type(None) in kinds


_COLUMN_RULES = tuple(_column_rules())


def records_from_csv(text: str) -> list[TrialRecord]:
    """Parse a results CSV (see records_to_csv); columns may come in any order
    and extra columns are ignored."""
    reader = csv.DictReader(io.StringIO(text))
    missing = set(CSV_COLUMNS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"results CSV missing columns: {sorted(missing)}")
    records = []
    for row in reader:
        values = []
        for name, parse, optional in _COLUMN_RULES:
            cell = row[name]
            if not cell and optional:
                values.append(None)
                continue
            try:
                values.append(parse(cell))
                if name == "step" and values[-1] < 1:
                    raise ValueError("steps count from 1")
            except (TypeError, ValueError):
                raise ValueError(
                    f"results CSV line {reader.line_num}: bad {name} cell {cell!r}"
                ) from None
        records.append(TrialRecord(*values))
    return records


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
            writer.writerow([metric, s.scenario, value])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Scenario (de)serialization. The JSON uses field units (km/h, dBm, GHz, ms);
# everything becomes SI / linear at load time.
# ---------------------------------------------------------------------------

_ABSENT = object()


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _kind(what: str, accepts, convert=lambda value: value):
    """A kind of scenario value: convert(value) for a value it accepts, else a
    TypeError that says what the key takes."""

    def read(value):
        if not accepts(value):
            raise TypeError(f"must be {what}")
        return convert(value)

    return read


_integer = _kind("an integer", _is_integer, int)
_count = _kind("a non-negative integer", lambda value: _is_integer(value) and value >= 0, int)
_number = _kind("a number", _is_number, float)
_nonnegative = _kind("a non-negative number",
                     lambda value: _is_number(value) and value >= 0, float)
_positive = _kind("a positive number", lambda value: _is_number(value) and value > 0, float)
_boolean = _kind("true or false", lambda value: isinstance(value, bool))
_string = _kind("a string", lambda value: isinstance(value, str))
_integers = _kind("a list of integers",
                  lambda value: isinstance(value, list) and all(map(_is_integer, value)),
                  tuple)
_range = _kind("a [lower, upper] pair of numbers",
               lambda value: _is_numbers(value) and len(value) == 2,
               lambda value: tuple(map(float, value)))
_powers = _kind("a number or a non-empty list of numbers",
                lambda value: _is_number(value) or (_is_numbers(value) and len(value) > 0),
                lambda value: tuple(map(float, value if isinstance(value, list) else [value])))


class _Section:
    """One object of a scenario document, consumed key by key: take() pops a
    key, and done() rejects every key no take() asked for, so a misspelt key
    fails instead of falling back to its default."""

    def __init__(self, part, where: str):
        if not isinstance(part, dict):
            raise ValueError(f"scenario {where} must be an object")
        self.left = dict(part)
        self.where = where

    def take(self, key: str, kind, default=_ABSENT, nullable: bool = False):
        """kind(value) of the key; default when the key is absent, or null and
        nullable. A value kind rejects is a ValueError that names the key."""
        value = self.left.pop(key, _ABSENT)
        if value is _ABSENT or (nullable and value is None):
            if default is _ABSENT:
                raise ValueError(f"scenario key {key!r} is required")
            return default
        try:
            return kind(value)
        except TypeError as exc:
            raise ValueError(f"scenario key {key!r} = {value!r}: {exc}") from None

    def section(self, key: str, required: bool = False) -> _Section:
        part = self.take(key, lambda value: value, _ABSENT if required else {})
        return _Section(part, f"section {key!r}")

    def done(self) -> None:
        if self.left:
            raise ValueError(
                f"unknown scenario keys at {self.where}: {', '.join(sorted(self.left))}"
            )


def scenario_from_dict(doc: dict) -> Scenario:
    top = _Section(doc, "top level")
    geo = top.section("geometry", required=True)
    range_lb_m, range_ub_m = geo.take("range_m", _range, (-75.0, 75.0))
    geometry = RoadGeometry(
        rsu_height_m=geo.take("rsu_height_m", _number, 7.5),
        lane_offset_m=geo.take("lane_offset_m", _number, 8.5),
        range_lb_m=range_lb_m,
        range_ub_m=range_ub_m,
    )
    arr = top.section("array", required=True)
    bandwidth_hz = arr.take("bandwidth_mhz", _positive, 20.0) * 1e6
    thermal_noise_dbm = -174.0 + 10.0 * math.log10(bandwidth_hz)
    tx_powers_dbm = arr.take("tx_power_dbm", _powers, (10.0,))
    array = ArrayConfig(
        num_antennas=arr.take("num_antennas", _integer),
        num_rf_chains=arr.take("num_rf_chains", _integer, 4),
        wavelength_m=carrier_to_wavelength(arr.take("carrier_ghz", _positive, 28.0) * 1e9),
        pathloss_exponent=arr.take("pathloss_exponent", _positive, 2.0),
        noise_power_mw=dbm_to_mw(
            arr.take("noise_power_dbm", _number, thermal_noise_dbm, nullable=True)
        ),
        tx_power_mw=dbm_to_mw(tx_powers_dbm[0]),
    )
    init = top.section("initial_state")
    v0 = kmh_to_ms(init.take("speed_kmh", _nonnegative, 70.0))
    t0 = StateVector(
        x=init.take("x_m", _number, -50.0),
        y=init.take("y_m", _number, geometry.lane_offset_m),
        v=v0,
    )
    mot = top.section("motion")
    motion = MotionModel(
        ts=mot.take("ts_ms", _number, 10.0) / 1e3,
        steering_angle=mot.take("steering_angle_rad", _number, math.pi / 2**7),
        # follows the reference setup: 0.1 * (v0_kmh * 1000 / 3600)
        sigma_alpha=mot.take("sigma_alpha", _number, 0.1 * v0, nullable=True),
        sigma_omega=mot.take("sigma_omega", _number, 10.0**-1.5),
    )
    fad = top.section("fading")
    fading = RicianConfig(
        k_factor_db=fad.take("k_factor_db", _number, 13.0),
        block_length=fad.take("block_length", _integer, 1),
    )
    trk = top.section("tracking")
    beam = top.section("beam")
    fields = dict(
        name=top.take("name", _string, "scenario"),
        sigma_eps=top.take("sigma_eps", _number, 0.0),
        omega=top.take("omega", _integer, 10),
        trials=top.take("trials", _integer, 1),
        horizon=top.take("horizon", _integer, 100),
        seed=top.take("seed", _count, 0),
        noise_free=top.take("noise_free", _boolean, False),
        coherence_steps=mot.take("coherence_steps", _integer, None, nullable=True),
        tracker=trk.take("tracker", _string, "proposed"),
        combiner_mode=trk.take("combiner_mode", _string, "optimal"),
        feedback_period=trk.take("feedback_period", _integer, 5),
        accel_min_step=trk.take("accel_min_step", _integer, 10),
        alpha_thres=trk.take("alpha_thres", _number, 0.03),
        beam_scheme=beam.take("scheme", _string, "none"),
        codebook_path=beam.take("codebook_path", _string, None, nullable=True),
        codebook_codewords=beam.take("codewords", _integers, None, nullable=True),
    )
    for part in (top, geo, arr, init, mot, fad, trk, beam):
        part.done()
    return Scenario(geometry=geometry, array=array, motion=motion, t0=t0, fading=fading,
                    tx_powers_dbm=tx_powers_dbm, **fields)


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
