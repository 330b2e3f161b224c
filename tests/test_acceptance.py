"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] PASS in X s` line (visible with -s or -v)
and enforces its runtime budget. Heavy artifacts (codebooks) are built once
and shared across criteria.

Run with: pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from v2ibeam import harness
from v2ibeam.array_channel import RoadGeometry, array_response, channel_vector
from v2ibeam.codebook import (
    build_codebook,
    geo_to_spatial,
    integrate_bp,
    narrowing_threshold,
)
from v2ibeam.ekf import StateBelief, g_of_state, jacobian, update
from v2ibeam.motion import MotionModel, long_term
from v2ibeam.sounding import (
    dft_manifold_combiner,
    optimal_combiner,
    sound_uplink,
)
from v2ibeam.accel import estimate_alpha

GEOM = RoadGeometry(7.5, 8.5, -75.0, 75.0)
K_OFF = math.sqrt(8.5**2 + 7.5**2)

_BOOK_CACHE = {}


def shared_codebook(m, codewords):
    key = (m, tuple(codewords) if isinstance(codewords, list) else (codewords,))
    if key not in _BOOK_CACHE:
        _BOOK_CACHE[key] = build_codebook(GEOM, 8.5, m, 4, codewords, seed=1)
    return _BOOK_CACHE[key]


class budget:
    """Context manager asserting the runtime budget and printing the verdict."""

    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.criterion}] {verdict} in {elapsed:.1f} s "
              f"(budget {self.seconds} s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget"
            )
        return False


def lifted_channel_at(state, beta, m, h):
    hh = beta * array_response(m, g_of_state(state, h))
    return np.concatenate([hh.real, hh.imag])


def test_criterion_1_jacobian_against_finite_differences():
    with budget(1, 10):
        rng = np.random.default_rng(101)
        h, ts, phi = 7.5, 0.01, math.pi / 2**7
        step = 1e-5
        for m in (8, 64):
            for _ in range(100):
                state = np.array([
                    rng.uniform(-70, 70), rng.uniform(2, 15), rng.uniform(5, 30)
                ])
                beta = complex(rng.standard_normal(), rng.standard_normal())
                _, _, h_dot, grad = jacobian(state, beta, m, h, ts, phi)
                D = np.outer(h_dot, grad)
                d_lift = np.vstack([D.real, D.imag])
                fd = np.zeros_like(d_lift)
                for axis in range(2):
                    hi = state.copy(); hi[axis] += step
                    lo = state.copy(); lo[axis] -= step
                    fd[:, axis] = (
                        lifted_channel_at(hi, beta, m, h)
                        - lifted_channel_at(lo, beta, m, h)
                    ) / (2 * step)
                # the printed gradient uses dx/dv ~ Ts cos(phi) for the v column
                fd[:, 2] = fd[:, 0] * ts * math.cos(phi)
                rel = np.max(np.abs(fd - d_lift)) / np.max(np.abs(d_lift))
                assert rel <= 1e-4


def test_criterion_2_combiner_maximizes_rayleigh_quotient():
    with budget(2, 30):
        rng = np.random.default_rng(202)
        for _ in range(50):
            m = int(rng.choice([8, 16, 32]))
            state = np.array([
                rng.uniform(-70, 70), rng.uniform(2, 15), rng.uniform(5, 30)
            ])
            beta = complex(rng.standard_normal(), rng.standard_normal())
            _, _, h_dot, grad = jacobian(state, beta, m, 7.5, 0.01, 0.1)
            d = np.outer(h_dot, grad)
            base = rng.standard_normal((3, 3))
            q = base @ base.T + 10 ** rng.uniform(-4, 0) * np.eye(3)
            rho = 10 ** rng.uniform(-1.5, 2.5)
            z = optimal_combiner(h_dot, grad, q).z
            dq = d @ q
            s_num = dq @ q @ d.conj().T
            s_den = dq @ d.conj().T + np.eye(m) / rho
            best = float(
                np.real(z.conj() @ s_num @ z) / np.real(z.conj() @ s_den @ z)
            )
            cand = rng.standard_normal((10000, m)) + 1j * rng.standard_normal((10000, m))
            nums = np.real(np.einsum("ij,jk,ik->i", cand.conj(), s_num, cand))
            dens = np.real(np.einsum("ij,jk,ik->i", cand.conj(), s_den, cand))
            assert float(np.max(nums / dens)) <= best * (1 + 1e-9)


def test_criterion_3_mvu_estimator_bias_and_crlb():
    with budget(3, 20):
        model = MotionModel(ts=0.01, steering_angle=math.pi / 2**7,
                            sigma_alpha=1.94, sigma_omega=10**-1.5)
        lt = long_term(model, 80)
        rng = np.random.default_rng(303)
        base = rng.standard_normal((3, 3))
        q = 0.01 * (base @ base.T) + 0.002 * np.eye(3)
        s = lt.c_cov + q
        chol = np.linalg.cholesky(s)
        alpha = 1.3
        n = 10000
        draws = lt.b_acc * alpha + (chol @ rng.standard_normal((3, n))).T
        estimates = np.array(
            [estimate_alpha(t, lt.b_acc, lt.c_cov, q).alpha_hat for t in draws]
        )
        crlb = estimate_alpha(draws[0], lt.b_acc, lt.c_cov, q).crlb
        assert abs(float(np.mean(estimates)) - alpha) <= 3.0 * math.sqrt(crlb / n)
        assert abs(float(np.var(estimates)) - crlb) <= 0.05 * crlb


@pytest.mark.parametrize("m,codewords", [(64, 64), (96, 48), (96, [48, 96])])
def test_criterion_4_codebook_invariants(m, codewords):
    with budget(f"4 (M={m}, Q={codewords})", 300):
        book = shared_codebook(m, codewords)
        target = 2 * math.pi / m
        nu_ub = geo_to_spatial(75.0, K_OFF)
        for sl in book.resolution_slices():
            words = book.codewords[sl]
            assert words[0].region.nu_lb == -nu_ub
            assert abs(words[-1].region.nu_ub - nu_ub) == 0.0
            for left, right in zip(words, words[1:]):
                assert left.region.nu_ub == right.region.nu_lb
        for word in book.codewords:
            mass = integrate_bp(word.bp_samples)
            assert abs(mass - target) / target <= 1e-3
            assert float(word.bp_samples.max()) <= 1.0 + 1e-6
            assert abs(np.linalg.norm(word.u) - 1.0) <= 1e-9


def test_criterion_5_narrowing_threshold_validation():
    with budget(5, 5):
        assert narrowing_threshold(GEOM, 8.5, 64) == pytest.approx(
            math.sqrt(150 * (150 + K_OFF * 64)) / 2, rel=1e-14
        )
        for q in (32, 64):
            x_star = narrowing_threshold(GEOM, 8.5, q)
            nu_slice = 2 * geo_to_spatial(75.0, K_OFF) / q
            rho_slice = 150.0 / q
            # sufficient condition: beyond x* every equal slice converts narrow
            for p in np.linspace(x_star * 1.0001, 4 * x_star, 200):
                width = geo_to_spatial(p + rho_slice / 2, K_OFF) - geo_to_spatial(
                    p - rho_slice / 2, K_OFF
                )
                assert nu_slice / width > 1.0
            # exact transform confirms the trend inside the asymptotic regime
            edges = np.arange(-75.0, 75.0 - 1e-9, rho_slice)
            checked = 0
            for lb in edges:
                mid = lb + rho_slice / 2
                if abs(mid) <= 3 * K_OFF:
                    continue
                width = geo_to_spatial(lb + rho_slice, K_OFF) - geo_to_spatial(lb, K_OFF)
                assert nu_slice / width > 1.0
                checked += 1
            assert checked > 0


def test_criterion_6_tracking_nmse_ordering():
    with budget(6, 600):
        for seed in (1, 2, 3):
            prop = dataclasses.replace(
                harness.bundled_scenario("nmse_m96"), seed=seed
            )
            results = harness.run_experiment(prop)
            xs = [r.summary.nmse_x for r in results]
            vs = [r.summary.nmse_v for r in results]
            assert xs[0] > xs[1] > xs[2], f"seed {seed}: NMSE_x not decreasing {xs}"
            assert vs[0] > vs[1] > vs[2], f"seed {seed}: NMSE_v not decreasing {vs}"

            ref = dataclasses.replace(
                harness.bundled_scenario("nmse_m96_baseline"),
                seed=seed, tx_powers_dbm=(20.0,),
            )
            ref_s = harness.run_experiment(ref)[0].summary
            assert xs[2] <= ref_s.nmse_x, (
                f"seed {seed}: proposed {xs[2]} vs baseline {ref_s.nmse_x}"
            )

            fb = dataclasses.replace(
                harness.bundled_scenario("nmse_m96_feedback"),
                seed=seed, tx_powers_dbm=(20.0,),
            )
            fb_s = harness.run_experiment(fb)[0].summary
            assert fb_s.nmse_x <= xs[2]


def test_criterion_7_beamforming_gain_ordering():
    with budget(7, 600):
        book = shared_codebook(64, 64)
        summaries = {}
        for name in ("gain_m64", "gain_m64_dft2", "gain_m64_random"):
            scenario = harness.bundled_scenario(name)
            needs_book = scenario.beam_scheme in ("codebook", "random")
            res = harness.run_experiment(scenario, book=book if needs_book else None)
            summaries[scenario.beam_scheme] = res[0].summary
        gains = {k: s.mean_gain for k, s in summaries.items()}
        rates = {k: s.mean_rate for k, s in summaries.items()}
        assert gains["codebook"] >= gains["dft2"] >= gains["random"], gains
        assert rates["codebook"] >= rates["dft2"] >= rates["random"], rates


def test_criterion_8_bitwise_determinism():
    with budget(8, 120):
        for name, overrides in [
            ("nmse_m96", dict(trials=3, horizon=60, tx_powers_dbm=(10.0,))),
            ("gain_m64_dft2", dict(trials=3, horizon=40)),
        ]:
            scenario = dataclasses.replace(harness.bundled_scenario(name), **overrides)
            runs = []
            for workers in (1, 2):
                res = harness.run_experiment(scenario, workers=workers)
                runs.append(harness.records_to_csv(res[0].records))
            assert runs[0] == runs[1]
            again = harness.run_experiment(scenario, workers=2)
            assert harness.records_to_csv(again[0].records) == runs[0]


def test_criterion_9_ekf_sanity():
    with budget(9, 120):
        # zero-innovation fixed point is bit-exact
        m, h = 32, 7.5
        state = np.array([-37.0, 8.5, 21.0])
        belief = StateBelief(mean=state, cov=0.02 * np.eye(3))
        beta = 0.7 - 0.4j
        comb = dft_manifold_combiner(g_of_state(state, h), m)
        obs = sound_uplink(None, comb, channel_vector(beta, g_of_state(state, h), m), 8.0)
        _, h_pred, h_dot, grad = jacobian(state, beta, m, h, 0.01, 0.1)
        updated = update(belief, obs, h_pred, h_dot, grad)
        assert np.all(updated.mean == belief.mean)

        # covariance numerically PSD on every step of every bundled scenario
        for name in harness.bundled_scenario_names():
            scenario = dataclasses.replace(
                harness.bundled_scenario(name), trials=1
            )
            rng = np.random.default_rng(np.random.SeedSequence([scenario.seed, 0]))
            _, steps = harness.simulate_tracking_trial(scenario, rng)
            for st in steps:
                cov = st.belief.cov
                assert np.max(np.abs(cov - cov.T)) <= 1e-10
                assert float(np.linalg.eigvalsh(cov).min()) >= -1e-9, (
                    f"{name} step {st.step}"
                )
