"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its criterion at the stated tolerance.  Reference measurement
values for the noise-budget criteria come from the benchmark experiment the
closed forms are checked against:

* twin-beam run: detected means 7.225e6 / 7.212e6 photons, 14 temporal
  modes, nominal efficiency 0.67, measured difference variance 2.124e11;
* split-thermal run: detected means 2.22e8, 15 modes, nominal efficiency
  0.71, measured difference variance 4.097e13.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from photocorr import (
    EfficiencyPair,
    SimulationConfig,
    SourceSpec,
    correlation_coefficient,
    correlation_function,
    difference_analytic,
    difference_from_joint,
    difference_variance,
    fit_multithermal,
    imbalance_bounds,
    measured_difference_variance,
    multimode_convolve,
    sample_series,
    solve_pump_noise,
    source_joint,
    thin_joint,
    twin_beam_joint,
    variance_threshold,
)

N_GRID = (0.5, 1.0, 2.0)
ETA_GRID = (0.3, 0.5, 0.67, 0.9)
SOURCES = ("twin_beam", "coherent_pair", "split_thermal")

TWB_RUN = dict(sigma2=2.124e11, m1=7.225e6, m2=7.212e6, mu=14, eta=0.67)
THERMAL_RUN = dict(sigma2=4.097e13, m1=2.22e8, m2=2.22e8, mu=15, eta=0.71)


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def oracle_difference(kind, n_mean, eta1, eta2):
    joint = source_joint(SourceSpec(kind, n_mean), tail_tol=1e-13)
    return difference_from_joint(thin_joint(joint, EfficiencyPair(eta1, eta2)))


def total_variation(dd_a, dd_b):
    lo = min(dd_a.support[0], dd_b.support[0])
    hi = max(dd_a.support[1], dd_b.support[1])
    return 0.5 * sum(abs(dd_a.prob(d) - dd_b.prob(d)) for d in range(lo, hi + 1))


def corr_and_se(a, b):
    za = (a - a.mean()) / a.std()
    zb = (b - b.mean()) / b.std()
    r = float((za * zb).mean())
    psi = za * zb - 0.5 * r * (za**2 + zb**2)
    return r, float(psi.std() / math.sqrt(len(a)))


def var_and_se(x):
    c = x - x.mean()
    v = float((c**2).mean())
    m4 = float((c**4).mean())
    return v, float(math.sqrt(max(m4 - v**2, 0.0) / len(x)))


def test_criterion_01_analytic_difference_matches_joint_oracle():
    worst = 0.0
    for kind in SOURCES:
        for n_mean in N_GRID:
            for eta1 in ETA_GRID:
                for eta2 in ETA_GRID:
                    analytic = difference_analytic(SourceSpec(kind, n_mean),
                                                   EfficiencyPair(eta1, eta2))
                    oracle = oracle_difference(kind, n_mean, eta1, eta2)
                    worst = max(worst, total_variation(analytic, oracle))
    report(1, "analytic p(d) vs thinned-joint oracle", worst <= 1e-8,
           f"max TV {worst:.2e} over {3 * len(N_GRID) * len(ETA_GRID)**2} cells")


def test_criterion_02_variance_closed_forms():
    worst = 0.0
    for kind in SOURCES:
        for n_mean in N_GRID:
            for eta1 in ETA_GRID:
                for eta2 in ETA_GRID:
                    got = oracle_difference(kind, n_mean, eta1, eta2).variance()
                    want = difference_variance(SourceSpec(kind, n_mean),
                                               EfficiencyPair(eta1, eta2)).sigma2_d
                    if want > 0.0:
                        worst = max(worst, abs(got - want) / want)
    exact = True
    for eta in ETA_GRID:
        for n_mean in N_GRID:
            eff = EfficiencyPair(eta, eta)
            alpha = difference_variance(SourceSpec.coherent_pair(n_mean), eff).sigma2_d
            nu = difference_variance(SourceSpec.split_thermal(n_mean), eff).sigma2_d
            twb = difference_variance(SourceSpec.twin_beam(n_mean), eff).sigma2_d
            exact &= alpha == nu
            exact &= twb == 2.0 * eta * (1.0 - eta) * n_mean
    report(2, "sigma2(d) closed forms", worst <= 1e-6 and exact,
           f"max rel dev {worst:.2e}; balanced identities exact: {exact}")


def test_criterion_03_threshold():
    exact_rational = (2 * Fraction(1, 2) * Fraction(7, 10)
                      / (Fraction(1, 2) - Fraction(7, 10)) ** 2) == Fraction(35, 2)
    thr = variance_threshold(EfficiencyPair(0.5, 0.7))
    float_ok = abs(thr - 17.5) <= 4 * math.ulp(17.5)
    eff = EfficiencyPair(0.5, 0.7)
    s_twb = difference_variance(SourceSpec.twin_beam(thr), eff).sigma2_d
    s_coh = difference_variance(SourceSpec.coherent_pair(thr), eff).sigma2_d
    crossing = abs(s_twb - s_coh) <= 1e-10 * s_coh
    report(3, "threshold N for eta (0.5, 0.7)",
           exact_rational and float_ok and crossing,
           f"threshold {thr!r}, crossing rel dev {abs(s_twb - s_coh) / s_coh:.2e}")


def test_criterion_04_bright_beam_reference_variances():
    checks = []
    eta, m = 0.67, 7.22e6
    n = m / eta
    eff = EfficiencyPair(eta, eta)
    alpha = difference_variance(SourceSpec.coherent_pair(n), eff).sigma2_d
    twb = difference_variance(SourceSpec.twin_beam(n), eff).sigma2_d
    checks.append(abs(alpha - 1.444e7) / 1.444e7 <= 0.005)
    checks.append(abs(twb - 4.77e6) / 4.77e6 <= 0.005)
    eta, m = 0.71, 2.22e8
    n = m / eta
    eff = EfficiencyPair(eta, eta)
    alpha = difference_variance(SourceSpec.coherent_pair(n), eff).sigma2_d
    nu = difference_variance(SourceSpec.split_thermal(n), eff).sigma2_d
    checks.append(nu == alpha)
    checks.append(abs(nu - 4.446e8) / 4.446e8 <= 0.005)
    report(4, "bright-beam shot-noise numbers", all(checks),
           f"checks {checks}")


def test_criterion_05_monte_carlo_consistency():
    failures = []
    seed = 2024
    for kind in SOURCES:
        for n_mean in (1.0, 10.0):
            for mu in (1, 3):
                seed += 1
                src = SourceSpec(kind, n_mean, mu)
                eff = EfficiencyPair(0.6, 0.7)
                s = sample_series(SimulationConfig(src, eff, shots=100000, seed=seed))
                d = s.ch1.astype(float) - s.ch2
                v, v_se = var_and_se(d)
                want_v = difference_variance(src, eff).sigma2_d
                if abs(v - want_v) > 3 * v_se:
                    failures.append(f"{kind} N={n_mean} mu={mu} sigma2")
                r, r_se = corr_and_se(s.ch1.astype(float), s.ch2.astype(float))
                want_r = correlation_coefficient(src, eff)
                if abs(r - want_r) > 3 * max(r_se, 1e-6):
                    failures.append(f"{kind} N={n_mean} mu={mu} eps")
                if abs(correlation_function(s, 1)) > 3.0 / math.sqrt(len(s)):
                    failures.append(f"{kind} N={n_mean} mu={mu} lag1")
    report(5, "Monte Carlo vs analytic (K=1e5)", not failures,
           "; ".join(failures) if failures else "12 configs, 36 checks")


def test_criterion_06_multimode_equivalence():
    joint = thin_joint(twin_beam_joint(1.0, cutoff=10), EfficiencyPair(0.5, 0.7))
    c = joint.cutoff
    conv = multimode_convolve(joint, 2, tail_tol=1e-15)
    want_joint = np.zeros((2 * c + 1, 2 * c + 1))
    want_diff = {}
    for q1 in range(c + 1):
        for r1 in range(c + 1):
            p1 = joint.probs[q1, r1]
            if p1 == 0.0:
                continue
            for q2 in range(c + 1):
                for r2 in range(c + 1):
                    p = p1 * joint.probs[q2, r2]
                    want_joint[q1 + q2, r1 + r2] += p
                    dd = (q1 + q2) - (r1 + r2)
                    want_diff[dd] = want_diff.get(dd, 0.0) + p
    tv_joint = 0.5 * np.abs(
        conv.probs - want_joint[: conv.cutoff + 1, : conv.cutoff + 1]).sum()
    two_mode = difference_from_joint(conv)
    tv_diff = 0.5 * sum(abs(two_mode.prob(d) - want_diff.get(d, 0.0))
                        for d in range(-2 * c, 2 * c + 1))
    ok = tv_joint <= 1e-9 and tv_diff <= 1e-9
    report(6, "mu=2 convolution vs nested sums", ok,
           f"TV joint {tv_joint:.2e}, TV difference {tv_diff:.2e}")


def test_criterion_07_multithermal_fit_recovery():
    hits = {14: 0, 15: 0}
    for mu in (14, 15):
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(1000 + 31 * mu + seed))
            v = rng.gamma(mu, 1.0 / mu, 100000)
            fit = fit_multithermal(v)
            if fit.mu_hat == mu and abs(fit.v_mean_hat - 1.0) <= 0.01:
                hits[mu] += 1
    ok = hits[14] >= 19 and hits[15] >= 19
    report(7, "multithermal fit recovery over 20 seeds", ok,
           f"mu=14: {hits[14]}/20, mu=15: {hits[15]}/20")


def test_criterion_08_imbalance_inversion():
    lo_x, hi_x = imbalance_bounds(TWB_RUN["sigma2"], TWB_RUN["m1"], TWB_RUN["m2"],
                                  TWB_RUN["mu"], TWB_RUN["eta"])
    lo_t, hi_t = imbalance_bounds(THERMAL_RUN["sigma2"], THERMAL_RUN["m1"],
                                  THERMAL_RUN["m2"], THERMAL_RUN["mu"],
                                  THERMAL_RUN["eta"], kind="split_thermal")
    ok = 0.12 <= lo_x <= hi_x <= 0.22 and 0.05 <= lo_t <= hi_t <= 0.12
    report(8, "efficiency-imbalance intervals", ok,
           f"twb [{lo_x:.3f}, {hi_x:.3f}] in [0.12, 0.22]; "
           f"thermal [{lo_t:.3f}, {hi_t:.3f}] in [0.05, 0.12]")


def test_criterion_09_pump_noise_inversion():
    fit = solve_pump_noise(TWB_RUN["sigma2"], TWB_RUN["eta"], TWB_RUN["eta"],
                           TWB_RUN["m1"], TWB_RUN["m2"], TWB_RUN["mu"])
    round_trip = abs(fit.predicted_sigma2() - TWB_RUN["sigma2"]) / TWB_RUN["sigma2"]
    ok = round_trip <= 1e-10 and 0.01 <= fit.x <= 0.04
    report(9, "pump-noise inversion", ok,
           f"solved x {fit.x:.4f} in [0.01, 0.04] (reference 0.0224), "
           f"round trip {round_trip:.1e}")


def test_criterion_10_end_to_end_recovery():
    eta1, eta2, x_true, n_mean, mu = 0.6, 0.7, 0.02, 1000.0, 14
    hits_x = hits_imb = 0
    for seed in range(20):
        s = sample_series(SimulationConfig(SourceSpec.twin_beam(n_mean, mu),
                                           EfficiencyPair(eta1, eta2),
                                           shots=100000, seed=3000 + seed,
                                           pump_x=x_true))
        sigma2 = measured_difference_variance(s)
        m1, m2 = float(s.ch1.mean()), float(s.ch2.mean())
        fit = solve_pump_noise(sigma2, eta1, eta2, m1, m2, mu)
        if abs(fit.x - x_true) <= 0.1 * x_true:
            hits_x += 1
        lo, hi = imbalance_bounds(fit.base_sigma2, m1, m2, mu, 0.5 * (eta1 + eta2))
        if lo <= abs(eta1 - eta2) <= hi:
            hits_imb += 1
    ok = hits_x >= 19 and hits_imb >= 19
    report(10, "end-to-end simulate-then-analyze", ok,
           f"x within 10%: {hits_x}/20, imbalance interval hit: {hits_imb}/20")
