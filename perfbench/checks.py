"""Output checks of the three workloads.

Every check compares a file the program wrote with a reference computed from
photocorr's own public functions, except the model of a simulated record
with pump noise, which the package has no function for; that model is
derived below from the simulator's documented construction and reduces to
the package's closed forms without pump noise.
A check returns (name, ok, detail); an exception inside it counts as a
failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from photocorr import (
    COHERENT_PAIR,
    SPLIT_THERMAL,
    TWIN_BEAM,
    EfficiencyPair,
    JointCountDistribution,
    SimulationConfig,
    SourceSpec,
    difference_from_joint,
    difference_variance,
    imbalance_bounds,
    sample_series,
    solve_pump_noise,
    source_joint,
    thin_joint,
    write_series,
)

KINDS = (TWIN_BEAM, COHERENT_PAIR, SPLIT_THERMAL)
TAIL_TOL = 1e-10         # photocorr's default tail tolerance per mode pair
TV_TOL = 1e-8            # p(d) against the thinned-joint oracle
VAR_RTOL = 1e-6          # variances against the closed forms
TABLE_RTOL = 1e-11       # values written with 12 significant digits
N_SIGMA = 6.0            # statistical bound on shot-record estimates


def run_checks(workload, out, configs, seed):
    checks = {"shots": _shots, "exact": _exact, "budget": _budget}[workload]
    results = []
    for name, fn in checks(Path(out), configs, seed):
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken output file fails its check, not the run
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def read_table(path):
    return np.loadtxt(path, skiprows=1, ndmin=2)


def total_variation(d1, p1, d2, p2):
    lo, hi = min(d1[0], d2[0]), max(d1[-1], d2[-1])
    a = np.zeros(hi - lo + 1)
    b = np.zeros(hi - lo + 1)
    a[d1 - lo] = p1
    b[d2 - lo] = p2
    return 0.5 * float(np.abs(a - b).sum())


def pd_variance(d, p):
    p = p / p.sum()
    mean = d @ p
    return float(((d - mean) ** 2) @ p)


def _rel(a, b):
    return abs(a - b) / abs(b) if b != 0 else abs(a)


# --- exact -----------------------------------------------------------------

def _exact(out, configs, seed):
    checks = []
    for name in ("analytic_mu1", "analytic_mu14"):
        cfg = configs[name]
        eff = EfficiencyPair(*cfg["eta"])
        for kind in KINDS:
            path = out / name / f"diff_{kind}.tsv"
            checks.append((f"{name}.{kind}.pd", lambda p=path, c=cfg, k=kind, e=eff:
                           _check_pd_table(p, c, k, e)))
    checks.append(("library.joint", lambda: _check_library(out / "library", configs["library"])))
    return checks


def _check_pd_table(path, cfg, kind, eff):
    tab = read_table(path)
    d, p = tab[:, 0].astype(np.int64), tab[:, 1]
    n, mu = cfg["n_mean"], cfg["mu"]
    # each mode pair may miss TAIL_TOL of its mass, and the convolution trims half of one more
    missing = abs(1.0 - p.sum())
    if missing > (mu + 1) * TAIL_TOL:
        return False, f"sum(p) misses {missing:.3g}"
    want = difference_variance(SourceSpec(kind, n, mu), eff).sigma2_d
    var_err = _rel(pd_variance(d, p), want)
    if var_err > VAR_RTOL:
        return False, f"variance off by {var_err:.3g} relative"
    detail = f"missing {missing:.2g}, variance error {var_err:.2g}"
    if mu == 1:
        ref = difference_from_joint(thin_joint(source_joint(SourceSpec(kind, n)), eff))
        tv = total_variation(d, p, ref.d_values, ref.probs)
        if tv > TV_TOL:
            return False, f"TV {tv:.3g} from the thinned-joint oracle"
        detail += f", TV {tv:.2g}"
    return True, detail


def _check_library(out, cfg):
    probs = np.load(out / "joint_multimode.npy")
    tail = json.loads((out / "joint_multimode.json").read_text())["tail_mass"]
    mu = cfg["mu"]
    if tail > (mu + 1) * TAIL_TOL:
        return False, f"tail mass {tail:.3g}"
    dd = difference_from_joint(JointCountDistribution(probs, tail))
    want = difference_variance(SourceSpec.twin_beam(cfg["n_mean"] * mu, mu),
                               EfficiencyPair(*cfg["eta"])).sigma2_d
    var_err = _rel(pd_variance(dd.d_values, dd.probs), want)
    if var_err > VAR_RTOL:
        return False, f"variance off by {var_err:.3g} relative"
    return True, f"tail {tail:.2g}, variance error {var_err:.2g}"


# --- budget ----------------------------------------------------------------

def _budget(out, configs, seed):
    checks = [(f"{name}.report", lambda n=name: _check_noise_budget(out / n, configs[n]))
              for name in ("budget_twin_beam", "budget_split_thermal")]
    checks.append(("sweep.tables", lambda: _check_sweep(out / "sweep", configs["sweep"])))
    return checks


def _check_noise_budget(out, cfg):
    rep = json.loads((out / "noise_budget.json").read_text())
    args = (cfg["sigma2_measured"], cfg["m1"], cfg["m2"], cfg["mu"])
    eta = cfg["eta_nominal"]
    x = solve_pump_noise(args[0], eta, eta, args[1], args[2], args[3], cfg["source"]).x
    interval = imbalance_bounds(*args, eta, cfg["source"])
    got = [rep["x_at_nominal"], *rep["imbalance_interval"]]
    want = [x, *interval]
    if not np.allclose(got, want, rtol=1e-12, atol=0.0):
        return False, f"x and interval {got} != {want}"
    return True, f"x {x:.6g}, interval ({interval[0]:.6g}, {interval[1]:.6g})"


def _check_sweep(out, cfg):
    eff = EfficiencyPair(*cfg["eta"])
    mu = cfg["mu"]
    n_grid = np.linspace(cfg["n_min"], cfg["n_max"], cfg["n_points"])
    eta_grid = np.linspace(0.05, 1.0, 20)   # the CLI's default efficiency grid
    n_ref = cfg["n_ref"]
    want_n = [[n] + [difference_variance(SourceSpec(k, float(n), mu), eff).sigma2_d
                     for k in (COHERENT_PAIR, TWIN_BEAM, SPLIT_THERMAL)] for n in n_grid]
    want_eta = [[e] + [difference_variance(SourceSpec(k, n_ref, mu),
                                           EfficiencyPair(float(e), float(e))).sigma2_d / n_ref
                       for k in (COHERENT_PAIR, TWIN_BEAM, SPLIT_THERMAL)] for e in eta_grid]
    for fname, want in (("sweep_n.tsv", want_n), ("sweep_eta.tsv", want_eta)):
        got = read_table(out / fname)
        if got.shape != (len(want), 4) or not np.allclose(got, want, rtol=TABLE_RTOL, atol=0.0):
            return False, f"{fname} differs from the closed forms"
    return True, f"{len(want_n)} + {len(want_eta)} rows"


# --- shots -----------------------------------------------------------------

def _shots(out, configs, seed):
    checks = []
    for tag, cfg in configs.items():
        csv = out / f"simulate_{tag}" / cfg["name"]
        checks.append((f"simulate_{tag}.digest", lambda c=csv, g=cfg: _check_digest(c, g, seed)))
        checks.append((f"analyze_{tag}.model",
                       lambda c=csv, g=cfg, t=tag: _check_analysis(c, out / f"analyze_{t}" / "analysis.json", g)))
        checks.append((f"fit_{tag}.report", lambda t=tag: _check_fit(out / f"fit_{t}" / "fit.json")))
    return checks


def simulation_config(cfg, seed):
    """The SimulationConfig that `photocorr simulate --seed` builds from cfg."""
    return SimulationConfig(
        source=SourceSpec(cfg["source"], float(cfg["n_mean"]), int(cfg["mu"])),
        eff=EfficiencyPair(*cfg["eta"]),
        shots=int(cfg["shots"]),
        seed=seed,
        pump_x=float(cfg.get("pump_x", 0.0)),
        volts=bool(cfg.get("volts", False)),
        conv=tuple(cfg.get("conv", (1.0, 1.0))),
        instrument_noise_var=tuple(cfg.get("instrument_noise_var", (0.0, 0.0))),
    )


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _check_digest(csv, cfg, seed):
    """The record is byte-identical to a second generation from the same seed."""
    ref = csv.parent.parent / "reference" / csv.name
    ref.parent.mkdir(exist_ok=True)
    write_series(sample_series(simulation_config(cfg, seed)), ref)
    got, want = _sha256(csv), _sha256(ref)
    return got == want, f"sha256 {got[:16]}"


def record_model(cfg):
    """(var(m1 - m2), correlation of m1 and m2) expected for a simulated record."""
    n_mean, mu, (e1, e2), x = cfg["n_mean"], cfg["mu"], cfg["eta"], cfg.get("pump_x", 0.0)
    n = n_mean / mu
    nodes, weights = np.polynomial.hermite_e.hermegauss(96)
    weights = weights / weights.sum()

    def scale_moments(sd, fn):
        # E[fn(u)], E[fn(u)^2] for a pump scale u ~ N(1, sd^2) truncated at zero
        f = fn(np.clip(1.0 + sd * nodes, 0.0, None))
        return float(weights @ f), float(weights @ (f * f))

    if cfg["source"] == TWIN_BEAM:
        # Per mode pair the photon numbers are comonotone geometric draws with
        # means a_j = sinh(G sqrt(u_j))^2, u_1 and u_2 independent.  Given the
        # means, Var n_j = a_j (1 + a_j) and Cov(n_1, n_2) = (a_1 + 1/2)(a_2 + 1/2) - 1/4,
        # exact for a_1 = a_2 and within O(1) otherwise, against a variance of O(a^2).
        g = math.asinh(math.sqrt(n))
        mom = [scale_moments(x / (e * math.sqrt(2.0)), lambda u: np.sinh(g * np.sqrt(u)) ** 2)
               if x > 0 else (n, n * n) for e in (e1, e2)]
        var_n = [a + 2.0 * a2 - a * a for a, a2 in mom]
        cov_n = (mom[0][0] + 0.5) * (mom[1][0] + 0.5) - 0.25
        mean_n = [a for a, _ in mom]
        var_m = [mu * (e * e * v + e * (1.0 - e) * m) for e, v, m in zip((e1, e2), var_n, mean_n)]
        cov_m = mu * e1 * e2 * cov_n
    elif cfg["source"] == SPLIT_THERMAL:
        # One pump scale u per shot, common to all modes and both beams, and a
        # total mean a = 2 n u per mode split at tau = 1/2.  Photon moments per
        # beam: mu (E[a^2]/4 + E[a]/2) + mu^2 Var(a)/4; covariance mu E[a^2]/4 + mu^2 Var(a)/4.
        u1, u2 = scale_moments(x * math.sqrt(2.0), lambda u: u) if x > 0 else (1.0, 1.0)
        ea, ea2 = 2.0 * n * u1, 4.0 * n * n * u2
        var_a = ea2 - ea * ea
        var_n = mu * (ea2 / 4.0 + ea / 2.0) + mu * mu * var_a / 4.0
        cov_n = mu * ea2 / 4.0 + mu * mu * var_a / 4.0
        mean_n = mu * ea / 2.0
        var_m = [e * e * var_n + e * (1.0 - e) * mean_n for e in (e1, e2)]
        cov_m = e1 * e2 * cov_n
    else:
        raise ValueError(f"no record model for {cfg['source']!r}")
    var_d = var_m[0] + var_m[1] - 2.0 * cov_m
    return var_d, cov_m / math.sqrt(var_m[0] * var_m[1])


def record_estimates(csv, cfg):
    """Noise-corrected var(d) and correlation of a record, with standard errors.

    The standard errors come from the influence functions of the two
    estimators, evaluated on the record itself.
    """
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    conv = cfg.get("conv", (1.0, 1.0)) if cfg.get("volts") else (1.0, 1.0)
    noise = cfg.get("instrument_noise_var", (0.0, 0.0))
    c1, c2 = data[:, 1] / conv[0], data[:, 2] / conv[1]
    nv1, nv2 = noise[0] / conv[0] ** 2, noise[1] / conv[1] ** 2
    k = len(c1)
    d = c1 - c2
    dc2 = (d - d.mean()) ** 2
    var_d = dc2.mean() - nv1 - nv2
    x1, x2 = c1 - c1.mean(), c2 - c2.mean()
    s11, s22, s12 = (x1 * x1).mean(), (x2 * x2).mean(), (x1 * x2).mean()
    a, b = s11 - nv1, s22 - nv2
    r = s12 / math.sqrt(a * b)
    infl = (x1 * x2 - s12) / math.sqrt(a * b) - 0.5 * r * ((x1 * x1 - s11) / a + (x2 * x2 - s22) / b)
    return var_d, dc2.std() / math.sqrt(k), r, infl.std() / math.sqrt(k), k


def _check_analysis(csv, report_path, cfg):
    rep = json.loads(report_path.read_text())
    var_d, var_se, r, r_se, k = record_estimates(csv, cfg)
    want_var, want_r = record_model(cfg)
    got_var, got_r = rep["sigma2_difference"], rep["correlation_noise_corrected"]
    problems = []
    if rep["shots"] != cfg["shots"]:
        problems.append(f"shots {rep['shots']}")
    if abs(got_var - want_var) > N_SIGMA * var_se:
        problems.append(f"sigma2(d) {got_var:.6g} vs model {want_var:.6g} +- {var_se:.2g}")
    if abs(got_r - want_r) > N_SIGMA * r_se:
        problems.append(f"correlation {got_r:.8g} vs model {want_r:.8g} +- {r_se:.2g}")
    # the report must hold the estimator's value for this record, not just a plausible one
    if not math.isclose(got_var, var_d, rel_tol=1e-9) or not math.isclose(got_r, r, rel_tol=1e-9):
        problems.append("report differs from the record it was computed from")
    for lag, gamma in rep["correlation_function"].items():
        if lag != "0" and abs(gamma) > N_SIGMA / math.sqrt(k):
            problems.append(f"lag {lag} correlation {gamma:.3g}")
    if any(f"multithermal_fit_channel{c}" not in rep for c in (1, 2)):
        problems.append("missing multithermal fit")
    if problems:
        return False, "; ".join(problems)
    return True, (f"sigma2(d) {(got_var - want_var) / var_se:+.2f} se, "
                  f"correlation {(got_r - want_r) / r_se:+.2f} se")


def _check_fit(report_path):
    rep = json.loads(report_path.read_text())
    ok = rep["channel"] == 1 and rep["mu"] >= 1 and rep["v_mean"] > 0 and rep["n_clipped"] == 0
    return ok, f"mu {rep['mu']:g}, v_mean {rep['v_mean']:.6g}"
