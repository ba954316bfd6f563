import json
import math
import subprocess
import sys

import numpy as np
import pytest

from photocorr import (
    EfficiencyPair,
    SourceSpec,
    difference_variance,
    imbalance_bounds,
    noise_surface,
    solve_pump_noise,
    source_joint,
)
from photocorr.cli import EXIT_DATA, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main
from photocorr.seriesio import ShotSeries, write_series, write_table


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main([str(a) for a in args])


def strict_json(path):
    """The report at path, parsed by a parser that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestSimulate:
    @pytest.mark.parametrize("unit", ["counts", "volts"])
    @pytest.mark.parametrize("pump", ["quiet", "pump"])
    @pytest.mark.parametrize("source", ["twin_beam", "coherent_pair", "split_thermal"])
    def test_reruns_are_byte_identical(self, tmp_path, source, pump, unit):
        payload = {"source": source, "n_mean": 2.0, "mu": 2,
                   "eta": [0.6, 0.7], "shots": 50, "seed": 9}
        if pump == "pump":
            payload["pump_x"] = 0.3
        if unit == "volts":
            payload.update(volts=True, conv=[0.5, 0.25], instrument_noise_var=[0.01, 0.02])
        cfg = write_config(tmp_path, "sim.json", payload)
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "a"]) == EXIT_OK
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "b"]) == EXIT_OK
        for name in ("shots.csv", "shots.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "source": "twin_beam", "n_mean": 2.0, "eta": [0.6, 0.7],
            "shots": 50, "seed": 9,
        })
        run(["simulate", "--config", cfg, "--out", tmp_path / "a", "--seed", 10])
        run(["simulate", "--config", cfg, "--out", tmp_path / "b"])
        assert (tmp_path / "a" / "shots.csv").read_text() != (tmp_path / "b" / "shots.csv").read_text()
        meta = json.loads((tmp_path / "a" / "shots.json").read_text())
        assert meta["config"]["seed"] == 10

    def test_unit_efficiency_columns_equal(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "source": "twin_beam", "n_mean": 3.0, "mu": 2,
            "eta": [1.0, 1.0], "shots": 200, "seed": 1,
        })
        run(["simulate", "--config", cfg, "--out", tmp_path])
        rows = (tmp_path / "shots.csv").read_text().splitlines()[1:]
        for row in rows:
            _, m1, m2 = row.split(",")
            assert m1 == m2

    def test_bad_source_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", {
            "source": "laser", "n_mean": 1.0, "eta": [0.5, 0.5], "shots": 10,
        })
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["simulate", "analytic"])
    def test_infinite_mean_exits_2(self, tmp_path, command):
        cfg = tmp_path / "sim.json"
        cfg.write_text('{"source": "twin_beam", "n_mean": Infinity, "eta": [0.5, 0.5], '
                       '"shots": 10}')
        assert run([command, "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION

    @pytest.mark.parametrize("source", ["twin_beam", "coherent_pair", "split_thermal"])
    def test_mean_beyond_int64_counts_exits_2(self, tmp_path, capsys, source):
        cfg = write_config(tmp_path, "sim.json", {
            "source": source, "n_mean": 1e20, "mu": 14, "eta": [0.6, 0.7], "shots": 10,
        })
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION
        assert "n_mean" in capsys.readouterr().err

    def test_pump_beyond_int64_counts_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", {
            "source": "twin_beam", "n_mean": 1e6, "mu": 1, "eta": [0.5, 0.5], "pump_x": 100,
            "shots": 1000,
        })
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION
        assert "pump_x" in capsys.readouterr().err
        assert not (tmp_path / "shots.csv").exists()

    def test_counts_conv_must_be_finite_and_may_be_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "nan.json", dict(SIM, conv=[math.nan, 1.0]))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "nan"]) == EXIT_VALIDATION
        assert "conv" in capsys.readouterr().err
        assert not (tmp_path / "nan" / "shots.json").exists()
        cfg = write_config(tmp_path, "zero.json", dict(SIM, conv=[0.0, 1.0]))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "zero"]) == EXIT_OK
        assert json.loads((tmp_path / "zero" / "shots.json").read_text())["alpha1"] == 0.0

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "none.json", "--out", tmp_path]) == EXIT_VALIDATION


SIM = {"source": "twin_beam", "n_mean": 1.0, "eta": [0.5, 0.5], "shots": 10}
BUDGET = {"sigma2_measured": 1.0e6, "m1": 7.0e5, "m2": 7.0e5, "mu": 14}


@pytest.mark.parametrize("command, payload, key", [
    ("simulate", dict(SIM, n_mean="abc"), "n_mean"),
    ("simulate", dict(SIM, eta="ab"), "eta"),
    ("simulate", dict(SIM, eta=[0.5]), "eta"),
    ("simulate", dict(SIM, shots="x"), "shots"),
    ("simulate", dict(SIM, shots=2.5), "shots"),
    ("simulate", dict(SIM, mu=1.5), "mu"),
    ("simulate", dict(SIM, name=5), "name"),
    ("simulate", dict(SIM, conv=[1.0, "a"]), "conv"),
    ("analytic", {"eta": [0.5]}, "eta"),
    ("analytic", {"eta": [0.5, 0.6, 0.7]}, "eta"),
    ("analytic", {"eta": "ab"}, "eta"),
    ("analytic", {"eta": {"a": 0.5, "b": 0.6}}, "eta"),
    ("analytic", {"eta": [0.5, 0.5], "mu": "two"}, "mu"),
    ("sweep", {"eta": [0.5, 0.5], "n_grid": ["a", "b"]}, "n_grid"),
    ("noise-budget", dict(BUDGET, m1="x"), "m1"),
    ("noise-budget", dict(BUDGET, eta_grid={"points": "many"}), "points"),
    ("noise-budget", dict(BUDGET, eta_grid=[0.5, 0.9]), "eta_grid"),
    ("analyze", {"input": "shots.csv", "lags": ["x"]}, "lags"),
    ("simulate", [SIM], "JSON object"),
    ("noise-budget", dict(BUDGET, eta_grid={"points": 0}), "points"),
    ("noise-budget", dict(BUDGET, eta_grid={"points": -1}), "points"),
    ("sweep", {"eta": [0.5, 0.5], "n_points": -1}, "n_points"),
    ("sweep", {"eta": [0.5, 0.5], "n_points": 0}, "n_points"),
    ("noise-budget", dict(BUDGET, mu=0), "mu"),
    ("simulate", dict(SIM, volts="no"), "volts"),
    ("simulate", dict(SIM, volts=1), "volts"),
    ("analytic", {"eta": [0.5, 0.5], "joint": "yes"}, "joint"),
    ("analyze", {"input": "shots.csv", "fit": "no"}, "fit"),
    ("analyze", {"input": "shots.csv", "integer_mu": 0}, "integer_mu"),
    ("fit", {"input": "shots.csv", "integer_mu": "false"}, "integer_mu"),
    ("sweep", {"eta": [0.5, 0.5], "n_grid": [True, False]}, "n_grid"),
    ("sweep", {"eta": [0.5, 0.5], "n_grid": [1.0, True]}, "n_grid"),
    ("sweep", {"eta": [0.5, 0.5], "eta_grid": [0.5, False]}, "eta_grid"),
])
def test_wrong_typed_config_exits_2(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run([command, "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, key", [
    ("simulate", dict(SIM, instrument_noise_var=[math.nan, 0.0]), "instrument_noise_var"),
    ("simulate", dict(SIM, volts=True, conv=[math.nan, 1.0]), "conv"),
    ("simulate", dict(SIM, source="split_thermal", pump_x=math.nan), "pump_x"),
    ("simulate", dict(SIM, source="coherent_pair", pump_x=math.inf), "pump_x"),
    ("simulate", dict(SIM, pump_x=math.nan), "pump_x"),
    ("noise-budget", dict(BUDGET, sigma2_measured=math.nan), "sigma2_measured"),
    ("noise-budget", dict(BUDGET, m1=math.nan), "m1"),
])
def test_non_finite_number_exits_2(tmp_path, capsys, command, payload, key):
    cfg = write_config(tmp_path, "cfg.json", payload)
    assert run([command, "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not (tmp_path / "shots.csv").exists()


@pytest.mark.parametrize("command, fault, expected, text", [
    ("analytic", "the config is a directory", EXIT_VALIDATION, "config: cannot read"),
    ("analytic", "the config path holds a NUL", EXIT_VALIDATION, "config: cannot read"),
    ("analytic", "the config is not UTF-8", EXIT_DATA, "invalid JSON"),
    ("analytic", "a config integer has 5000 digits", EXIT_DATA, "invalid JSON"),
    ("analytic", "the config nests 1e5 lists", EXIT_DATA, "invalid JSON"),
    ("analytic", "--out is a file", EXIT_DATA, "File exists"),
    ("analyze", "the input is a directory", EXIT_DATA, "cannot read"),
    ("analyze", "the input holds a NUL", EXIT_DATA, "cannot read: embedded null byte"),
    ("fit", "the input holds a lone surrogate", EXIT_DATA, "cannot read: 'utf-8' codec"),
    ("analyze", "the sidecar is a directory", EXIT_DATA, "rec.json: cannot read"),
    ("simulate", "the name is in a missing directory", EXIT_DATA, "missing"),
    ("analyze", "the name is in a missing directory", EXIT_DATA, "missing"),
])
def test_a_path_that_cannot_be_read_or_written_exits_typed(tmp_path, capfd, command, fault,
                                                           expected, text):
    # capfd: its stderr, as a process's, takes a lone surrogate in the message without failing
    record = write_series(ShotSeries(np.arange(10), np.arange(10)[::-1], "counts"),
                          tmp_path / "rec.csv")
    cfg = {"analytic": {"eta": [0.6, 0.7]}, "analyze": {"input": str(record)},
           "fit": {"input": str(record)}, "simulate": SIM}
    cfg, config, out = cfg[command], tmp_path / "cfg.json", tmp_path / "out"
    if fault == "the config is a directory":
        config.mkdir()
    elif fault == "the config path holds a NUL":  # open() raises ValueError, not OSError
        config = f"{config}\0"
    elif fault == "the config is not UTF-8":
        config.write_bytes(b'{"eta": [0.6, 0.7], "note": "\xe9"}')
    elif fault == "a config integer has 5000 digits":
        config.write_text('{"eta": [0.6, 0.7], "mu": ' + "1" * 5000 + "}")
    elif fault == "the config nests 1e5 lists":
        config.write_text('{"eta": ' + "[" * 100000 + "]" * 100000 + "}")
    else:
        if fault == "--out is a file":
            out.write_text("")
        elif fault == "the input is a directory":
            cfg = {"input": str(tmp_path)}
        elif fault == "the input holds a NUL":
            cfg = {"input": "rec\0.csv"}
        elif fault == "the input holds a lone surrogate":  # one the file system cannot encode
            cfg = {"input": "rec\ud800.csv"}
        elif fault == "the sidecar is a directory":
            (tmp_path / "rec.json").unlink()
            (tmp_path / "rec.json").mkdir()
        else:
            cfg = dict(cfg, name="missing/" + ("shots.csv" if command == "simulate" else "a.json"))
        config.write_text(json.dumps(cfg))
    assert run([command, "--config", config, "--out", out]) == expected
    err = capfd.readouterr().err
    assert err.startswith(f"photocorr {command}: ") and err.count("\n") == 1, err
    assert text in err and "Traceback" not in err


class TestAnalyze:
    def make_series(self, tmp_path, **overrides):
        payload = {
            "source": "split_thermal", "n_mean": 20.0, "mu": 2,
            "eta": [0.71, 0.71], "shots": 100000, "seed": 4, "name": "shots.csv",
        }
        payload.update(overrides)
        cfg = write_config(tmp_path, "sim.json", payload)
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        return tmp_path / "shots.csv"

    def test_report_contents(self, tmp_path):
        csv = self.make_series(tmp_path)
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv), "lags": [0, 1]})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["shots"] == 100000
        # thermal correlation at these settings, from the closed form
        n = 20.0 / 2
        want = n * 0.71 / (1 + 0.71 * n)
        assert abs(report["correlation_raw"] - want) < 0.01
        assert abs(report["correlation_function"]["1"]) < 3.0 / math.sqrt(100000)
        assert "difference_histogram" in report
        assert report["config"]["input"] == str(csv)

    def test_perfect_copy_input(self, tmp_path):
        csv = self.make_series(tmp_path, source="twin_beam", eta=[1.0, 1.0], shots=2000)
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv)})
        run(["analyze", "--config", cfg, "--out", tmp_path])
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["correlation_raw"] == pytest.approx(1.0, abs=1e-12)
        assert report["sigma2_difference"] == 0.0

    def test_count_outside_int64_exits_3(self, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("shot,m1,m2\n0,99999999999999999999,1\n")
        cfg = write_config(tmp_path, "ana.json", {"input": str(big)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA

    @pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]"])
    def test_bad_sidecar_exits_3(self, tmp_path, capsys, sidecar):
        csv = tmp_path / "s.csv"
        csv.write_text("shot,m1,m2\n0,1,2\n")
        (tmp_path / "s.json").write_text(sidecar)
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA
        assert "s.json" in capsys.readouterr().err

    def test_non_utf8_record_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"shot,m1,m2\n0,1,2\n1,\xff,3\n")
        cfg = write_config(tmp_path, "ana.json", {"input": str(bad)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA
        assert "bad.csv" in capsys.readouterr().err

    def analyze(self, tmp_path, csv):
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        return json.loads((tmp_path / "analysis.json").read_text())

    def test_count_histogram_has_integer_edges(self, tmp_path):
        csv = self.make_series(tmp_path, source="twin_beam", n_mean=400.0, mu=3,
                               eta=[0.6, 0.7], shots=20000)
        hist = self.analyze(tmp_path, csv)["difference_histogram"]
        edges, counts = np.array(hist["edges"]), np.array(hist["counts"])
        assert all(isinstance(e, int) for e in hist["edges"])
        assert np.all(np.diff(edges) == edges[1] - edges[0]) and edges[1] > edges[0]
        assert len(counts) == len(edges) - 1 and counts.sum() == 20000
        # each bin holds the differences e_i <= d < e_(i+1)
        m = np.loadtxt(csv, delimiter=",", skiprows=1, dtype=np.int64)
        d = m[:, 1] - m[:, 2]
        assert np.array_equal(counts, np.histogram(d, edges - 0.5)[0])
        # Freedman-Diaconis width, rounded up to an integer
        q75, q25 = np.percentile(d, [75, 25])
        assert edges[1] - edges[0] == math.ceil(2.0 * (q75 - q25) / 20000 ** (1 / 3))

    def test_volt_histogram_covers_every_shot(self, tmp_path):
        csv = self.make_series(tmp_path, volts=True, conv=[0.5, 0.25], shots=5000)
        hist = self.analyze(tmp_path, csv)["difference_histogram"]
        edges, counts = np.array(hist["edges"]), np.array(hist["counts"])
        assert len(counts) == len(edges) - 1 and counts.sum() == 5000
        # ceil(range / width) equal bins over [min d, max d], at the Freedman-Diaconis width
        v = np.loadtxt(csv, delimiter=",", skiprows=1)
        d = v[:, 1] / 0.5 - v[:, 2] / 0.25
        q75, q25 = np.percentile(d, [75, 25])
        width = 2.0 * (q75 - q25) * 5000 ** (-1.0 / 3.0)
        assert len(counts) == math.ceil((d.max() - d.min()) / width) > 1
        assert edges[0] == d.min() and edges[-1] == d.max()
        assert np.allclose(np.diff(edges), (d.max() - d.min()) / len(counts), rtol=1e-12)

    def test_constant_difference_is_one_bin(self, tmp_path):
        csv = self.make_series(tmp_path, source="twin_beam", eta=[1.0, 1.0], shots=300)
        hist = self.analyze(tmp_path, csv)["difference_histogram"]
        assert hist == {"edges": [0, 1], "counts": [300]}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_volts_exit_3(self, tmp_path, capsys, value):
        csv = tmp_path / "v.csv"
        rows = "".join(f"{i},{0.5 * i},3.0\n" for i in range(20))
        csv.write_text("shot,v1,v2\n" + rows.replace("4,2.0,3.0", f"4,{value},3.0"))
        (tmp_path / "v.json").write_text('{"unit": "volts"}')
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA
        assert "line 6" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("alpha1", "x"), ("alpha1", 0), ("alpha2", -2.0),
                                            ("alpha2", None), ("noise_var1", -1.0),
                                            ("noise_var2", "0.1")])
    def test_bad_calibration_exits_3(self, tmp_path, capsys, key, value):
        csv = tmp_path / "v.csv"
        csv.write_text("shot,v1,v2\n" + "".join(f"{i},{0.5 * i},{3.0 - 0.1 * i}\n" for i in range(31)))
        (tmp_path / "v.json").write_text(json.dumps({"unit": "volts", key: value}))
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "v.json" in err and key in err

    @pytest.mark.parametrize("unit", ["amps", 5, ["volts"], None])
    def test_bad_unit_exits_3(self, tmp_path, capsys, unit):
        csv = tmp_path / "v.csv"
        csv.write_text("shot,v1,v2\n" + "".join(f"{i},{0.5 * i},{3.0 - 0.1 * i}\n" for i in range(31)))
        (tmp_path / "v.json").write_text(json.dumps({"unit": unit}))
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "v.json: unit" in err

    @pytest.mark.parametrize("alpha", [1e-170, 1e-320])
    def test_calibration_beyond_the_float_range_exits_3(self, tmp_path, capsys, alpha):
        # v / alpha overflows at 1e-320; at 1e-170 alpha**2 underflows to 0 and the
        # variance of counts about 1e167 apart overflows
        v = 1.0 + np.random.default_rng(5).uniform(-1e-3, 1e-3, (2000, 2))
        series = ShotSeries(v[:, 0], v[:, 1], "volts", (1.0, 1.0), (1e-8, 1e-8))
        csv = write_series(series, tmp_path / "v.csv",
                           extra_meta={"alpha1": alpha, "alpha2": alpha})
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA
        err = capsys.readouterr().err
        assert ("v.json: alpha1" if alpha < 1e-308 else "beyond the float range") in err

    @pytest.mark.parametrize("glitch", ["counts", "int64", "volts"])
    def test_a_glitch_shot_keeps_the_bins_bounded(self, tmp_path, glitch):
        # one shot far from the rest would otherwise ask for 1e12 to 1e14 bins
        rng = np.random.default_rng(11)
        if glitch == "volts":
            ch = 1.0 + rng.uniform(-1e-9, 1e-9, (2, 2000))
            ch[0, 17] = 1e3
        else:
            ch = rng.poisson(100, (2, 2000))
            ch[:, 17] = (10**15, 0) if glitch == "counts" else (2**63 - 1, -2**63)
        unit = "volts" if glitch == "volts" else "counts"
        csv = write_series(ShotSeries(ch[0], ch[1], unit), tmp_path / "g.csv")
        ana = write_config(tmp_path, "ana_cfg.json", {"input": str(csv), "fit": True})
        fit = write_config(tmp_path, "fit_cfg.json", {"input": str(csv)})
        assert run(["analyze", "--config", ana, "--out", tmp_path]) == EXIT_OK
        assert run(["fit", "--config", fit, "--out", tmp_path]) == EXIT_OK
        hist = strict_json(tmp_path / "analysis.json")["difference_histogram"]
        assert len(hist["counts"]) <= 2**16 and sum(hist["counts"]) == 2000
        # a difference of 2**64 - 1 counts: the edges pass the int64 range, and stay exact
        edges = hist["edges"]
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert edges[-1] > (2**64 if glitch == "int64" else 0)
        assert strict_json(tmp_path / "fit.json")["mu"] >= 1

    @pytest.mark.parametrize("command", ["fit", "analyze"])
    def test_moments_beyond_the_float_range_exit_3_without_warnings(self, tmp_path, command):
        # counts near the float's largest value: their mean and variances overflow; in a
        # fresh interpreter, so that a RuntimeWarning would reach stderr
        v = np.random.default_rng(3).uniform(1e307, 1.7e308, (2, 2000))
        csv = write_series(ShotSeries(v[0], v[1], "volts"), tmp_path / "huge.csv")
        payload = {"input": str(csv)}
        if command == "analyze":
            payload["fit"] = True
        cfg = write_config(tmp_path, "cfg.json", payload)
        out = subprocess.run([sys.executable, "-m", "photocorr", command, "--config", cfg,
                              "--out", str(tmp_path / "out")], capture_output=True, text=True)
        assert out.returncode == EXIT_DATA, out.stderr
        assert "beyond the float range" in out.stderr and "Warning" not in out.stderr

    def test_malformed_csv_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("shot,m1,m2\n0,1,x\n")
        cfg = write_config(tmp_path, "ana.json", {"input": str(bad)})
        assert run(["analyze", "--config", cfg, "--out", tmp_path]) == EXIT_DATA

    def test_fit_section(self, tmp_path):
        csv = self.make_series(tmp_path, n_mean=100.0, mu=5, shots=20000)
        cfg = write_config(tmp_path, "ana.json", {"input": str(csv), "fit": True})
        run(["analyze", "--config", cfg, "--out", tmp_path])
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["multithermal_fit_channel1"]["mu"] >= 1


class TestFitCommand:
    def test_reports_without_a_goodness_are_strict_json(self, tmp_path):
        # values nearly all 50: the IQR is 0, so no Freedman-Diaconis bin is usable
        counts = np.full(1200, 50)
        counts[:3] = 49, 51, 53
        csv = write_series(ShotSeries(counts, counts[::-1], "counts"), tmp_path / "flat.csv")
        out = tmp_path / "out"
        out.mkdir()
        fit = write_config(tmp_path, "fit_cfg.json", {"input": str(csv)})
        ana = write_config(tmp_path, "ana_cfg.json", {"input": str(csv), "fit": True})
        assert run(["fit", "--config", fit, "--out", out]) == EXIT_OK
        assert run(["analyze", "--config", ana, "--out", out]) == EXIT_OK
        assert strict_json(out / "fit.json")["chi2_per_bin"] is None
        report = strict_json(out / "analysis.json")
        for channel in (1, 2):
            assert report[f"multithermal_fit_channel{channel}"]["chi2_per_bin"] is None

    def test_fit_channel(self, tmp_path):
        sim = write_config(tmp_path, "sim.json", {
            "source": "split_thermal", "n_mean": 200.0, "mu": 14,
            "eta": [0.7, 0.7], "shots": 50000, "seed": 6, "name": "shots.csv",
        })
        run(["simulate", "--config", sim, "--out", tmp_path])
        cfg = write_config(tmp_path, "fit.json", {
            "input": str(tmp_path / "shots.csv"), "channel": 1,
        })
        assert run(["fit", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "fit.json").read_text())
        # detected counts of a 14-mode thermal beam keep the mode count
        assert report["mu"] == pytest.approx(14, abs=1)


class TestAnalytic:
    def test_tables_and_report(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.6, 0.6], "n_mean": 1.0})
        assert run(["analytic", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "analytic.json").read_text())
        assert report["threshold_n"] == "unbounded"
        twb = report["sources"]["twin_beam"]
        coh = report["sources"]["coherent_pair"]
        assert twb["sigma2_d"] < coh["sigma2_d"]
        assert twb["below_shot_noise"]
        table = (tmp_path / "diff_twin_beam.tsv").read_text().splitlines()
        assert table[0] == "d\tp"
        probs = [float(line.split("\t")[1]) for line in table[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_multimode_table_matches_closed_variance(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.5, 0.7], "n_mean": 2.0, "mu": 4})
        run(["analytic", "--config", cfg, "--out", tmp_path])
        report = json.loads((tmp_path / "analytic.json").read_text())
        rows = (tmp_path / "diff_twin_beam.tsv").read_text().splitlines()[1:]
        d = np.array([float(r.split("\t")[0]) for r in rows])
        p = np.array([float(r.split("\t")[1]) for r in rows])
        mean = d @ p
        var = (d - mean) ** 2 @ p
        assert var == pytest.approx(report["sources"]["twin_beam"]["sigma2_d"], rel=1e-6)

    def test_many_modes_of_one_photon(self, tmp_path):
        # 1e20 mode pairs share one photon per beam: p(d) must stay normalised
        cfg = write_config(tmp_path, "an.json", {"n_mean": 1.0, "mu": 1e20, "eta": [0.6, 0.7]})
        assert run(["analytic", "--config", cfg, "--out", tmp_path]) == EXIT_OK

    def test_threshold_is_on_the_total_n_over_mu_pairs(self, tmp_path):
        # 2 eta1 eta2 / (eta1 - eta2)**2 = 17.5 per mode pair; at N = 14 * 17.5 the
        # twin beam sits exactly at shot noise
        cfg = write_config(tmp_path, "an.json", {"n_mean": 245, "mu": 14, "eta": [0.5, 0.7]})
        assert run(["analytic", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "analytic.json").read_text())
        assert report["threshold_n"] == pytest.approx(245.0, rel=1e-14)
        twb = report["sources"]["twin_beam"]
        assert twb["sigma2_d"] == pytest.approx(twb["shot_noise_level"], rel=1e-14)

    def test_a_threshold_beyond_the_float_range_is_refused(self, tmp_path):
        # vacuum computes at any mu, and mu * 7.2e13 per pair overflows
        cfg = write_config(tmp_path, "an.json",
                           {"n_mean": 0.0, "mu": 1e300, "eta": [0.6, 0.6000001]})
        assert run(["analytic", "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION
        assert not (tmp_path / "analytic.json").exists()

    def test_vacuum_tables_are_deltas(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.5, 0.7], "n_mean": 0.0})
        run(["analytic", "--config", cfg, "--out", tmp_path])
        for kind in ("twin_beam", "coherent_pair", "split_thermal"):
            rows = (tmp_path / f"diff_{kind}.tsv").read_text().splitlines()[1:]
            table = {int(r.split("\t")[0]): float(r.split("\t")[1]) for r in rows}
            assert table[0] == pytest.approx(1.0, abs=1e-12)
            assert all(p == 0.0 for d, p in table.items() if d != 0)

    def test_vacuum_correlation_reported_undefined(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.5, 0.7], "n_mean": 0.0})
        assert run(["analytic", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "analytic.json").read_text())
        assert report["sources"]["twin_beam"]["correlation"] == "undefined"
        assert report["sources"]["split_thermal"]["correlation"] == "undefined"
        assert report["sources"]["coherent_pair"]["correlation"] == 0.0

    def test_joint_table(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.6, 0.8], "n_mean": 1.0,
                                                 "joint": True})
        run(["analytic", "--config", cfg, "--out", tmp_path])
        rows = (tmp_path / "joint_coherent_pair.tsv").read_text().splitlines()
        assert rows[0] == "n1\tn2\tp"
        total = sum(float(r.split("\t")[2]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_joint_table_rows_run_n1_major(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.4, 0.9], "n_mean": 1.0,
                                                 "joint": True})
        run(["analytic", "--config", cfg, "--out", tmp_path])
        joint = source_joint(SourceSpec("split_thermal", 1.0), EfficiencyPair(0.4, 0.9))
        rows = [r.split("\t") for r in
                (tmp_path / "joint_split_thermal.tsv").read_text().splitlines()[1:]]
        side = joint.cutoff + 1
        assert len(rows) == side * side
        for k, (n1, n2, p) in enumerate(rows):
            assert (int(n1), int(n2)) == (k // side, k % side)
            assert float(p) == pytest.approx(joint.probs[k // side, k % side], rel=1e-11)

    def test_multimode_joint_table_matches_closed_variance(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.5, 0.7], "n_mean": 2.0, "mu": 3,
                                                 "joint": True})
        assert run(["analytic", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        report = json.loads((tmp_path / "analytic.json").read_text())
        for kind in ("twin_beam", "coherent_pair", "split_thermal"):
            rows = (tmp_path / f"joint_{kind}.tsv").read_text().splitlines()[1:]
            n1, n2, p = np.array([[float(v) for v in r.split("\t")] for r in rows]).T
            d = n1 - n2
            var = (d - d @ p) ** 2 @ p
            assert var == pytest.approx(report["sources"][kind]["sigma2_d"], rel=1e-6)

    def test_joint_table_above_the_budget_exits_4(self, tmp_path, capsys):
        # a twin-beam cutoff of 18432: 2.7 GB per matrix, refused before it is allocated
        cfg = write_config(tmp_path, "an.json", {"eta": [0.66, 0.68], "n_mean": 800.0, "mu": 1,
                                                 "joint": True})
        assert run(["analytic", "--config", cfg, "--out", tmp_path]) == EXIT_TOLERANCE
        assert "table budget" in capsys.readouterr().err
        assert not (tmp_path / "joint_twin_beam.tsv").exists()

    def test_format_selector(self, tmp_path):
        cfg = write_config(tmp_path, "an.json", {"eta": [0.6, 0.6], "n_mean": 1.0})
        run(["analytic", "--config", cfg, "--out", tmp_path / "c", "--format", "csv"])
        header = (tmp_path / "c" / "diff_twin_beam.csv").read_text().splitlines()[0]
        assert header == "d,p"
        run(["analytic", "--config", cfg, "--out", tmp_path / "j", "--format", "json"])
        rows = json.loads((tmp_path / "j" / "diff_twin_beam.json").read_text())
        assert sum(r["p"] for r in rows) == pytest.approx(1.0, abs=1e-9)


class TestSweep:
    def test_crossing_at_threshold(self, tmp_path):
        cfg = write_config(tmp_path, "sw.json", {
            "eta": [0.5, 0.7], "n_min": 16.0, "n_max": 19.0, "n_points": 61,
        })
        assert run(["sweep", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        rows = (tmp_path / "sweep_n.tsv").read_text().splitlines()[1:]
        crossings = []
        prev = None
        for row in rows:
            n, coh, twb, _ = (float(v) for v in row.split("\t"))
            sign = twb - coh
            if prev is not None and prev[1] < 0 <= sign:
                crossings.append(0.5 * (prev[0] + n))
            prev = (n, sign)
        assert len(crossings) == 1
        assert abs(crossings[0] - 17.5) < 0.05

    def test_balanced_sweep_orders_columns(self, tmp_path):
        cfg = write_config(tmp_path, "sw.json", {
            "eta": [0.6, 0.6], "n_min": 0.5, "n_max": 10.0, "n_points": 20,
        })
        run(["sweep", "--config", cfg, "--out", tmp_path])
        for row in (tmp_path / "sweep_n.tsv").read_text().splitlines()[1:]:
            n, coh, twb, th = (float(v) for v in row.split("\t"))
            assert twb < coh == th

    KINDS = (("coherent", "coherent_pair"), ("twin_beam", "twin_beam"), ("thermal", "split_thermal"))

    def write_oracle_tables(self, cfg, out):
        """The sweep tables from one SourceSpec, EfficiencyPair and difference_variance
        per grid point, the way the sweep computed them before it took whole columns."""
        eff, mu, tau, n_ref = EfficiencyPair(*cfg["eta"]), cfg["mu"], cfg["tau"], cfg["n_ref"]
        if "n_grid" in cfg:
            n_grid = np.asarray(cfg["n_grid"])
        else:
            n_grid = np.linspace(cfg["n_min"], cfg["n_max"], cfg["n_points"])
        eta_grid = np.asarray(cfg["eta_grid"]) if "eta_grid" in cfg else np.linspace(0.05, 1.0, 20)
        table = {"n_mean": n_grid}
        for name, kind in self.KINDS:
            table[f"sigma2_{name}"] = np.array(
                [difference_variance(SourceSpec(kind, n, mu, tau), eff).sigma2_d for n in n_grid])
        write_table(out / "sweep_n.tsv", table)
        table = {"eta": eta_grid}
        for name, kind in self.KINDS:
            table[f"ratio_{name}"] = np.array(
                [difference_variance(SourceSpec(kind, n_ref, mu, tau),
                                     EfficiencyPair(eta, eta)).sigma2_d / n_ref for eta in eta_grid])
        write_table(out / "sweep_eta.tsv", table)

    @pytest.mark.parametrize("tau", [0.5, 0.3])
    @pytest.mark.parametrize("grid", [
        {"n_grid": [0, 0.5, 17.5, 1e7, 3, 2e-310], "eta_grid": [0, 0.05, 0.5, 1]},
        {"n_min": 0.0, "n_max": 1.0e7, "n_points": 2001},
    ], ids=["n_grid", "n_points"])
    def test_tables_equal_the_per_point_closed_form(self, tmp_path, tau, grid):
        cfg = {"eta": [0.66, 0.68], "mu": 14, "tau": tau, "n_ref": 1.0e6, **grid}
        path = write_config(tmp_path, "sw.json", cfg)
        assert run(["sweep", "--config", path, "--out", tmp_path / "cli"]) == EXIT_OK
        (tmp_path / "oracle").mkdir()
        self.write_oracle_tables(cfg, tmp_path / "oracle")
        for name in ("sweep_n.tsv", "sweep_eta.tsv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "oracle" / name).read_bytes()

    @pytest.mark.parametrize("payload, element", [
        ({"n_grid": [1.0, -1.0]}, "n_grid[1]"),
        ({"n_grid": [1.0, math.nan]}, "n_grid[1]"),
        ({"eta_grid": [0.5, 1.5]}, "eta_grid[1]"),
    ])
    def test_bad_grid_entry_exits_2(self, tmp_path, capsys, payload, element):
        cfg = write_config(tmp_path, "sw.json", {"eta": [0.6, 0.7], **payload})
        assert run(["sweep", "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION
        assert element in capsys.readouterr().err


class TestNoiseBudget:
    def test_paper_style_summary(self, tmp_path):
        cfg = write_config(tmp_path, "nb.json", {
            "sigma2_measured": 2.124e11, "m1": 7.225e6, "m2": 7.212e6, "mu": 14,
            "source": "twin_beam", "eta_nominal": 0.67,
            "eta_grid": {"lo": 0.5, "hi": 0.9, "points": 5},
        })
        assert run(["noise-budget", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        summary = json.loads((tmp_path / "noise_budget.json").read_text())
        assert 0.01 <= summary["x_at_nominal"] <= 0.04
        lo, hi = summary["imbalance_interval"]
        assert 0.12 <= lo <= hi <= 0.22
        surface = (tmp_path / "noise_surface.tsv").read_text().splitlines()
        assert surface[0] == "eta1\teta2\tx\tcorrected_sigma2\tshot_noise_plane"
        assert len(surface) == 1 + 25

    def test_thermal_surface_above_plane(self, tmp_path):
        cfg = write_config(tmp_path, "nb.json", {
            "sigma2_measured": 4.097e13, "m1": 2.22e8, "m2": 2.22e8, "mu": 15,
            "source": "split_thermal", "eta_nominal": 0.71,
            "eta_grid": {"lo": 0.5, "hi": 0.9, "points": 4},
        })
        run(["noise-budget", "--config", cfg, "--out", tmp_path])
        rows = (tmp_path / "noise_surface.tsv").read_text().splitlines()[1:]
        for row in rows:
            _, _, _, corrected, plane = (float(v) for v in row.split("\t"))
            assert corrected >= plane * (1 - 1e-12)

    def test_at_floor_gives_zero_column(self, tmp_path):
        cfg = write_config(tmp_path, "nb.json", {
            "sigma2_measured": 100.0, "m1": 600.0, "m2": 700.0, "mu": 14,
            "source": "twin_beam", "eta_nominal": 0.65,
            "eta_grid": {"lo": 0.6, "hi": 0.7, "points": 3},
        })
        assert run(["noise-budget", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        rows = (tmp_path / "noise_surface.tsv").read_text().splitlines()[1:]
        assert all(float(r.split("\t")[2]) == 0.0 for r in rows)

    def test_surface_rows_run_eta1_major(self, tmp_path):
        p = {"sigma2_measured": 2.124e11, "m1": 7.225e6, "m2": 7.0e6, "mu": 14}
        cfg = write_config(tmp_path, "nb.json", dict(
            p, source="twin_beam", eta_grid={"lo": 0.5, "hi": 0.9, "points": 4}))
        assert run(["noise-budget", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        grid = np.linspace(0.5, 0.9, 4)
        budget = noise_surface(*p.values(), grid, grid)
        rows = (tmp_path / "noise_surface.tsv").read_text().splitlines()[1:]
        assert len(rows) == 16
        for k, row in enumerate(rows):
            eta1, eta2, x, _, _ = (float(v) for v in row.split("\t"))
            i, j = k // 4, k % 4
            assert (eta1, eta2) == pytest.approx((grid[i], grid[j]), rel=1e-11)
            assert x == pytest.approx(budget.x[i, j], rel=1e-11)

    @pytest.mark.parametrize("sigma2, at_floor", [(2.124e11, False), (1.0, True)])
    def test_at_floor_flag_is_a_json_boolean(self, tmp_path, sigma2, at_floor):
        cfg = write_config(tmp_path, "nb.json", {
            "sigma2_measured": sigma2, "m1": 7.225e6, "m2": 7.212e6, "mu": 14,
            "eta_nominal": 0.67, "eta_grid": {"lo": 0.6, "hi": 0.7, "points": 2},
        })
        assert run(["noise-budget", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        summary = json.loads((tmp_path / "noise_budget.json").read_text())
        assert summary["x_at_nominal_at_floor"] is at_floor

    def test_nominal_defaults_to_the_grid_mean(self, tmp_path):
        # without eta_nominal, x_at_nominal and the imbalance interval are both taken at
        # the efficiency that noise_surface resolves, the mean of the default grid
        p = {"sigma2_measured": 2.124e11, "m1": 7.225e6, "m2": 7.212e6, "mu": 14}
        cfg = write_config(tmp_path, "nb.json", p)
        assert run(["noise-budget", "--config", cfg, "--out", tmp_path]) == EXIT_OK
        summary = json.loads((tmp_path / "noise_budget.json").read_text())
        eta = float(np.linspace(0.4, 0.95, 12).mean())
        assert summary["x_at_nominal"] == solve_pump_noise(p["sigma2_measured"], eta, eta,
                                                           p["m1"], p["m2"], p["mu"]).x
        assert summary["imbalance_interval"] == list(imbalance_bounds(*p.values(), eta))

    def test_missing_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "nb.json", {"sigma2_measured": 1.0})
        assert run(["noise-budget", "--config", cfg, "--out", tmp_path]) == EXIT_VALIDATION


_SCIPY_BLOCKED = {
    "analytic": {"n_mean": 2.0, "mu": 2, "eta": [0.6, 0.7], "joint": True},
    "sweep": {"eta": [0.6, 0.7], "n_points": 5},
    "simulate": {"source": "split_thermal", "n_mean": 50.0, "mu": 3, "eta": [0.6, 0.7],
                 "shots": 100, "pump_x": 0.1, "volts": True},
    "analyze": {"input": "shots.csv", "fit": True, "integer_mu": False},
    "fit": {"input": "shots.csv", "integer_mu": False},
    # eta_nominal 0.85 puts the upper end of the imbalance scan past eta + delta/2 = 1
    "noise-budget": {"sigma2_measured": 2.124e11, "m1": 7.225e6, "m2": 7.212e6, "mu": 14,
                     "source": "twin_beam", "eta_nominal": 0.85,
                     "eta_grid": {"lo": 0.6, "hi": 0.9, "points": 3}},
}


@pytest.mark.parametrize("command", sorted(_SCIPY_BLOCKED))
def test_runs_with_scipy_blocked(tmp_path, command):
    # a None entry in sys.modules makes every import of scipy fail
    sim = write_config(tmp_path, "sim.json", {
        "source": "split_thermal", "n_mean": 200.0, "mu": 14, "eta": [0.7, 0.7],
        "shots": 5000, "seed": 6, "name": "shots.csv"})
    assert run(["simulate", "--config", sim, "--out", tmp_path]) == EXIT_OK
    cfg = dict(_SCIPY_BLOCKED[command])
    if "input" in cfg:
        cfg["input"] = str(tmp_path / cfg["input"])
    code = ('import sys; sys.modules["scipy"] = None; from photocorr.cli import main; '
            'sys.exit(main(sys.argv[1:]))')
    args = [command, "--config", write_config(tmp_path, "cfg.json", cfg),
            "--out", str(tmp_path / "out")]
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert out.returncode == EXIT_OK, out.stderr


class TestSizeBudget:
    """shots, the noise surface and the sweep grid are refused above sources._TABLE_BYTES."""

    SMALL = 1 << 16  # 8192 float64 points
    SIZES = {  # command: (config for a size, size just below the budget, just above it)
        "simulate": (lambda n: {"source": "split_thermal", "n_mean": 2.0, "mu": 2,
                                "eta": [0.6, 0.7], "shots": n}, 8192, 8193),
        # the surface is points x points: 90**2 = 8100, 91**2 = 8281
        "noise-budget": (lambda n: {"sigma2_measured": 2.124e11, "m1": 7.225e6, "m2": 7.212e6,
                                    "mu": 14, "eta_grid": {"lo": 0.5, "hi": 0.9, "points": n}},
                         90, 91),
        "sweep": (lambda n: {"eta": [0.6, 0.7], "n_points": n, "eta_grid": [0.5]}, 8192, 8193),
    }

    @pytest.mark.parametrize("command", sorted(SIZES))
    def test_refused_above_the_budget_before_allocating(self, tmp_path, monkeypatch, capsys,
                                                        command):
        import tracemalloc

        from photocorr import sources

        config, below, above = self.SIZES[command]
        monkeypatch.setattr(sources, "_TABLE_BYTES", self.SMALL)
        # the size at the budget runs first, which also imports what a first call imports
        cfg = write_config(tmp_path, "edge.json", config(below))
        assert run([command, "--config", cfg, "--out", tmp_path / "edge"]) == EXIT_OK
        cfg = write_config(tmp_path, "big.json", config(above))
        tracemalloc.start()
        try:
            code = run([command, "--config", cfg, "--out", tmp_path / "big"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_TOLERANCE
        assert "table budget" in capsys.readouterr().err
        assert peak < self.SMALL
