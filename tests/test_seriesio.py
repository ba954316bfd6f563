import json

import numpy as np
import pytest

from photocorr import DataError, ShotSeries, read_series, write_series
from photocorr.seriesio import sidecar_path, write_table


def test_counts_round_trip_exact(tmp_path):
    series = ShotSeries(np.array([0, 3, 17, 2]), np.array([1, 3, 16, 0]), "counts")
    path = write_series(series, tmp_path / "s.csv")
    back, meta = read_series(path)
    assert np.array_equal(back.ch1, series.ch1)
    assert np.array_equal(back.ch2, series.ch2)
    assert meta["unit"] == "counts"


def test_volts_round_trip_12_digits(tmp_path):
    v1 = np.array([1.234567890123e-7, 9.87654321e-9])
    v2 = np.array([5.55e-8, 6.66e-8])
    series = ShotSeries(v1, v2, "volts", (6.7182e-8, 8.3043e-8), (1e-15, 2e-15))
    path = write_series(series, tmp_path / "v.csv")
    back, _ = read_series(path)
    assert np.allclose(back.ch1, v1, rtol=1e-11)
    assert back.conv == (6.7182e-8, 8.3043e-8)
    assert back.instrument_noise_var == (1e-15, 2e-15)


def test_sidecar_carries_extra_metadata(tmp_path):
    series = ShotSeries(np.array([1]), np.array([2]), "counts")
    write_series(series, tmp_path / "s.csv", extra_meta={"config": {"seed": 5}})
    import json
    meta = json.loads(sidecar_path(tmp_path / "s.csv").read_text())
    assert meta["config"]["seed"] == 5


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("shot,m1,m2\n0,1,2\n1,oops,3\n")
    with pytest.raises(DataError, match="line 3"):
        read_series(path)


def test_wrong_field_count_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("shot,m1,m2\n0,1\n")
    with pytest.raises(DataError, match="line 2"):
        read_series(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,1,2\n")
    with pytest.raises(DataError, match="line 1"):
        read_series(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_series(tmp_path / "nope.csv")


def test_empty_data_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("shot,m1,m2\n")
    with pytest.raises(DataError, match="no data rows"):
        read_series(path)


def test_table_format(tmp_path):
    path = write_table(tmp_path / "t.tsv", {"d": [0, 1], "p": [0.5, 0.25]})
    lines = path.read_text().splitlines()
    assert lines[0] == "d\tp"
    assert lines[1] == "0\t5.000000000000e-01"


@pytest.mark.parametrize("fmt", ["tsv", "csv", "json"])
def test_table_formats_each_column_by_dtype(tmp_path, fmt):
    columns = {"n": np.array([0, -3, 12]), "p": np.array([0.5, 1e-300, 2.0 / 3.0])}
    path = write_table(tmp_path / "t.tsv", columns, fmt)
    assert path.suffix == f".{fmt}"
    text = path.read_text()
    if fmt == "json":
        assert json.loads(text) == [{"n": 0, "p": 0.5}, {"n": -3, "p": 1e-300},
                                    {"n": 12, "p": 2.0 / 3.0}]
        assert '"n": -3,' in text
        return
    sep = "\t" if fmt == "tsv" else ","
    assert text.splitlines() == [
        f"n{sep}p",
        f"0{sep}5.000000000000e-01",
        f"-3{sep}1.000000000000e-300",
        f"12{sep}6.666666666667e-01",
    ]
