import json
import warnings

import numpy as np
import pytest

from photocorr import DataError, ShotSeries, read_series, write_series
from photocorr.seriesio import _load_rows, _scan_rows, sidecar_path, write_table


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


def test_count_outside_int64_reports_line_number(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("shot,m1,m2\n0,1,2\n1,99999999999999999999,3\n")
    with pytest.raises(DataError, match="line 3: count 99999999999999999999 is outside"):
        read_series(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_volts_report_line_number(tmp_path, value):
    path = tmp_path / "v.csv"
    rows = "".join(f"{i},{0.5 * i},3.0\n" for i in range(20))
    path.write_text("shot,v1,v2\n" + rows + f"20,4.0,{value}\n")
    sidecar_path(path).write_text('{"unit": "volts"}')
    with pytest.raises(DataError, match=f"line 22: voltage '{value}' is not finite"):
        read_series(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_series(tmp_path / "nope.csv")


def test_empty_data_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("shot,m1,m2\n")
    with pytest.raises(DataError, match="no data rows"):
        read_series(path)


@pytest.mark.parametrize("sidecar", [b'{"unit": "counts"', b"[1, 2]", b'"counts"', b"\xff\xfe{}"])
def test_bad_sidecar_names_the_sidecar(tmp_path, sidecar):
    path = tmp_path / "s.csv"
    path.write_text("shot,m1,m2\n0,1,2\n")
    sidecar_path(path).write_bytes(sidecar)
    with pytest.raises(DataError, match="s.json"):
        read_series(path)


@pytest.mark.parametrize("body", [b"shot,m1,m2\n0,1,2\n1,\xff,3\n", b"shot,m\xe91,m2\n0,1,2\n"])
def test_non_utf8_record_names_the_record(tmp_path, body):
    path = tmp_path / "s.csv"
    path.write_bytes(body)
    with pytest.raises(DataError, match="s.csv"):
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


def _rng_volts():
    rng = np.random.default_rng(3)
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-12, 12, 400)
    rows = [f"{i},{a:.12g},{b!r}" for i, (a, b) in enumerate(zip(values[:200], values[200:]))]
    return "\n".join(rows) + "\n"


# Data bodies (after the header) on which the numpy parse and the line scan
# must agree: the same arrays, or the same DataError message.
BODIES = {
    "plain": "0,1,2\n1,3,4\n",
    "no_final_newline": "0,1,2\n1,3,4",
    "crlf": "0,1,2\r\n1,3,4\r\n",
    "blank_lines": "\n0,1,2\n\n1,3,4\n\n",
    "whitespace_line": "0,1,2\n   \n1,3,4\n",
    "hash_line": "# note\n0,1,2\n",
    "hash_suffix": "0,1,2\n1,3,4 # note\n",
    "two_fields": "0,1\n1,2\n",
    "two_fields_later": "0,1,2\n1,2\n",
    "four_fields": "0,1,2,3\n",
    "four_fields_later": "0,1,2\n1,2,3,4\n",
    "float_count": "0,5.0,1\n",
    "exponent_count": "0,1e3,1\n",
    "underscore": "0,1_000,1\n",
    "signs": "0,+5,-1\n",
    "spaces": " 0 , 1 , 2 \n1,\t3,4\t\n",
    "trailing_comma": "0,1,2,\n",
    "empty_field": "0,,2\n",
    "huge": "0,99999999999999999999,1\n",
    "huge_negative": "0,1,-99999999999999999999\n",
    "int64_limits": "0,9223372036854775807,-9223372036854775808\n",
    "shot_not_a_number": "x,1,2\n",
    "non_finite": "0,nan,inf\n1,-inf,NaN\n2,Infinity,1e400\n3,-0.0,1e-320\n",
    "random_volts": _rng_volts(),
    "empty": "",
    "only_blank": "\n\n",
}


def _scan(path, dtype):
    with open(path) as fh:
        fh.readline()
        return _scan_rows(fh, path, dtype)


def _outcome(read):
    try:
        return read()
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("unit", ["counts", "volts"])
@pytest.mark.parametrize("body", sorted(BODIES))
def test_fast_parse_agrees_with_line_scan(tmp_path, unit, body):
    path = tmp_path / f"{unit}.csv"
    header = "shot,m1,m2" if unit == "counts" else "shot,v1,v2"
    path.write_text(f"{header}\n{BODIES[body]}")
    sidecar_path(path).write_text(json.dumps({"unit": unit}))
    want = _outcome(lambda: _scan(path, np.int64 if unit == "counts" else float))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(lambda: read_series(path)[0])
    assert [str(w.message) for w in caught] == []
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for ch, ref in zip((got.ch1, got.ch2), want):
        assert ch.dtype == ref.dtype
        assert ch.tobytes() == ref.tobytes()


def test_plain_rows_take_the_numpy_parse(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("shot,m1,m2\n0,1,2\n1,3,4\n")
    with open(path) as fh:
        fh.readline()
        rows = _load_rows(fh, np.int64)
    assert rows.tolist() == [[0, 1, 2], [1, 3, 4]]
