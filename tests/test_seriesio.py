import io
import json
import math
import tracemalloc
import warnings
from contextlib import nullcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from photocorr import DataError, ShotSeries, ValidationError, read_series, write_series
from photocorr.seriesio import (
    _BLOCK_ROWS,
    _parse_rows,
    _write_rows,
    sidecar_path,
    write_table,
)


def test_counts_round_trip_exact(tmp_path):
    series = ShotSeries(np.array([0, 3, 17, 2]), np.array([1, 3, 16, 0]), "counts")
    path = write_series(series, tmp_path / "s.csv")
    back, meta = read_series(path)
    assert np.array_equal(back.ch1, series.ch1)
    assert np.array_equal(back.ch2, series.ch2)
    assert meta["unit"] == "counts"


def test_volts_round_trip_13_digits(tmp_path):
    rng = np.random.default_rng(11)
    v1 = rng.random(1000) * 10.0 ** -rng.integers(0, 12, 1000)
    v1[:2] = 1.234567890123e-7, 9.87654321e-9
    v2 = v1[::-1] * 0.5
    series = ShotSeries(v1, v2, "volts", (6.7182e-8, 8.3043e-8), (1e-15, 2e-15))
    path = write_series(series, tmp_path / "v.csv")
    back, _ = read_series(path)
    assert np.allclose(back.ch1, v1, rtol=5e-13, atol=0.0)
    assert np.allclose(back.ch2, v2, rtol=5e-13, atol=0.0)
    assert back.conv == (6.7182e-8, 8.3043e-8)
    assert back.instrument_noise_var == (1e-15, 2e-15)


COUNTS = np.array([3, 1, 4, 1, 5], dtype=np.int64)


def test_counts_are_kept_as_int64():
    series = ShotSeries(COUNTS, COUNTS[::-1], "counts")
    assert series.ch1 is COUNTS and series.ch2.dtype == np.int64


def test_unsigned_counts_round_trip_exactly(tmp_path):
    ch = np.array([0, 7, 255], dtype=np.uint8)
    series = ShotSeries(ch, ch[::-1], "counts")
    assert series.ch1.dtype == np.int64
    back, _ = read_series(write_series(series, tmp_path / "s.csv"))
    assert back.ch1.tolist() == [0, 7, 255] and back.ch2.tolist() == [255, 7, 0]


def test_unsigned_counts_past_int64_are_refused():
    ch = np.array([1, 2**63 - 1, 2**63], dtype=np.uint64)
    with pytest.raises(ValidationError, match=r"ch2\[2\]: count 9223372036854775808 is outside"):
        ShotSeries(np.ones(3, np.uint64), ch, "counts")


@pytest.mark.parametrize("ch1, ch2, match", [
    (np.array([], dtype=np.int64), np.array([], dtype=np.int64), r"ch1: expected a non-empty 1-d"),
    (np.array(3), np.array(4), r"ch1: expected a non-empty 1-d"),
    (np.ones((2, 2)), np.ones((2, 2)), r"ch1: expected a non-empty 1-d"),
    (np.array(["a", "b"]), np.array([1, 2]), r"ch1: expected a non-empty 1-d"),
    (np.array([1.0, 2.0]), np.array([1.0, math.nan]), r"ch2\[1\]: must be a finite number, got nan"),
    (np.array([1.0, -math.inf]), np.array([1.0, 2.0]), r"ch1\[1\]: must be a finite number"),
    ([[1], [2, 3]], [1, 2], r"ch1: expected a 1-d array"),
])
def test_channels_the_estimators_cannot_reduce_are_refused(ch1, ch2, match):
    with pytest.raises(ValidationError, match=match):
        ShotSeries(ch1, ch2, "volts")


def test_a_unit_other_than_counts_or_volts_is_refused():
    with pytest.raises(ValidationError, match="unit: expected 'counts' or 'volts', got 'amps'"):
        ShotSeries(np.array([1.0, 2.0]), np.array([2.0, 1.0]), "amps")


@pytest.mark.parametrize("ch1", [np.array([1.0, 2.0]), np.array([True, False]), [0.5, 1]])
def test_counts_channels_are_integers(ch1):
    # a counts record is written with %d, which a float channel would not survive
    with pytest.raises(ValidationError, match="ch1: expected a non-empty 1-d array of integers"):
        ShotSeries(ch1, np.array([1, 2]), "counts")


@pytest.mark.parametrize("conv, noise, match", [
    ((0.0, 1.0), (0.0, 0.0), "conv"), ((1.0, math.nan), (0.0, 0.0), "conv"),
    (5.0, (0.0, 0.0), "conv: expected a pair"), ((1.0, 1.0), (-1.0, 0.0), "instrument_noise_var"),
    ((1.0, 1.0), (0.0, math.inf), "instrument_noise_var"),
    # a set or a mapping unpacks into two values, but in an order not the caller's
    ({3.0, 1.0}, (0.0, 0.0), "conv: expected a pair"),
    ({2.0: "x", 1.0: "y"}, (0.0, 0.0), "conv: expected a pair"),
    ((1.0, 1.0), {"a": 0.1, "b": 0.2}, "instrument_noise_var: expected a pair"),
    # v / conv beyond the float range
    ((1e-320, 1.0), (0.0, 0.0), "conv: 1e-320 maps the volts of ch1 to counts beyond"),
    ((1.0, 1e-320), (0.0, 0.0), "conv: 1e-320 maps the volts of ch2 to counts beyond"),
])
def test_calibrations_the_estimators_cannot_use_are_refused(conv, noise, match):
    with pytest.raises(ValidationError, match=match):
        ShotSeries(np.array([1.0, 2.0]), np.array([2.0, 1.0]), "volts", conv, noise)


def test_calibrations_are_stored_as_the_checked_tuples():
    s = ShotSeries(np.array([1.0, 2.0]), np.array([2.0, 1.0]), "volts", [2, np.float64(4.0)],
                   [np.int64(0), 0.5])
    for pair, want in ((s.conv, (2.0, 4.0)), (s.instrument_noise_var, (0.0, 0.5))):
        assert type(pair) is tuple and pair == want
        assert all(type(x) is float for x in pair)
    assert np.array_equal(s.counts()[0], [0.5, 1.0])


def test_volts_calibration_within_the_float_range_is_accepted():
    # |v| of about 1 at 1e-170 gives counts of about 1e170, as read_series accepts
    v = 1.0 + np.random.default_rng(5).uniform(-1e-3, 1e-3, 2000)
    c1, c2 = ShotSeries(v, -v, "volts", (1e-170, 1e-170)).counts()
    assert np.isfinite(c1).all() and np.isfinite(c2).all()


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
    with pytest.raises(DataError, match="line 3: field 2: could not convert string "
                                        "'99999999999999999999' to int64$"):
        read_series(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_volts_report_line_number(tmp_path, value):
    path = tmp_path / "v.csv"
    rows = "".join(f"{i},{0.5 * i},3.0\n" for i in range(20))
    path.write_text("shot,v1,v2\n" + rows + f"20,4.0,{value}\n")
    sidecar_path(path).write_text('{"unit": "volts"}')
    with pytest.raises(DataError, match=f"line 22: field 3: voltage '{value}' is not finite$"):
        read_series(path)


@pytest.mark.parametrize("key, value", [
    ("alpha1", "x"), ("alpha1", 0), ("alpha2", -1e-8), ("alpha1", True), ("alpha2", [1.0]),
    ("alpha1", 10**400), ("noise_var1", -1.0), ("noise_var2", "x"), ("noise_var1", None),
    ("pump_truncations", -3.5),
])
@pytest.mark.parametrize("bad", ["value", "nan", "inf"])
def test_bad_calibration_names_sidecar_and_key(tmp_path, key, value, bad):
    path = tmp_path / "v.csv"
    path.write_text("shot,v1,v2\n0,1.0,2.0\n1,1.5,2.5\n")
    value = {"value": value, "nan": math.nan, "inf": math.inf}[bad]
    sidecar_path(path).write_text(json.dumps({"unit": "volts", key: value}))
    with pytest.raises(DataError, match=f"v.json: {key}: must be a"):
        read_series(path)


@pytest.mark.parametrize("key", ["alpha1", "alpha2"])
@pytest.mark.parametrize("volts", [1e10, -1e10])
def test_volts_beyond_the_float_range_name_the_alpha(tmp_path, key, volts):
    # 1.0 / 1e-300 is in the float range, +-1e10 / 1e-300 is not
    path = tmp_path / "v.csv"
    path.write_text(f"shot,v1,v2\n0,1.0,1.0\n1,{volts},{volts}\n")
    sidecar_path(path).write_text(json.dumps({"unit": "volts", key: 1e-300}))
    with pytest.raises(DataError, match=f"v.json: {key}: 1e-300 maps the volts"):
        read_series(path)
    # at 1e-170 the counts are about 1e180, inside the float range
    sidecar_path(path).write_text(json.dumps({"unit": "volts", key: 1e-170}))
    assert read_series(path)[0].conv == ((1e-170, 1.0) if key == "alpha1" else (1.0, 1e-170))


@pytest.mark.parametrize("unit", ["amps", 5, ["volts"], None, "Volts"])
def test_bad_unit_names_sidecar_and_key(tmp_path, unit):
    path = tmp_path / "v.csv"
    path.write_text("shot,v1,v2\n0,1.0,2.0\n1,1.5,2.5\n")
    sidecar_path(path).write_text(json.dumps({"unit": unit}))
    with pytest.raises(DataError, match="v.json: unit: expected 'counts' or 'volts'"):
        read_series(path)


def test_calibration_defaults_and_counts_alphas(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("shot,m1,m2\n0,1,2\n")
    sidecar_path(path).write_text('{"unit": "counts", "alpha1": 0, "noise_var2": 3}')
    series, _ = read_series(path)  # counts never divide by the alphas
    assert series.conv == (0, 1.0)
    assert series.instrument_noise_var == (0.0, 3)


@pytest.mark.parametrize("value", [math.nan, -1.0, "x"])
def test_counts_alphas_are_finite_and_non_negative(tmp_path, value):
    # counts never divide by the alphas, but a record carries them to its sidecar
    with pytest.raises(ValidationError, match="conv"):
        ShotSeries(np.array([1, 2]), np.array([2, 1]), "counts", (value, 1.0))
    path = tmp_path / "s.csv"
    path.write_text("shot,m1,m2\n0,1,2\n")
    sidecar_path(path).write_text(json.dumps({"unit": "counts", "alpha2": value}))
    with pytest.raises(DataError, match="s.json: alpha2: must be a"):
        read_series(path)


@pytest.mark.parametrize("value", [-3.5, -1, 2.5, math.inf, True])
def test_pump_truncations_is_a_count(value):
    with pytest.raises(ValidationError, match="pump_truncations"):
        ShotSeries(np.array([1, 2]), np.array([2, 1]), "counts", pump_truncations=value)


def _pair_bytes(path):
    return path.read_bytes(), sidecar_path(path).read_bytes()


@pytest.mark.parametrize("fault", ["the sidecar cannot be encoded",
                                   "the record's temporary name is a directory"])
def test_a_failed_write_leaves_the_older_pair_intact(tmp_path, fault):
    path = write_series(ShotSeries(COUNTS, COUNTS, "counts"), tmp_path / "s.csv")
    older = path.read_bytes(), sidecar_path(path).read_bytes()
    newer = ShotSeries(COUNTS[::-1], COUNTS, "volts", (2.0, 2.0))
    if fault == "the sidecar cannot be encoded":
        with pytest.raises(TypeError):
            write_series(newer, path, {"config": object()})
    else:
        (tmp_path / "s.csv.tmp").mkdir()
        with pytest.raises(DataError, match="s.csv: cannot write: Is a directory"):
            write_series(newer, path)
        (tmp_path / "s.csv.tmp").rmdir()
    assert (path.read_bytes(), sidecar_path(path).read_bytes()) == older
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.json"]


def test_a_record_named_as_its_sidecar_is_refused(tmp_path):
    with pytest.raises(ValidationError, match="cannot end in .json"):
        write_series(ShotSeries(COUNTS, COUNTS, "counts"), tmp_path / "s.json")
    assert not list(tmp_path.iterdir())


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_series(tmp_path / "nope.csv")


@pytest.mark.parametrize("directory", ["s.csv", "s.json"])
def test_a_directory_for_the_record_or_sidecar_is_a_data_error(tmp_path, directory):
    path = tmp_path / "s.csv"
    if directory == "s.json":
        path.write_text("shot,m1,m2\n0,1,2\n")
    (tmp_path / directory).mkdir()
    with pytest.raises(DataError, match=f"{directory}: cannot read"):
        read_series(path)


@pytest.mark.parametrize("name", ["s\0.csv", "s\ud800.csv"])
def test_a_name_the_file_system_cannot_take_is_a_data_error(tmp_path, name):
    # open() raises ValueError for these, not OSError
    with pytest.raises(DataError, match="cannot read"):
        read_series(tmp_path / name)
    with pytest.raises(DataError, match="cannot write"):
        write_series(ShotSeries(COUNTS, COUNTS, "counts"), tmp_path / name)
    with pytest.raises(DataError, match="cannot write"):
        write_table(tmp_path / name, {"a": COUNTS})
    assert not list(tmp_path.iterdir())


def test_empty_data_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("shot,m1,m2\n")
    with pytest.raises(DataError, match="no data rows"):
        read_series(path)


@pytest.mark.parametrize("sidecar", [
    b'{"unit": "counts"', b"[1, 2]", b'"counts"', b"\xff\xfe{}",
    pytest.param(b'{"alpha1": ' + b"1" * 5000 + b"}", id="an integer of 5000 digits"),
    pytest.param(b"[" * 100000, id="1e5 nested lists"),
])
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
def test_table_of_unequal_columns_rejected(tmp_path, fmt):
    with pytest.raises(ValidationError, match=r"'a': 3, 'b': 1"):
        write_table(tmp_path / "t", {"a": [1, 2, 3], "b": np.array([0.5])}, fmt)
    assert not (tmp_path / f"t.{fmt}").exists()


@pytest.mark.parametrize("fmt", ["tsv", "csv", "json"])
@pytest.mark.parametrize("column", [
    np.array([1 + 2j, -0.5j]), np.array(["a", "b"]), np.array([1.5, Fraction(1, 3)], dtype=object),
    [10**30, 5],  # beyond int64: an object column
], ids=["complex", "str", "object", "big_ints"])
def test_a_table_column_that_is_not_real_is_refused(tmp_path, fmt, column):
    with pytest.raises(ValidationError, match="'b': expected bool, integer or float values"):
        write_table(tmp_path / "t", {"a": [1, 2], "b": column}, fmt)
    assert not list(tmp_path.iterdir())


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


# Data bodies (after the header).  numpy's parse of the whole body decides:
# read_series reads what it reads, and refuses the rest, naming the first line
# that numpy refuses on its own.
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
    "underscore_in_a_decimal": "0,1,1_0.5\n",
    "underscore_in_an_exponent": "0,1,1\n1,2,1.5e1_0\n",
    "arabic_indic_digit": "0,\u0661,1\n",
    "unicode_spaces": "0,\u20035\u00a0,1\n",
    "signs": "0,+5,-1\n",
    "spaces": " 0 , 1 , 2 \n1,\t3,4\t\n",
    "trailing_comma": "0,1,2,\n",
    "empty_field": "0,,2\n",
    "huge": "0,99999999999999999999,1\n",
    "huge_negative": "0,1,-99999999999999999999\n",
    "int64_limits": "0,9223372036854775807,-9223372036854775808\n",
    "shot_not_a_number": "0,1,2\nx,1,2\n",
    "shot_a_decimal": "0,1,2\n1.5,1,2\n",
    "empty_shot_field": "0,1,2\n\n,1,2\n",
    "non_finite": "0,nan,inf\n1,-inf,NaN\n2,Infinity,1e400\n3,-0.0,1e-320\n",
    "random_volts": _rng_volts(),
    "empty": "",
    "only_blank": "\n\n",
}


def _numpy_rows(source, dtype, skiprows=0):
    """numpy's parse with a record's channel rules (3 fields, finite channels); None
    where it refuses."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(source, delimiter=",", comments=None, dtype=dtype, ndmin=2,
                              skiprows=skiprows, encoding="utf-8")
        except (ValueError, Warning):
            return None
    return rows if rows.shape[1] == 3 and np.isfinite(rows[:, 1:]).all() else None


def _read_as_numpy_does(path, unit, body):
    """read_series accepts the record at path if and only if numpy's parse of the
    whole file does, with the same arrays; a refused record names the first data
    line that numpy refuses on its own, or has no data line."""
    header = "shot,m1,m2" if unit == "counts" else "shot,v1,v2"
    path.write_text(f"{header}\n{body}", newline="")
    sidecar_path(path).write_text(json.dumps({"unit": unit}))
    dtype = np.int64 if unit == "counts" else float
    want = _numpy_rows(path, dtype, skiprows=1)
    with open(path, encoding="utf-8") as fh:  # lines as Python and numpy split them
        lines = fh.readlines()[1:]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = read_series(path)[0]
        except DataError as exc:
            got = str(exc)
    assert [str(w.message) for w in caught] == []
    if want is not None:
        assert not isinstance(got, str), got
        for ch, ref in zip((got.ch1, got.ch2), (want[:, 1], want[:, 2])):
            assert ch.dtype == ref.dtype
            assert ch.tobytes() == ref.tobytes()
        return
    assert isinstance(got, str), body
    bad = [n for n, line in enumerate(lines, start=2)
           if line != "\n" and _numpy_rows([line], dtype) is None]
    if bad:
        assert got.startswith(f"{path}: line {bad[0]}: "), got
    else:
        assert set(lines) <= {"\n"} and got == f"{path}: no data rows", got


@pytest.mark.parametrize("unit", ["counts", "volts"])
@pytest.mark.parametrize("body", sorted(BODIES))
def test_every_body_numpy_refuses_is_refused_naming_its_line(tmp_path, unit, body):
    _read_as_numpy_does(tmp_path / f"{unit}.csv", unit, BODIES[body])


_FIELDS = st.sampled_from(["0", "7", "-3", "+2", "1.5", "1e3", "x", "", " ", " 4 ", "\t", "1_0",
                           "\u0661", "nan", "inf", "Infinity", "99999999999999999999", "\x0c"])
_LINES = st.one_of(st.lists(_FIELDS, min_size=1, max_size=4).map(",".join),
                   st.sampled_from(["", " ", "\t"]),
                   st.integers(0, 99).map(lambda i: f"{i},{i + 1},{i + 2}"))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(unit=st.sampled_from(["counts", "volts"]),
       lines=st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8))
def test_property_a_record_reads_as_numpy_parses_it(tmp_path, unit, lines):
    _read_as_numpy_does(tmp_path / "r.csv", unit, "".join(line + end for line, end in lines))


def test_plain_rows_take_the_numpy_parse(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("shot,m1,m2\n0,1,2\n1,3,4\n")
    rows = _parse_rows(path, np.int64, skiprows=1)
    assert rows.tolist() == [[0, 1, 2], [1, 3, 4]]


# The block formatter against the per-row writer it replaced: one Python %
# per row, %d of an integer column (an integer dtype or a range) and %.12e of
# any other.  Every case must match it byte for byte.

def _format_of(col):
    return "%d" if isinstance(col, range) or np.asarray(col).dtype.kind in "iu" else "%.12e"


def _oracle(columns, sep=","):
    row = sep.join(_format_of(c) for c in columns) + "\n"
    return "".join(row % r for r in zip(*columns))


def _blockwise(columns, sep=","):
    fh = io.StringIO()
    _write_rows(fh, columns, sep)
    return fh.getvalue()


def _assert_same(columns, sep=","):
    want, got = _oracle(columns, sep), _blockwise(columns, sep)
    if got != want:  # name the first differing row, not a megabyte of text
        for i, (w, g) in enumerate(zip(want.splitlines(), got.splitlines())):
            assert g == w, f"row {i}"
        assert got == want


INT64 = np.iinfo(np.int64)


def _doubles(rng, size):
    """Doubles with uniformly random bits: every exponent, sign, nan and inf."""
    return rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)


def _powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-320, 301)])
    return np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])


SPECIAL = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                    1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308, 1e-300, 1e-296, 1e-297, 1e308, 0.5, 1.0, 0.1, 1e-4, 1e-5,
                    123456.0, 1e11, 1e12, 1e13])

# rounding carries at 12 and 13 significant digits, and the values next to them
CARRIES = np.array([9.9999999999995, 9.99999999999949, 9.99999999999951, 999999999999.5,
                    99999999999.95, 9999999999999.5, 99999999999.5, 0.99999999999995,
                    0.999999999999995, 9.999999999995e-5, 9.99999999995e-5, 9.99999999995e11,
                    9.999999999995e-300, 9.99999999999e307])
CARRIES = np.concatenate([CARRIES, np.nextafter(CARRIES, np.inf), np.nextafter(CARRIES, -np.inf)])

# exact ties at the 12th and 13th significant digit
TIES = np.concatenate([np.arange(-2000, 2000) + 0.5,
                       10.0**11 + np.arange(2000) + 0.5, 10.0**12 + np.arange(2000) + 0.5,
                       (10.0**12 + np.arange(2000) + 0.5) * 10, 9 * 10.0**12 + np.arange(2000) + 0.5])
TIES = np.concatenate([TIES, -TIES])


@pytest.mark.parametrize("sep", [",", "\t"])
def test_each_separator(sep):
    rng = np.random.default_rng(1)
    ints = rng.integers(-10**12, 10**12, 3000)
    floats = rng.standard_normal(3000) * 10.0 ** rng.integers(-20, 20, 3000)
    _assert_same([ints, floats, np.arange(3000)], sep)
    _assert_same([floats, ints, floats], sep)


def test_a_million_random_doubles():
    x = _doubles(np.random.default_rng(2), 1_000_000)
    half = len(x) // 2
    _assert_same([x[:half], x[half:]])


@pytest.mark.parametrize("name, values", [
    ("special", SPECIAL),
    ("subnormals", np.random.default_rng(3).integers(1, 2**52, 5000, dtype=np.uint64).view(np.float64)),
    ("powers_of_ten", _powers_of_ten_and_neighbours()),
    ("carries", CARRIES),
    ("ties", TIES),
])
@pytest.mark.parametrize("layout", ["alone", "run"])
def test_hard_doubles(name, values, layout):
    # a column alone is formatted as it is; adjacent columns of one dtype are stacked first
    _assert_same([values] if layout == "alone" else [values, -values])


@pytest.mark.parametrize("values", [
    np.array([INT64.min, INT64.max, INT64.min + 1, -1, 0, 1, 9999, 10**4, -10**8, 10**16, -10**18]),
    np.random.default_rng(4).integers(INT64.min, INT64.max, 5000, endpoint=True),
    np.array([0, 1, 2**63, 2**64 - 1, 10**19], dtype=np.uint64),
    np.arange(-128, 128, dtype=np.int8),
    np.array([0, 65535, 1234], dtype=np.uint16),
    [3, -7, 2**40],
], ids=["int64_limits", "int64_random", "uint64", "int8", "uint16", "list"])
def test_integer_columns(values):
    _assert_same([values])


@pytest.mark.parametrize("values", [
    np.random.default_rng(5).standard_normal(2000).astype(np.float32) * np.float32(1e30),
    np.array([0.1, -0.0, 65504, 6e-8, np.inf, np.nan], dtype=np.float16),
    np.array([1.0, -2.5, 1e-300], dtype=np.longdouble),
    [0.1, 2, -3.5, 1e300, True],
    np.array([True, False, True]),
], ids=["float32", "float16", "longdouble", "list", "bool"])
def test_float_columns(values):
    # float and bool columns print in %.12e
    _assert_same([values])


@pytest.mark.parametrize("shift", [-3e-13, 3e-13])
def test_an_exponent_estimate_off_by_one_is_caught(monkeypatch, shift):
    # floor(log10|x|) may be off by one next to a power of ten; values within
    # about 1e-12 of one must still print right if it is
    near = np.array([10.0**k * (1 + j * 1e-14) for k in range(-20, 20) for j in range(-80, 81)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    _assert_same([near, -near])


@pytest.mark.parametrize("sep", [",", "\t"])
def test_adjacent_columns_of_one_dtype(sep):
    # adjacent columns of one dtype are formatted together; a change of dtype
    # (int64 to uint64, float64 to float32) must not merge them
    rng = np.random.default_rng(9)
    x = _doubles(rng, 3000)
    y = rng.standard_normal(3000)
    y[::7] = math.nan
    big = np.full(3000, INT64.max - 1)
    ubig = np.full(3000, 2**64 - 1, dtype=np.uint64)
    _assert_same([x, y, y.astype(np.float32), x, y], sep)
    _assert_same([big, -big, ubig, ubig - np.uint64(1)], sep)


def test_zero_rows():
    assert _blockwise([np.array([], dtype=np.int64), np.array([]), np.array([])]) == ""


def test_columns_of_unequal_length_stop_at_the_shortest():
    _assert_same([np.arange(10), np.ones(7), np.ones(12)])


@pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7])
def test_block_boundaries(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
    # values that take the per-element route, on both sides of each block boundary
    for b in range(_BLOCK_ROWS, rows, _BLOCK_ROWS):
        x[b - 1], x[b] = math.nan, 5e-324
    x[0], x[-1] = -math.inf, 1e-310
    _assert_same([range(rows), x, x[::-1]], "\t")


PROPERTY = settings(max_examples=300, derandomize=True, deadline=None, database=None)


@PROPERTY
@given(st.lists(st.tuples(st.integers(INT64.min, INT64.max), st.floats(), st.floats()),
                min_size=1, max_size=40))
def test_property_matches_the_per_row_writer(rows):
    ints, x, y = zip(*rows)
    _assert_same([np.array(ints, dtype=np.int64), np.array(x), np.array(y)])


@pytest.mark.parametrize("unit", ["counts", "volts"])
def test_write_series_bytes(tmp_path, unit):
    rng = np.random.default_rng(6)
    if unit == "counts":
        ch1, ch2 = rng.integers(0, 10**7, 5000), rng.integers(0, 10**7, 5000)
    else:
        ch1, ch2 = rng.standard_normal(5000) + 1.4, rng.standard_normal(5000) * 1e-9
        ch1[[0, 7, 2500]] = [-0.0, 1e-320, 123456789012.5]
    path = write_series(ShotSeries(ch1, ch2, unit), tmp_path / "s.csv")
    head = "shot,m1,m2\n" if unit == "counts" else "shot,v1,v2\n"
    want = head + _oracle((range(5000), ch1, ch2))
    with open(tmp_path / "want.csv", "w") as fh:  # through a text handle, as the writer does
        fh.write(want)
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["tsv", "csv"])
def test_write_table_bytes(tmp_path, fmt):
    rng = np.random.default_rng(7)
    columns = {"d": np.arange(-3000, 3000), "p": rng.random(6000) ** 40,
               "f32": rng.random(6000).astype(np.float32), "flag": rng.random(6000) > 0.5,
               "list": [float(v) for v in rng.standard_normal(6000)]}
    path = write_table(tmp_path / "t", columns, fmt)
    sep = "\t" if fmt == "tsv" else ","
    want = sep.join(columns) + "\n" + _oracle([np.asarray(c) for c in columns.values()], sep)
    assert path.read_text() == want


def test_a_float_column_prints_alike_in_records_and_tables(tmp_path):
    rng = np.random.default_rng(10)
    v = rng.standard_normal(3000) * 10.0 ** rng.integers(-12, 12, 3000)
    record = write_series(ShotSeries(v, v[::-1], "volts"), tmp_path / "v.csv")
    table = write_table(tmp_path / "t", {"shot": np.arange(3000), "v1": v, "v2": v[::-1]}, "csv")
    assert record.read_bytes() == table.read_bytes()


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 5])
def test_json_table_is_the_text_of_one_dump(tmp_path, rows):
    rng = np.random.default_rng(9)
    columns = {"n": np.arange(rows) - 7, "p": rng.random(rows), "flag": rng.random(rows) > 0.5,
               'a "key"': np.where(np.arange(rows) % 5 == 0, np.nan, 1.5)}
    want = [dict(zip(columns, r)) for r in zip(*(c.tolist() for c in columns.values()))]
    text = write_table(tmp_path / "t", columns, "json").read_text()
    assert json.loads(text) == json.loads(json.dumps(want))  # NaN != NaN, so compared as text
    assert text == json.dumps(want, indent=2) + "\n"


def _peak_bytes(write):
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("what", ["table", "json", "volts"])
def test_writer_memory_does_not_grow_with_the_rows(tmp_path, what):
    rng = np.random.default_rng(8)
    peaks = {}
    sizes = {"table": (90_000, 20_000, 200_000), "json": (40_000, 10_000)}
    for rows in sizes.get(what, (200_000, 20_000)):
        if what != "volts":  # the shape of a 300x300 noise surface
            columns = {name: rng.random(rows) * 10.0**k for k, name in enumerate("abcde")}
            fmt = "tsv" if what == "table" else "json"
            peaks[rows] = _peak_bytes(lambda: write_table(tmp_path / "t", columns, fmt))
        else:
            series = ShotSeries(rng.standard_normal(rows) + 1.4, rng.standard_normal(rows) + 1.4,
                                "volts")
            peaks[rows] = _peak_bytes(lambda: write_series(series, tmp_path / "v.csv"))
    # a block of JSON rows is about 1.6 MB while the encoder builds its text
    assert max(peaks.values()) < (2.5e6 if what == "json" else 1e6), peaks
    assert abs(peaks[max(peaks)] - peaks[min(peaks)]) < 0.2e6, peaks


@pytest.mark.parametrize("unit, shots, bad_line", [
    ("counts", 100_000, False), ("volts", 100_000, False), ("counts", 400_000, True)])
def test_reading_a_record_holds_at_most_44_bytes_a_shot(tmp_path, unit, shots, bad_line):
    # the parsed rows (24 B a shot) and the two channels copied contiguous (16 B); a
    # refused record holds numpy's failed parse and then one block of lines at a time
    rng = np.random.default_rng(12)
    if unit == "counts":
        ch = rng.poisson(7e6, (2, shots))
    else:
        ch = rng.standard_normal((2, shots)) + 1.4
    path = write_series(ShotSeries(ch[0], ch[1], unit), tmp_path / "s.csv")
    if bad_line:
        with open(path, "a") as fh:
            fh.write(f"{shots},1,\n")

    def read():
        with pytest.raises(DataError, match=f"line {shots + 2}: ") if bad_line else nullcontext():
            read_series(path)

    assert _peak_bytes(read) <= 44 * (shots + bad_line)
