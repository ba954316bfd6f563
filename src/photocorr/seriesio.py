"""Shot-record file formats.

A series is stored as a CSV file with header ``shot,m1,m2`` (counts) or
``shot,v1,v2`` (volts), one row per laser shot, plus a JSON sidecar with the
same stem carrying the calibration metadata (conversion coefficients,
instrument-noise variances, unit) and any extra provenance the writer adds.
Counts round-trip exactly; voltages are written with 12 significant digits.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import DataError
from .montecarlo import ShotSeries

_INT64 = np.iinfo(np.int64)


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_series(series: ShotSeries, csv_path, extra_meta=None) -> Path:
    csv_path = Path(csv_path)
    counts_mode = series.unit == "counts"
    names = ("m1", "m2") if counts_mode else ("v1", "v2")
    row = "%d,%d,%d\n" if counts_mode else "%d,%.12g,%.12g\n"
    with open(csv_path, "w") as fh:
        fh.write(f"shot,{names[0]},{names[1]}\n")
        _write_rows(fh, row, (range(len(series.ch1)), series.ch1, series.ch2))
    meta = {
        "unit": series.unit,
        "alpha1": series.conv[0],
        "alpha2": series.conv[1],
        "noise_var1": series.instrument_noise_var[0],
        "noise_var2": series.instrument_noise_var[1],
        "pump_truncations": series.pump_truncations,
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(sidecar_path(csv_path), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path


def read_series(csv_path) -> tuple[ShotSeries, dict]:
    """Load a CSV shot record and its sidecar; returns (series, metadata)."""
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    if not csv_path.exists():
        raise DataError(f"{csv_path}: no such file")
    meta = {}
    if side.exists():
        try:
            with open(side) as fh:
                meta = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{side}: invalid JSON sidecar: {exc}") from None
        if not isinstance(meta, dict):
            raise DataError(f"{side}: expected a JSON object sidecar, got {type(meta).__name__}")
    unit = meta.get("unit", "counts")
    counts_mode = unit == "counts"
    try:
        ch1, ch2 = _read_rows(csv_path, counts_mode)
    except UnicodeDecodeError as exc:
        raise DataError(f"{csv_path}: not UTF-8 text: {exc}") from None
    series = ShotSeries(
        ch1,
        ch2,
        unit,
        (meta.get("alpha1", 1.0), meta.get("alpha2", 1.0)),
        (meta.get("noise_var1", 0.0), meta.get("noise_var2", 0.0)),
        meta.get("pump_truncations", 0),
    )
    return series, meta


def _read_rows(csv_path, counts_mode):
    """The two channel columns of the record, after its header is checked."""
    dtype = np.int64 if counts_mode else float
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "shot,m1,m2" if counts_mode else "shot,v1,v2"
        if header != expected:
            raise DataError(f"{csv_path}: line 1: expected header {expected!r}, got {header!r}")
        rows = _load_rows(fh, dtype)
        if rows is None:
            fh.seek(0)
            fh.readline()
            return _scan_rows(fh, csv_path, dtype)
        return np.ascontiguousarray(rows[:, 1:].T)


def _load_rows(fh, dtype):
    """Parse the data rows in one numpy call; None if they are not plain rows.

    Anything numpy rejects or warns about (a malformed field, a row of the
    wrong width, an empty body) or a nan or inf channel value returns None,
    so the caller can rescan the rows with _scan_rows to name the line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype, ndmin=2)
        except (ValueError, OverflowError, Warning):
            return None
    if rows.shape[0] < 1 or rows.shape[1] != 3 or not np.isfinite(rows[:, 1:]).all():
        return None
    return rows


def _scan_rows(fh, csv_path, dtype):
    """Line-by-line parse of the data rows; raises DataError at the first bad line."""
    parse = _parse_count if dtype is np.int64 else _parse_volts
    ch1, ch2 = [], []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"{csv_path}: line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            ch1.append(parse(parts[1]))
            ch2.append(parse(parts[2]))
        except ValueError as exc:
            raise DataError(f"{csv_path}: line {lineno}: {exc}") from exc
    if not ch1:
        raise DataError(f"{csv_path}: no data rows")
    return np.asarray(ch1, dtype=dtype), np.asarray(ch2, dtype=dtype)


def _parse_count(text):
    value = int(text)
    if not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"count {value} is outside the int64 range")
    return value


def _parse_volts(text):
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"voltage {text.strip()!r} is not finite")
    return value


def write_table(path, columns, fmt="tsv") -> Path:
    """Tabular output written column-wise, with one format per column.

    columns maps each header name to a 1-d array, all of one length.  The
    dtype of a column picks its format: integer columns are written as
    integers, all others in 12-significant-digit scientific form.  fmt
    selects the container: "tsv" (default), "csv", or "json" (a list of row
    objects keyed by the header names); the path suffix is adjusted to match.
    """
    path = Path(path).with_suffix(f".{fmt}")
    cols = [np.asarray(c) for c in columns.values()]
    if fmt == "json":
        rows = zip(*(c.tolist() for c in cols))
        with open(path, "w") as fh:
            json.dump([dict(zip(columns, r)) for r in rows], fh, indent=2)
            fh.write("\n")
        return path
    sep = {"tsv": "\t", "csv": ","}[fmt]
    row = sep.join("%d" if np.issubdtype(c.dtype, np.integer) else "%.12e" for c in cols)
    with open(path, "w") as fh:
        fh.write(sep.join(columns) + "\n")
        _write_rows(fh, row + "\n", cols)
    return path


def _write_rows(fh, row, columns):
    """Write row % values for each row of values read across the columns."""
    fh.writelines(row % r for r in zip(*columns))
