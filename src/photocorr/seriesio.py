"""Shot-record file formats.

A series is stored as a CSV file with header ``shot,m1,m2`` (counts) or
``shot,v1,v2`` (volts), one row per laser shot, plus a JSON sidecar with the
same stem carrying the calibration metadata (conversion coefficients,
instrument-noise variances, unit) and any extra provenance the writer adds.
Counts round-trip exactly; voltages are written with 13 significant digits.

Records and tables share one format rule: the dtype of a column picks C
``%d`` (integers) or ``%.12e`` (everything else).  They are formatted
block-wise in numpy, a fixed number of rows at a time, with the exact bytes
of those formats.  An element whose digits the numpy path cannot prove
correctly rounded (a near-tie, nan, inf, a magnitude outside about
1e-296..1e308) is formatted by Python's ``%`` for that element alone.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .sources import _checked, _checked_pair

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class ShotSeries:
    """Per-shot outputs of the two detection channels.

    ch1/ch2 hold detected counts (unit == "counts") or boxcar voltages
    (unit == "volts").  Conversion coefficients and instrument-noise
    variances travel with the data so analyzers can undo them.
    """

    ch1: np.ndarray
    ch2: np.ndarray
    unit: str
    conv: tuple[float, float] = (1.0, 1.0)
    instrument_noise_var: tuple[float, float] = (0.0, 0.0)
    pump_truncations: int = 0

    def __post_init__(self):
        if self.unit not in ("counts", "volts"):
            raise ValidationError(f"unit: expected 'counts' or 'volts', got {self.unit!r}")
        # counts are written with %d, so they must be integers
        kinds, what = ("iu", "integers") if self.unit == "counts" else ("iuf", "numbers")
        for name in ("ch1", "ch2"):  # checked as they are: counts stay int64
            try:
                ch = np.asarray(getattr(self, name))
            except ValueError:  # a ragged sequence
                raise ValidationError(f"{name}: expected a 1-d array of {what}") from None
            if ch.ndim != 1 or ch.size == 0 or ch.dtype.kind not in kinds:
                raise ValidationError(f"{name}: expected a non-empty 1-d array of {what}, "
                                      f"got shape {ch.shape} and dtype {ch.dtype}")
            if ch.dtype.kind == "f" and not np.isfinite(ch).all():
                i = int(np.argmin(np.isfinite(ch)))
                raise ValidationError(f"{name}[{i}]: must be a finite number, got {ch[i].item()!r}")
            object.__setattr__(self, name, ch)
        if len(self.ch1) != len(self.ch2):
            raise ValidationError("ch1 and ch2 must have equal length")
        # the coefficients divide volts; counts never use them, but write them to the sidecar
        conv = _checked_pair("conv", self.conv, "> 0" if self.unit == "volts" else ">= 0")
        j = self.unit == "volts" and _overflowing_channel(self.ch1, self.ch2, conv)
        if j:
            raise ValidationError(f"conv: {conv[j - 1]!r} maps the volts of ch{j} to counts "
                                  "beyond the float range")
        object.__setattr__(self, "conv", conv)
        object.__setattr__(self, "instrument_noise_var", _checked_pair(
            "instrument_noise_var", self.instrument_noise_var, ">= 0"))
        _checked("pump_truncations", self.pump_truncations, "integer >= 0")

    def __len__(self):
        return len(self.ch1)

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Channel values mapped back to detected-photon units."""
        if self.unit == "counts":
            return np.asarray(self.ch1, dtype=float), np.asarray(self.ch2, dtype=float)
        return self.ch1 / self.conv[0], self.ch2 / self.conv[1]


def _overflowing_channel(ch1, ch2, conv):
    """The first channel, 1 or 2, whose counts v / conv pass the float range, else 0."""
    return next((j for j, ch in ((1, ch1), (2, ch2))
                 if not np.isfinite(max(-float(ch.min()), float(ch.max())) / conv[j - 1])), 0)


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def write_series(series: ShotSeries, csv_path, extra_meta=None) -> Path:
    csv_path = Path(csv_path)
    names = ("m1", "m2") if series.unit == "counts" else ("v1", "v2")
    _write_text(csv_path, ("shot",) + names, (range(len(series.ch1)), series.ch1, series.ch2))
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
    """Load a CSV shot record and its sidecar; returns (series, metadata).  A missing
    sidecar reads as {}; a missing record, or any other fault opening or decoding either
    file, is a DataError naming the file."""
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    try:
        with open(csv_path, encoding="utf-8") as fh:
            meta = _read_sidecar(side)
            unit = meta.get("unit", "counts")
            if unit not in ("counts", "volts"):
                raise DataError(f"{side}: unit: expected 'counts' or 'volts', got {unit!r}")
            counts_mode = unit == "counts"
            ch1, ch2 = _read_rows(fh, csv_path, counts_mode)
    except FileNotFoundError:
        raise DataError(f"{csv_path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{csv_path}: not UTF-8 text: {exc}") from None
    except ValueError as exc:  # a NUL or a character the file system cannot encode in the name
        raise DataError(f"{csv_path}: cannot read: {exc}") from None
    except OSError as exc:
        raise DataError(f"{csv_path}: cannot read: {exc.strerror}") from None
    conv = (meta.get("alpha1", 1.0), meta.get("alpha2", 1.0))
    try:  # the rules of ShotSeries, each named by the sidecar and the key
        conv = tuple(_checked(f"{side}: alpha{j}", conv[j - 1], ">= 0" if counts_mode else "> 0")
                     for j in (1, 2))
        noise = tuple(_checked(f"{side}: noise_var{j}", meta.get(f"noise_var{j}", 0.0), ">= 0")
                      for j in (1, 2))
        truncations = _checked(f"{side}: pump_truncations", meta.get("pump_truncations", 0),
                               "integer >= 0")
    except ValidationError as exc:
        raise DataError(str(exc)) from None
    j = not counts_mode and _overflowing_channel(ch1, ch2, conv)
    if j:
        raise DataError(f"{side}: alpha{j}: {conv[j - 1]!r} maps the volts of "
                        f"channel {j} to counts beyond the float range")
    series = ShotSeries(ch1, ch2, unit, conv, noise, truncations)
    return series, meta


def _read_sidecar(side):
    """The sidecar's JSON object, {} if there is none; DataError naming it if it cannot
    be read or is not a JSON object."""
    try:
        with open(side, encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        return {}
    # not UTF-8, an integer past Python's digit limit, nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{side}: invalid JSON sidecar: {exc}") from None
    except OSError as exc:
        raise DataError(f"{side}: cannot read: {exc.strerror}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{side}: expected a JSON object sidecar, got {type(meta).__name__}")
    return meta


def _read_rows(fh, csv_path, counts_mode):
    """The two channel columns of the record open as fh, after its header is checked."""
    dtype = np.int64 if counts_mode else float
    header = fh.readline().strip()
    expected = "shot,m1,m2" if counts_mode else "shot,v1,v2"
    if header != expected:
        raise DataError(f"{csv_path}: line 1: expected header {expected!r}, got {header!r}")
    rows = _load_rows(csv_path, dtype)
    if rows is None:
        return _scan_rows(fh, csv_path, dtype)
    return np.ascontiguousarray(rows[:, 1:].T)


def _load_rows(csv_path, dtype):
    """Parse the data rows in one numpy call; None if they are not plain rows.

    numpy opens the file itself and skips the header line, which is faster
    than parsing from a Python file object.  Anything numpy rejects or warns
    about (a malformed field, a row of the wrong width, an empty body) or a
    nan or inf channel value returns None, so the caller can rescan the rows
    with _scan_rows to name the line.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(csv_path, delimiter=",", comments=None, dtype=dtype, ndmin=2,
                              skiprows=1, encoding="utf-8")
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

    columns maps each header name to a 1-d array, all of one length
    (ValidationError otherwise, before anything is written).  The
    dtype of a column picks its format, as in a shot record: integer columns
    are written as integers, all others in 13-significant-digit scientific
    form.  fmt selects the container: "tsv" (default), "csv", or "json" (a
    list of row objects keyed by the header names); the path suffix is
    adjusted to match.
    """
    path = Path(path).with_suffix(f".{fmt}")
    cols = [np.asarray(c) for c in columns.values()]
    lengths = {name: len(c) for name, c in zip(columns, cols)}
    if len(set(lengths.values())) > 1:
        raise ValidationError(f"columns: expected equal lengths, got {lengths}")
    if fmt == "json":  # the text of json.dump(rows, fh, indent=2), a block of rows at a time
        n = len(cols[0]) if cols else 0
        with open(path, "w") as fh:
            fh.write("[" if n else "[]")
            for lo in range(0, n, _BLOCK_ROWS):
                rows = zip(*(c[lo:lo + _BLOCK_ROWS].tolist() for c in cols))
                # the block's list text without its brackets, as its rows sit in the whole list
                text = json.dumps([dict(zip(columns, r)) for r in rows], indent=2)[1:-2]
                fh.write(text if lo == 0 else "," + text)
            fh.write("\n]\n" if n else "\n")
        return path
    _write_text(path, columns, cols, {"tsv": "\t", "csv": ","}[fmt])
    return path


def _write_text(path, header, columns, sep=","):
    """A text file of the header names and then the rows of the columns."""
    with open(path, "w") as fh:
        fh.write(sep.join(header) + "\n")
        _write_rows(fh, columns, sep)


# Rows formatted per block: a block of a five-column table holds about 0.4 MB
# while it is built, however long the table.
_BLOCK_ROWS = 1024

# Fields are rows of little-endian uint64 words: byte i of a word is bits
# 8i..8i+7.  NUL bytes pad a field anywhere and are dropped before writing.
_ZERO, _MINUS = ord("0"), ord("-")


def _words(texts):
    """Each ASCII string of up to 8 bytes as one NUL-padded word."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8").astype(np.uint64)


# The four zero-padded digits of every integer below 10**4 ("0042") as a word.
_digit_bytes = np.zeros((10, 10, 10, 10, 8), np.uint8)
for _k in range(4):
    _digit_bytes[..., _k] = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8).reshape((10,) + (1,) * (3 - _k))
_FOUR_DIGITS = _digit_bytes.view("<u8").ravel().astype(np.uint64)
del _digit_bytes, _k

# 'e' and the signed exponent, at least two digits, for -330..330.
_EXP_MIN = -330
_EXPONENTS = _words([f"e{k:+03d}" for k in range(_EXP_MIN, -_EXP_MIN + 1)])

# What %.12e prints after the sign: the lead digit and the point.
_LEAD_DIGIT = _words([f"\0{d}." for d in range(10)])

_POW10_INT = np.array([10**k for k in range(20)], dtype=np.uint64)
_BYTE_MASK = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # low k bytes

# Correctly rounded doubles 10**k (Python's float parse rounds correctly), so
# each is within a relative 2**-53 of the power.
_POW10_MIN, _POW10_MAX = -300, 308
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, _POW10_MAX + 1)])


def _write_rows(fh, columns, sep=","):
    """Write the rows read across the columns: %d of an integer column (a range
    or an array of integer dtype), %.12e of any other.

    Byte for byte the text of sep.join(formats) % row + "\\n" for each row of
    zip(*columns), built a block of rows at a time: every column becomes a
    NUL-padded field matrix ending in its separator (a newline for the last
    column), the fields are joined, and the NUL bytes are dropped before the
    block is written to the text handle fh.  Adjacent columns of one dtype are
    formatted in one call.
    """
    columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    n = min((len(c) for c in columns), default=0)
    tails = [ord(sep)] * (len(columns) - 1) + [ord("\n")]
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        runs = []  # dtype, the column blocks, their tails
        for col, tail in zip(columns, tails):
            values = _block(col, lo, hi)
            if runs and runs[-1][0] == values.dtype:
                runs[-1][1].append(values)
                runs[-1][2].append(tail)
            else:
                runs.append((values.dtype, [values], [tail]))
        text = np.concatenate([_format_run(parts, run_tails) for _, parts, run_tails in runs],
                              axis=1).tobytes()
        text = text.translate(None, b"\0")
        fh.write(text.decode("ascii"))


def _block(col, lo, hi):
    """Rows lo:hi of a column; a range (the shot index) becomes an integer array."""
    part = col[lo:hi]
    return np.arange(part.start, part.stop, part.step) if isinstance(part, range) else part


def _format_run(parts, tails):
    """The fields of adjacent column blocks of one dtype, one row of words per row."""
    rows = len(parts[0])
    values = parts[0] if len(parts) == 1 else np.stack(parts, axis=1).ravel()
    return _format_column(values, np.tile(np.array(tails, np.uint64), rows)).reshape(rows, -1)


def _format_column(values, tails):
    """Words of %d (integer dtypes) or %.12e (any other) of each value, one
    NUL-padded row each, ending in its tail byte.

    Floats and booleans take the %.12e path as doubles (the conversion
    Python's % makes).  Any other dtype (objects, complex numbers), and the
    values the float path cannot prove correctly rounded, are formatted by
    Python's % value by value.
    """
    if values.dtype.kind in "iu":
        return _format_d(values, tails)
    if values.dtype.kind not in "bf":
        return _python_fields(values, tails)
    x = values.astype(np.float64, copy=False)
    words, ok = _format_float(x, tails)
    redo = np.flatnonzero(~ok)
    if redo.size:
        words[redo] = _python_fields(x[redo].tolist(), tails[redo], words.shape[1])
    return words


def _python_fields(values, tails, n_words=1):
    """%.12e % v by Python for each v, as rows of at least n_words words."""
    raw = np.array(["%.12e" % v for v in values], dtype="S")
    words = np.zeros((len(raw), max(n_words, raw.itemsize // 8 + 1)), np.uint64)
    fields = words.view(np.uint8)
    fields[:, :raw.itemsize] = raw.view(np.uint8).reshape(len(raw), -1)
    fields[:, -1] = tails
    return words


def _quads(v, n):
    """The n four-digit groups of each integer 0 <= v < 10**(4 n), most significant first."""
    groups = []
    for _ in range(n):
        v, q = np.divmod(v, 10_000)
        groups.insert(0, q)
    return groups


def _format_d(v, tails):
    """%d of integers of any width, signed or not."""
    mag = v.astype(np.uint64)
    neg = v < 0
    np.negative(mag, out=mag, where=neg)  # two's complement: |int64 min| is 2**63
    n_digits = np.maximum(np.searchsorted(_POW10_INT, mag, side="right"), 1)
    # 8 * n_words digits, zero-padded so that each row has a leading zero to hold its sign
    n_words = int(n_digits.max()) // 8 + 1
    n_lead = 8 * n_words - n_digits
    quads = _quads(mag, 2 * n_words)
    words = np.empty((len(v), n_words + 1), np.uint64)
    for j in range(n_words):
        words[:, j] = (_FOUR_DIGITS[quads[2 * j]] | _FOUR_DIGITS[quads[2 * j + 1]] << 32) \
            & ~_BYTE_MASK[np.minimum(np.maximum(n_lead - 8 * j, 0), 8)]
    words[:, 0] |= neg.astype(np.uint64) * _MINUS
    words[:, -1] = tails
    return words


def _round_significant(x, n):
    """|x| rounded to n significant digits: (m, e, ok), |x| ~ m * 10**(e - n + 1).

    m has exactly n digits (m = 0 and e = 0 for x = 0).  Where ok is False
    the digits could not be proven correctly rounded (nan, inf, a magnitude
    outside the power table, a near-tie), and m = e = 0.

    The proof: p = |x| * fl(10**s) lies within 2 * 2**-53 relative of the
    exact t = |x| * 10**s (two correct roundings), so |p - t| < p * 2**-51.
    Where p is farther than that from every half-integer, rint(p) = round(t).
    s comes from floor(log10|x|), which may be off by one next to a power of
    ten; so p is accepted anywhere in [10**(n-1) - 0.04, 10**n + 4).  The
    values within 0.04 below 10**(n-1) round to 10**(n-1) at either exponent,
    and those from 10**n - 0.5 up carry to (10**(n-1), e + 1) at either, so
    no exact comparison with a power of ten is needed.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = (n - 1) - np.floor(np.log10(a))
        k = np.fmin(np.fmax(s, _POW10_MIN), _POW10_MAX).astype(np.int64)  # nan -> _POW10_MIN
        p = a * _POW10[k - _POW10_MIN]
        ok = ((s == k) & (p >= 10.0 ** (n - 1) - 0.04) & (p < 10.0**n + 4.0)
              & (np.abs(p - np.floor(p) - 0.5) > p * 2.0**-51))
    m = np.rint(np.where(ok, p, 0.0)).astype(np.int64)
    carry = m >= 10**n
    m[carry] = 10 ** (n - 1)
    return m, np.where(ok, (n - 1) - k + carry, 0), ok | (a == 0)


def _format_float(x, tails):
    """%.12e words of doubles, and where they are right: the sign, the lead
    digit, the point, 12 digits and the exponent."""
    m, exp, ok = _round_significant(x, 13)
    lead = m // 10**12
    high, mid, low = _quads(m - lead * 10**12, 3)
    words = np.empty((len(x), 4), np.uint64)
    words[:, 0] = np.signbit(x).astype(np.uint64) * _MINUS | _LEAD_DIGIT[lead]
    words[:, 1] = _FOUR_DIGITS[high] | _FOUR_DIGITS[mid] << 32
    words[:, 2] = _FOUR_DIGITS[low]
    words[:, 3] = _EXPONENTS[exp - _EXP_MIN] | tails << 56
    return words, ok
