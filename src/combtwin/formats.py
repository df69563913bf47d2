"""File formats for persisted runs.

I/Q series as CSV (metadata comment line, column header, index,i,q rows)
and as a length-prefixed little-endian binary framing; spectra and spur
reports as CSV/JSON; scenario configs as flat INI sections; manifest as
canonical JSON. All writers are deterministic: equal inputs produce
byte-identical files.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import io
import json
import struct
import typing
from enum import Enum
from typing import Any, Iterable, NamedTuple

import numpy as np

from .analyzer import DemodMode, IqTimeSeries
from .config import ChainConfig
from .fxp import ConfigError
from .metrics import Spectrum, SpurReport

_BIN_MAGIC = b"CTIQ"


def _fmt_float(v: float) -> str:
    return repr(float(v))


# ---------------------------------------------------------------------------
# I/Q series


def _csv_rows(text: str) -> tuple[dict[str, str], list[list[str]]]:
    """The `# key=value` metadata and the comma-split data rows of a CSV
    artifact. Blank lines and the column-header line (index, freq_hz or
    value) are skipped."""
    meta: dict[str, str] = {}
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta.update(part.split("=", 1) for part in line[1:].split() if "=" in part)
        elif not line.startswith(("index", "freq_hz", "value")):
            rows.append(line.split(","))
    return meta, rows


def _header(meta: dict, what: str, **convs) -> dict:
    """Each key of convs read from meta through its converter (an int, a
    float or an enum); a missing key, or a value its converter refuses,
    raises ConfigError naming the key."""
    out = {}
    for key, conv in convs.items():
        if key not in meta:
            raise ConfigError(f"{what} header lacks key '{key}'")
        try:
            out[key] = conv(meta[key])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{what} header key '{key}': {e}") from e
    return out


def _data_values(rows: list[list[str]], columns: str, conv, what: str) -> list:
    """The values past the first column (index or freq_hz) of data rows
    holding the comma-separated columns, through conv, row by row; a row
    of another length, or a value conv refuses, raises ConfigError naming
    the data row."""
    width = columns.count(",") + 1
    out = []
    for n, row in enumerate(rows):
        try:
            if len(row) != width:
                raise ValueError(f"{','.join(row)!r} is not {columns}")
            out += [conv(v) for v in row[1:]]
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"{what} data row {n + 1}: {e}") from e
    return out


def _series_header(series: IqTimeSeries) -> dict:
    """The tone metadata both series formats store, in the CSV's key order."""
    return {
        "band_index": series.band_index,
        "tone_index": series.tone_index,
        "freq_word": series.freq_word,
        "fs_hz": float(series.rate_hz),
        "l_avg": series.l_avg,
        "demod_mode": series.demod_mode.value,
        "n_discarded": series.n_discarded,
    }


# the converter of each key of _series_header
_SERIES_KEYS = dict(
    band_index=int, tone_index=int, freq_word=int, fs_hz=float, l_avg=int,
    demod_mode=DemodMode, n_discarded=int,
)


def _series_from_header(header: dict, i: np.ndarray, q: np.ndarray) -> IqTimeSeries:
    """Inverse of _series_header; the values may be the strings a CSV holds."""
    h = _header(header, "I/Q series", **_SERIES_KEYS)
    return IqTimeSeries(i=i, q=q, rate_hz=h.pop("fs_hz"), **h)


def series_to_csv(series: IqTimeSeries) -> str:
    """Header line with tone metadata, column line, then index,i,q rows."""
    meta = "# " + " ".join(f"{k}={v}" for k, v in _series_header(series).items())
    out = [meta, "index,i,q"]
    is_int = np.issubdtype(np.asarray(series.i).dtype, np.integer)
    for n, (i, q) in enumerate(zip(series.i, series.q)):
        if is_int:
            out.append(f"{n},{int(i)},{int(q)}")
        else:
            out.append(f"{n},{_fmt_float(i)},{_fmt_float(q)}")
    return "\n".join(out) + "\n"


def series_from_csv(text: str) -> IqTimeSeries:
    """Inverse of series_to_csv; raises ConfigError naming a key the
    metadata line lacks or holds a bad value in, or a data row that is
    not index,i,q numbers."""
    return _series_from_rows(*_csv_rows(text))


def _series_from_rows(meta: dict[str, str], rows: list[list[str]]) -> IqTimeSeries:
    """series_from_csv of a CSV's _csv_rows."""
    # int only when every value is an integer literal: inf and nan are floats
    is_int = all(v.strip().lstrip("+-").isdecimal() for row in rows for v in row[1:])
    conv, dtype = (int, np.int64) if is_int else (float, np.float64)
    iq = np.array(_data_values(rows, "index,i,q", conv, "I/Q series"), dtype=dtype)
    i, q = iq.reshape(-1, 2).T.copy()
    return _series_from_header(meta, i, q)


def series_to_binary(series: IqTimeSeries) -> bytes:
    """Length-prefixed little-endian framing.

    Layout: magic "CTIQ", u32 header length, UTF-8 JSON header, u64 sample
    count, then sample count int64 (or float64) I values followed by as
    many Q values, all little-endian. The header's dtype field says which.
    """
    is_int = np.issubdtype(np.asarray(series.i).dtype, np.integer)
    dtype = "<i8" if is_int else "<f8"
    header = {**_series_header(series), "dtype": dtype}
    header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_BIN_MAGIC)
    buf.write(struct.pack("<I", len(header)))
    buf.write(header)
    buf.write(struct.pack("<Q", len(series.i)))
    buf.write(np.asarray(series.i).astype(dtype).tobytes())
    buf.write(np.asarray(series.q).astype(dtype).tobytes())
    return buf.getvalue()


def series_from_binary(data: bytes) -> IqTimeSeries:
    """Inverse of series_to_binary; raises ConfigError on a bad magic, a
    truncated file, or a header that is not UTF-8 JSON, is not an object
    or lacks a key."""
    if data[:4] != _BIN_MAGIC:
        raise ConfigError("not an I/Q binary file (bad magic)")
    hlen = int.from_bytes(data[4:8], "little")  # the u32, or less when cut short
    off = 8 + hlen + 8
    if len(data) < off:
        raise ConfigError("truncated I/Q binary file: header or sample count cut short")
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"I/Q binary header is not UTF-8 JSON: {e}") from e
    (count,) = struct.unpack_from("<Q", data, 8 + hlen)
    if not isinstance(header, dict) or header.get("dtype") not in ("<i8", "<f8"):
        raise ConfigError("I/Q binary header is not an object with a valid dtype")
    dtype = np.dtype(header["dtype"])
    if len(data) < off + 2 * count * dtype.itemsize:
        raise ConfigError(f"truncated I/Q binary file: fewer than {count} I and Q samples")
    i = np.frombuffer(data, dtype=dtype, count=count, offset=off).copy()
    q = np.frombuffer(
        data, dtype=dtype, count=count, offset=off + count * dtype.itemsize
    ).copy()
    return _series_from_header(header, i, q)


# ---------------------------------------------------------------------------
# spectra and spur reports


def spectrum_to_csv(spec: Spectrum, config_hash: str = "") -> str:
    meta = (
        f"# method={spec.method.value} window={spec.window.value} "
        f"units={spec.units.value} n_points={spec.n_points} "
        f"bin_hz={_fmt_float(spec.bin_hz)}"
    )
    if spec.segment_len is not None:
        meta += f" segment_len={spec.segment_len} overlap_frac={_fmt_float(spec.overlap_frac)}"
    if config_hash:
        meta += f" config_hash={config_hash}"
    rows = [meta, "freq_hz,value"]
    freqs = spec.freqs_hz
    for f, v in zip(freqs, spec.values):
        rows.append(f"{_fmt_float(f)},{_fmt_float(v)}")
    return "\n".join(rows) + "\n"


def spur_report_dict(report: SpurReport) -> dict:
    """The JSON object of a spur report: its floor, detected lines and
    predicted (frequency, tag) pairs."""
    return {
        "floor": report.floor,
        "lines": [
            {"freq_hz": l.freq_hz, "level_db": l.level_db, "bin": l.bin}
            for l in report.lines
        ],
        "predicted": [[f, tag] for f, tag in report.predicted],
    }


# ---------------------------------------------------------------------------
# scenario config schema
#
# One walk over the dataclass fields of ChainConfig and its parts gives the
# canonical dictionary (hashed by config_hash, stored in the manifest) and
# the config.ini layout: a nested dictionary is a section named by its path,
# keys are lower-cased, None is left out, a number list is one comma-separated
# value and each tone record is one key. A key whose field defaults to None
# may be missing; so may the keys in _DEFAULTED, which take the field default.

# [scenario] holds the top-level keys, named and ordered as before the schema
_SCENARIO_KEYS = {
    "scenario_name": "name",
    "seed": "seed",
    "acquisition_len": "acquisition_len",
    "warmup_windows": "warmup_windows",
}
_DEFAULTED = ("warmup_windows", "guard_bits", "description")


class _Field(NamedTuple):
    name: str  # dataclass attribute and dictionary key
    type: Any  # field type, `X | None` unwrapped
    optional: bool
    section: bool  # stored as its own INI section


@functools.cache
def _fields(cls) -> tuple[_Field, ...]:
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        tp = hints[f.name]
        nullable = type(None) in typing.get_args(tp)
        if nullable:
            (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
        records = typing.get_origin(tp) is tuple and dataclasses.is_dataclass(typing.get_args(tp)[0])
        section = dataclasses.is_dataclass(tp) or records
        out.append(_Field(f.name, tp, nullable or f.name in _DEFAULTED, section))
    return tuple(out)


def _encode(v, tp=None):
    if tp is float and v is not None:
        return float(v)  # an int given for a float field hashes as its INI read-back
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    if dataclasses.is_dataclass(v):
        return {f.name: _encode(getattr(v, f.name), f.type) for f in _fields(type(v))}
    return v


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _where(path: str, f: _Field) -> str:
    """Where a field lives in config.ini, for error messages."""
    if f.section:
        return f"section [{_join(path, f.name)}]"
    return f"key '{_SCENARIO_KEYS.get(f.name, f.name.lower())}' in [{path or 'scenario'}]"


def _decode(tp, v, path: str):
    """Build a value of type tp from its dictionary form; leaves may be the
    strings an INI file holds."""
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        unknown = set(v) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in [{path or 'scenario'}]")
        kw = {}
        for f in fields:
            if f.name in v:
                x = v[f.name]
                kw[f.name] = None if x is None else _decode(f.type, x, _join(path, f.name))
            elif not f.optional:
                raise ConfigError(f"missing {_where(path, f)}")
        return tp(**kw)
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, x, path) for x in (v.split(",") if isinstance(v, str) else v))
    try:
        return tp(v)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value {v!r} for {path}: {e}") from e


def config_to_dict(cfg: ChainConfig) -> dict:
    """The canonical dictionary of a config: what config_hash hashes and the
    manifest stores."""
    return _encode(cfg)


def config_hash(cfg: ChainConfig) -> str:
    """SHA-256 of the canonical dictionary as compact, key-sorted JSON."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_from_dict(d: dict) -> ChainConfig:
    """Inverse of config_to_dict; raises ConfigError naming a missing,
    unknown or malformed key."""
    return _decode(ChainConfig, d, "")


def _flatten(d: dict, path: str, sections: dict) -> None:
    own = sections.setdefault(path or "scenario", {})
    for key, v in d.items():
        sub = _join(path, key)
        if isinstance(v, dict):
            _flatten(v, sub, sections)
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            prefix = key.removesuffix("s")
            sections[sub] = {
                f"{prefix}_{n}": ",".join(map(str, rec.values())) for n, rec in enumerate(v)
            }
        elif v is not None:
            own[key.lower()] = ",".join(map(str, v)) if isinstance(v, list) else str(v)


def config_to_ini(cfg: ChainConfig) -> str:
    """config.ini text of a config; config_from_ini reads it back to the same
    config hash."""
    d = config_to_dict(cfg)
    sections = {"scenario": {ini: str(d.pop(key)) for key, ini in _SCENARIO_KEYS.items()}}
    _flatten(d, "", sections)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _records(cls, name: str, section: dict) -> list[dict]:
    keys = [f.name for f in _fields(cls)]
    prefix = name.removesuffix("s") + "_"
    rows = []
    for k, v in section.items():
        n = k.removeprefix(prefix)
        if not (k.startswith(prefix) and n.isdecimal()):
            raise ConfigError(f"unknown key '{k}' in [{name}]")
        values = v.split(",")
        if len(values) != len(keys):
            raise ConfigError(f"[{name}] {k} needs {len(keys)} values: {','.join(keys)}")
        rows.append((int(n), dict(zip(keys, values))))
    return [row for _, row in sorted(rows, key=lambda r: r[0])]


def _unflatten(cls, path: str, own: dict, sections: dict) -> dict:
    """The dictionary of cls from its section's keys (own) and the sections
    below it, popped from sections."""
    d = {}
    for f in _fields(cls):
        sub = _join(path, f.name)
        if f.section and sub in sections:
            if typing.get_origin(f.type) is tuple:
                d[f.name] = _records(typing.get_args(f.type)[0], sub, sections.pop(sub))
            else:
                d[f.name] = _unflatten(f.type, sub, sections.pop(sub), sections)
        elif not f.section and f.name.lower() in own:
            d[f.name] = own.pop(f.name.lower())
    if own:
        raise ConfigError(f"unknown key(s) {sorted(own)} in [{path or 'scenario'}]")
    return d


def config_from_ini(text: str) -> ChainConfig:
    """Read config.ini text; raises ConfigError naming a missing or unknown
    key or section."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"malformed config file: {e}") from e
    sections = {name: dict(cp[name]) for name in cp.sections()}
    scenario = sections.pop("scenario", {})
    d = {key: scenario.pop(ini) for key, ini in _SCENARIO_KEYS.items() if ini in scenario}
    d.update(_unflatten(ChainConfig, "", scenario, sections))
    cfg = config_from_dict(d)
    if sections:
        raise ConfigError(f"unknown section(s) {', '.join(f'[{s}]' for s in sections)}")
    return cfg


# ---------------------------------------------------------------------------
# plain sample files (CLI psd/deglitch inputs)


def read_samples(path: str) -> np.ndarray:
    """Read one real-valued series: the I column of an I/Q binary file or
    of a CSV whose metadata holds a series header key, both through the
    series readers, or else the second column of a CSV (the only one of a
    one-column CSV). A value that does not parse or is not finite raises
    ConfigError naming the file and the data row."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == _BIN_MAGIC:
        x = np.asarray(series_from_binary(data).i, dtype=np.float64)
    else:
        meta, rows = _csv_rows(data.decode("utf-8"))
        if meta.keys() & _SERIES_KEYS.keys():
            try:
                x = np.asarray(_series_from_rows(meta, rows).i, dtype=np.float64)
            except ConfigError as e:
                raise ConfigError(f"{path}: {e}") from e
        elif not rows:
            raise ConfigError(f"no samples found in {path}")
        else:
            x = np.empty(len(rows))
            for n, row in enumerate(rows):
                try:
                    x[n] = float(row[1] if len(row) > 1 else row[0])
                except ValueError as e:
                    raise ConfigError(f"{path} data row {n + 1}: {e}") from e
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ConfigError(f"{path} data row {bad[0] + 1}: {x[bad[0]]} is not finite")
    return x


def write_samples_csv(x: Iterable[float]) -> str:
    rows = ["index,value"]
    for n, v in enumerate(x):
        rows.append(f"{n},{_fmt_float(v)}")
    return "\n".join(rows) + "\n"
