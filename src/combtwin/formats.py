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
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, NamedTuple

import numpy as np

from .analyzer import DemodMode, IqTimeSeries
from .fxp import ConfigError, FxpFormat, FxpValue
from .generator import AMPLITUDE_FORMAT, FilterSpec
from .harness import ChainConfig
from .metrics import PsdMethod, Spectrum, SpectrumUnits, SpectrumWindow, SpurReport

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


def _series_from_header(header: dict, i: np.ndarray, q: np.ndarray) -> IqTimeSeries:
    """Inverse of _series_header; the values may be the strings a CSV holds."""
    try:
        return IqTimeSeries(
            band_index=int(header["band_index"]),
            tone_index=int(header["tone_index"]),
            freq_word=int(header["freq_word"]),
            i=i,
            q=q,
            rate_hz=float(header["fs_hz"]),
            l_avg=int(header["l_avg"]),
            demod_mode=DemodMode(header["demod_mode"]),
            n_discarded=int(header["n_discarded"]),
        )
    except KeyError as e:
        raise ConfigError(f"I/Q series header lacks key {e}") from e


# what a series CSV reads where its metadata line lacks a key
_SERIES_CSV_DEFAULTS = _series_header(IqTimeSeries(0, 0, 0, (), (), 0.0, 1, DemodMode.SINE_DDC))


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
    meta, rows = _csv_rows(text)
    i_vals: list = []
    q_vals: list = []
    for _, si, sq in rows:
        i_vals.append(si)
        q_vals.append(sq)
    # int only when every value is an integer literal: inf and nan are floats
    is_int = all(v.strip().lstrip("+-").isdecimal() for v in i_vals + q_vals)
    conv = int if is_int else float
    dtype = np.int64 if is_int else np.float64
    i = np.array([conv(v) for v in i_vals], dtype=dtype)
    q = np.array([conv(v) for v in q_vals], dtype=dtype)
    return _series_from_header({**_SERIES_CSV_DEFAULTS, **meta}, i, q)


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
    truncated file, or a header that lacks a key or is not a JSON object."""
    if data[:4] != _BIN_MAGIC:
        raise ConfigError("not an I/Q binary file (bad magic)")
    hlen = int.from_bytes(data[4:8], "little")  # the u32, or less when cut short
    off = 8 + hlen + 8
    if len(data) < off:
        raise ConfigError("truncated I/Q binary file: header or sample count cut short")
    header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
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


def spectrum_from_csv(text: str) -> Spectrum:
    meta, rows = _csv_rows(text)
    seg = meta.get("segment_len")
    ov = meta.get("overlap_frac")
    return Spectrum(
        n_points=int(meta["n_points"]),
        bin_hz=float(meta["bin_hz"]),
        values=np.array([float(row[1]) for row in rows]),
        units=SpectrumUnits(meta["units"]),
        window=SpectrumWindow(meta["window"]),
        method=PsdMethod(meta["method"]),
        segment_len=int(seg) if seg is not None else None,
        overlap_frac=float(ov) if ov is not None else None,
    )


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


def spur_report_to_json(report: SpurReport) -> str:
    return json.dumps(spur_report_dict(report), sort_keys=True, separators=(",", ":"))


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


@dataclass(frozen=True)
class _StoredFilter:
    """A FilterSpec as stored: the coefficient format as its two widths."""

    taps: tuple[int, ...]
    total_bits: int
    frac_bits: int
    description: str = ""


class _Field(NamedTuple):
    name: str  # dataclass attribute
    key: str  # dictionary key
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
        key = "amplitude_raw" if tp is FxpValue else f.name
        section = dataclasses.is_dataclass(tp) and tp is not FxpValue
        records = typing.get_origin(tp) is tuple and dataclasses.is_dataclass(typing.get_args(tp)[0])
        out.append(_Field(f.name, key, tp, nullable or f.name in _DEFAULTED, section or records))
    return tuple(out)


def _encode(v, tp=None):
    if tp is float and v is not None:
        return float(v)  # an int given for a float field hashes as its INI read-back
    if isinstance(v, FilterSpec):
        v = _StoredFilter(v.taps, v.coeff_format.total_bits, v.coeff_format.frac_bits, v.description)
    if isinstance(v, FxpValue):
        return v.raw
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, tuple):
        return [_encode(x) for x in v]
    if dataclasses.is_dataclass(v):
        return {f.key: _encode(getattr(v, f.name), f.type) for f in _fields(type(v))}
    return v


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _where(path: str, f: _Field) -> str:
    """Where a field lives in config.ini, for error messages."""
    if f.section:
        return f"section [{_join(path, f.key)}]"
    return f"key '{_SCENARIO_KEYS.get(f.key, f.key.lower())}' in [{path or 'scenario'}]"


def _decode(tp, v, path: str):
    """Build a value of type tp from its dictionary form; leaves may be the
    strings an INI file holds."""
    if tp is FilterSpec:
        s = _decode(_StoredFilter, v, path)
        return FilterSpec(s.taps, FxpFormat(s.total_bits, s.frac_bits), s.description)
    if tp is FxpValue:
        return FxpValue(int(v), AMPLITUDE_FORMAT)
    if dataclasses.is_dataclass(tp):
        fields = _fields(tp)
        unknown = set(v) - {f.key for f in fields}
        if unknown:
            raise ConfigError(f"unknown key(s) {sorted(unknown)} in [{path or 'scenario'}]")
        kw = {}
        for f in fields:
            if f.key in v:
                x = v[f.key]
                kw[f.name] = None if x is None else _decode(f.type, x, _join(path, f.key))
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
    keys = [f.key for f in _fields(cls)]
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
        sub = _join(path, f.key)
        if f.section and sub in sections:
            if typing.get_origin(f.type) is tuple:
                d[f.key] = _records(typing.get_args(f.type)[0], sub, sections.pop(sub))
            else:
                stored = _StoredFilter if f.type is FilterSpec else f.type
                d[f.key] = _unflatten(stored, sub, sections.pop(sub), sections)
        elif not f.section and f.key.lower() in own:
            d[f.key] = own.pop(f.key.lower())
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
    """Read one real-valued series from an I/Q CSV/binary file (the I
    column) or a bare one-column CSV."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == _BIN_MAGIC:
        return np.asarray(series_from_binary(data).i, dtype=np.float64)
    _, rows = _csv_rows(data.decode("utf-8"))
    if not rows:
        raise ConfigError(f"no samples found in {path}")
    return np.array([float(row[1] if len(row) > 1 else row[0]) for row in rows], dtype=np.float64)


def write_samples_csv(x: Iterable[float]) -> str:
    rows = ["index,value"]
    for n, v in enumerate(x):
        rows.append(f"{n},{_fmt_float(v)}")
    return "\n".join(rows) + "\n"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
