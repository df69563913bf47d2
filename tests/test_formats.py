"""Serialization: series CSV/binary, spectrum CSV, INI config round-trips."""

import hashlib
import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin.analyzer import AnalyzerConfig, DemodMode, IqTimeSeries
from combtwin.config import ChainConfig
from combtwin.formats import (
    _csv_rows,
    _data_values,
    _header,
    config_from_ini,
    config_hash,
    config_to_dict,
    config_to_ini,
    read_samples,
    series_from_binary,
    series_from_csv,
    series_to_binary,
    series_to_csv,
    spectrum_to_csv,
    spur_report_dict,
    write_samples_csv,
)
from combtwin.fxp import ConfigError, FxpFormat
from combtwin.generator import (
    CordicConfig,
    FilterSpec,
    GeneratorConfig,
    ToneConfig,
)
from combtwin.harness import (
    builtin_scenarios,
    make_chain_config,
    persist,
    run_loopback,
)
from combtwin.metrics import PsdMethod, Spectrum, SpectrumUnits, SpectrumWindow, psd


def spectrum_from_csv(text: str) -> Spectrum:
    """Inverse of spectrum_to_csv, kept as the round-trip oracle; raises
    ConfigError naming a key the metadata line lacks or holds a bad value
    in, or a data row that is not freq_hz,value numbers."""
    meta, rows = _csv_rows(text)
    optional = {k: conv for k, conv in (("segment_len", int), ("overlap_frac", float)) if k in meta}
    h = _header(
        meta, "spectrum", n_points=int, bin_hz=float, units=SpectrumUnits,
        window=SpectrumWindow, method=PsdMethod, **optional,
    )
    values = np.array(_data_values(rows, "freq_hz,value", float, "spectrum"))
    return Spectrum(values=values, **h)


def make_series(float_data=False, n=64, seed=61):
    rng = np.random.default_rng(seed)
    if float_data:
        i = rng.standard_normal(n) * 1e7
        q = rng.standard_normal(n) * 1e7
    else:
        i = rng.integers(-(2**40), 2**40, n)
        q = rng.integers(-(2**40), 2**40, n)
    return IqTimeSeries(
        band_index=3,
        tone_index=17,
        freq_word=205,
        i=i,
        q=q,
        rate_hz=250e6 / 65536,
        l_avg=65536,
        demod_mode=DemodMode.SINE_DDC,
        n_discarded=5,
    )


def _series_equal(a, b):
    assert a.band_index == b.band_index
    assert a.tone_index == b.tone_index
    assert a.freq_word == b.freq_word
    assert a.rate_hz == b.rate_hz
    assert a.l_avg == b.l_avg
    assert a.demod_mode == b.demod_mode
    assert a.n_discarded == b.n_discarded
    assert np.array_equal(a.i, b.i)
    assert np.array_equal(a.q, b.q)


def test_series_csv_round_trip_integers():
    s = make_series()
    text = series_to_csv(s)
    assert text.startswith("#")
    back = series_from_csv(text)
    _series_equal(s, back)
    assert back.i.dtype == np.int64


def test_series_csv_round_trip_floats():
    s = make_series(float_data=True)
    back = series_from_csv(series_to_csv(s))
    _series_equal(s, back)  # repr round-trip is exact for float64


def test_series_of_only_inf_and_nan_round_trips_in_both_formats():
    s = make_series(n=2)
    floats = IqTimeSeries(
        3, 17, 205, np.array([np.inf, np.nan]), np.array([-np.inf, np.nan]),
        s.rate_hz, s.l_avg, s.demod_mode, s.n_discarded,
    )
    for back in (series_from_csv(series_to_csv(floats)), series_from_binary(series_to_binary(floats))):
        assert back.i.dtype == back.q.dtype == np.float64
        assert np.array_equal(back.i, floats.i, equal_nan=True)
        assert np.array_equal(back.q, floats.q, equal_nan=True)
    assert series_from_csv(series_to_csv(s)).i.dtype == np.int64


@pytest.mark.parametrize("key", ["band_index", "fs_hz", "l_avg", "demod_mode"])
def test_series_csv_without_a_key_is_named(key):
    text = series_to_csv(make_series())
    meta, rest = text.split("\n", 1)
    meta = " ".join(p for p in meta.split() if not p.startswith(f"{key}="))
    with pytest.raises(ConfigError, match=f"lacks key '{key}'"):
        series_from_csv(meta + "\n" + rest)
    # nor does a CSV without its metadata line read as band 0 at rate 0
    with pytest.raises(ConfigError, match="lacks key"):
        series_from_csv(rest)



@pytest.mark.parametrize(
    "row, why",
    [
        ("1,5", "'1,5' is not index,i,q"),
        ("1,5,6,7", "'1,5,6,7' is not index,i,q"),
        ("1,abc,6", "could not convert string to float: 'abc'"),
    ],
)
def test_series_csv_with_a_bad_data_row_names_the_row(row, why):
    meta, cols, first, _, *rest = series_to_csv(make_series(n=4)).splitlines()
    text = "\n".join([meta, cols, first, row, *rest])
    with pytest.raises(ConfigError, match=f"^I/Q series data row 2: {why}$"):
        series_from_csv(text)


@pytest.mark.parametrize(
    "key, value, why",
    [
        ("demod_mode", "bogus", "'bogus' is not a valid DemodMode"),
        ("l_avg", "1.5", "invalid literal for int"),
        ("fs_hz", "fast", "could not convert string to float: 'fast'"),
    ],
)
def test_series_header_with_a_bad_value_names_the_key(key, value, why):
    s = make_series(n=2)
    meta, rest = series_to_csv(s).split("\n", 1)
    meta = " ".join(f"{key}={value}" if p.startswith(f"{key}=") else p for p in meta.split())
    blob = series_to_binary(s)
    hlen = int.from_bytes(blob[4:8], "little")
    header = {**json.loads(blob[8 : 8 + hlen]), key: value}
    h = json.dumps(header).encode("utf-8")
    bad_blob = b"CTIQ" + len(h).to_bytes(4, "little") + h + blob[8 + hlen :]
    for read, data in ((series_from_csv, meta + "\n" + rest), (series_from_binary, bad_blob)):
        with pytest.raises(ConfigError, match=f"^I/Q series header key '{key}': {why}"):
            read(data)

def test_series_binary_round_trip():
    for float_data in (False, True):
        s = make_series(float_data=float_data)
        blob = series_to_binary(s)
        assert blob[:4] == b"CTIQ"
        back = series_from_binary(blob)
        _series_equal(s, back)


def test_series_binary_rejects_garbage():
    with pytest.raises(ValueError):
        series_from_binary(b"NOPE" + b"\x00" * 64)
    blob = series_to_binary(make_series())
    with pytest.raises(ValueError):
        series_from_binary(blob[:20])  # truncated
    # headers that are not JSON, or not UTF-8
    for header in (b"abc", b"\xff\xfe"):
        bad = b"CTIQ" + len(header).to_bytes(4, "little") + header + bytes(8)
        with pytest.raises(ConfigError, match="not UTF-8 JSON"):
            series_from_binary(bad)


@pytest.mark.parametrize("float_data", [False, True])
def test_series_binary_rejects_every_truncation(float_data):
    blob = series_to_binary(make_series(float_data=float_data, n=3))
    for cut in range(4, len(blob)):
        with pytest.raises(ConfigError, match="truncated"):
            series_from_binary(blob[:cut])


@pytest.mark.parametrize("key", ["band_index", "fs_hz", "demod_mode", "n_discarded", "dtype"])
def test_series_binary_header_without_a_key_is_named(key):
    blob = series_to_binary(make_series(n=2))
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8 : 8 + hlen])
    del header[key]
    h = json.dumps(header).encode("utf-8")
    cut = b"CTIQ" + len(h).to_bytes(4, "little") + h + blob[8 + hlen :]
    with pytest.raises(ConfigError, match=key):
        series_from_binary(cut)


def test_series_binary_is_little_endian_blocks():
    s = make_series(n=4)
    blob = series_to_binary(s)
    # trailer: u64 count, then the I and Q blocks
    count = int.from_bytes(blob[-72:-64], "little")
    assert count == 4
    i_block = np.frombuffer(blob[-64:-32], dtype="<i8")
    assert np.array_equal(i_block, s.i)


def test_spectrum_csv_round_trip():
    rng = np.random.default_rng(62)
    x = rng.standard_normal(4096)
    for method in (PsdMethod.PERIODOGRAM, PsdMethod.WELCH):
        spec = psd(x, 3814.7, method=method)
        text = spectrum_to_csv(spec, config_hash="abc123")
        back = spectrum_from_csv(text)
        assert back.n_points == spec.n_points
        assert back.bin_hz == spec.bin_hz
        assert back.units == spec.units
        assert back.window == spec.window
        assert back.method == spec.method
        assert back.segment_len == spec.segment_len
        assert back.overlap_frac == spec.overlap_frac
        assert np.array_equal(back.values, spec.values)


@pytest.mark.parametrize("key", ["n_points", "bin_hz", "units", "window", "method"])
def test_spectrum_csv_without_a_key_is_named(key):
    text = spectrum_to_csv(psd(np.arange(64.0), 10.0), config_hash="abc123")
    meta, rest = text.split("\n", 1)
    meta = " ".join(p for p in meta.split() if not p.startswith(f"{key}="))
    with pytest.raises(ConfigError, match=f"lacks key '{key}'"):
        spectrum_from_csv(meta + "\n" + rest)
    # nor does a CSV without its metadata line raise a bare KeyError
    with pytest.raises(ConfigError, match="spectrum header lacks key"):
        spectrum_from_csv(rest)



@pytest.mark.parametrize(
    "row, why",
    [
        ("0.125", "'0.125' is not freq_hz,value"),
        ("0.125,1.0,2.0", "'0.125,1.0,2.0' is not freq_hz,value"),
        ("0.125,loud", "could not convert string to float: 'loud'"),
    ],
)
def test_spectrum_csv_with_a_bad_data_row_names_the_row(row, why):
    # the fourth line is the second data row
    meta, cols, first, _, *rest = spectrum_to_csv(psd(np.arange(64.0), 10.0)).splitlines()
    text = "\n".join([meta, cols, first, row, *rest])
    with pytest.raises(ConfigError, match=f"^spectrum data row 2: {why}$"):
        spectrum_from_csv(text)


@pytest.mark.parametrize(
    "key, enum", [("units", "SpectrumUnits"), ("window", "SpectrumWindow"), ("method", "PsdMethod")]
)
def test_spectrum_header_with_a_bad_enum_names_the_key(key, enum):
    text = spectrum_to_csv(psd(np.arange(64.0), 10.0))
    meta, rest = text.split("\n", 1)
    meta = " ".join(f"{key}=bogus" if p.startswith(f"{key}=") else p for p in meta.split())
    with pytest.raises(
        ConfigError, match=f"^spectrum header key '{key}': 'bogus' is not a valid {enum}$"
    ):
        spectrum_from_csv(meta + "\n" + rest)

def test_spur_report_json_fields():
    from combtwin.metrics import detect_spurs

    rng = np.random.default_rng(63)
    spec = psd(rng.standard_normal(4096), 1000.0)
    vals = np.full(len(spec.values), 1e-6)
    vals[50] *= 1e4
    rep = detect_spurs(replace(spec, values=vals), threshold_db=10.0)
    # persist writes each report's dictionary into the spur JSON
    doc = json.loads(json.dumps(spur_report_dict(rep)))
    assert doc["floor"] == rep.floor
    assert len(doc["lines"]) == 1
    assert doc["lines"][0]["bin"] == 50
    assert "predicted" in doc


def test_config_ini_round_trip_all_scenarios():
    for name, cfg in builtin_scenarios().items():
        cfg2 = config_from_ini(config_to_ini(cfg))
        assert config_to_dict(cfg2) == config_to_dict(cfg), name
        assert config_hash(cfg2) == config_hash(cfg), name


def test_int_given_for_a_float_field_hashes_as_its_ini_read_back():
    # config.ini stores 250000000 and reads it back as a float; the
    # dictionary must encode float fields as floats from the start
    cfg = make_chain_config("x", 1024, 1024, 1, 1, 10, band_rate_hz=250000000)
    back = config_from_ini(config_to_ini(cfg))
    assert config_to_dict(back) == config_to_dict(cfg)
    assert config_hash(back) == config_hash(cfg)
    assert config_hash(cfg) == config_hash(make_chain_config("x", 1024, 1024, 1, 1, 10))
    assert config_hash(cfg).startswith("120da64088fe")


# config hash and SHA-256 of config_to_ini for every builtin; perfbench's
# golden file does not cover full_a or full_b
BUILTIN_PINS = {
    "desk_a": (
        "1cff1de6788a9ce333812930369e9a4c2dd60197a87e3180eee9aafbf438f904",
        "7f03c4441ff98fdf722b5c7593fdc1ddfe66f72facbf60b47c52c500183f4e84",
    ),
    "desk_b": (
        "20ef6f23f62a61e7c60443a8feb25472a1282c77ee1d3ed38e71dca35149d6c9",
        "b540b17256aabfef0dd9b1becb83b5da2f3c2475ff4255a619b0e4c06018c714",
    ),
    "full_a": (
        "5d245afcf75df4b66fb1d6d3e62dc9d36af7e9b5c51a6212bcc1e530e4604485",
        "90b295c85a74458fe14b67008b9d433ff78c99203890b5282f5427b8fb7f5f76",
    ),
    "full_b": (
        "8aa3fd931633a0f4fab07e5efe3c6bc5d3794ef787937af6be70767a467b61ba",
        "fc7a7bad89dd99162937f118e50bdbf304cabf57803881ecbeaa4d1eaac3119f",
    ),
    "demod_single": (
        "977d2f8ab4ff974bbbf11e14f95dc844eed662ee62d10ae3d2de074850e83dd2",
        "1ae506ccc8d5bb1f70b8c397268cbb1cba656c4e551d12fe75408d3a728110a3",
    ),
    "demod_two_tone": (
        "06f92c040bbb505271ad3ee6b85ffde9bbd24707d98c0222711f2757487b4642",
        "f638cc9103b8bc20c7828a44f63c28c2be86850a1fff34a700ab1427150c7356",
    ),
}


def test_builtin_config_hashes_and_ini_bytes_are_pinned():
    pins = {
        name: (config_hash(cfg), hashlib.sha256(config_to_ini(cfg).encode("utf-8")).hexdigest())
        for name, cfg in builtin_scenarios().items()
    }
    assert pins == BUILTIN_PINS


# SHA-256 of repr((taps, total_bits, frac_bits)) of the designed interpolator
# and channelizer; every builtin has U = 8, so all six resolve the same two.
# The config hash leaves out a filter that defaults to None, and the golden
# digests do not cover full_a or full_b.
DESIGNED_FILTER_PINS = (
    "3b7f11fefdf6baf4a17f2deafacbaa159f4d39536844a2953f918bfaaa29624f",
    "5504ae75c3d23ab9cd0accb966f51721246e211e6a8a80dc03db70d354de0696",
)


def test_builtin_designed_filters_are_pinned():
    def digest(spec):
        blob = repr((spec.taps, spec.total_bits, spec.frac_bits)).encode()
        return hashlib.sha256(blob).hexdigest()

    for name, cfg in builtin_scenarios().items():
        interp, chan = cfg.generator.resolved_interp_filter(), cfg.resolved_channelizer_filter()
        assert (digest(interp), digest(chan)) == DESIGNED_FILTER_PINS, name


def test_explicit_filters_are_stored_as_their_fields():
    # desk_a with both designed filters given explicitly: every section's
    # keys are its dataclass's fields, and the bytes are pinned
    cfg = builtin_scenarios()["desk_a"]
    g = replace(cfg.generator, interp_filter=cfg.generator.resolved_interp_filter())
    a = replace(cfg.analyzer, channelizer_filter=cfg.resolved_channelizer_filter())
    cfg = replace(cfg, generator=g, analyzer=a)
    d = config_to_dict(cfg)
    names = [f.name for f in fields(FilterSpec)]
    assert names == ["taps", "total_bits", "frac_bits", "description"]
    assert list(d["generator"]["interp_filter"]) == names
    assert list(d["analyzer"]["channelizer_filter"]) == names
    assert list(d["tones"][0]) == [f.name for f in fields(ToneConfig)]
    ini = config_to_ini(cfg)
    assert "[generator.interp_filter]\ntaps = " in ini
    back = config_from_ini(ini)
    assert back == cfg
    assert config_to_ini(back) == ini
    assert config_hash(cfg) == "18a4270b236f425d2cc9a02afbf570bf4235d3158b0ede350130d79ceb298cd2"
    assert (
        hashlib.sha256(ini.encode("utf-8")).hexdigest()
        == "96371ca21eee77a06295f452f9a25aa95c305c8fdf85977e5fda8b6afcfbf19b"
    )


# words with characters INI files treat specially inside values
words = st.text(alphabet="abcXYZ019_-.%#;=:", min_size=1, max_size=6)
names = st.lists(words, min_size=1, max_size=3).map(" ".join)


@st.composite
def filter_specs(draw):
    total = draw(st.integers(4, 18))
    fmt = FxpFormat(total, draw(st.integers(0, total)))
    half = draw(st.lists(st.integers(fmt.min_raw, fmt.max_raw), min_size=1, max_size=6))
    return FilterSpec(tuple(half + half[-2::-1]), fmt.total_bits, fmt.frac_bits,
                      draw(st.just("") | names))


@st.composite
def chain_configs(draw):
    """Random valid configs, every optional key both set and left out."""
    data_bits = draw(st.integers(4, 16))
    u = draw(st.sampled_from([1, 2, 4, 8]))
    n_bands = draw(st.integers(1, 3))
    l_acc = 4 * draw(st.integers(2, 1024))
    rate = draw(st.floats(1e3, 1e9))
    gen = GeneratorConfig(
        n_bands=n_bands,
        tones_per_band=draw(st.integers(1, 4)),
        L_acc=l_acc,
        band_rate_hz=rate,
        upsample_factor=u,
        shifter_lut_len=5 * u * draw(st.integers(1, 3)),
        cordic=CordicConfig(
            data_bits,
            draw(st.integers(1, 16)),
            draw(st.none() | st.integers(4, 24)),
            draw(st.integers(0, 8)),
        ),
        interp_filter=draw(st.none() | filter_specs()),
        sum_width_bits=draw(st.none() | st.integers(8, 24)),
    )
    l_avg = draw(st.integers(1, 4096))
    ana = AnalyzerConfig(
        decim_to_band=u,
        L_avg=l_avg,
        demod_mode=draw(st.sampled_from(DemodMode)),
        n_bands=n_bands,
        band_rate_hz=rate,
        wide_width_bits=gen.wide_width,
        reference_bits=data_bits,
        shifter_lut_len=gen.shifter_lut_len,
        channelizer_filter=draw(st.none() | filter_specs()),
        accumulator_width_bits=draw(
            st.none() | st.integers(gen.wide_width + data_bits + 2 + (l_avg - 1).bit_length(), 63)
        ),
    )
    ids = draw(
        st.lists(st.tuples(st.integers(0, n_bands - 1), st.integers(0, 5)), min_size=1,
                 max_size=4, unique=True)
    )
    tones = tuple(
        ToneConfig(b, t, draw(st.integers(0, l_acc - 1)), draw(st.integers(0, 1 << 15)))
        for b, t in ids
    )
    return ChainConfig(
        generator=gen,
        analyzer=ana,
        tones=tones,
        acquisition_len=draw(st.integers(2, 10**6)),
        scenario_name=draw(names),
        seed=draw(st.integers(0, 2**31)),
        warmup_windows=draw(st.integers(0, 5)),
    )


@settings(max_examples=150)
@given(chain_configs())
def test_config_ini_round_trip_keeps_the_hash(cfg):
    ini = config_to_ini(cfg)
    cfg2 = config_from_ini(ini)
    assert cfg2 == cfg  # every field survives, not only the hashed dictionary
    assert config_hash(cfg2) == config_hash(cfg)
    assert config_to_dict(cfg2) == config_to_dict(cfg)
    assert config_to_ini(cfg2) == ini


def test_config_ini_rejects_malformed():
    from combtwin import ConfigError

    with pytest.raises(ConfigError):
        config_from_ini("not an ini at all [whatever")
    with pytest.raises(ConfigError):
        config_from_ini("[scenario]\nname = x\n")  # missing sections
    # the reader's errors are ConfigErrors naming the INI key or section
    ini = config_to_ini(builtin_scenarios()["desk_a"])
    for old, new, named in [
        ("l_avg = 1024\n", "", "key 'l_avg' in [analyzer]"),
        ("name = desk_a\n", "", "key 'name' in [scenario]"),
        ("[generator.cordic]", "[generator.cordics]", "section [generator.cordic]"),
        ("demod_mode = sine", "demod_mode = bogus", "'bogus' for analyzer.demod_mode"),
        ("l_avg = ", "l_avgg = ", "unknown key(s) ['l_avgg'] in [analyzer]"),
        ("[tones]", "[tone]", "section [tones]"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(named)):
            config_from_ini(ini.replace(old, new))


def test_read_samples_csv_and_binary(tmp_path):
    x = np.array([1.5, -2.25, 3.0, 1e-9])
    p = tmp_path / "x.csv"
    p.write_text(write_samples_csv(x))
    got = read_samples(str(p))
    assert np.array_equal(got, x)
    # binary series file: I column comes back
    s = make_series(n=8)
    pb = tmp_path / "s.bin"
    pb.write_bytes(series_to_binary(s))
    got_i = read_samples(str(pb))
    assert np.array_equal(got_i, s.i.astype(np.float64))
    # two-column csv without header: second column
    pc = tmp_path / "two.csv"
    pc.write_text("0,10.5\n1,11.5\n2,12.5\n")
    assert np.array_equal(read_samples(str(pc)), [10.5, 11.5, 12.5])


def test_read_samples_reads_a_series_csv_through_the_series_reader(tmp_path):
    s = make_series(n=8)
    text = series_to_csv(s)
    p = tmp_path / "s.csv"
    p.write_text(text)
    assert np.array_equal(read_samples(str(p)), s.i.astype(np.float64))
    # the series reader refuses a bad data row or header value; the error
    # names the file
    for old, new, named in [
        ("\n3,", "\n3,x", "I/Q series data row 4: "),
        ("l_avg=", "l_avg=x", "I/Q series header key 'l_avg': "),
    ]:
        p.write_text(text.replace(old, new))
        with pytest.raises(ConfigError, match=re.escape(f"{p}: {named}")):
            read_samples(str(p))


# ---------------------------------------------------------------------------
# every artifact reader is total: it returns a value or raises ConfigError

# the separators the artifact formats parse on, and the digits
_MUTANT_BYTES = b",=#:.\n []{}\"-+e0123456789"


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """data truncated, less a span of 1-7 bytes, with one byte replaced by
    a separator or a digit, or less one line. Half the positions fall in
    the first 200 bytes, where the headers are."""
    kind = draw(st.sampled_from(["truncate", "delete_span", "replace_byte", "delete_line"]))
    if kind == "delete_line":
        lines = data.splitlines(keepends=True)
        k = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[:k] + lines[k + 1 :])
    at = draw(st.integers(0, len(data) - 1) | st.integers(0, min(len(data), 200) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "delete_span":
        return data[:at] + data[at + draw(st.integers(1, 7)) :]
    return data[:at] + bytes([draw(st.sampled_from(_MUTANT_BYTES))]) + data[at + 1 :]


_READERS = {
    "series/b000_t000.csv": lambda blob: series_from_csv(blob.decode("utf-8")),
    "series/b000_t000.bin": series_from_binary,
    "config.ini": lambda blob: config_from_ini(blob.decode("utf-8")),
}


@pytest.mark.parametrize("rel", sorted(_READERS))
@settings(max_examples=200)
@given(data=st.data())
def test_artifact_readers_parse_or_raise_config_error(demod_single_dir, rel, data):
    blob = data.draw(mutations((demod_single_dir / rel).read_bytes()))
    try:
        _READERS[rel](blob)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def persisted(tmp_path_factory):
    """desk_a and demod_two_tone, run and persisted once."""
    root = tmp_path_factory.mktemp("persisted")
    runs = {}
    for name in ("desk_a", "demod_two_tone"):
        res = run_loopback(builtin_scenarios()[name])
        persist(res, str(root / name))
        runs[name] = (res, root / name)
    return runs


def _spectra_equal(a, b):
    assert (a.n_points, a.bin_hz, a.units, a.window, a.method) == (
        b.n_points, b.bin_hz, b.units, b.window, b.method
    )
    assert (a.segment_len, a.overlap_frac) == (b.segment_len, b.overlap_frac)
    assert a.values.dtype == b.values.dtype
    assert a.values.view(np.int64).tolist() == b.values.view(np.int64).tolist()


def _report_doc(rep):
    return {
        "floor": rep.floor,
        "lines": [{"freq_hz": l.freq_hz, "level_db": l.level_db, "bin": l.bin} for l in rep.lines],
        "predicted": [[f, tag] for f, tag in rep.predicted],
    }


@pytest.mark.parametrize("name", ["desk_a", "demod_two_tone"])
def test_persisted_artifacts_read_back_bit_for_bit(persisted, name):
    res, run_dir = persisted[name]
    for tr in res.tones:
        s = tr.series
        stem = f"b{s.band_index:03d}_t{s.tone_index:03d}"
        for back in (
            series_from_csv((run_dir / "series" / f"{stem}.csv").read_text(encoding="utf-8")),
            series_from_binary((run_dir / "series" / f"{stem}.bin").read_bytes()),
        ):
            _series_equal(back, s)
            assert back.i.dtype == back.q.dtype == s.i.dtype
        for kind, spec in (("amp", tr.amp_spectrum), ("phase", tr.phase_spectrum)):
            text = (run_dir / "spectra" / f"{stem}_{kind}.csv").read_text(encoding="utf-8")
            _spectra_equal(spectrum_from_csv(text), spec)
        doc = json.loads((run_dir / "spurs" / f"{stem}.json").read_text(encoding="utf-8"))
        assert doc == {
            "amp": _report_doc(tr.amp_spurs),
            "phase": _report_doc(tr.phase_spurs),
            "carrier_power": tr.carrier_power,
        }


def test_read_samples_on_persisted_artifacts(persisted, tmp_path):
    res, run_dir = persisted["desk_a"]
    tr = res.tones[0]
    want = tr.series.i.astype(np.float64)
    assert np.array_equal(read_samples(str(run_dir / "series" / "b000_t000.csv")), want)
    assert np.array_equal(read_samples(str(run_dir / "series" / "b000_t000.bin")), want)
    spec = read_samples(str(run_dir / "spectra" / "b000_t000_amp.csv"))
    assert spec.view(np.int64).tolist() == tr.amp_spectrum.values.view(np.int64).tolist()
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(write_samples_csv([1.5, -2.0, 3e-9]).replace("\n", "\r\n").encode("utf-8"))
    assert read_samples(str(crlf)).tolist() == [1.5, -2.0, 3e-9]
