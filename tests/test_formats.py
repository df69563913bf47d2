"""Serialization: series CSV/binary, spectrum CSV, INI config round-trips."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtwin.analyzer import AnalyzerConfig, DemodMode, IqTimeSeries
from combtwin.formats import (
    config_from_ini,
    config_to_dict,
    config_to_ini,
    read_samples,
    series_from_binary,
    series_from_csv,
    series_to_binary,
    series_to_csv,
    spectrum_from_csv,
    spectrum_to_csv,
    spur_report_to_json,
    write_samples_csv,
)
from combtwin.fxp import ConfigError, FxpFormat, FxpValue
from combtwin.generator import (
    AMPLITUDE_FORMAT,
    CordicConfig,
    FilterSpec,
    GeneratorConfig,
    ToneConfig,
)
from combtwin.harness import (
    ChainConfig,
    builtin_scenarios,
    config_hash,
    make_chain_config,
    persist,
    run_loopback,
)
from combtwin.metrics import PsdMethod, SpectrumWindow, psd


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


def test_spur_report_json_fields():
    import json

    from combtwin.metrics import detect_spurs

    rng = np.random.default_rng(63)
    spec = psd(rng.standard_normal(4096), 1000.0)
    import dataclasses

    vals = np.full(len(spec.values), 1e-6)
    vals[50] *= 1e4
    rep = detect_spurs(dataclasses.replace(spec, values=vals), threshold_db=10.0)
    doc = json.loads(spur_report_to_json(rep))
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


# words with characters INI files treat specially inside values
words = st.text(alphabet="abcXYZ019_-.%#;=:", min_size=1, max_size=6)
names = st.lists(words, min_size=1, max_size=3).map(" ".join)


@st.composite
def filter_specs(draw):
    total = draw(st.integers(4, 18))
    fmt = FxpFormat(total, draw(st.integers(0, total)))
    half = draw(st.lists(st.integers(fmt.min_raw, fmt.max_raw), min_size=1, max_size=6))
    return FilterSpec(tuple(half + half[-2::-1]), fmt, draw(st.just("") | names))


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
        ToneConfig(b, t, draw(st.integers(0, l_acc - 1)),
                   FxpValue(draw(st.integers(0, 1 << 15)), AMPLITUDE_FORMAT))
        for b, t in ids
    )
    return ChainConfig(
        generator=gen,
        analyzer=ana,
        tones=tones,
        acquisition_len=draw(st.integers(1, 10**6)),
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
