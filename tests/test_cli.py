"""Command line interface: outputs, file side effects, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combtwin
from combtwin.analyzer import DemodMode, IqTimeSeries
from combtwin.cli import main
from combtwin.formats import (
    _series_from_rows,
    config_hash,
    config_to_ini,
    read_samples,
    series_to_binary,
    series_to_csv,
)
from combtwin.harness import builtin_scenarios
from test_formats import mutations


def _small_ini(tmp_path, name, scenario="desk_a", acq=160):
    cfg = replace(builtin_scenarios()[scenario], acquisition_len=acq)
    path = tmp_path / name
    path.write_text(config_to_ini(cfg), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# predict-spurs


def test_predict_spurs_reports_both_aliases(capsys):
    rc = main(
        "predict-spurs --l-acc 65536 --upsample 8 --lut 40 "
        "--l-avg 65536 --band-rate 250e6".split()
    )
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "762.94 Hz and 1525.88 Hz"
    assert out[1] == "762.939453125 Hz  boxcar attenuation -0.58 dB"
    assert out[2] == "1525.87890625 Hz  boxcar attenuation -2.42 dB"


def test_predict_spurs_none_for_divisible_modulus(capsys):
    rc = main(
        "predict-spurs --l-acc 65520 --upsample 8 --lut 40 "
        "--l-avg 65520 --band-rate 250e6".split()
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "no spurs predicted"


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_predict_spurs_refuses_a_non_finite_band_rate(capsys, rate):
    argv = f"predict-spurs --l-acc 1024 --l-avg 1024 --band-rate {rate}".split()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: band_rate must be finite and > 0")


# ---------------------------------------------------------------------------
# deglitch


def test_deglitch_clean_file(tmp_path, capsys):
    rng = np.random.default_rng(7)
    path = tmp_path / "x.csv"
    path.write_text("\n".join(repr(float(v)) for v in rng.normal(size=1000)) + "\n")
    rc = main(["deglitch", "--in", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "replaced 0 samples"


def test_deglitch_replaces_and_writes(tmp_path, capsys):
    rng = np.random.default_rng(11)
    x = rng.normal(size=5000)
    x[[100, 2500, 4999]] = 80.0
    src = tmp_path / "x.csv"
    out = tmp_path / "clean.csv"
    src.write_text("\n".join(repr(float(v)) for v in x) + "\n")
    rc = main(["deglitch", "--in", str(src), "--out", str(out)])
    txt = capsys.readouterr().out
    assert rc == 0
    assert "replaced 3 samples" in txt
    assert f"wrote {out}" in txt
    cleaned = read_samples(str(out))
    assert np.abs(cleaned).max() < 10.0
    keep = np.ones(len(x), bool)
    keep[[100, 2500, 4999]] = False
    assert np.array_equal(cleaned[keep], x[keep])


@pytest.mark.parametrize("command", ["psd", "deglitch"])
@pytest.mark.parametrize(
    "row, why",
    [("nan", "nan is not finite"), ("inf", "inf is not finite"), ("1,", "could not convert")],
)
def test_sample_file_with_a_bad_value_exits_1(tmp_path, capsys, command, row, why):
    path = tmp_path / "x.csv"
    path.write_text(f"1\n2\n{row}\n4\n", encoding="utf-8")
    assert main([command, "--in", str(path)]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(f"error: {path} data row 3: ")
    assert why in cap.err


@pytest.mark.parametrize("command", ["psd", "deglitch"])
@pytest.mark.parametrize("suffix", ["csv", "bin"])
@settings(max_examples=60)
@given(data=st.data())
def test_sample_commands_on_a_mutated_series_exit_0_or_1(demod_single_dir, command, suffix, data):
    blob = (demod_single_dir / "series" / f"b000_t000.{suffix}").read_bytes()
    path = demod_single_dir.parent / f"mutant.{suffix}"
    path.write_bytes(data.draw(mutations(blob)))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--in", str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# start-up


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about 0.4 s of import; only Welch and Hann load it
    src = str(Path(combtwin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, combtwin.cli; sys.exit('scipy.signal' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=60
    )
    assert proc.returncode == 0


# ---------------------------------------------------------------------------
# exit codes


def test_exit_codes(tmp_path, capsys):
    assert main(["predict-spurs", "--l-acc", "1024", "--l-avg", "1024"]) == 0
    assert main(["run-loopback", "--no-such-flag"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["run-loopback", "--config", "/does/not/exist.ini"]) == 1
    capsys.readouterr()


def test_long_run_gate(capsys):
    rc = main(["run-loopback", "--config", "full_a"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--long-run" in err
    # dumping a gated scenario needs no unlock, it never simulates
    assert main(["dump-config", "--config", "full_a"]) == 0
    capsys.readouterr()


def test_existing_output_dir_is_refused(tmp_path, capsys):
    cfg = _small_ini(tmp_path, "small.ini", acq=80)
    out = tmp_path / "run"
    out.mkdir()
    (out / "keep.txt").write_text("precious")
    rc = main(["run-loopback", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert (out / "keep.txt").read_text() == "precious"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# run-loopback


def test_run_loopback_stdout_and_artifacts(tmp_path, capsys):
    cfg = _small_ini(tmp_path, "small.ini", acq=2560)
    out = tmp_path / "run"
    rc = main(["run-loopback", "--config", cfg, "--out", str(out), "--engine", "periodic"])
    txt = capsys.readouterr().out
    assert rc == 0
    assert txt.startswith("scenario desk_a  engine periodic  hash ")
    assert txt.splitlines()[0].endswith("  (periodic requested and the transient fits)")
    rates = txt.splitlines()[1]
    assert " computed " in rates and " simulated " in rates
    assert "amp spur bins: 512,1024  phase spur bins: 512,1024" in txt
    assert f"wrote {out}" in txt
    man = json.loads((out / "manifest.json").read_text())
    assert man["scenario_name"] == "desk_a"
    assert (out / "config.ini").exists()
    assert len(list((out / "series").iterdir())) == 2 * 8


def test_run_loopback_on_a_one_window_capture_exits_1(tmp_path, capsys):
    path = Path(_small_ini(tmp_path, "one.ini", acq=2))
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("acquisition_len = 2\n", "acquisition_len = 1\n"), encoding="utf-8")
    assert main(["run-loopback", "--config", str(path)]) == 1
    assert "acquisition_len 1 is too short" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["inf", "nan"])
def test_run_loopback_refuses_a_non_finite_band_rate_as_the_config_loads(tmp_path, capsys, rate):
    path = Path(_small_ini(tmp_path, "rate.ini"))
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("band_rate_hz = 250000000.0", f"band_rate_hz = {rate}"))
    with mock.patch("combtwin.cli.run_loopback", side_effect=AssertionError("the comb ran")):
        assert main(["run-loopback", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: band_rate_hz must be finite and > 0")


@pytest.mark.parametrize("raw", ["40000", "-1"])
def test_run_loopback_refuses_an_amplitude_outside_0_to_1(tmp_path, capsys, raw):
    path = Path(_small_ini(tmp_path, "amp.ini"))
    text = path.read_text(encoding="utf-8")
    assert "tone_0 = 0,0,51,8192\n" in text
    path.write_text(text.replace("tone_0 = 0,0,51,8192\n", f"tone_0 = 0,0,51,{raw}\n"))
    assert main(["run-loopback", "--config", str(path)]) == 1
    assert f"amplitude_raw {raw} must be in 0..32768" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep-cordic


def test_sweep_cordic_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep-cordic", "--bits", "10", "--iters", "7,10", "--out", str(out)])
    txt = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert txt[0] == "data_bits,iterations,sinad_db,sfdr_db"
    assert txt[1] == "10,7,39.0201,51.6365"
    assert txt[2] == "10,10,40.9098,51.2106"
    assert out.read_text().splitlines() == txt


def test_sweep_cordic_takes_a_full_scale_config(capsys):
    # the sweep simulates one tone per row, not the run, so needs no unlock
    assert main(["sweep-cordic", "--config", "full_a", "--bits", "10", "--iters", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "data_bits,iterations,sinad_db,sfdr_db"


def test_sweep_cordic_keeps_the_config_angle_bits(tmp_path, capsys):
    # the sweep sets data bits and iterations only: a 12-bit CORDIC angle
    # in the INI sweeps otherwise than the default data_bits - 1
    text = config_to_ini(builtin_scenarios()["desk_a"])
    assert "guard_bits = 0\n" in text
    rows = []
    for ini in (text, text.replace("guard_bits = 0\n", "guard_bits = 0\nangle_bits = 12\n")):
        path = tmp_path / "sweep.ini"
        path.write_text(ini, encoding="utf-8")
        argv = ["sweep-cordic", "--config", str(path), "--bits", "8,10", "--iters", "10"]
        assert main(argv) == 0
        rows.append(capsys.readouterr().out.splitlines())
    assert rows[0][0] == rows[1][0] == "data_bits,iterations,sinad_db,sfdr_db"
    assert [r.split(",")[:2] for r in rows[0]] == [r.split(",")[:2] for r in rows[1]]
    assert rows[0][1:] != rows[1][1:]


# ---------------------------------------------------------------------------
# compare-demod


def test_subcommands_reject_options_they_do_not_read(tmp_path, capsys):
    assert main(["compare-demod", "--out", str(tmp_path / "x")]) == 1
    assert main(["sweep-cordic", "--seed", "3"]) == 1
    assert main(["run-loopback", "--seed", "3"]) == 1
    assert main(["compare-demod", "--seed", "3"]) == 1
    assert main(["sweep-cordic", "--threads", "2"]) == 1
    assert main(["sweep-cordic", "--long-run"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_compare_demod_stdout(capsys):
    rc = main(["compare-demod"])
    txt = capsys.readouterr().out
    assert rc == 0
    assert "scenario demod_single" in txt
    assert "band 0 tone 0 word 205  ratio 1.271322 (err -0.151%)" in txt
    assert "dphi 0.00905 rad" in txt
    assert "pre-accum lines sine/square 1/39" in txt


# ---------------------------------------------------------------------------
# psd


def test_psd_writes_csv(tmp_path, capsys):
    rng = np.random.default_rng(3)
    src = tmp_path / "x.csv"
    out = tmp_path / "spec.csv"
    src.write_text("\n".join(repr(float(v)) for v in rng.normal(size=4096)) + "\n")
    rc = main(
        ["psd", "--in", str(src), "--fs", "1000.0", "--method", "welch", "--out", str(out)]
    )
    assert rc == 0
    assert f"wrote {out}" in capsys.readouterr().out
    head = out.read_text().splitlines()[0]
    assert head.startswith("# method=welch window=hann units=linear_per_hz")
    assert "segment_len=512 overlap_frac=0.5" in head


def test_psd_stdout_default(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("\n".join(str(v) for v in range(64)) + "\n")
    rc = main(["psd", "--in", str(src), "--fs", "64"])
    txt = capsys.readouterr().out
    assert rc == 0
    assert txt.startswith("# method=periodogram")
    # one row per one-sided bin
    assert len([l for l in txt.splitlines() if not l.startswith("#")]) == 33 + 1


def test_psd_reads_a_series_csv_through_the_series_reader(tmp_path, capsys):
    s = IqTimeSeries(0, 0, 1, np.arange(64) % 7, np.arange(64), 1.0, 1, DemodMode.SINE_DDC)
    src = tmp_path / "s.csv"
    src.write_text(series_to_csv(s))
    with mock.patch("combtwin.formats._series_from_rows", wraps=_series_from_rows) as reader:
        assert main(["psd", "--in", str(src), "--fs", "64"]) == 0
    assert reader.call_count == 1
    via_series = capsys.readouterr().out
    # the I column as a bare one-column file gives the same spectrum
    bare = tmp_path / "i.csv"
    bare.write_text("\n".join(str(v) for v in s.i) + "\n")
    assert main(["psd", "--in", str(bare), "--fs", "64"]) == 0
    assert capsys.readouterr().out == via_series


@pytest.mark.parametrize(
    "blob",
    [
        b"CTIQ\x10",
        b"CTIQ\x02\x00\x00\x00{}" + bytes(8),
        b"CTIQ\x02\x00\x00\x00[]" + bytes(8),
        b"CTIQ\x03\x00\x00\x00abc" + bytes(8),
        b"CTIQ\x02\x00\x00\x00\xff\xfe" + bytes(8),
    ],
)
def test_psd_on_a_truncated_or_headerless_binary_exits_1(tmp_path, capsys, blob):
    src = tmp_path / "x.bin"
    src.write_bytes(blob)
    assert main(["psd", "--in", str(src), "--fs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "I/Q binary" in err



def test_psd_on_a_binary_with_a_bogus_demod_mode_exits_1(tmp_path, capsys):
    blob = series_to_binary(
        IqTimeSeries(0, 0, 1, np.arange(8), np.arange(8), 1.0, 1, DemodMode.SINE_DDC)
    )
    hlen = int.from_bytes(blob[4:8], "little")
    h = blob[8 : 8 + hlen].replace(b'"sine"', b'"bogus"')
    src = tmp_path / "x.bin"
    src.write_bytes(b"CTIQ" + len(h).to_bytes(4, "little") + h + blob[8 + hlen :])
    assert main(["psd", "--in", str(src), "--fs", "1"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: I/Q series header key 'demod_mode': 'bogus' is not a valid DemodMode\n"
    )

@pytest.mark.parametrize("fs", ["inf", "nan"])
def test_psd_refuses_a_non_finite_fs(tmp_path, capsys, fs):
    src = tmp_path / "x.csv"
    src.write_text("\n".join(str(v) for v in range(64)) + "\n")
    assert main(["psd", "--in", str(src), "--fs", fs]) == 1
    assert capsys.readouterr().err.startswith("error: fs must be finite and > 0")


def test_psd_periodogram_rejects_segment_len(tmp_path, capsys):
    src = tmp_path / "x.csv"
    src.write_text("\n".join(str(v) for v in range(10)) + "\n")
    out = tmp_path / "spec.csv"
    argv = ["psd", "--in", str(src), "--method", "periodogram", "--segment-len", "7"]
    rc = main(argv + ["--out", str(out)])
    assert rc == 1
    assert "segment_len applies to the Welch method only" in capsys.readouterr().err
    assert not out.exists()
    assert main(["psd", "--in", str(src), "--method", "welch", "--segment-len", "7"]) == 0


# ---------------------------------------------------------------------------
# dump-config


DEMO_TAPS = (1, -3, 9, 20, 9, -3, 1)
FILTER_SECTIONS = "".join(
    f"\n[{name}]\ntaps = {','.join(map(str, DEMO_TAPS))}\ntotal_bits = 18\n"
    "frac_bits = 16\ndescription = demo\n"
    for name in ("generator.interp_filter", "analyzer.channelizer_filter")
)


def _desk_a_ini(capsys) -> str:
    """desk_a as dump-config prints it, plus explicit filter sections."""
    assert main(["dump-config", "--config", "desk_a"]) == 0
    return capsys.readouterr().out + FILTER_SECTIONS


def _edit_ini(text, section, key=None, value=None):
    """Drop `key` (or the whole section when key is None) from `section`, or
    set `key` to `value` when value is given."""
    out, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line.strip("[]")
        if current == section:
            if key is None:
                continue
            if line.split("=")[0].strip() == key:
                if value is not None:
                    out.append(f"{key} = {value}")
                continue
        out.append(line)
    return "\n".join(out) + "\n"


def _dump(tmp_path, capsys, text):
    path = tmp_path / "edited.ini"
    path.write_text(text, encoding="utf-8")
    rc = main(["dump-config", "--config", str(path)])
    return rc, capsys.readouterr()


REQUIRED_KEYS = [
    ("scenario", k) for k in ("name", "seed", "acquisition_len")
] + [
    ("generator", k)
    for k in ("n_bands", "tones_per_band", "l_acc", "band_rate_hz", "upsample_factor",
              "shifter_lut_len")
] + [("generator.cordic", k) for k in ("data_bits", "iterations")] + [
    ("analyzer", k)
    for k in ("decim_to_band", "l_avg", "demod_mode", "n_bands", "band_rate_hz",
              "wide_width_bits", "reference_bits", "shifter_lut_len")
] + [
    (s, k)
    for s in ("generator.interp_filter", "analyzer.channelizer_filter")
    for k in ("taps", "total_bits", "frac_bits")
]


@pytest.mark.parametrize("section,key", REQUIRED_KEYS)
def test_config_ini_missing_required_key_is_named(tmp_path, capsys, section, key):
    rc, cap = _dump(tmp_path, capsys, _edit_ini(_desk_a_ini(capsys), section, key))
    assert rc == 1
    assert f"'{key}'" in cap.err


@pytest.mark.parametrize("section", ["scenario", "generator", "generator.cordic", "analyzer", "tones"])
def test_config_ini_missing_required_section_is_named(tmp_path, capsys, section):
    rc, cap = _dump(tmp_path, capsys, _edit_ini(_desk_a_ini(capsys), section))
    assert rc == 1
    assert section in cap.err


def test_config_ini_optional_keys_keep_their_defaults(tmp_path, capsys):
    base = _desk_a_ini(capsys)
    rc, cap = _dump(tmp_path, capsys, base)
    assert rc == 0
    # None-valued widths are omitted from the file and read back as None
    for key in ("sum_width_bits", "angle_bits", "accumulator_width_bits"):
        assert f"{key} =" not in cap.out
    for section, key, shown in [
        ("scenario", "warmup_windows", "warmup_windows = 1\n"),
        ("generator.cordic", "guard_bits", "guard_bits = 0\n"),
        ("generator.interp_filter", "description", "description = \n"),
    ]:
        rc, cap = _dump(tmp_path, capsys, _edit_ini(base, section, key))
        assert rc == 0 and shown in cap.out, key
    explicit = base.replace("guard_bits = 0", "guard_bits = 0\nangle_bits = 12")
    rc, cap = _dump(tmp_path, capsys, explicit)
    assert rc == 0 and "angle_bits = 12\n" in cap.out
    # no filter section: the designed filter, i.e. the builtin desk_a config
    bare = _edit_ini(_edit_ini(base, "generator.interp_filter"), "analyzer.channelizer_filter")
    rc, cap = _dump(tmp_path, capsys, bare)
    assert rc == 0
    assert cap.err.strip() == f"config hash {config_hash(builtin_scenarios()['desk_a'])}"
    assert "_filter]" not in cap.out


def test_config_ini_angle_bits_past_int64_exits_1(tmp_path, capsys):
    # desk_a's L_acc 1024 allows angle_bits up to 54; 56 would wrap the
    # CORDIC angle in int64
    base = _desk_a_ini(capsys)
    rc, cap = _dump(tmp_path, capsys, base.replace("guard_bits = 0", "guard_bits = 0\nangle_bits = 56"))
    assert rc == 1
    assert "angle_bits 56" in cap.err
    rc, cap = _dump(tmp_path, capsys, base.replace("guard_bits = 0", "guard_bits = 0\nangle_bits = 54"))
    assert rc == 0 and "angle_bits = 54\n" in cap.out


def test_config_ini_analyzer_lut_unlike_generator_lut_exits_1(tmp_path, capsys):
    text = _edit_ini(_desk_a_ini(capsys), "analyzer", "shifter_lut_len", value="80")
    rc, cap = _dump(tmp_path, capsys, text)
    assert rc == 1
    assert "analyzer.shifter_lut_len 80 must equal generator.shifter_lut_len 40" in cap.err


@pytest.mark.parametrize(
    "key,value",
    [
        ("decim_to_band", "0"),
        ("n_bands", "0"),
        ("band_rate_hz", "inf"),
        ("wide_width_bits", "40"),
        ("shifter_lut_len", "39"),
        ("accumulator_width_bits", "20"),
        ("l_avg", "0"),
    ],
)
def test_config_ini_bad_analyzer_value_exits_1_naming_it(tmp_path, capsys, key, value):
    # a copied generator value is checked against the generator's, l_avg by
    # AnalyzerConfig and the accumulator width by ChainConfig
    base = _desk_a_ini(capsys).replace("[analyzer]\n", "[analyzer]\naccumulator_width_bits = 40\n")
    rc, cap = _dump(tmp_path, capsys, _edit_ini(base, "analyzer", key, value=value))
    assert rc == 1
    assert key in cap.err.lower()


@pytest.mark.parametrize("width", [0, 42])
def test_config_ini_sum_width_outside_2_to_32_bits_exits_1(tmp_path, capsys, width):
    base = _desk_a_ini(capsys).replace("[generator]\n", f"[generator]\nsum_width_bits = {width}\n")
    rc, cap = _dump(tmp_path, capsys, base)
    assert rc == 1
    assert f"sum_width_bits {width}" in cap.err


@pytest.mark.parametrize("record", ["0,0,51", "0,0,51,8192,7"])
def test_config_ini_tone_record_needs_four_fields(tmp_path, capsys, record):
    text = _edit_ini(_desk_a_ini(capsys), "tones", "tone_0", value=record)
    rc, _ = _dump(tmp_path, capsys, text)
    assert rc == 1


def test_config_ini_bad_demod_mode_exits_1(tmp_path, capsys):
    text = _edit_ini(_desk_a_ini(capsys), "analyzer", "demod_mode", value="bogus")
    rc, cap = _dump(tmp_path, capsys, text)
    assert rc == 1
    assert "bogus" in cap.err


@pytest.mark.parametrize(
    "old,new,named",
    [
        ("accumulator_width_bits", "accumulator_width_bit", "accumulator_width_bit"),
        ("[analyzer]", "[analyzer]\nl_avgg = 40", "l_avgg"),
        ("[generator.interp_filter]", "[generator.interp_filterx]", "generator.interp_filterx"),
        ("[tones]", "[extra]\nx = 1\n[tones]", "extra"),
        ("[scenario]", "[scenario]\ngenerator = 3", "generator"),
        ("tone_0 =", "tone0 =", "tone0"),
    ],
    ids=["misspelt-key", "extra-key", "misspelt-section", "extra-section", "section-as-key",
         "bad-record-key"],
)
def test_config_ini_unknown_key_or_section_is_rejected(tmp_path, capsys, old, new, named):
    base = _desk_a_ini(capsys).replace("[analyzer]", "[analyzer]\naccumulator_width_bits = 40")
    assert _dump(tmp_path, capsys, base)[0] == 0
    rc, cap = _dump(tmp_path, capsys, base.replace(old, new))
    assert rc == 1
    assert named in cap.err and "unknown" in cap.err


def test_dump_config_round_trip_hash(tmp_path, capsys):
    out = tmp_path / "desk_a.ini"
    assert main(["dump-config", "--config", "desk_a", "--out", str(out)]) == 0
    h1 = capsys.readouterr().err.strip()
    assert main(["dump-config", "--config", str(out)]) == 0
    cap = capsys.readouterr()
    h2 = cap.err.strip()
    assert h1 == h2 and h1.startswith("config hash ")
    assert len(h1.split()[-1]) == 64
    assert cap.out.startswith("[")
