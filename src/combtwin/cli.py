"""Command-line front door.

Subcommands: run-loopback, sweep-cordic, compare-demod, predict-spurs,
psd, deglitch, dump-config. Exit codes: 0 success, 1 validation error
(message names the offending key), 2 runtime or I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ChainConfig
from .formats import (
    config_from_ini,
    config_hash,
    config_to_ini,
    read_samples,
    spectrum_to_csv,
    write_samples_csv,
)
from .fxp import ConfigError
from .harness import (
    LONG_RUN_SCENARIOS,
    builtin_scenarios,
    persist,
    run_cordic_sweep,
    run_demod_compare,
    run_loopback,
)
from .metrics import PsdMethod, SpectrumWindow, deglitch, predict_spurs, psd


class _CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports validation failures as exit code 1."""

    def error(self, message: str):
        raise _CliValidationError(f"{message}\n{self.format_usage()}")


def _load_config(name_or_path: str, long_run: bool) -> ChainConfig:
    builtins = builtin_scenarios()
    if name_or_path in builtins:
        if name_or_path in LONG_RUN_SCENARIOS and not long_run:
            raise ConfigError(
                f"config '{name_or_path}' is a full-scale run; pass --long-run to enable"
            )
        return builtins[name_or_path]
    p = Path(name_or_path)
    if p.exists():
        return config_from_ini(p.read_text(encoding="utf-8"))
    raise ConfigError(
        f"unknown config '{name_or_path}': not a builtin "
        f"({', '.join(sorted(builtins))}) and no such file"
    )


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: parse_args leaves it unchanged, so
    in-process callers of main build it once."""
    ap = _Parser(prog="combtwin", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config(p: _Parser, run: bool) -> None:
        p.add_argument("--config", default=None, help="builtin scenario name or INI file path")
        if run:
            p.add_argument("--long-run", action="store_true", help="unlock full-scale configs")
            p.add_argument("--threads", type=int, default=1, help="worker thread cap (results unchanged)")

    p = sub.add_parser("run-loopback", help="generate the comb and analyze it in loopback")
    add_config(p, run=True)
    p.add_argument("--out", default=None, help="output directory (run artifacts)")
    p.add_argument("--engine", default="auto", choices=("auto", "periodic", "direct"))

    p = sub.add_parser("sweep-cordic", help="SINAD/SFDR versus CORDIC sizing")
    add_config(p, run=False)
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--bits", default="10", help="comma list of data bit widths")
    p.add_argument("--iters", default="7,10", help="comma list of iteration counts")

    p = sub.add_parser("compare-demod", help="sine DDC versus square-wave demodulation")
    add_config(p, run=True)

    p = sub.add_parser("predict-spurs", help="baseband alias frequencies of the waveform period")
    p.add_argument("--l-acc", type=int, required=True, help="phase accumulator modulus")
    p.add_argument("--upsample", type=int, default=8, help="interpolation factor U")
    p.add_argument("--lut", type=int, default=40, help="band shifter LUT length")
    p.add_argument("--l-avg", type=int, required=True, help="accumulation length")
    p.add_argument("--band-rate", type=float, default=250e6, help="band sample rate in Hz")

    p = sub.add_parser("psd", help="PSD of a recorded sample file")
    p.add_argument("--in", dest="infile", required=True, help="I/Q CSV/binary or one-column CSV")
    p.add_argument("--fs", type=float, default=1.0, help="sample rate in Hz")
    p.add_argument("--method", default="periodogram", choices=("periodogram", "welch"))
    p.add_argument("--window", default=None, choices=("rect", "hann"))
    p.add_argument("--segment-len", type=int, default=None)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = sub.add_parser("deglitch", help="replace samples outside mu +/- 5 sigma")
    p.add_argument("--in", dest="infile", required=True, help="sample file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("dump-config", help="print a scenario as an INI file")
    p.add_argument("--config", required=True, help="builtin scenario name or INI file path")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    return ap


def _cmd_run_loopback(args) -> int:
    cfg = _load_config(args.config or "desk_a", args.long_run)
    result = run_loopback(cfg, engine=args.engine, threads=args.threads)
    print(
        f"scenario {result.scenario_name}  engine {result.engine}  "
        f"hash {result.config_hash[:12]}  ({result.engine_reason})"
    )
    print(
        f"wall {result.wall_time_s:.3f} s  "
        f"computed {result.computed_sps:.3e} full-rate samples/s  "
        f"simulated {result.throughput_sps:.3e} full-rate samples/s"
    )
    for tr in result.tones:
        s = tr.pattern
        amp_bins = ",".join(str(l.bin) for l in tr.amp_spurs.lines) or "-"
        ph_bins = ",".join(str(l.bin) for l in tr.phase_spurs.lines) or "-"
        print(
            f"band {s.band_index} tone {s.tone_index} word {s.freq_word}  "
            f"amp spur bins: {amp_bins}  phase spur bins: {ph_bins}"
        )
    if args.out:
        persist(result, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep_cordic(args) -> int:
    base = _load_config(args.config, long_run=True) if args.config else None
    bits = [int(v) for v in args.bits.split(",") if v]
    iters = [int(v) for v in args.iters.split(",") if v]
    rows = run_cordic_sweep(bits, iters, base)
    lines = ["data_bits,iterations,sinad_db,sfdr_db"]
    for r in rows:
        lines.append(f"{r.data_bits},{r.iterations},{r.sinad_db:.4f},{r.sfdr_db:.4f}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_compare_demod(args) -> int:
    cfg = _load_config(args.config or "demod_single", args.long_run)
    comp = run_demod_compare(cfg, threads=args.threads)
    print(f"scenario {comp.scenario_name}  hash {comp.config_hash[:12]}")
    for t in comp.tones:
        print(
            f"band {t.band_index} tone {t.tone_index} word {t.freq_word}  "
            f"ratio {t.mag_ratio:.6f} (err {100 * t.ratio_error:+.3f}%)  "
            f"dphi {t.phase_diff_rad:.5f} rad  "
            f"pre-accum lines sine/square {t.pre_lines_sine}/{t.pre_lines_square}  "
            f"post residual sine/square "
            f"{t.post_residual_db_sine:.2f}/{t.post_residual_db_square:.2f} dB"
        )
    return 0


def _cmd_predict_spurs(args) -> int:
    spurs = predict_spurs(args.l_acc, args.upsample, args.lut, args.l_avg, args.band_rate)
    if not spurs:
        print("no spurs predicted")
        return 0
    print(" and ".join(f"{f:.2f} Hz" for f, _ in spurs))
    for f, att in spurs:
        print(f"{f!r} Hz  boxcar attenuation {att:.2f} dB")
    return 0


def _cmd_psd(args) -> int:
    x = read_samples(args.infile)
    method = PsdMethod(args.method)
    window = SpectrumWindow(args.window) if args.window else None
    spec = psd(x, args.fs, method=method, window=window, segment_len=args.segment_len)
    text = spectrum_to_csv(spec)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_deglitch(args) -> int:
    x = read_samples(args.infile)
    cleaned, n = deglitch(x, args.seed)
    print(f"replaced {n} samples")
    if args.out:
        Path(args.out).write_text(write_samples_csv(cleaned), encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_dump_config(args) -> int:
    cfg = _load_config(args.config, long_run=True)
    text = config_to_ini(cfg)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(f"config hash {config_hash(cfg)}", file=sys.stderr)
    return 0


_COMMANDS = {
    "run-loopback": _cmd_run_loopback,
    "sweep-cordic": _cmd_sweep_cordic,
    "compare-demod": _cmd_compare_demod,
    "predict-spurs": _cmd_predict_spurs,
    "psd": _cmd_psd,
    "deglitch": _cmd_deglitch,
    "dump-config": _cmd_dump_config,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _CliValidationError as e:
        print(str(e), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
