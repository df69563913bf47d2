"""Seeded workloads and their correctness gates.

Each workload builds its inputs from the seed alone, then runs passes: a
pass is a fixed list of timed operations (library or CLI calls) plus
untimed checks of their outputs. Every call goes through a module
attribute (`harness.run_loopback`, `cli.main`) so a traced run sees it.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import replace
from pathlib import Path

from combtwin import cli, harness

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SCENARIOS = ("desk_a", "desk_b", "demod_single", "demod_two_tone")

# desk_direct's acquisition (output windows), cut from desk_a's 2560 so
# that several passes fit a run. The direct engine's work is the same per
# sample in every layer, so the cut keeps each layer's share. It stays a
# multiple of 5: the power-of-two modulus puts spur lines at acq/5 and
# 2*acq/5. full_band keeps the full 655360 windows, because the periodic
# engine's split between period generation and metrics depends on it.
DESK_DIRECT_ACQ = 320

SWEEP_BITS = "8,10,12"
SWEEP_ITERS = "6,8,10,12"


# ---------------------------------------------------------------------------
# inputs


def tone_words(seed: int, L_acc: int, n: int) -> list[int]:
    """n distinct odd words coprime to L_acc in the lower 2/5 of the band."""
    candidates = [k for k in range(1, int(0.4 * L_acc), 2) if math.gcd(k, L_acc) == 1]
    return sorted(random.Random(seed).sample(candidates, n))


def seeded(cfg: harness.ChainConfig, seed: int, **changes) -> harness.ChainConfig:
    """The scenario with a seeded tone plan (seed 0: the builtin plan)."""
    if seed != 0:
        words = tone_words(seed, cfg.generator.L_acc, cfg.generator.tones_per_band)
        changes["tones"] = tuple(replace(t, freq_word=words[t.tone_index]) for t in cfg.tones)
    return replace(cfg, **changes)


def band0(cfg: harness.ChainConfig) -> harness.ChainConfig:
    return replace(cfg, tones=tuple(t for t in cfg.tones if t.band_index == 0))


def sim_samples(cfg: harness.ChainConfig) -> int:
    """Full-rate samples of the acquisition the configuration simulates."""
    return cfg.acquisition_len * cfg.analyzer.L_avg * cfg.generator.upsample_factor


def expected_spur_bins(L_acc: int, acq: int) -> set[int]:
    """Lines at acq/5 and 2*acq/5 for a power-of-two modulus, none when trimmed."""
    if L_acc & (L_acc - 1) == 0:
        return {acq // 5, 2 * acq // 5}
    return set()


def result_spur_bins(result) -> list[tuple[set[int], set[int]]]:
    return [
        ({l.bin for l in tr.amp_spurs.lines}, {l.bin for l in tr.phase_spurs.lines})
        for tr in result.tones
    ]


def tree_digest(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def persist_builtin(name: str, out_dir: Path) -> str:
    """Persist a builtin scenario's loopback run; returns its config hash."""
    result = harness.run_loopback(harness.builtin_scenarios()[name])
    harness.persist(result, out_dir)
    return result.config_hash


# ---------------------------------------------------------------------------
# bookkeeping


class Ledger:
    """Timed operations and correctness checks of one phase of a run."""

    def __init__(self) -> None:
        self.ops: list[tuple[str, float]] = []
        self.passes: list[float] = []
        self.sim_samples = 0
        self.attempted = 0
        self.failures: list[str] = []

    def timed(self, name: str, fn, *args, sim: int = 0, **kwargs):
        """Run one operation; returns (ok, value). An exception fails it."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as e:  # a failing operation is counted, not fatal
            self.ops.append((name, time.perf_counter() - t0))
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return False, None
        self.ops.append((name, time.perf_counter() - t0))
        self.sim_samples += sim
        return True, value

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def check_spurs(ledger: Ledger, label: str, result, L_acc: int, acq: int) -> None:
    want = expected_spur_bins(L_acc, acq)
    got = result_spur_bins(result)
    ledger.check(
        f"{label} spur bins",
        all(a == want and p == want for a, p in got),
        f"expected {sorted(want)}, got {[(sorted(a), sorted(p)) for a, p in got]}",
    )


def check_golden(ledger: Ledger, scratch: Path) -> None:
    """Persist the builtin desk and demod scenarios and compare every file's
    digest and the config hash with the pinned golden values."""
    golden = load_golden()
    for name in GOLDEN_SCENARIOS:
        out = scratch / "golden" / name
        try:
            chash = persist_builtin(name, out)
        except Exception as e:  # a failing run is a failed check, not a crash
            ledger.check(f"golden {name} run", False, f"{type(e).__name__}: {e}")
            continue
        ledger.check(f"golden {name} config hash", chash == golden[name]["config_hash"], chash)
        diff = sorted(set(tree_digest(out).items()) ^ set(golden[name]["files"].items()))
        ledger.check(f"golden {name} artifacts", not diff, f"differing files {diff[:4]}")
    shutil.rmtree(scratch / "golden", ignore_errors=True)


# ---------------------------------------------------------------------------
# workloads


class DeskDirect:
    """A desk_a-shaped config through the direct engine, the periodic engine
    and the float oracle, one thread."""

    min_ops = 1
    trace_warm_up = True

    def __init__(self, seed: int, scratch: Path) -> None:
        desk = harness.builtin_scenarios()["desk_a"]
        self.cfg = seeded(desk, seed, acquisition_len=DESK_DIRECT_ACQ)

    def run_pass(self, ledger: Ledger) -> None:
        cfg = self.cfg
        sim = sim_samples(cfg)
        ok_d, direct = ledger.timed(
            "run_loopback.direct", harness.run_loopback, cfg, engine="direct", threads=1, sim=sim
        )
        ok_p, periodic = ledger.timed(
            "run_loopback.periodic", harness.run_loopback, cfg, engine="periodic", threads=1, sim=sim
        )
        ok_f, oracle = ledger.timed("float_oracle", harness.float_oracle, cfg, sim=sim)
        if ok_d:
            check_spurs(ledger, "direct", direct, cfg.generator.L_acc, cfg.acquisition_len)
        if ok_d and ok_p:
            same = len(periodic.tones) == len(direct.tones) and all(
                (p.series.i == d.series.i).all()
                and (p.series.q == d.series.q).all()
                and (p.amp_spectrum.values == d.amp_spectrum.values).all()
                and (p.phase_spectrum.values == d.phase_spectrum.values).all()
                for p, d in zip(periodic.tones, direct.tones)
            )
            ledger.check("periodic equals direct", same, "periodic and direct outputs differ")
        if ok_d and ok_f:
            ledger.check(
                "oracle spur bins equal fixed-point",
                result_spur_bins(oracle) == result_spur_bins(direct),
                "float oracle and fixed-point spur bins differ",
            )


class FullBand:
    """Band 0 (40 tones) of full_a and of full_b through the auto engine."""

    min_ops = 1
    # one pass takes about 40 s and its cold start is within the noise; a
    # warm-up pass would bring a traced run near the time limit
    trace_warm_up = False

    def __init__(self, seed: int, scratch: Path) -> None:
        sc = harness.builtin_scenarios()
        self.cfgs = [band0(seeded(sc[name], seed)) for name in ("full_a", "full_b")]

    def run_pass(self, ledger: Ledger) -> None:
        for cfg in self.cfgs:
            ok, result = ledger.timed(
                f"run_loopback.{cfg.scenario_name}",
                harness.run_loopback,
                cfg,
                engine="auto",
                threads=2,
                sim=sim_samples(cfg),
            )
            if ok:
                check_spurs(
                    ledger, cfg.scenario_name, result, cfg.generator.L_acc, cfg.acquisition_len
                )
            del result  # about 600 MB for full_a; free it before the next config


class DeskSession:
    """Closed loop, one client, no think time: in-process CLI calls, every
    subcommand, on seeded desk and demod INI files. A pass is one cycle of
    15 calls. Latencies cluster by call; with 15 per pass, p50 and p90 sit
    at ranks 7.5 and 13.5 of 15, the middle of one call's cluster, rather
    than on the edge between two clusters."""

    min_ops = 100
    trace_warm_up = True

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        sc = harness.builtin_scenarios()
        self.cfgs = {name: seeded(sc[name], seed) for name in GOLDEN_SCENARIOS}
        self.ini = {}
        for name, cfg in self.cfgs.items():
            self.ini[name] = scratch / f"{name}.ini"
            self._write_ini(name, cfg, self.ini[name])
        self.golden = load_golden() if seed == 0 else {}
        self.reference: dict[str, str] | None = None
        self.cycle = 0

    def _write_ini(self, name: str, cfg, path: Path) -> None:
        """Dump the builtin scenario through the CLI, then put in the seeded tones."""
        if self._cli(["dump-config", "--config", name, "--out", str(path)]) != 0:
            raise RuntimeError(f"dump-config {name} failed")
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp.read_string(path.read_text(encoding="utf-8"))
        cp["tones"] = {
            f"tone_{n}": f"{t.band_index},{t.tone_index},{t.freq_word},{t.amplitude_code.raw}"
            for n, t in enumerate(cfg.tones)
        }
        buf = io.StringIO()
        cp.write(buf)
        path.write_text(buf.getvalue(), encoding="utf-8")

    def _calls(self, out: Path) -> list[tuple[list[str], int]]:
        """(argv, simulated samples) of one cycle."""
        calls = []
        for name in GOLDEN_SCENARIOS:
            argv = ["run-loopback", "--config", str(self.ini[name]), "--out", str(out / name)]
            calls.append((argv, sim_samples(self.cfgs[name])))
        for name in ("demod_single", "demod_two_tone"):
            argv = ["compare-demod", "--config", str(self.ini[name])]
            calls.append((argv, 2 * sim_samples(self.cfgs[name])))
        for name in ("desk_a", "desk_b"):
            argv = ["sweep-cordic", "--config", str(self.ini[name]),
                    "--bits", SWEEP_BITS, "--iters", SWEEP_ITERS]
            calls.append((argv, 0))
        for l_acc in (1024, 1020, 65536, 65520):
            argv = ["predict-spurs", "--l-acc", str(l_acc), "--upsample", "8",
                    "--lut", "40", "--l-avg", str(l_acc)]
            calls.append((argv, 0))
        desk_a = self.cfgs["desk_a"]
        series = str(out / "desk_a" / "series" / "b000_t000.csv")
        calls += [
            (["psd", "--in", series, "--fs", repr(desk_a.analyzer.fs_hz),
              "--method", "welch", "--out", str(out / "psd.csv")], 0),
            (["deglitch", "--in", series, "--out", str(out / "deglitch.csv")], 0),
            (["dump-config", "--config", str(self.ini["desk_b"]), "--out", str(out / "desk_b.ini")], 0),
        ]
        return calls

    @staticmethod
    def _cli(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def run_pass(self, ledger: Ledger) -> None:
        self.cycle += 1
        out = self.scratch / f"cycle{self.cycle}"
        for argv, sim in self._calls(out):
            ok, code = ledger.timed(argv[0], self._cli, argv, sim=sim)
            if ok:
                ledger.check(f"{argv[0]} exit code", code == 0, f"{' '.join(argv)} exited {code}")
        for name in GOLDEN_SCENARIOS:
            self._check_run_dir(ledger, name, out / name)
        digest = tree_digest(out)
        if self.reference is None:
            self.reference = digest
        ledger.check("session deterministic", digest == self.reference,
                     "a cycle's files differ from the first cycle's")
        shutil.rmtree(out, ignore_errors=True)

    def _check_run_dir(self, ledger: Ledger, name: str, run_dir: Path) -> None:
        cfg = self.cfgs[name]
        want = expected_spur_bins(cfg.generator.L_acc, cfg.acquisition_len)
        got = []
        for p in sorted(run_dir.glob("spurs/*.json")):
            rep = json.loads(p.read_text(encoding="utf-8"))
            got.append(({l["bin"] for l in rep["amp"]["lines"]},
                        {l["bin"] for l in rep["phase"]["lines"]}))
        ledger.check(
            f"session {name} spur bins",
            len(got) == len(cfg.tones) and all(a == want and p == want for a, p in got),
            f"expected {sorted(want)} for {len(cfg.tones)} tones, got {got[:2]}",
        )
        if self.golden:
            ledger.check(
                f"session {name} golden", tree_digest(run_dir) == self.golden[name]["files"],
                "seed-0 artifacts differ from the pinned digests",
            )


WORKLOADS = {"desk_direct": DeskDirect, "full_band": FullBand, "desk_session": DeskSession}
