"""Command-line pipeline: scene -> CIR -> beat -> maps -> comparison.

Subcommands
    simulate   trace a scene over an episode and write the CIR + path dump
    process    synthesize beats from a CIR and write PDP + delay-Doppler maps
    predict    write the analytic delay-Doppler prediction for a CIR window
    compare    match peaks between two maps on identical axes
    info       print the header of a scene / CIR / map / PDP file

Exit codes: 0 ok, 2 input error, 3 contract mismatch between otherwise
valid inputs, 4 internal error; a numpy floating-point error in process or
predict, which no traced episode sets off, is an input error.  RFTWIN_OUT
sets the default output directory.  --frozen-clock pins header timestamps
so reruns with the same arguments are byte-identical.

The command handlers import the library when they run, for two reasons:
--help and usage errors answer without loading numpy, and a handler looks
its library functions up at each call, so a module attribute replaced
after import (a test's monkeypatch, a profiler's wrapper) is the one
called.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from functools import cache, partial
from pathlib import Path

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3
EXIT_INTERNAL = 4


class InputError(Exception):
    pass


class ContractError(Exception):
    pass


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("RFTWIN_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {p}")
    return p


def _positive(name, value, least=1):
    if value < least:
        floor = f" of at least {least}" if least > 1 else ""
        raise InputError(f"--{name} must be a positive integer{floor}, got {value}")
    return value


def _chirp_config(args):
    """The ChirpConfig of the chirp flags, each named after its field; a
    field whose flag is not given keeps its default."""
    from dataclasses import fields

    from .channel import ChirpConfig
    kwargs = {f.name: getattr(args, f.name) for f in fields(ChirpConfig)
              if getattr(args, f.name) is not None}
    try:
        return ChirpConfig(**kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _add_chirp_flags(sub):
    g = sub.add_argument_group("chirp overrides")
    g.add_argument("--f-c", dest="f_c", type=float, help="carrier frequency [Hz]")
    g.add_argument("--bandwidth", type=float, help="sweep bandwidth [Hz]")
    g.add_argument("--t-chirp", dest="t_chirp", type=float, help="active chirp time [s]")
    g.add_argument("--t-idle", dest="t_idle", type=float, help="inter-chirp idle [s]")
    g.add_argument("--slope", type=float, help="chirp slope [Hz/s]")
    g.add_argument("--f-samp", dest="f_samp", type=float, help="ADC rate [Hz]")
    g.add_argument("--chirps", dest="n_chirps_total", type=int, help="chirps in the episode")


def _add_window_flags(sub):
    """The map window flags of process and predict; _window_spec checks them."""
    sub.add_argument("--cir", required=True)
    sub.add_argument("-N", "--n-chirps", type=int, default=128,
                     help="chirps per delay-Doppler window")
    sub.add_argument("--t0-index", type=int, default=0, help="first frame of the window")
    sub.add_argument("--window", default="hann", help="fast-time window (hann, hamming, ...)")
    sub.add_argument("--window-slow", default="hann", help="slow-time window")
    sub.add_argument("--export", default="bin", help="comma list: bin,csv,pgm")


def _add_common(sub):
    sub.add_argument("-o", "--out", help="output directory (default $RFTWIN_OUT or .)")
    sub.add_argument("--tag", help="basename for output files")
    sub.add_argument("--frozen-clock", action="store_true",
                     help="write 'frozen' instead of a timestamp in headers")


def cmd_simulate(args) -> int:
    import numpy as np

    from .channel import SensingLink, cir_to_csv, frame_stats, save_cir, simulate_cir
    from .raytrace import KINDS, TraceConfig, diffuse_sample_count
    from .scene import SceneError, load_scene

    scene_path = _require_file(args.scene)
    try:
        scene = load_scene(scene_path)
    except (SceneError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise InputError(f"{scene_path}: {exc}") from exc

    if args.mode == "mono":
        rx = args.rx or args.tx
        if rx != args.tx:
            raise InputError("mono-static mode requires tx and rx to match")
    else:
        rx = args.rx
        if rx is None:
            raise InputError("bi-static mode requires --rx")
    link = SensingLink(tx_id=args.tx, rx_id=rx)
    config = _chirp_config(args)
    try:
        trace = TraceConfig(max_specular_order=args.max_order,
                            diffuse_enabled=not args.no_diffuse,
                            diffuse_samples_per_facet=args.diffuse_samples,
                            seed=args.seed)
        for facet in scene.facets if trace.diffuse_enabled else []:
            diffuse_sample_count(facet.area, trace)     # before any pattern is built
    except ValueError as exc:
        raise InputError(str(exc)) from exc

    try:
        cir = simulate_cir(scene, link, config, trace, t0=args.t0)
    except SceneError as exc:
        raise InputError(str(exc)) from exc

    out = _out_dir(args)
    tag = args.tag or scene_path.stem
    cir_path = out / f"{tag}.cir"
    save_cir(cir_path, cir, extra={"scene": scene_path.name, "seed": args.seed},
             frozen_clock=args.frozen_clock)
    csv_path = out / f"{tag}_paths.csv"
    cir_to_csv(csv_path, cir)

    per_kind = np.bincount(cir.paths.kind, minlength=len(KINDS))
    counts = {kind: int(c) for kind, c in zip(KINDS, per_kind) if c}
    summary = {"frames": len(cir), "t0": float(cir.t[0]),
               "paths_per_kind": counts, "seed": args.seed,
               "dropped_beyond_max_delay": int(cir.n_dropped.sum()),
               **frame_stats(cir)}
    (out / f"{tag}_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {cir_path} ({len(cir)} frames), {csv_path}")
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]} path records")
    return EXIT_OK


def _load_checked(load, path):
    """Run a file loader; malformed or truncated content is an input error."""
    p = _require_file(path)
    try:
        return load(p)
    except (ValueError, KeyError) as exc:
        message = str(exc)
        raise InputError(message if message.startswith(f"{p}:") else f"{p}: {message}") from exc


def _window_spec(args, config, zero_pad: bool = False):
    """The flags of _add_window_flags, checked: N, the --export formats and
    the fast- and slow-time window names.  An N below 2, a negative
    --t0-index, a map of more than MAX_MAP_CELLS cells (zero-padded columns
    counted), an export list of an unknown format or of none, or an unknown
    window name is an input error."""
    from .fmcw import MAX_MAP_CELLS, window_taps

    n = _positive("N", args.n_chirps, least=2)
    if args.t0_index < 0:
        raise InputError(f"--t0-index must be >= 0, got {args.t0_index}")
    bins = config.samples_per_chirp * (2 if zero_pad else 1)
    if n * bins > MAX_MAP_CELLS:
        raise InputError(f"a window of {n} chirps by {bins} delay bins is {n * bins} map "
                         f"cells, more than the cap of {MAX_MAP_CELLS}")
    formats = [f.strip() for f in args.export.split(",") if f.strip()]
    if not formats:
        raise InputError("--export names no format; give a comma list of bin, csv, pgm")
    for f in formats:
        if f not in ("bin", "csv", "pgm"):
            raise InputError(f"unknown export format '{f}'")
    for flag, name in (("window", args.window), ("window-slow", args.window_slow)):
        try:
            window_taps(name, 1)
        except ValueError as exc:
            raise InputError(f"--{flag}: {exc}") from exc
    return n, formats, args.window, args.window_slow


def _write_map(base, ddm, formats, frozen_clock) -> list[str]:
    """Write one map in each requested format; the names of the files."""
    from .fmcw import map_to_csv, map_to_pgm, save_map

    written = []
    for fmt, suffix, write in (("bin", ".ddm", partial(save_map, frozen_clock=frozen_clock)),
                               ("csv", ".csv", map_to_csv), ("pgm", ".pgm", map_to_pgm)):
        if fmt in formats:
            write(f"{base}{suffix}", ddm)
            written.append(f"{base}{suffix}")
    return written


def cmd_process(args) -> int:
    import numpy as np

    from .channel import load_cir
    from .fmcw import (NoiseConfig, PdpWriter, beat_passes, delay_axis, pdp_series, range_fft,
                       window_maps)

    cir, header = _load_checked(load_cir, args.cir)
    config = cir.config
    n, formats, window_fast, window_slow = _window_spec(args, config, args.zero_pad)
    stride = n if args.stride is None else _positive("stride", args.stride)
    if args.num_windows is not None:
        _positive("num-windows", args.num_windows)
    if n > len(cir):
        raise InputError(f"window of {n} chirps exceeds the {len(cir)} "
                         f"frames in {args.cir}")
    try:
        noise = NoiseConfig(enabled=args.noise, noise_figure_db=args.noise_figure,
                            tx_power_dbm=args.tx_power, seed=args.noise_seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    starts = list(range(args.t0_index, len(cir) - n + 1, stride))[:args.num_windows]
    if not starts:
        raise InputError(f"no complete {n}-chirp window starts at index "
                         f"{args.t0_index} in {len(cir)} beat frames")

    # The PDP covers every frame; without it only the windows' frames are
    # synthesized, up to the end of the last.
    pdp_out = "bin" in formats or "csv" in formats
    frames = range(len(cir)) if pdp_out else range(starts[0], starts[-1] + n)
    passes = beat_passes(cir, noise, frames.start, frames.stop)
    times = cir.t
    out = _out_dir(args)
    tag = args.tag or Path(args.cir).stem
    meta = {"window": window_fast, "config": config.to_dict(), "seed": header.get("seed")}
    pdp = PdpWriter(times, delay_axis(config, config.samples_per_chirp), meta,
                    out / f"{tag}.pdp" if "bin" in formats else None,
                    out / f"{tag}_pdp.csv" if "csv" in formats else None,
                    args.frozen_clock) if pdp_out else contextlib.nullcontext()

    def spectra():
        """Each pass's range spectra, zero-padded with --zero-pad, after its
        unpadded spectra went to the PDP."""
        for lo, beats in passes:
            padded = range_fft(beats, window_fast, zero_pad=True) if args.zero_pad else None
            if pdp_out or padded is None:
                range_fft(beats, window_fast, out=beats)
            if pdp_out:
                pdp.write(pdp_series(beats, times[lo:lo + len(beats)], config,
                                     window_fast).power_db)
            yield lo, beats if padded is None else padded

    written = []
    with np.errstate(over="raise", invalid="raise", divide="raise"), pdp:
        for start, ddm in window_maps(spectra(), times, config, starts, n,
                                      window_fast, window_slow):
            ddm.metadata["seed"] = header.get("seed")
            written += _write_map(out / f"{tag}_w{start:06d}", ddm, formats,
                                  args.frozen_clock)
            del ddm                 # before the next map is made
    t_w = config.window_duration(n)
    print(f"processed {len(frames)} beat frames; window {n} chirps "
          f"(T_w = {t_w * 1e3:.5f} ms); wrote {len(written)} map files")
    for name in written:
        print(f"  {name}")
    return EXIT_OK


def cmd_predict(args) -> int:
    import numpy as np

    from .channel import load_cir
    from .fmcw import predicted_map

    cir, header = _load_checked(load_cir, args.cir)
    n, formats, window_fast, window_slow = _window_spec(args, cir.config)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ddm = predicted_map(cir, t0_index=args.t0_index, n_chirps=n,
                                window_fast=window_fast, window_slow=window_slow)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    ddm.metadata["seed"] = header.get("seed")

    out = _out_dir(args)
    tag = args.tag or Path(args.cir).stem
    base = out / f"{tag}_pred_w{args.t0_index:06d}"
    _write_map(base, ddm, formats, args.frozen_clock)
    print(f"wrote analytic map {base} (T_w = {ddm.metadata['t_window'] * 1e3:.5f} ms)")
    return EXIT_OK


def cmd_compare(args) -> int:
    from .analysis import match_maps
    from .fmcw import load_map

    if args.gate < 0:
        raise InputError(f"--gate must be >= 0, got {args.gate}")
    if not 0.0 <= args.threshold < math.inf:
        raise InputError(f"--threshold must be finite and >= 0, got {args.threshold}")
    reference = _load_checked(load_map, args.reference)
    test = _load_checked(load_map, args.test)
    try:
        report = match_maps(reference, test, threshold_db=args.threshold,
                            gate_bins=args.gate)
    except ValueError as exc:
        raise ContractError(str(exc)) from exc

    payload = {
        "reference": args.reference,
        "test": args.test,
        "threshold_db": args.threshold,
        "gate_bins": args.gate,
        "matches": [
            {"ref_delay_bin": m.reference.delay_bin,
             "ref_doppler_bin": m.reference.doppler_bin,
             "ref_power_db": m.reference.power_db,
             "test_delay_bin": m.test.delay_bin,
             "test_doppler_bin": m.test.doppler_bin,
             "test_power_db": m.test.power_db,
             "delay_bin_error": m.delay_bin_error,
             "doppler_bin_error": m.doppler_bin_error,
             "power_error_db": m.power_error_db}
            for m in report.matches],
        "unmatched_reference": len(report.unmatched_reference),
        "unmatched_test": len(report.unmatched_test),
        "summary": report.summary(),
    }
    out = _out_dir(args)
    tag = args.tag or "compare"
    report_path = out / f"{tag}_report.json"
    report_path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    print(report.summary())
    print(f"{'ref (dop,del)':>16} {'test (dop,del)':>16} {'d_dop':>6} "
          f"{'d_del':>6} {'d_pow dB':>9}")
    for m in report.matches:
        print(f"{f'({m.reference.doppler_bin},{m.reference.delay_bin})':>16} "
              f"{f'({m.test.doppler_bin},{m.test.delay_bin})':>16} "
              f"{m.doppler_bin_error:>6d} {m.delay_bin_error:>6d} "
              f"{m.power_error_db:>9.2f}")
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_info(args) -> int:
    from .channel import CIR_MAGIC, load_cir
    from .fmcw import MAP_MAGIC, PDP_MAGIC, load_map, load_pdp

    p = _require_file(args.file)
    with p.open("rb") as fh:
        head = fh.read(len(CIR_MAGIC))
    if head == CIR_MAGIC:
        cir, header = _load_checked(load_cir, p)
        print(f"{p}: CIR, {len(cir)} frames, link {header['link']}, "
              f"t0 = {header['t0']}")
        print(json.dumps(header["config"], sort_keys=True, indent=2))
    elif head == MAP_MAGIC:
        ddm = _load_checked(load_map, p)
        print(f"{p}: delay-Doppler map, {ddm.power_db.shape[0]} x "
              f"{ddm.power_db.shape[1]} bins, "
              f"T_w = {ddm.metadata.get('t_window', 0.0) * 1e3:.5f} ms, "
              f"peak {ddm.power_db.max():.2f} dB")
        print(json.dumps(ddm.metadata, sort_keys=True, indent=2))
    elif head == PDP_MAGIC:
        pdp = _load_checked(load_pdp, p)
        print(f"{p}: PDP series, {pdp.power_db.shape[0]} epochs x "
              f"{pdp.power_db.shape[1]} delay bins")
    else:
        from .scene import load_scene
        try:
            scene = load_scene(p)
        except Exception as exc:
            raise InputError(f"{p}: unrecognized file ({exc})") from exc
        span = "static" if scene.t_span is None else "t in [{}, {}]".format(*scene.t_span)
        print(f"{p}: scene '{scene.name}', {len(scene.facets)} facets, "
              f"{len(scene.transceivers)} transceivers, {len(scene.bodies)} "
              f"bodies, {span}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rftwin",
        description="Ray-traced RF digital twin: time-varying CIRs, FMCW "
                    "beat synthesis, and delay-Doppler map validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="trace a scene into a CIR file")
    sim.add_argument("--scene", required=True, help="scene JSON path")
    sim.add_argument("--mode", choices=("mono", "bi"), default="mono")
    sim.add_argument("--tx", required=True, help="transmit transceiver id")
    sim.add_argument("--rx", help="receive transceiver id (defaults to --tx)")
    sim.add_argument("--t0", type=float, default=0.0, help="episode start [s]")
    sim.add_argument("--max-order", type=int, default=2,
                     help="highest specular bounce count")
    sim.add_argument("--no-diffuse", action="store_true")
    sim.add_argument("--diffuse-samples", type=int, default=16,
                     help="base diffuse samples per facet; a facet's count, "
                          "scaled up by its area, may be at most 32768")
    sim.add_argument("--seed", type=int, default=1729)
    _add_chirp_flags(sim)
    _add_common(sim)

    proc = sub.add_parser("process", help="beats, PDP, and maps from a CIR")
    _add_window_flags(proc)
    proc.add_argument("--stride", type=int, default=None,
                      help="chirps between window starts (default N)")
    proc.add_argument("--num-windows", type=int, default=None)
    proc.add_argument("--zero-pad", action="store_true",
                      help="double the fast-time FFT length")
    proc.add_argument("--noise", action="store_true", help="enable AWGN")
    proc.add_argument("--noise-figure", type=float, default=15.0)
    proc.add_argument("--tx-power", type=float, default=12.0)
    proc.add_argument("--noise-seed", type=int, default=0)
    _add_common(proc)

    pred = sub.add_parser("predict", help="analytic map for one CIR window")
    _add_window_flags(pred)
    _add_common(pred)

    comp = sub.add_parser("compare", help="peak-match two maps")
    comp.add_argument("--reference", required=True)
    comp.add_argument("--test", required=True)
    comp.add_argument("--threshold", type=float, default=30.0,
                      help="peaks within this many dB of the max")
    comp.add_argument("--gate", type=int, default=3,
                      help="association gate in bins")
    _add_common(comp)

    info = sub.add_parser("info", help="describe a scene / CIR / map file")
    info.add_argument("file")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process.  parse_args keeps
    nothing between calls, each fills a new namespace, so main stays
    re-entrant.  It names the subcommand and holds no handler: main looks
    cmd_<command> up at each call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except FloatingPointError as exc:
        print(f"error: the input's values break the arithmetic ({exc})", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
