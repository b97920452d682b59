"""Command-line pipeline: scene -> CIR -> beat -> maps -> comparison.

Subcommands
    simulate   trace a scene over an episode and write the CIR + path dump
    process    synthesize beats from a CIR and write PDP + delay-Doppler maps
    predict    write the analytic delay-Doppler prediction for a CIR window
    compare    match peaks between two maps on identical axes
    info       print the header of a scene / CIR / map / PDP file

Exit codes: 0 ok, 2 input error, 3 contract mismatch between otherwise
valid inputs, 4 internal error.  RFTWIN_OUT sets the default output
directory.  --frozen-clock pins header timestamps so reruns with the same
arguments are byte-identical.

The command handlers import the library when they run, for two reasons:
--help and usage errors answer without loading numpy, and a handler looks
its library functions up at each call, so a module attribute replaced
after import (a test's monkeypatch, a profiler's wrapper) is the one
called.
"""

from __future__ import annotations

import argparse
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


def _positive(kind, name, value, least=1):
    if value < least:
        floor = f" of at least {least}" if least > 1 else ""
        raise InputError(f"--{name} must be a positive {kind}{floor}, got {value}")
    return value


def _chirp_config(args):
    from .channel import ChirpConfig
    kwargs = {}
    for flag, field in (("f_c", "f_c"), ("bandwidth", "bandwidth"),
                        ("t_chirp", "t_chirp"), ("t_idle", "t_idle"),
                        ("slope", "slope"), ("f_samp", "f_samp"),
                        ("chirps", "n_chirps_total")):
        value = getattr(args, flag)
        if value is not None:
            kwargs[field] = value
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
    g.add_argument("--chirps", type=int, help="chirps in the episode")


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
    save_cir(cir_path, cir, config, link, trace=trace, t0=args.t0,
             frozen_clock=args.frozen_clock,
             extra={"scene": scene_path.name, "seed": args.seed})
    csv_path = out / f"{tag}_paths.csv"
    cir_to_csv(csv_path, cir)

    per_kind = np.bincount(cir.paths.kind, minlength=len(KINDS))
    counts = {kind: int(c) for kind, c in zip(KINDS, per_kind) if c}
    summary = {"frames": len(cir), "t0": args.t0,
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


def _load_cir_config(path):
    """Episode, header and chirp config of a .cir file.  A malformed file, or
    a header config that ChirpConfig rejects (unknown key, wrong type, bad
    value), is an input error naming the file."""
    from .channel import ChirpConfig, load_cir

    cir, header = _load_checked(load_cir, path)
    try:
        return cir, header, ChirpConfig(**header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad chirp config in the header: {exc}") from exc


def _export_formats(spec: str) -> list[str]:
    """The --export comma list; an unknown format, or none, is an input
    error."""
    formats = [f.strip() for f in spec.split(",") if f.strip()]
    if not formats:
        raise InputError("--export names no format; give a comma list of bin, csv, pgm")
    for f in formats:
        if f not in ("bin", "csv", "pgm"):
            raise InputError(f"unknown export format '{f}'")
    return formats


def _window_name(flag: str, name: str) -> str:
    """A --window/--window-slow value; an unknown name is an input error."""
    from .fmcw import window_taps

    try:
        window_taps(name, 1)
    except ValueError as exc:
        raise InputError(f"--{flag}: {exc}") from exc
    return name


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
    from .fmcw import (NoiseConfig, PdpWriter, beat_passes, pdp_series, range_fft,
                       window_maps)

    cir, header, config = _load_cir_config(args.cir)
    n = _positive("integer", "N", args.n_chirps, least=2)
    stride = n if args.stride is None else _positive("integer", "stride", args.stride)
    if args.t0_index < 0:
        raise InputError(f"--t0-index must be >= 0, got {args.t0_index}")
    if args.num_windows is not None:
        _positive("integer", "num-windows", args.num_windows)
    if n > len(cir):
        raise InputError(f"window of {n} chirps exceeds the {len(cir)} "
                         f"frames in {args.cir}")
    formats = _export_formats(args.export)
    window_fast = _window_name("window", args.window)
    window_slow = _window_name("window-slow", args.window_slow)
    try:
        noise = NoiseConfig(enabled=args.noise, noise_figure_db=args.noise_figure,
                            tx_power_dbm=args.tx_power, seed=args.noise_seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    starts = list(range(args.t0_index, len(cir) - n + 1, stride))
    if args.num_windows is not None:
        starts = starts[:args.num_windows]
    if not starts:
        raise InputError(f"no complete {n}-chirp window starts at index "
                         f"{args.t0_index} in {len(cir)} beat frames")

    # The PDP covers every frame; without it only the windows' frames are
    # synthesized, up to the end of the last.
    pdp_out = "bin" in formats or "csv" in formats
    frames = range(len(cir)) if pdp_out else range(starts[0], starts[-1] + n)
    passes = beat_passes(cir, config, noise, frames.start, frames.stop)
    times = cir.t
    out = _out_dir(args)
    tag = args.tag or Path(args.cir).stem
    pdp = PdpWriter(times, out / f"{tag}.pdp" if "bin" in formats else None,
                    out / f"{tag}_pdp.csv" if "csv" in formats else None, args.frozen_clock)

    def pdp_rows(lo, spectra):
        """A pass's PDP rows, held by no local of spectra() once written."""
        rows = pdp_series(spectra, times[lo:lo + len(spectra)], config, window=window_fast)
        rows.metadata["seed"] = header.get("seed")
        return rows

    def spectra():
        """Each pass's range spectra, zero-padded with --zero-pad, after its
        unpadded spectra went to the PDP."""
        for lo, beats in passes:
            padded = range_fft(beats, window_fast, zero_pad=True) if args.zero_pad else None
            if pdp_out or padded is None:
                range_fft(beats, window_fast, out=beats)
            if pdp_out:
                pdp.write(pdp_rows(lo, beats))
            yield lo, beats if padded is None else padded

    written = []
    with pdp:
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
    from .fmcw import predicted_map

    cir, header, config = _load_cir_config(args.cir)
    n = _positive("integer", "N", args.n_chirps, least=2)
    formats = _export_formats(args.export)
    window_fast = _window_name("window", args.window)
    window_slow = _window_name("window-slow", args.window_slow)
    try:
        ddm = predicted_map(cir, config, t0_index=args.t0_index, n_chirps=n,
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
    proc.add_argument("--cir", required=True)
    proc.add_argument("-N", "--n-chirps", type=int, default=128,
                      help="chirps per delay-Doppler window")
    proc.add_argument("--t0-index", type=int, default=0)
    proc.add_argument("--stride", type=int, default=None,
                      help="chirps between window starts (default N)")
    proc.add_argument("--num-windows", type=int, default=None)
    proc.add_argument("--window", default="hann", help="fast-time window")
    proc.add_argument("--window-slow", default="hann", help="slow-time window")
    proc.add_argument("--zero-pad", action="store_true",
                      help="double the fast-time FFT length")
    proc.add_argument("--export", default="bin", help="comma list: bin,csv,pgm")
    proc.add_argument("--noise", action="store_true", help="enable AWGN")
    proc.add_argument("--noise-figure", type=float, default=15.0)
    proc.add_argument("--tx-power", type=float, default=12.0)
    proc.add_argument("--noise-seed", type=int, default=0)
    _add_common(proc)

    pred = sub.add_parser("predict", help="analytic map for one CIR window")
    pred.add_argument("--cir", required=True)
    pred.add_argument("-N", "--n-chirps", type=int, default=128)
    pred.add_argument("--t0-index", type=int, default=0)
    pred.add_argument("--window", default="hann", help="fast-time window modeled")
    pred.add_argument("--window-slow", default="hann", help="slow-time window modeled")
    pred.add_argument("--export", default="bin", help="comma list: bin,csv,pgm")
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
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
