"""rftwin: ray-traced RF digital twin for integrated sensing simulation.

Builds time-varying channel impulse responses from scenes with moving
scatterers, synthesizes FMCW beat signals, and cross-validates processed
delay-Doppler maps against analytic predictions.

Submodules are imported lazily, on the first use of one of their names,
so `rftwin --help` and usage errors answer without loading numpy.  The
CLI's handlers import what they use when they run, so a module attribute
replaced after import (a test's monkeypatch, a profiler's wrapper) is the
one they call.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "Material": "scene",
    "AntennaPattern": "scene",
    "Transceiver": "scene",
    "Facet": "scene",
    "MobileBody": "scene",
    "Scene": "scene",
    "SceneError": "scene",
    "load_scene": "scene",
    "material_defaults": "scene",
    "snapshot": "kinematics",
    "TraceConfig": "raytrace",
    "PathTable": "raytrace",
    "trace_los": "raytrace",
    "trace_specular": "raytrace",
    "trace_diffuse": "raytrace",
    "SPEED_OF_LIGHT": "em",
    "amplitudes_of": "em",
    "specular_reduction": "em",
    "lobe_normalization": "em",
    "lobe_density": "em",
    "complex_permittivity": "em",
    "fresnel": "em",
    "antenna_angles": "em",
    "ChirpConfig": "channel",
    "SensingLink": "channel",
    "Cir": "channel",
    "doppler_of": "channel",
    "simulate_cir": "channel",
    "save_cir": "channel",
    "load_cir": "channel",
    "max_range": "channel",
    "NoiseConfig": "fmcw",
    "synth_beat": "fmcw",
    "range_fft": "fmcw",
    "delay_doppler": "fmcw",
    "DelayDopplerMap": "fmcw",
    "pdp_series": "fmcw",
    "predicted_map": "fmcw",
    "save_map": "fmcw",
    "load_map": "fmcw",
    "Peak": "analysis",
    "extract_peaks": "analysis",
    "MatchReport": "analysis",
    "match_maps": "analysis",
    "ridge_fraction": "analysis",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'rftwin' has no attribute '{name}'")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
