"""The rftwin namespace: every export resolves, and retired names stay gone."""

import importlib
import re
from pathlib import Path

import pytest

import rftwin

# (module, name) of helpers that were replaced by the em kernels, by
# references inside the tests, by the SnapshotBlock of one epoch, or by the
# Cir episode table and the breakdown columns of amplitudes_of; LinkConstants
# by the tables amplitudes_of builds on each call; range_rows and
# padded_windows by the passes of beat_passes and window_maps; the CLI's
# _load_cir_config by the settings and checks of load_cir.
RETIRED = [
    ("em", "fresnel_reflection"), ("em", "_fresnel_te_tm"), ("em", "lobe_gain"),
    ("em", "split_power"), ("em", "_antenna_frame"), ("em", "_gains_db"),
    ("scene", "boresight_angles"), ("geometry", "segment_hits_facet"),
    ("geometry", "mirror_point"), ("geometry", "facet_centroid"),
    ("kinematics", "interpolate"), ("fmcw", "fold_doppler"),
    ("analysis", "peak_to_sidelobe_db"), ("kinematics", "WorldSnapshot"),
    ("kinematics", "PoseSample"), ("channel", "CirFrame"), ("channel", "_block_frames"),
    ("em", "PathAmplitude"), ("em", "LinkConstants"), ("fmcw", "range_rows"),
    ("fmcw", "padded_windows"), ("cli", "_load_cir_config"),
]


def test_every_export_resolves_lazily():
    assert rftwin.__all__ == ["__version__", *sorted(rftwin._EXPORTS)]
    for name in rftwin.__all__:
        assert getattr(rftwin, name) is not None, name
    for name, module in rftwin._EXPORTS.items():
        assert getattr(rftwin, name) is getattr(
            importlib.import_module(f"rftwin.{module}"), name)


@pytest.mark.parametrize("module, name", RETIRED)
def test_retired_names_are_gone(module, name):
    assert name not in rftwin._EXPORTS
    with pytest.raises(AttributeError):
        getattr(rftwin, name)
    assert not hasattr(importlib.import_module(f"rftwin.{module}"), name)


def test_retired_methods_are_gone():
    from rftwin.kinematics import SnapshotBlock, _Trajectory
    from rftwin.scene import Material, Scene
    assert not hasattr(Material, "reflection_reduction")
    assert not hasattr(Scene, "material_of")
    assert not hasattr(SnapshotBlock, "__getitem__")
    assert not hasattr(_Trajectory, "sample")


def test_readme_library_snippets_run(monkeypatch):
    """The python blocks under "## Library use" in README.md run in order,
    in one namespace, from the repository root."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(readme.parent)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
