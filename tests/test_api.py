"""The rftwin namespace: every export resolves, and retired names stay gone."""

import importlib

import pytest

import rftwin

# (module, name) of helpers that were replaced by the em kernels or by
# references inside the tests.
RETIRED = [
    ("em", "fresnel_reflection"), ("em", "_fresnel_te_tm"), ("em", "lobe_gain"),
    ("em", "split_power"), ("em", "_antenna_frame"), ("em", "_gains_db"),
    ("scene", "boresight_angles"), ("geometry", "segment_hits_facet"),
    ("geometry", "mirror_point"), ("geometry", "facet_centroid"),
    ("kinematics", "interpolate"), ("fmcw", "fold_doppler"),
    ("analysis", "peak_to_sidelobe_db"),
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
    from rftwin.scene import Material, Scene
    assert not hasattr(Material, "reflection_reduction")
    assert not hasattr(Scene, "material_of")
