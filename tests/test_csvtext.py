"""float_text is repr, bit for bit, on any float64."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FLOAT_BITS, REPO_ROOT
from rftwin import csvtext
from rftwin.csvtext import csv_lines, float_text


def texts(values) -> list[str]:
    """float_text of a 1-d array, each element's NUL bytes dropped."""
    return [row[row != 0].tobytes().decode() for row in float_text(values)]


def bits_of(*values) -> list[int]:
    return np.array(values, np.float64).view(np.uint64).tolist()


# Values where a rule decides the text: signed zeros, NaN and infinities;
# the smallest subnormal, the smallest normal and the largest double; the
# switch between positional and exponent form (1e16, 1e-4 and their
# neighbours); repeating fractions; the -300 dB floor.  Then ties, which go
# to repr: 1.8014398509481988e16 has an odd M at a gap of 4, so the
# integers at its interval ends are excluded, and 2227925162407529.8 lies
# half way between two candidates.  Below 1.7800590868057611e-307, a power
# of two, the gap is half the gap above.
EXAMPLES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 9999999999999998.0,
            1e-4, 1e-5, 0.1, 1 / 3, -300.0, 1.8014398509481988e16, 2227925162407529.8,
            -2206331399073625.8, 1.7800590868057611e-307, 1.1392378155556871e-305)


# The elements of EXAMPLES that take repr: NaN, the infinities, the
# subnormal, and the ties (1e16 and 9999999999999998.0 lie in [2^53, 2^54),
# where the interval ends are integers).
FALLBACKS = (float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 9999999999999998.0,
             1.8014398509481988e16, 2227925162407529.8, -2206331399073625.8)


def _with_examples(test):
    for value in EXAMPLES:
        test = example(bits=bits_of(value))(test)
    return example(bits=bits_of(*EXAMPLES))(test)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(FLOAT_BITS, min_size=1, max_size=40))
@_with_examples
def test_float_text_is_repr_on_any_bits(bits):
    values = np.array(bits, np.uint64).view(np.float64)
    assert texts(values) == [repr(v) for v in values.tolist()]


def test_float_text_is_repr_on_powers_of_two_and_ten():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)]])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert texts(values) == [repr(v) for v in values.tolist()]


def test_float_text_keeps_the_shape_and_takes_lists():
    grid = np.arange(6.0).reshape(2, 3) / 7
    cells = float_text(grid)
    assert cells.shape[:2] == (2, 3) and cells.shape[2] <= 24 and cells.dtype == np.uint8
    assert texts(grid.ravel()) == texts(list(grid.ravel())) == [repr(v) for v in grid.ravel().tolist()]
    assert float_text([]).shape == (0, 1)


def test_only_ties_subnormals_inf_and_nan_take_repr(monkeypatch):
    seen = []
    real = csvtext._repr_text

    def counting(values):
        seen.extend(values.tolist())
        return real(values)

    monkeypatch.setattr(csvtext, "_repr_text", counting)
    rng = np.random.default_rng(7)
    normal = np.concatenate([rng.uniform(-1e3, 1e3, 4000), 10 * np.log10(rng.uniform(0, 1, 4000)),
                             rng.uniform(-1, 1, 4000) * 10.0 ** rng.integers(-300, 10, 4000),
                             [0.0, -0.0, -300.0, 1.0, 2.2250738585072014e-308,
                              1.7976931348623157e308] * 50])
    assert texts(normal) == [repr(v) for v in normal.tolist()]
    assert seen == []
    float_text(EXAMPLES)
    assert bits_of(*seen) == bits_of(*FALLBACKS)


# Field bytes: text without commas or newlines, and NUL padding anywhere.
FIELD_BYTES = st.sampled_from(b"\0\0\0-.0123456789aefint")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_lines=st.integers(1, 5))
def test_csv_lines_joins_each_lines_fields(data, n_lines):
    """Line by line, csv_lines is the comma join of that line's fields with
    their NULs dropped, whatever the widths; a field with a leading line
    axis of 1, or none, repeats on every line."""
    fields = []
    for _ in range(data.draw(st.integers(1, 4), label="fields")):
        k, width = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 5))
        lines = data.draw(st.sampled_from([(n_lines,), (1,), ()]))
        size = math.prod(lines) * k * width
        cells = data.draw(st.lists(FIELD_BYTES, min_size=size, max_size=size))
        fields.append(np.array(cells, np.uint8).reshape(lines + (k, width)))
    n = max((len(f) for f in fields if f.ndim == 3), default=1)
    want = b"".join(
        b",".join(cell[cell != 0].tobytes() for f in fields
                  for cell in np.broadcast_to(f, (n,) + f.shape[-2:])[line]) + b"\n"
        for line in range(n))
    assert csv_lines(*fields) == want


def test_command_modules_do_not_import_csvtext():
    """The CSV writers import csvtext when they run, so starting a command
    does not compile or import it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, rftwin.cli, rftwin.channel, rftwin.fmcw, rftwin.analysis; "
            "print('rftwin.csvtext' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
