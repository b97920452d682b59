"""Machine-speed calibration for the benchmark's timings.

A shared host changes how fast this process runs by 20% and more from one
second to the next, so raw wall times of two runs of the same code disagree
by more than any useful regression bound.  The benchmark therefore samples
the machine's speed while it works: every INTERVAL_S a timer signal runs a
fixed kernel of about two milliseconds in the benchmarked process, between
two Python bytecodes of whatever is running.  A timed interval is then
reported as

    calibrated = (raw - kernel time inside) * REFERENCE_S / mean(kernel)

where the mean is over the samples taken inside the interval plus the one
on each side.  REFERENCE_S is the kernel's median time on the machine the
first baseline was recorded on (see perfbench/README.md), so calibrated
seconds read as seconds on that machine.  The kernel mixes the kinds of
work the pipeline does (dict-heavy Python, small-array numpy, an FFT and
float formatting) and never touches rftwin, so a change to rftwin cannot
move it.  Raw wall times are recorded beside the calibrated ones.
"""

from __future__ import annotations

import bisect
import io
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0024
INTERVAL_S = 0.05

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((8, 2116)) + 0j
_POINTS = _rng.standard_normal((8, 3))
_VALUES = _rng.standard_normal(150).tolist()


def kernel() -> None:
    """The fixed calibration work."""
    counts: dict[int, int] = {}
    for j in range(1500):
        counts[j % 97] = counts.get(j % 97, 0) + j
    for _ in range(30):
        u = _POINTS / np.linalg.norm(_POINTS, axis=1)[:, None]
        np.cross(u[0], u[1])
        u @ u.T
    np.fft.fft(_ROWS, axis=1)
    text = io.StringIO()
    for v in _VALUES:
        text.write(f"{v!r},{2.0 * v!r}\n")


def kernel_seconds(passes: int = 5) -> float:
    """Median wall seconds of ``passes`` kernel runs."""
    times = []
    for _ in range(passes):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class SpeedProbe:
    """Timer-driven kernel samples: (start, end, owner) in time order.

    ``owner`` is called at each sample to label it, so that kernel time
    landing inside a traced span can be taken out of that span.
    """

    def __init__(self, owner=None):
        self.samples: list[tuple[float, float, int]] = []
        self.owner = owner
        self._busy = False
        self._previous = None

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            kernel()
            label = self.owner() if self.owner is not None else -1
            self.samples.append((started, time.perf_counter(), label))
        except Exception:  # noqa: BLE001
            # The handler runs inside whatever code is being timed; a failed
            # sample is dropped rather than raised into that code.
            pass
        finally:
            self._busy = False

    def __enter__(self):
        # One pass first loads what numpy imports lazily (numpy.fft): inside
        # a signal handler that import could land in the middle of another
        # module importing it and see it half initialised.
        kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def interval(self, t0: float, t1: float) -> tuple[float, float]:
        """Seconds of [t0, t1] net of kernel samples, and their scale factor."""
        starts = [s for s, _, _ in self.samples]
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        net = (t1 - t0) - sum(e - s for s, e, _ in self.samples[i:j])
        near = [e - s for s, e, _ in self.samples[max(i - 1, 0):j + 1]]
        speed = statistics.fmean(near) if near else kernel_seconds()
        return net, REFERENCE_S / speed

    def owned(self) -> dict[int, float]:
        """Kernel seconds per owner label."""
        out: dict[int, float] = {}
        for s, e, label in self.samples:
            out[label] = out.get(label, 0.0) + (e - s)
        return out
