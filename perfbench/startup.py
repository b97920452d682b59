"""Time one fresh rftwin start-up under the speed probe.

    python3 perfbench/startup.py SCENE

Imports the CLI and the numeric stack its handlers use, then parses the
scene, and prints ``[calibrated_seconds, wall_seconds]`` as JSON.  numpy
is loaded first because the speed probe's kernel needs it, so its import
is not part of the timed interval.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from calibrate import SpeedProbe  # noqa: E402

with SpeedProbe() as probe:
    started = time.perf_counter()
    import rftwin.analysis  # noqa: E402,F401
    import rftwin.channel  # noqa: E402,F401
    import rftwin.cli  # noqa: E402,F401
    import rftwin.fmcw  # noqa: E402,F401
    from rftwin.scene import load_scene  # noqa: E402
    load_scene(sys.argv[1])
    ended = time.perf_counter()
net, scale = probe.interval(started, ended)
print(json.dumps([net * scale, ended - started]))
