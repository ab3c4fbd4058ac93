"""Machine-speed probes: the host's speed, measured beside the program.

The benchmark runs on a few cores of a shared host whose speed drifts
by 10-20 percent over minutes, as neighbours come and go; every timing
of a run moves with it.  Three fixed probes that run none of the
program's code are timed after every other CLI operation:

* ``spin``  — a pure-Python loop in the benchmark process (interpreter
  speed, what decode and analysis mostly run on);
* ``bare``  — ``python -c pass`` in a child (process start);
* ``numpy`` — ``python -c "import numpy"`` in a child (imports, what
  the program's start-up mostly is).

The run's speed factor is the geometric mean over the probes of their
median time divided by the probe's nominal time.  A timing divided by
the factor (a rate multiplied by it) is what the run would have read
with the probes at nominal speed, so a change to the program moves it
while the host's drift mostly cancels.  The nominal times are medians
over ten runs on a 2-core Intel Xeon KVM guest (2.1 GHz).
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path
from typing import Dict, List

import procs

NOMINAL = {"spin": 0.0224, "bare": 0.0555, "numpy": 0.1506}


def _spin() -> float:
    began = time.perf_counter()
    sum(i * i for i in range(300_000))
    return time.perf_counter() - began


class SpeedProbe:
    def __init__(self, root: Path) -> None:
        self.root = root
        self.samples: Dict[str, List[float]] = {name: [] for name in NOMINAL}

    def sample(self) -> None:
        self.samples["spin"].append(_spin())
        for name, code in (("bare", "pass"), ("numpy", "import numpy")):
            result = procs.python(code, self.root)
            if result.returncode != 0:
                raise RuntimeError(f"speed probe {name!r} exited "
                                   f"{result.returncode}")
            self.samples[name].append(result.seconds)

    def factor(self) -> float:
        return math.exp(statistics.mean(
            math.log(statistics.median(values) / NOMINAL[name])
            for name, values in self.samples.items()))
