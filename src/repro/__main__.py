"""``python -m repro`` dispatches to :mod:`repro.cli`."""

from time import perf_counter

# The `import` row of ``--profile`` is timed from here to dispatch.
STARTED = perf_counter()

import sys  # noqa: E402

from .cli import main  # noqa: E402

sys.exit(main(started=STARTED))
