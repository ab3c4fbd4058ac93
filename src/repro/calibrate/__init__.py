"""Calibration against the paper's published numbers.

* :mod:`repro.calibrate.paper_data` — Tables 1–4 and the §4 narrative
  facts, recorded verbatim, plus the derived program wall clock.
* :mod:`repro.calibrate.reconstruct` — a full ``t_ijp`` tensor solved to
  satisfy every published constraint (the original tracefile is lost).

Names resolve lazily (PEP 562): :mod:`~repro.calibrate.reconstruct` is
the package's one scipy user, so ``paper_data`` and the
:mod:`~repro.calibrate.directions` helpers import without scipy.
``reconstruct`` here is the function, not its module.
"""

from .._lazy import lazy_attributes

__all__ = [
    "paper_data",
    "direction_from_shape",
    "shares",
    "spotlight",
    "times_from_shares",
    "DESIGNATED_PROCESSOR",
    "CalibrationReport",
    "reconstruct",
    "synthesize_paper_trace",
    "verify",
]

__getattr__, __dir__ = lazy_attributes(globals(), {
    "directions": ("direction_from_shape", "shares", "spotlight",
                   "times_from_shares"),
    "reconstruct": ("DESIGNATED_PROCESSOR", "CalibrationReport",
                    "reconstruct", "synthesize_paper_trace", "verify"),
}, submodules=("paper_data",))
