"""repro — reproduction of "Load Imbalance in Parallel Programs"
(Calzarossa, Massari, Tessera; PACT 2003).

The package implements the paper's dissimilarity-analysis methodology
(:mod:`repro.core`) together with every substrate its evaluation needs:
a discrete-event MPI simulator (:mod:`repro.simmpi`), tracing and
profiling (:mod:`repro.instrument`), the CFD and synthetic workloads
(:mod:`repro.apps`), the calibrated reconstruction of the paper's
dataset (:mod:`repro.calibrate`), classic baselines
(:mod:`repro.baselines`), text rendering (:mod:`repro.viz`) and the
fault-injection validation subsystem (:mod:`repro.faults`).

Quickstart::

    from repro import analyze, run_cfd, render_full_report

    result, tracer, measurements = run_cfd()
    print(render_full_report(analyze(measurements)))

Importing the package is lazy: ``import repro`` imports no subpackage,
and each subpackage or top-level name below is imported on first
access (PEP 562).  numpy is loaded by the first subpackage that
computes anything, and scipy only by
:mod:`repro.calibrate.reconstruct`, its one user.
"""

from ._lazy import lazy_attributes
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "apps", "baselines", "calibrate", "core", "faults", "instrument",
    "simmpi", "viz",
    "CFDConfig", "SyntheticWorkload", "run_cfd",
    "reconstruct",
    "AnalysisResult", "MeasurementSet", "Methodology", "analyze",
    "render_full_report",
    "ReproError",
    "Testbed",
    "TestbedEntry",
    "Tracer", "profile", "read_trace", "write_trace",
    "NetworkModel", "Simulator",
    "__version__",
]

__getattr__, __dir__ = lazy_attributes(globals(), {
    "apps": ("CFDConfig", "SyntheticWorkload", "run_cfd"),
    "calibrate": ("reconstruct",),
    "core": ("AnalysisResult", "MeasurementSet", "Methodology", "analyze",
             "render_full_report"),
    "testbed": ("Testbed", "TestbedEntry"),
    "instrument": ("Tracer", "profile", "read_trace", "write_trace"),
    "simmpi": ("NetworkModel", "Simulator"),
}, submodules=("apps", "baselines", "calibrate", "core", "faults",
               "instrument", "simmpi", "viz"))
