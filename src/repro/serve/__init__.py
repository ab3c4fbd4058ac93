"""The analysis service: a long-lived daemon in front of the library.

The paper's methodology — and every subsystem grown around it — was,
until this package, reachable only through one-shot CLI invocations
that re-parse and re-analyze from scratch.  :mod:`repro.serve` turns
it into a serving system:

* :mod:`~repro.serve.store` — a persistent, content-addressed trace
  store (sha256 of the trace bytes), validated at ingest by the
  salvage-tolerant readers;
* :mod:`~repro.serve.jobs` — a bounded worker pool running
  ``analyze``/``temporal``/``diagnose``/``whatif`` jobs with
  single-flight deduplication over the shared on-disk report cache
  (:mod:`repro.cache`);
* :mod:`~repro.serve.server` — the stdlib-only threaded HTTP daemon
  (``repro serve``) with ``/metrics`` + ``/healthz`` observability
  and graceful, job-draining shutdown;
* :mod:`~repro.serve.metrics` — the counters and p50/p99 latency
  reservoirs behind ``/metrics``;
* :mod:`~repro.serve.client` — the thin urllib client driving
  ``repro submit`` / ``repro fetch``.

Reports served by the daemon are byte-identical to the corresponding
CLI command's output for the same trace and parameters — both sides
call the same renderers.

Names resolve lazily (PEP 562), so ``repro submit``/``repro fetch``
load only :mod:`~repro.serve.client` and the standard library.
"""

from .._lazy import lazy_attributes

__all__ = [
    "AnalysisServer",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_RETRIES",
    "DEFAULT_RETRY_MAX_WAIT",
    "DEFAULT_URL",
    "DEFAULT_WAIT_SECONDS",
    "JOB_KINDS",
    "JobRunner",
    "LatencyWindow",
    "MAX_WAIT_SECONDS",
    "QueueFullError",
    "RETRY_STATUSES",
    "SERVE_CACHE_FORMAT",
    "ServeClient",
    "ServiceDrainingError",
    "ServiceMetrics",
    "StoredTrace",
    "TraceStore",
    "build_report",
    "normalize_params",
    "report_key",
    "submit_and_fetch",
    "trace_sha256",
]

__getattr__, __dir__ = lazy_attributes(globals(), {
    "client": ("DEFAULT_RETRIES", "DEFAULT_RETRY_MAX_WAIT", "DEFAULT_URL",
               "RETRY_STATUSES", "ServeClient", "submit_and_fetch"),
    "jobs": ("DEFAULT_MAX_QUEUE", "JOB_KINDS", "SERVE_CACHE_FORMAT",
             "JobRunner", "QueueFullError", "ServiceDrainingError",
             "build_report", "normalize_params", "report_key"),
    "metrics": ("LatencyWindow", "ServiceMetrics"),
    "server": ("DEFAULT_MAX_BODY_BYTES", "DEFAULT_REQUEST_TIMEOUT",
               "DEFAULT_WAIT_SECONDS", "MAX_WAIT_SECONDS", "AnalysisServer"),
    "store": ("StoredTrace", "TraceStore", "trace_sha256"),
})
