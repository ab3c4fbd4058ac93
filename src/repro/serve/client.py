"""Thin stdlib client for the analysis service daemon.

Programmatic access::

    from repro.serve.client import ServeClient

    client = ServeClient("http://127.0.0.1:8765")
    meta = client.submit("trace.jsonl")
    payload = client.report(meta["sha256"], kind="analyze")
    print(payload["text"], end="")     # byte-identical to `repro analyze`

Every transport or protocol failure surfaces as
:class:`~repro.errors.ReproError`, so CLI callers inherit the
``exit 2`` contract for free.  The client is deliberately dependency
free (``urllib``), mirroring the daemon's stdlib-only constraint.

**Resilience**: transient failures — a connection that cannot be
established, an HTTP 429 from a full job queue, a 503 from a draining
daemon — are retried with exponential backoff plus jitter, honoring
the server's ``Retry-After`` header when one is sent.  Retrying is
safe on every endpoint: the store is content-addressed and report
computation is single-flighted, so a repeated request is idempotent.
Definite failures (400, 404, 413, 422, ...) are never retried.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
from pathlib import Path
from typing import Optional, Union

from ..errors import ReproError

PathLike = Union[str, Path]

DEFAULT_URL = "http://127.0.0.1:8765"

#: Extra attempts after the first failed one (connection errors and
#: retryable statuses only).
DEFAULT_RETRIES = 2

#: Ceiling on one backoff sleep; also caps an honored ``Retry-After``.
DEFAULT_RETRY_MAX_WAIT = 15.0

#: First backoff sleep; doubles per attempt up to the ceiling.
DEFAULT_RETRY_BASE_WAIT = 0.25

#: HTTP statuses that signal a transient server condition.
RETRY_STATUSES = (429, 503)


def _retry_after_seconds(headers) -> Optional[float]:
    """The ``Retry-After`` delay a response carries, if parseable."""
    if headers is None:
        return None
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None                # HTTP-date form: fall back to backoff
    return seconds if seconds >= 0 else None


class ServeClient:
    """HTTP client for one analysis daemon."""

    def __init__(self, url: str = DEFAULT_URL,
                 timeout: float = 300.0,
                 retries: int = DEFAULT_RETRIES,
                 retry_max_wait: float = DEFAULT_RETRY_MAX_WAIT,
                 retry_base_wait: float = DEFAULT_RETRY_BASE_WAIT,
                 sleep=time.sleep, rng=random.random) -> None:
        self.url = url.rstrip("/")
        if not self.url.startswith(("http://", "https://")):
            raise ReproError(
                f"service URL must be http(s), got {url!r}")
        if retries < 0:
            raise ReproError("retries must not be negative")
        if retry_max_wait < 0 or retry_base_wait < 0:
            raise ReproError("retry waits must not be negative")
        self.timeout = timeout
        self.retries = int(retries)
        self.retry_max_wait = float(retry_max_wait)
        self.retry_base_wait = float(retry_base_wait)
        # Injection points so tests (and callers embedding the client
        # in an event loop) can observe or replace the waiting.
        self._sleep = sleep
        self._rng = rng

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _backoff(self, attempt: int,
                 retry_after: Optional[float] = None) -> float:
        """Seconds to sleep before retry number ``attempt + 1``.

        Exponential (base * 2^attempt, capped) with multiplicative
        jitter in [0.5x, 1.5x) so a fleet of clients shed by the same
        overloaded daemon does not come back in lockstep.  A server
        ``Retry-After`` raises the floor (capped at the same ceiling):
        the server knows its backlog better than our exponent does.
        """
        wait = min(self.retry_max_wait,
                   self.retry_base_wait * (2 ** attempt))
        wait *= 0.5 + self._rng()
        wait = min(wait, self.retry_max_wait)
        if retry_after is not None:
            wait = max(wait, min(retry_after, self.retry_max_wait))
        return wait

    def _request(self, method: str, path: str,
                 data: Optional[bytes] = None,
                 content_type: str = "application/json",
                 headers: Optional[dict] = None) -> dict:
        # Imported on first use: the CLI parser reads DEFAULT_URL from
        # this module, and every verb's start-up would pay for these.
        import urllib.request

        from ..obs.log import new_request_id

        # One correlation ID per *logical* request, minted here when
        # the caller supplies none: every retry attempt carries the
        # same X-Request-Id, so the daemon's access log shows N
        # attempts of one request rather than N unrelated requests.
        headers = dict(headers or {})
        if "X-Request-Id" not in headers:
            headers["X-Request-Id"] = new_request_id()
        request_id = headers["X-Request-Id"]
        for attempt in range(self.retries + 1):
            request = urllib.request.Request(
                self.url + path, data=data, method=method,
                headers={"Content-Type": content_type, **headers})
            try:
                with urllib.request.urlopen(
                        request, timeout=self.timeout) as response:
                    body = response.read()
            except urllib.error.HTTPError as error:
                if error.code in RETRY_STATUSES \
                        and attempt < self.retries:
                    self._sleep(self._backoff(
                        attempt, _retry_after_seconds(error.headers)))
                    continue
                detail = error.read().decode("utf-8", "replace")
                try:
                    detail = json.loads(detail).get("error", detail)
                except ValueError:
                    pass
                raise ReproError(
                    f"service answered {error.code} for {method} {path}: "
                    f"{detail} [request {request_id}]") from error
            except (urllib.error.URLError, OSError) as error:
                if attempt < self.retries:
                    self._sleep(self._backoff(attempt))
                    continue
                reason = getattr(error, "reason", error)
                raise ReproError(
                    f"cannot reach analysis service at {self.url}: "
                    f"{reason}") from error
            try:
                return json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as error:
                raise ReproError(
                    f"service sent a non-JSON response to {method} "
                    f"{path}: {error}") from error
        raise AssertionError("unreachable: the retry loop always "
                             "returns or raises")   # pragma: no cover

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def traces(self) -> list:
        return self._request("GET", "/traces")["traces"]

    def trace(self, sha: str) -> dict:
        return self._request("GET", f"/traces/{sha}")["trace"]

    def submit(self, trace: Union[PathLike, bytes],
               name: Optional[str] = None) -> dict:
        """Upload a trace (path or bytes); returns its stored metadata.

        Content-addressed: submitting the same bytes twice is
        idempotent (``created`` is False the second time) — which is
        also what makes retrying a submission safe.
        """
        if isinstance(trace, bytes):
            data = trace
            name = name or ""
        else:
            source = Path(trace)
            try:
                data = source.read_bytes()
            except OSError as error:
                raise ReproError(
                    f"cannot read {source}: {error}") from error
            name = source.name if name is None else name
        payload = self._request(
            "POST", "/traces", data=data,
            content_type="application/octet-stream",
            headers={"X-Trace-Name": name} if name else None)
        return {**payload["trace"], "created": payload["created"]}

    def report(self, sha: str, kind: str = "analyze", *,
               wait: bool = True, timeout: Optional[float] = None,
               **params) -> dict:
        """The report payload for one stored trace.

        ``params`` are the job parameters (``index=...``, and
        ``windows=...`` for ``kind="temporal"``).  With ``wait`` the
        call blocks until the report is computed (or served from
        cache); the payload's ``text`` is byte-identical to the
        corresponding CLI command's output.
        """
        body = json.dumps({
            "trace": sha, "kind": kind, "params": params,
            "wait": wait, "timeout": timeout,
        }).encode("utf-8")
        return self._request("POST", "/reports", data=body)

    def fetch_text(self, sha: str, kind: str = "analyze",
                   **params) -> str:
        """Just the rendered report text (see :meth:`report`)."""
        return self.report(sha, kind, **params)["text"]


def submit_and_fetch(url: str, trace_path: PathLike,
                     kind: str = "analyze", **params) -> dict:
    """One-shot convenience: ensure the trace is stored, fetch its report.

    Because the store is content-addressed, re-submitting is free; the
    common scripting loop (``repro fetch TRACE``) is therefore a single
    call that works whether or not the trace was submitted before.
    """
    client = ServeClient(url)
    meta = client.submit(trace_path)
    return client.report(meta["sha256"], kind, **params)


__all__ = ["DEFAULT_RETRIES", "DEFAULT_RETRY_BASE_WAIT",
           "DEFAULT_RETRY_MAX_WAIT", "DEFAULT_URL", "RETRY_STATUSES",
           "ServeClient", "submit_and_fetch"]
