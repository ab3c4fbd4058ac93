"""Operation accounting and the output-correctness gate.

Every operation the benchmark issues is counted as attempted; it
fails on a non-zero exit, a final HTTP error after the client's
retries, a ``pending`` payload where a report was expected, or report
bytes that differ from the reference for the same trace, report kind
and parameters.  Reference groups hold the bytes every mode and
format must reproduce.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class Tally:
    """Thread-safe attempted/failed counts plus byte-reference groups."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.references: Dict[str, bytes] = {}
        self.sources: Dict[str, str] = {}
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def record(self, success: bool, reason: str) -> bool:
        if success:
            self.ok()
        else:
            self.fail(reason)
        return success

    def matches(self, group: Optional[str], data: bytes,
                source: str) -> bool:
        """True when ``data`` equals the group's reference; the first
        output seen for a group becomes its reference."""
        if group is None:
            return True
        with self._lock:
            reference = self.references.setdefault(group, data)
            self.sources.setdefault(group, source)
        return reference == data

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
