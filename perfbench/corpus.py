"""Seeded benchmark inputs, written by the benchmark's own code.

Nothing here imports the program under test: a change to the program
cannot change the inputs it is measured on.  Every file is a pure
function of the seed and its shape parameters, so the sha256 of each
file (``fingerprint``) identifies the corpus a result was measured on;
two results whose fingerprints differ are not comparable.

Formats written: the repro JSONL trace (header line + one object per
event), its gzip form, and the binary form (``RPTB`` header, NUL-joined
string table, 37-byte packed records).
"""

from __future__ import annotations

import gzip
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

ACTIVITIES = ("computation", "point-to-point", "collective",
              "synchronization")
OUTSIDE = "(outside regions)"
KINDS = ("compute", "send", "recv", "wait")

_HEADER = struct.Struct("<4sHIQI")
_RECORD = np.dtype([("r", "<u4"), ("g", "<u2"), ("a", "<u2"),
                    ("b", "<f8"), ("e", "<f8"), ("k", "u1"),
                    ("n", "<u8"), ("p", "<i4")])
assert _RECORD.itemsize == 37


class Trace:
    """Columnar events: rank, region, activity, begin, end, kind,
    nbytes, partner (region/activity as indices into name tuples)."""

    def __init__(self, regions, activities, rank, region, activity,
                 begin, end, kind, nbytes, partner):
        self.regions = tuple(regions)
        self.activities = tuple(activities)
        self.rank = rank
        self.region = region
        self.activity = activity
        self.begin = begin
        self.end = end
        self.kind = kind
        self.nbytes = nbytes
        self.partner = partner

    def __len__(self) -> int:
        return len(self.rank)

    def jsonl_bytes(self) -> bytes:
        ranks = int(self.rank.max()) + 1 if len(self) else 0
        header = json.dumps({"format": "repro-trace", "version": 1,
                             "ranks": ranks, "events": len(self)})
        regions = [json.dumps(name) for name in self.regions]
        activities = [json.dumps(name) for name in self.activities]
        lines = [header]
        for r, g, a, b, e, k, n, p in zip(
                self.rank.tolist(), self.region.tolist(),
                self.activity.tolist(), self.begin.tolist(),
                self.end.tolist(), self.kind.tolist(),
                self.nbytes.tolist(), self.partner.tolist()):
            lines.append(
                f'{{"r": {r}, "g": {regions[g]}, "a": {activities[a]}, '
                f'"b": {b!r}, "e": {e!r}, "k": "{KINDS[k]}", '
                f'"n": {n}, "p": {p}}}')
        return ("\n".join(lines) + "\n").encode("utf-8")

    def binary_bytes(self) -> bytes:
        names = list(self.regions) + list(self.activities)
        table = b"\x00".join(name.encode("utf-8") for name in names)
        records = np.empty(len(self), dtype=_RECORD)
        records["r"] = self.rank
        records["g"] = self.region
        records["a"] = self.activity + len(self.regions)
        records["b"] = self.begin
        records["e"] = self.end
        records["k"] = self.kind
        records["n"] = self.nbytes
        records["p"] = self.partner
        ranks = int(self.rank.max()) + 1 if len(self) else 0
        return (_HEADER.pack(b"RPTB", 1, ranks, len(self), len(table))
                + table + records.tobytes())


def _interleave(per_rank):
    """Merge per-rank column dicts into one time-ordered Trace layout."""
    columns = {key: np.concatenate([chunk[key] for chunk in per_rank])
               for key in per_rank[0]}
    order = np.lexsort((columns["rank"], columns["begin"]))
    return {key: value[order] for key, value in columns.items()}


def bulk_trace(rng: np.random.Generator, n_events: int, n_ranks: int = 16,
               n_regions: int = 7, drift: float = 0.0) -> Trace:
    """A trace shaped like an iterative MPI code.

    Each rank alternates region bursts: computation, point-to-point
    send/recv pairs with byte counts and partners, collectives and
    synchronization waits, plus outside-region time.  Per (region,
    rank) cost factors make the load imbalanced; ``drift`` makes the
    last region's imbalance grow linearly over the run.
    """
    regions = tuple(f"loop {i + 1}" for i in range(n_regions)) + (OUTSIDE,)
    n_cells = len(regions)
    factor = rng.lognormal(0.0, 0.35, size=(n_cells, n_ranks))
    base = rng.uniform(1e-4, 1e-3, size=n_cells)
    per_rank = []
    horizon = n_events / n_ranks * base.mean()
    counts = np.full(n_ranks, n_events // n_ranks)
    counts[:n_events % n_ranks] += 1
    for rank in range(n_ranks):
        n = int(counts[rank])
        region = rng.integers(0, n_cells, size=n)
        activity = rng.choice(4, size=n, p=(0.55, 0.25, 0.12, 0.08))
        activity[region == n_cells - 1] = 0
        duration = rng.exponential(1.0, size=n) * base[region] \
            * factor[region, rank]
        if drift:
            progress = np.arange(n) / max(n - 1, 1)
            hot = region == n_regions - 1
            duration[hot] *= 1.0 + drift * progress[hot] * (rank % 4)
        gap = rng.exponential(2e-6, size=n)
        # Ranks synchronize at the end of the run: every timeline is
        # stretched to the same length, imbalance stays inside regions.
        stretch = horizon / (duration.sum() + gap.sum())
        duration, gap = duration * stretch, gap * stretch
        end = np.cumsum(duration + gap)
        begin = end - duration
        kind = np.zeros(n, dtype=np.int64)
        p2p = activity == 1
        kind[p2p] = np.where(rng.random(p2p.sum()) < 0.5, 1, 2)
        kind[activity >= 2] = 3
        nbytes = np.where(p2p, rng.integers(64, 1 << 20, size=n), 0)
        partner = np.where(
            p2p, (rank + rng.integers(1, n_ranks, size=n)) % n_ranks, -1)
        per_rank.append({"rank": np.full(n, rank), "region": region,
                         "activity": activity, "begin": begin, "end": end,
                         "kind": kind, "nbytes": nbytes,
                         "partner": partner})
    cols = _interleave(per_rank)
    return Trace(regions, ACTIVITIES, cols["rank"], cols["region"],
                 cols["activity"], cols["begin"], cols["end"],
                 cols["kind"], cols["nbytes"], cols["partner"])


def wide_trace(rng: np.random.Generator, n_regions: int = 64,
               n_ranks: int = 256) -> Trace:
    """One event per (region, activity, rank) cell: a large analysis
    tensor from a small file, so the kernels and renderers show."""
    regions = tuple(f"kernel {i:02d}" for i in range(n_regions))
    grid = np.stack(np.meshgrid(np.arange(n_regions), np.arange(4),
                                np.arange(n_ranks), indexing="ij"),
                    axis=-1).reshape(-1, 3)
    duration = rng.lognormal(-6.0, 0.6, size=len(grid))
    order = np.lexsort((grid[:, 0] * 4 + grid[:, 1], grid[:, 2]))
    grid, duration = grid[order], duration[order]
    end = np.empty(len(grid))
    for rank in range(n_ranks):
        mask = grid[:, 2] == rank
        end[mask] = np.cumsum(duration[mask])
    begin = end - duration
    kind = np.array([0, 1, 3, 3])[grid[:, 1]]
    p2p = grid[:, 1] == 1
    nbytes = np.where(p2p, 4096, 0)
    partner = np.where(p2p, (grid[:, 2] + 1) % n_ranks, -1)
    return Trace(regions, ACTIVITIES, grid[:, 2], grid[:, 0], grid[:, 1],
                 begin, end, kind, nbytes, partner)


def write(path: Path, data: bytes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


SUFFIXES = {"jsonl": ".jsonl", "gzip": ".jsonl.gz", "binary": ".rptb"}


def encode(trace: Trace, form: str) -> bytes:
    if form == "binary":
        return trace.binary_bytes()
    text = trace.jsonl_bytes()
    if form == "gzip":
        return gzip.compress(text, compresslevel=6, mtime=0)
    return text


def write_format(directory: Path, stem: str, trace: Trace,
                 form: str) -> Path:
    """The trace in one format (``jsonl``, ``gzip`` or ``binary``)."""
    return write(directory / f"{stem}{SUFFIXES[form]}", encode(trace, form))


def write_formats(directory: Path, stem: str, trace: Trace) -> dict:
    """The trace in all three formats; returns format -> path."""
    text = trace.jsonl_bytes()
    return {
        "jsonl": write(directory / f"{stem}.jsonl", text),
        "gzip": write(directory / f"{stem}.jsonl.gz",
                      gzip.compress(text, compresslevel=6, mtime=0)),
        "binary": write(directory / f"{stem}.rptb", trace.binary_bytes()),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint(paths, root: Path) -> dict:
    """Relative path -> sha256 of each generated input file."""
    return {str(Path(path).relative_to(root)): sha256(path)
            for path in sorted(paths)}
