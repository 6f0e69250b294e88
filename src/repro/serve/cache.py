"""Content-hash result cache for the serving layer.

A served result is a pure function of *what gets synthesized* — the
resolved circuit contents plus the report-affecting batch knobs — so a
resubmission of the same work can answer from the previous
:class:`~repro.flows.BatchReport` without resynthesizing anything.

:func:`submission_key` computes the cache key: a SHA-256 over a
canonical JSON encoding of

* the normalized config — ``flow`` and ``verify``.
  **Not** ``workers`` (the determinism contract makes 1- and N-worker
  reports byte-identical) and **not** ``priority`` (scheduling only);
  both hashing differently would just split identical results across
  cache slots;
* one descriptor per resolved :class:`~repro.api.InputItem`, in order:
  registry items by name (the registry is immutable for a server's
  lifetime), BLIF items by name **and the SHA-256 of the file bytes**
  — the same path resubmitted after the file changed must miss.

An item whose bytes cannot be read when the key is computed makes the
whole submission uncacheable (``None`` key): the batch layer would
report the failure its own way, and caching an error row keyed by a
file we could not even hash would pin a transient failure forever.

:class:`ResultCache` itself is a small LRU keyed by those digests.  It
is touched only from the event-loop thread (submit path and job
completion), so it needs no locking; the stored value is the live
``BatchReport`` — reports are never mutated after ``run_batch``
returns, so sharing one object between jobs is safe.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

from ..flows.batch import BatchConfig, BatchReport

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..api import InputItem

#: Default number of finished reports retained.
DEFAULT_RESULT_CACHE_SIZE = 64


def submission_key(
    items: "Sequence[InputItem]", config: BatchConfig
) -> str | None:
    """Content hash of one submission, or ``None`` if uncacheable."""
    descriptors: list[list[str]] = []
    for item in items:
        if item.kind == "registry":
            descriptors.append(["registry", item.name])
        elif item.kind == "blif" and item.path is not None:
            try:
                with open(item.path, "rb") as stream:
                    digest = hashlib.sha256(stream.read()).hexdigest()
            except OSError:
                return None
            descriptors.append(["blif", item.name, digest])
        else:  # unknown kind: refuse to guess what identifies it
            return None
    payload = {
        "config": {
            "flow": config.flow,
            "verify": config.verify,
        },
        "items": descriptors,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded LRU of finished :class:`BatchReport` objects by key."""

    def __init__(self, max_entries: int = DEFAULT_RESULT_CACHE_SIZE) -> None:
        if max_entries < 1:
            raise ValueError("result cache needs max_entries >= 1")
        self._max_entries = max_entries
        self._entries: "OrderedDict[str, BatchReport]" = OrderedDict()
        #: Submissions answered from the cache.
        self.hits = 0
        #: Submissions that had to synthesize.
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str | None) -> BatchReport | None:
        """The cached report for ``key``, counting the hit/miss.
        ``None`` keys (uncacheable submissions) always miss."""
        report = self._entries.get(key) if key is not None else None
        if report is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return report

    def put(self, key: str | None, report: BatchReport) -> None:
        """Retain a finished report (evicting the least recently used)."""
        if key is None:
            return
        self._entries[key] = report
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def stats(self) -> dict[str, int | float]:
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self._max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }
