"""The in-memory backends: tests, ephemeral servers, and warm-only caches.

``memory://`` opens a fresh private backend (nothing survives the instance);
``memory://<name>`` opens a process-wide **shared** backend under that name,
so two facades — say a service's engine and a test asserting against it —
observe the same entries, and "reopening" the same URL behaves like reloading
a file.  Nothing ever touches disk; a process exit discards everything,
which is exactly what an ephemeral server wants.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from ..spec import JobResult
from .base import OutcomeBackend, ResultBackend

__all__ = [
    "MemoryOutcomeBackend",
    "MemoryResultBackend",
    "reset_shared_memory",
]

#: name -> {"results": dict, "outcomes": dict}; shared stores by URL name.
_SHARED: dict[str, dict] = {}
_SHARED_LOCK = threading.Lock()


def _shared_map(name: str, kind: str) -> dict:
    with _SHARED_LOCK:
        return _SHARED.setdefault(name, {"results": {}, "outcomes": {}})[kind]


def reset_shared_memory() -> None:
    """Drop every named ``memory://`` store (test isolation)."""
    with _SHARED_LOCK:
        _SHARED.clear()


class MemoryResultBackend(ResultBackend):
    """A dict of results; named instances share one dict process-wide."""

    name = "memory"

    def __init__(self, tag: str = ""):
        self.location = f"memory://{tag}"
        self._results: dict[str, JobResult] = (
            _shared_map(tag, "results") if tag else {}
        )

    def get(self, fingerprint: str) -> JobResult | None:
        return self._results.get(fingerprint)

    def contains(self, fingerprint: str) -> bool:
        return fingerprint in self._results

    def count(self) -> int:
        return len(self._results)

    def results(self) -> dict[str, JobResult]:
        return dict(self._results)

    def put_many(self, results: Iterable[JobResult]) -> None:
        for result in results:
            self._results[result.fingerprint] = result


class MemoryOutcomeBackend(OutcomeBackend):
    """A dict of outcome entries; insertion order doubles as recency order."""

    name = "memory"

    def __init__(self, tag: str = ""):
        self.location = f"memory://{tag}"
        self._entries: dict[str, dict] = _shared_map(tag, "outcomes") if tag else {}

    def get_entry(self, fingerprint: str, *, touch: bool = True) -> dict | None:
        entry = self._entries.get(fingerprint)
        if entry is not None and touch:
            self._entries.pop(fingerprint, None)
            self._entries[fingerprint] = entry
        return entry

    def put_entry(
        self, fingerprint: str, result: JobResult, certificates: list[dict]
    ) -> None:
        self._entries.pop(fingerprint, None)
        self._entries[fingerprint] = {"result": result, "certificates": certificates}

    def delete(self, fingerprint: str) -> bool:
        return self._entries.pop(fingerprint, None) is not None

    def evict_lru(self, max_entries: int, pinned: frozenset[str]) -> int:
        evicted = 0
        for fingerprint in list(self._entries):
            if len(self._entries) <= max_entries:
                break
            if fingerprint in pinned:
                continue
            del self._entries[fingerprint]
            evicted += 1
        return evicted

    def count(self) -> int:
        return len(self._entries)

    def contains(self, fingerprint: str) -> bool:
        return fingerprint in self._entries
