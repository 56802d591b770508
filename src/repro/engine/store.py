"""A resumable result store keyed by job fingerprint, over pluggable backends.

The facade keeps the surface every caller (engine, service, experiment
drivers) has always used — ``get``/``completed``/``results``/``missing``/
``put``/``put_many`` under one lock — and delegates storage to a
:class:`~repro.engine.backends.base.ResultBackend` selected by URL
(``results.jsonl`` or ``jsonl://…`` for the historical append-only line log,
``sqlite:///…`` for WAL-journaled SQLite, ``memory://…`` for tests and
ephemeral servers — see :mod:`repro.engine.backends`).

``resume`` semantics (used by the engine and the ``--resume`` experiment
flag): a job whose fingerprint maps to an ``ok`` record is not re-executed;
failed, timed-out, or unknown fingerprints run again.  Later writes for a
fingerprint supersede earlier ones on every backend — including replacing a
``timeout``/``error`` record with an ``ok`` one once the job is given a
larger budget.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

from .backends import ResultBackend, count_backend_op, open_result_backend
from .spec import JobResult

__all__ = ["ResultStore"]


class ResultStore:
    """Map from job fingerprint to the latest :class:`JobResult`.

    Args:
        path: a storage URL (``jsonl://``, ``sqlite:///``, ``memory://``) or
            a bare JSONL file path, or an already-open
            :class:`~repro.engine.backends.base.ResultBackend`.
    """

    def __init__(self, path: str | ResultBackend):
        if isinstance(path, ResultBackend):
            self._backend = path
        else:
            self._backend = open_result_backend(path)
        self.path = self._backend.location
        self._lock = threading.Lock()

    @property
    def backend(self) -> ResultBackend:
        """The storage engine behind this facade."""
        return self._backend

    def close(self) -> None:
        """Release backend resources (idempotent)."""
        with self._lock:
            self._backend.close()

    # -- queries -------------------------------------------------------------
    # Every read takes the lock: the service batcher thread calls put() while
    # request handlers read, and an unlocked read racing a mutation is
    # exactly the kind of bug that only fires under load.
    def __len__(self) -> int:
        with self._lock:
            return self._backend.count()

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return self._backend.contains(fingerprint)

    @property
    def skipped_lines(self) -> int:
        """Records the loader could not parse (diagnostics only)."""
        return self._backend.skipped_lines

    def get(self, fingerprint: str) -> JobResult | None:
        with self._lock:
            result = self._backend.get(fingerprint)
        count_backend_op(self._backend.name, "result_get")
        return result

    def completed(self, fingerprint: str) -> bool:
        """Whether the store holds a successful result for this fingerprint."""
        with self._lock:
            result = self._backend.get(fingerprint)
        return result is not None and result.ok

    def results(self) -> dict[str, JobResult]:
        """A snapshot of the latest result per fingerprint."""
        with self._lock:
            return self._backend.results()

    def missing(self, fingerprints: Iterable[str]) -> list[str]:
        """The fingerprints that still need (re-)execution under resume."""
        snapshot = self.results()  # one locked snapshot, not a lock per query
        return [
            fp
            for fp in fingerprints
            if fp not in snapshot or not snapshot[fp].ok
        ]

    # -- mutation ------------------------------------------------------------
    def put(self, result: JobResult) -> None:
        """Record one result; later writes supersede earlier ones."""
        self.put_many([result])

    def put_many(self, results: Iterable[JobResult]) -> None:
        """Record many results with one backend write (one append/transaction)."""
        results = list(results)
        if not results:
            return
        with self._lock:
            self._backend.put_many(results)
        count_backend_op(self._backend.name, "result_put")
