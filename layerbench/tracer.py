"""Runtime span wrappers around the public functions of each layer.

Nothing here touches ``src/``: :meth:`Tracer.install` replaces a fixed list
of public functions and methods with thin wrappers, and
:meth:`Tracer.uninstall` puts the originals back.  A wrapper records one span
``(id, parent, name, start, end)`` per call in memory; when the outermost
span of a thread closes, the buffered spans are appended to
``<out_dir>/spans-<pid>.jsonl``.  Flushing at root-span boundaries is what
lets forked pool workers of a traced ``gleipnir-serve`` hand their spans
back: a worker exits without running ``atexit`` hooks, but every job it ran
has already been written.

The ``sdp.batch`` wrapper also reads ``iterations``, ``converged`` and
``estimated_gap`` from the returned :class:`~repro.sdp.DiamondNormBound`
values and re-verifies each dual certificate with
:func:`repro.sdp.verify_certificate`.  The verification runs in its own
``obs.verify`` span, so it is charged to the tracer, not to a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import threading
import time
from pathlib import Path

#: (module, class or None, attribute, span name).  ``gate_error_bounds_batch``
#: and the two SDP kernels are patched where their callers look them up.
TARGETS = (
    ("repro.api.session", "AnalysisSession", "analyze", "api.analyze"),
    ("repro.api.client", "Client", "submit", "api.submit"),
    ("repro.api.client", "Client", "wait", "api.wait"),
    ("repro.engine.pool", None, "execute_job_record", "pool.execute"),
    ("repro.core.analyzer", "GleipnirAnalyzer", "analyze", "core.analyze"),
    ("repro.mps.approximator", "MPSApproximator", "apply_gate_op", "mps.apply_gate"),
    ("repro.mps.approximator", "MPSApproximator", "local_predicate", "mps.predicate"),
    ("repro.core.scheduler", None, "gate_error_bounds_batch", "sdp.batch"),
    ("repro.sdp.diamond", None, "admm_solve_packed_batch", "sdp.admm"),
    ("repro.sdp.diamond", None, "certified_values_batch", "sdp.certify"),
)


class Tracer:
    """Installs the layer wrappers and writes their spans under ``out_dir``."""

    def __init__(self, out_dir: str | os.PathLike):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._originals: list[tuple[object, str, object]] = []
        self._reset_process_state()

    def _reset_process_state(self) -> None:
        # A forked child inherits the parent's buffer, stacks and lock; it
        # starts over so no span is written twice and no lock is held.
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffer: list[dict] = []
        self._next_id = 0

    def _stack(self) -> list[int]:
        if os.getpid() != self._pid:
            self._reset_process_state()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- install / uninstall ------------------------------------------------
    def install(self) -> "Tracer":
        for module_name, class_name, attribute, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attribute)
            inspect = self._inspect_bounds if span_name == "sdp.batch" else None
            setattr(owner, attribute, self._wrap(span_name, original, inspect))
            self._originals.append((owner, attribute, original))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- recording ----------------------------------------------------------
    def _open(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "pid": self._pid,
            "start": time.perf_counter(),
        }
        stack.append(span_id)
        return record

    def _pop(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == record["id"]:
            stack.pop()

    def _commit(self, record: dict) -> None:
        with self._lock:
            self._buffer.append(record)
            if not self._stack():
                self._flush_locked()

    def _wrap(self, name: str, function, inspect=None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                try:
                    result = function(*args, **kwargs)
                finally:
                    self._pop(record)
                if inspect is not None:
                    record["solves"] = inspect(result, kwargs)
                return result
            finally:
                self._commit(record)

        return wrapper

    def _inspect_bounds(self, bounds, kwargs) -> list:
        """Solver figures of one ``gate_error_bounds_batch`` call.

        Returns ``[iterations, converged, capped, gap_ratio]`` per certified
        bound; runs the certificate re-check inside an ``obs.verify`` span.
        """
        from repro.config import SDPConfig
        from repro.sdp import verify_certificate

        config = kwargs.get("config") or SDPConfig()
        record = self._open("obs.verify")
        solves = []
        failures = 0
        try:
            for bound in bounds:
                if bound.choi is not None and not verify_certificate(
                    bound.certificate, bound.choi
                ):
                    failures += 1
                if bound.method != "certified":
                    continue
                gap_ratio = bound.estimated_gap / bound.value if bound.value > 0 else 0.0
                capped = not bound.converged and bound.iterations >= config.max_iterations
                solves.append([bound.iterations, bound.converged, capped, gap_ratio])
        finally:
            self._pop(record)
            record["cert_failures"] = failures
            self._commit(record)
        return solves

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self._buffer:
                handle.write(json.dumps(record) + "\n")
        self._buffer.clear()


def load_spans(out_dir: str | os.PathLike) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(share * len(ordered)))
    return float(ordered[rank - 1])


def summarize(spans: list[dict]) -> dict:
    """Per-name call counts, inclusive and self seconds, plus solver figures.

    A span's self time is its duration minus the durations of its direct
    children.  Children and parents always share a process, so ids are
    matched per ``pid``.
    """
    durations = {}
    child_time: dict[tuple, float] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        durations[(span["pid"], span["id"])] = duration
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + duration
    names: dict[str, dict] = {}
    solves: list = []
    cert_failures = 0
    roots: dict[int, float] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        entry = names.setdefault(span["name"], {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["total"] += durations[key]
        entry["self"] += durations[key] - child_time.get(key, 0.0)
        solves.extend(span.get("solves", ()))
        cert_failures += span.get("cert_failures", 0)
        if span["parent"] is None:
            roots[span["pid"]] = roots.get(span["pid"], 0.0) + durations[key]
    return {
        "names": names,
        "solves": solves,
        "cert_failures": cert_failures,
        "root_seconds_by_pid": roots,
    }
