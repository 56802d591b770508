"""The three workloads: set-up, timed phases, output checks and metrics.

``solver_tail`` and ``wide_walk`` run in this process through
``AnalysisSession(workers=1).analyze``; ``serving_mix`` drives real
``gleipnir-serve`` children over ``/v1`` with ``repro.api.Client``, where
first-time ("cold") jobs are mixed with repeats ("warm").  Each workload is
set up, then timed over a job list fixed by the seed and the run length; a
traced run then repeats the same jobs with the layer wrappers of
:mod:`tracer` installed.
"""

from __future__ import annotations

import dataclasses
import math
import re
import resource
import shutil
import statistics
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

import inputs
import procs
from repro.api import AnalysisOutcome, AnalysisSession, Client
from repro.core.scheduler import clear_tape_memo
from repro.engine.pool import execute_job
from repro.obs import metrics as obs_metrics
from repro.semantics.noisy import exact_program_error
from tracer import Tracer, load_spans

SETUP_REPEATS = 3
_TERMINAL = ("done", "failed")


@dataclasses.dataclass
class JobRecord:
    """One analysis call as the caller saw it, plus the checks it failed."""

    name: str
    fingerprint: str
    cold: bool
    latency: float
    bound: float | None
    final_delta: float | None = None
    sdp_solves: int = 0
    sdp_cache_hits: int = 0
    exec_seconds: float = 0.0
    failures: list[str] = dataclasses.field(default_factory=list)

    @classmethod
    def from_outcome(cls, outcome: AnalysisOutcome, latency: float, cold: bool):
        record = cls(
            name=outcome.name,
            fingerprint=outcome.fingerprint,
            cold=cold,
            latency=latency,
            bound=outcome.bound,
            final_delta=outcome.final_delta,
            sdp_solves=outcome.sdp_solves,
            sdp_cache_hits=outcome.sdp_cache_hits,
            exec_seconds=outcome.elapsed_seconds,
        )
        if not outcome.ok:
            record.failures.append(f"status {outcome.status}: {outcome.error}")
        record.failures.extend(check_bound(record.bound))
        return record


@dataclasses.dataclass
class Phase:
    """The records of one pass over a job list and its wall time."""

    records: list[JobRecord]
    wall: float
    threads: int = 1
    requests_sent: int = 0
    metrics_delta: dict = dataclasses.field(default_factory=dict)
    spans: list[dict] = dataclasses.field(default_factory=list)

    @property
    def cold(self) -> list[JobRecord]:
        return [record for record in self.records if record.cold]

    @property
    def warm(self) -> list[JobRecord]:
        return [record for record in self.records if not record.cold]


# -- output checks -------------------------------------------------------------
def check_bound(bound) -> list[str]:
    """A certified bound must be a finite number in (0, 1]."""
    if bound is None or not math.isfinite(bound) or not 0.0 < bound <= 1.0:
        return [f"bound {bound!r} is not a finite number in (0, 1]"]
    return []


def check_sound(bound: float, exact: float) -> list[str]:
    """Soundness (Theorem A.1): the bound dominates the exact error."""
    if not bound >= exact:
        return [f"bound {bound!r} is below the exact error {exact!r}"]
    return []


def check_same_bounds(first: list[JobRecord], second: list[JobRecord], what: str) -> None:
    """Charge a failure to every job of ``second`` whose bound differs bit for bit."""
    expected = {record.fingerprint: record.bound for record in first}
    for record in second:
        if record.fingerprint in expected and record.bound != expected[record.fingerprint]:
            record.failures.append(
                f"{what}: bound {record.bound!r} != {expected[record.fingerprint]!r}"
            )


def check_repeats(records: list[JobRecord]) -> None:
    """Every warm repeat must return its first answer's bound bit for bit."""
    check_same_bounds([r for r in records if r.cold], [r for r in records if not r.cold], "repeat")


# -- metrics helpers -------------------------------------------------------------
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$")


def parse_prometheus(text: str) -> dict[tuple[str, str], float]:
    samples = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match and not line.startswith("#"):
            samples[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return samples


def metric_total(samples: dict, name: str, label_filter=None) -> float:
    return sum(
        value
        for (sample, labels), value in samples.items()
        if sample == name and (label_filter is None or label_filter(labels))
    )


def metrics_delta(before: dict, after: dict) -> dict:
    keys = set(before) | set(after)
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in keys}


def local_metrics() -> dict:
    return parse_prometheus(obs_metrics.get_registry().render_prometheus())


def geomean(values) -> float:
    values = [value for value in values if value and value > 0]
    return math.exp(sum(math.log(value) for value in values) / len(values)) if values else 0.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- in-process workloads --------------------------------------------------------
class InProcessWorkload:
    """``solver_tail`` / ``wide_walk``: ``AnalysisSession(workers=1).analyze`` calls.

    Every timed job is a first-time job; repeats are left to ``serving_mix``.
    """

    def __init__(self, name: str, seed: int, seconds: float, run_dir: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.cases: list[inputs.Case] = []
        self.session: AnalysisSession | None = None

    def setup_once(self) -> None:
        if self.session is not None:
            self.session.close()
        self.cases = (
            inputs.solver_tail_cases(self.seed, self.seconds)
            if self.name == "solver_tail"
            else inputs.wide_walk_cases(self.seed, self.seconds)
        )
        self.session = self._open_session()
        warmup = inputs.warmup_case()
        outcome = self.session.analyze(
            warmup.circuit, warmup.noise_model, config=warmup.config, name=warmup.name
        )
        outcome.raise_for_status()

    @staticmethod
    def _open_session() -> AnalysisSession:
        return AnalysisSession(workers=1)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    @staticmethod
    def _analyze(session, case: inputs.Case) -> JobRecord:
        start = time.perf_counter()
        outcome = session.analyze(
            case.circuit, case.noise_model, config=case.config, name=case.name
        )
        return JobRecord.from_outcome(outcome, time.perf_counter() - start, cold=True)

    def run_phase(self, session) -> Phase:
        """One analysis call per case, in order."""
        clear_tape_memo()
        before = local_metrics()
        start = time.perf_counter()
        records = [self._analyze(session, case) for case in self.cases]
        wall = time.perf_counter() - start
        return Phase(records, wall, metrics_delta=metrics_delta(before, local_metrics()))

    def run(self, trace: bool) -> dict:
        phase = self.run_phase(self.session)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.close()
        exact = {}
        if self.name == "solver_tail":
            for case, record in zip(self.cases, phase.cold):
                exact[record.fingerprint] = exact_program_error(case.circuit, case.noise_model)
                if record.bound is not None:
                    record.failures.extend(check_sound(record.bound, exact[record.fingerprint]))
        traced = None
        if trace:
            trace_dir = self.run_dir / "spans"
            tracer = Tracer(trace_dir).install()
            try:
                with self._open_session() as session:
                    traced = self.run_phase(session)
            finally:
                tracer.uninstall()
                tracer.flush()
            traced.spans = load_spans(trace_dir)
            check_same_bounds(phase.records, traced.records, "traced run")
        return {"phase": phase, "traced": traced, "peak_rss_mb": peak_rss_mb, "exact": exact}


# -- serving workload ---------------------------------------------------------------
class ServingWorkload:
    """``serving_mix``: closed-loop ``Client`` threads against two ``gleipnir-serve``.

    First-time jobs go to a writer server with a process pool; repeats go to
    a reader server that shares the writer's SQLite outcome store.  A server
    answers a job it has seen from its status table, so only a second server
    makes repeats reach the outcome store.
    """

    name = "serving_mix"

    def __init__(self, seed: int, seconds: float, run_dir: Path, src_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.src_dir = src_dir
        self.spec = inputs.SERVING_MIX
        self.requests: list[inputs.Request] = []
        self.servers: list[procs.Server] = []
        self.survivors: list[int] = []

    def _start_servers(self, trace_dir=None) -> list[procs.Server]:
        """A writer and a reader server on one fresh outcome store."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        store = f"sqlite:///{self.run_dir / f'outcomes-{time.monotonic_ns()}.sqlite'}"
        servers = []
        try:
            for workers in (self.spec["server_workers"], self.spec["reader_workers"]):
                args = ["--workers", str(workers), "--outcomes", store]
                servers.append(procs.Server(self.run_dir, self.src_dir, args, trace_dir=trace_dir))
                Client(servers[-1].base_url).capabilities()
        except BaseException:
            self._stop(servers)
            raise
        return servers

    def _stop(self, servers: list[procs.Server]) -> None:
        for server in servers:
            self.survivors.extend(server.stop())

    def setup_once(self) -> None:
        self.close()
        self.requests = inputs.serving_rounds(self.seed, self.seconds)
        self.servers = self._start_servers()
        warmup = inputs.warmup_case().job()
        for server in self.servers:
            client = Client(server.base_url)
            entry = client.submit([warmup])[0]
            if entry["status"] not in _TERMINAL:
                entry = client.wait(entry["fingerprint"], timeout=120.0)
            AnalysisOutcome.from_wire_entry(entry).raise_for_status()

    def close(self) -> None:
        self._stop(self.servers)
        self.servers = []

    def run_phase(self, servers: list[procs.Server]) -> Phase:
        writer, reader = servers
        requests = self.requests
        clients = self.spec["clients"]
        records: list[JobRecord | None] = [None] * len(requests)
        finished = [threading.Event() for _ in requests]
        lock = threading.Lock()
        state = {"next": 0, "sent": 0, "last": 0.0}
        before = _scrape(servers)
        start = time.perf_counter()

        def loop() -> None:
            by_kind = {
                True: Client(writer.base_url, timeout=60.0),
                False: Client(reader.base_url, timeout=60.0),
            }
            while True:
                with lock:
                    index = state["next"]
                    if index >= len(requests):
                        break
                    state["next"] += 1
                request = requests[index]
                try:
                    if request.origin is not None:
                        finished[request.origin].wait(timeout=300.0)
                    records[index] = self._call(by_kind[request.cold], request)
                finally:
                    finished[index].set()
                    with lock:
                        state["last"] = max(state["last"], time.perf_counter())
            with lock:
                state["sent"] += sum(client.requests_sent for client in by_kind.values())

        threads = [threading.Thread(target=loop, daemon=True) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = state["last"] - start
        done = [record for record in records if record is not None]
        delta = metrics_delta(before, _scrape(servers))
        return Phase(done, wall, clients, state["sent"], delta)

    @staticmethod
    def _call(client: Client, request: inputs.Request) -> JobRecord:
        start = time.perf_counter()
        try:
            entry = client.submit([request.job])[0]
            answered = entry["status"]
            if entry["status"] not in _TERMINAL:
                entry = client.wait(entry["fingerprint"], timeout=300.0)
        except Exception as exc:  # an HTTP or transport error is a failed job
            record = JobRecord(
                request.case.name, request.job.fingerprint(), request.cold,
                time.perf_counter() - start, None,
            )
            record.failures.append(f"{type(exc).__name__}: {exc}")
            return record
        latency = time.perf_counter() - start
        # A non-"done" entry becomes an outcome that is not ok: a failure.
        record = JobRecord.from_outcome(
            AnalysisOutcome.from_wire_entry(entry), latency, request.cold
        )
        if not request.cold and answered != "done":
            record.failures.append(f"repeat not answered from the outcome store ({answered})")
        return record

    def run(self, trace: bool) -> dict:
        try:
            with procs.PeakRss(self.servers) as peak:
                phase = self.run_phase(self.servers)
        finally:
            self.close()
        check_repeats(phase.records)
        self._check_sample(phase)
        traced = None
        if trace:
            trace_dir = self.run_dir / "spans"
            tracer = Tracer(trace_dir).install()
            servers = []
            try:
                servers = self._start_servers(trace_dir=trace_dir)
                traced = self.run_phase(servers)
            finally:
                tracer.uninstall()
                tracer.flush()
                self._stop(servers)
            traced.spans = load_spans(trace_dir)
            check_same_bounds(phase.records, traced.records, "traced run")
            check_repeats(traced.records)
        return {"phase": phase, "traced": traced, "peak_rss_mb": peak.mb}

    def _check_sample(self, phase: Phase) -> None:
        """A seeded sample of served cold jobs must match ``execute_job`` in process."""
        # Every request is served, and the records keep the request order.
        cold = [
            (request, record)
            for request, record in zip(self.requests, phase.records)
            if request.cold
        ]
        rng = np.random.default_rng(inputs.sub_seed(self.seed, 1))
        count = min(self.spec["sample_checks"], len(cold))
        for position in sorted(rng.choice(len(cold), size=count, replace=False)):
            request, record = cold[int(position)]
            local = execute_job(request.job)
            if local.error_bound != record.bound:
                record.failures.append(
                    f"served bound {record.bound!r} != in-process {local.error_bound!r}"
                )


def _scrape(servers: list[procs.Server]) -> dict:
    """The servers' ``/v1/metrics`` samples, summed over the servers."""
    total: dict = {}
    for server in servers:
        with urllib.request.urlopen(f"{server.base_url}/v1/metrics", timeout=30) as response:
            for key, value in parse_prometheus(response.read().decode("utf-8")).items():
                total[key] = total.get(key, 0.0) + value
    return total


def remove_run_dir(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
