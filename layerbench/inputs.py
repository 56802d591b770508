"""Seeded inputs of the three workloads.

Everything here is a pure function of the benchmark seed and the run length:
the same seed gives the same circuits, noise rates and request order.  The
run length sets how many jobs (or serving rounds) a run has, through the
reference cost of one on a 2-vCPU x86-64 VM, so the input set of a run never
depends on how fast the analysed code is.  The analysed program only ever
sees the generated circuits and noise models, never the seed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.circuit import Circuit
from repro.config import AnalysisConfig
from repro.engine.spec import AnalysisJob
from repro.noise import NoiseModel
from repro.programs.library import table2_benchmarks
from repro.programs.qaoa import QAOAParameters, qaoa_maxcut_circuit, random_graph

#: 5-qubit / 65-gate circuits of the reference family (the circuit family of
#: ``scripts/profile_workload.py``), analysed one at a time in process.
SOLVER_TAIL = {
    "qubits": 5,
    "gates": 65,
    "bit_flip": 1e-3,
    "mps_width": 16,
    "seconds_per_job": 0.52,
}

#: The Table 2 ``QAOA50`` program: its graph generator, graph seed and
#: angles.  The graph is the row's own instance (50 vertices, seed 50); the
#: benchmark seed jitters the two angles so every job is a distinct program.
WIDE_WALK = {
    "vertices": 50,
    "edges_target": 100,
    "graph_seed": 50,
    "gamma": 0.3,
    "beta": 0.25,
    "angle_jitter": 0.02,
    "bit_flip": 1e-4,
    "mps_width": 16,
    "seconds_per_job": 12.0,
}

#: Reduced Table 2 programs served over ``/v1`` to closed-loop clients.
#: First-time jobs go to a server with ``server_workers`` pool workers;
#: repeats go to a second server that shares its SQLite outcome store.
SERVING_MIX = {
    "server_workers": 2,
    "reader_workers": 1,
    "clients": 2,
    "bit_flip": 1e-3,
    "rate_jitter": 0.05,
    "mps_width": 16,
    "seconds_per_round": 8.0,
    "sample_checks": 3,
}


def job_count(seconds: float, seconds_per_job: float) -> int:
    """Jobs (or rounds) of a run of ``seconds``, at their reference cost; at least one."""
    return max(1, round(seconds / seconds_per_job))


def sub_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a path of indices."""
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1)[0])


@dataclasses.dataclass(frozen=True)
class Case:
    """One analysis input: a circuit under a noise model and configuration."""

    name: str
    circuit: Circuit
    noise_model: NoiseModel
    config: AnalysisConfig

    def job(self) -> AnalysisJob:
        return AnalysisJob.from_circuit(
            self.circuit, self.noise_model, config=self.config, name=self.name
        )


@dataclasses.dataclass(frozen=True)
class Request:
    """One ``/v1`` request: a fresh job, or a repeat of request ``origin``."""

    index: int
    case: Case
    job: AnalysisJob
    origin: int | None = None

    @property
    def cold(self) -> bool:
        return self.origin is None


def reference_circuit(num_qubits: int, num_gates: int, seed: int) -> Circuit:
    """A random circuit of rx / rz / h / cx gates (the reference family)."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits, name=f"random_{num_qubits}_{num_gates}_{seed}")
    for _ in range(num_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            circuit.rx(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(0, num_qubits)))
        elif kind == 1:
            circuit.rz(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(0, num_qubits)))
        elif kind == 2:
            circuit.h(int(rng.integers(0, num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
    return circuit


def warmup_case() -> Case:
    """The fixed small job every workload runs once during set-up."""
    return Case(
        "warmup",
        reference_circuit(4, 24, seed=0),
        NoiseModel.uniform_bit_flip(1e-3),
        AnalysisConfig(mps_width=16),
    )


def solver_tail_cases(seed: int, seconds: float) -> list[Case]:
    spec = SOLVER_TAIL
    model = NoiseModel.uniform_bit_flip(spec["bit_flip"])
    config = AnalysisConfig(mps_width=spec["mps_width"])
    cases = []
    for index in range(job_count(seconds, spec["seconds_per_job"])):
        circuit = reference_circuit(spec["qubits"], spec["gates"], sub_seed(seed, index))
        cases.append(Case(f"solver_tail_{index}", circuit, model, config))
    return cases


def qaoa50_graph():
    spec = WIDE_WALK
    vertices = spec["vertices"]
    # The Table 2 generator: an Erdos-Renyi graph sized for ~edges_target edges.
    probability = min(0.95, 2.0 * spec["edges_target"] / (vertices * (vertices - 1)))
    return random_graph(vertices, probability, seed=spec["graph_seed"])


def wide_walk_cases(seed: int, seconds: float) -> list[Case]:
    spec = WIDE_WALK
    graph = qaoa50_graph()
    model = NoiseModel.uniform_bit_flip(spec["bit_flip"])
    config = AnalysisConfig(mps_width=spec["mps_width"])
    cases = []
    for index in range(job_count(seconds, spec["seconds_per_job"])):
        rng = np.random.default_rng(sub_seed(seed, index))
        gamma, beta = spec["gamma"], spec["beta"]
        gamma *= 1.0 + spec["angle_jitter"] * rng.uniform(-1.0, 1.0)
        beta *= 1.0 + spec["angle_jitter"] * rng.uniform(-1.0, 1.0)
        circuit = qaoa_maxcut_circuit(
            graph, QAOAParameters.single_round(gamma, beta), name=f"QAOA50_{index}"
        )
        cases.append(Case(circuit.name, circuit, model, config))
    return cases


def serving_rounds(seed: int, seconds: float) -> list[Request]:
    """The request sequence, in rounds that send every program twice.

    Each round sends every reduced Table 2 program once as a first-time job,
    under a bit-flip rate jittered around ``bit_flip``, and once as a repeat
    of an earlier first-time job of the same program, all in a seeded order.
    No first-time job is repeated twice, so every repeat is new to the server
    that answers repeats and has to come from the outcome store.  A repeat's
    origin is at least two positions back where possible, so with two
    closed-loop clients it has normally finished when it is repeated.  Whole
    rounds keep the program mix and the repeat share the same in every run:
    both latency and response size differ from program to program.
    """
    spec = SERVING_MIX
    rng = np.random.default_rng(sub_seed(seed, 0))
    config = AnalysisConfig(mps_width=spec["mps_width"])
    programs = [benchmark.build() for benchmark in table2_benchmarks("reduced")]
    requests: list[Request] = []
    # First-time requests of each program that have not been repeated yet.
    unrepeated: dict[int, list[int]] = {p: [] for p in range(len(programs))}
    for _round in range(job_count(seconds, spec["seconds_per_round"])):
        pending = [(kind, int(p)) for kind in ("cold", "warm") for p in range(len(programs))]
        pending = [pending[i] for i in rng.permutation(len(pending))]
        while pending:
            index = len(requests)
            # The first item that can go here: any cold job, or a repeat whose
            # program has an unrepeated first-time job two positions back (one
            # back when nothing else is left; the client then waits for it).
            # Each round adds a program's cold job along with its repeat, so
            # a repeat always finds an origin once that cold job is placed.
            for lag in (2, 1):
                found = [
                    i
                    for i, (kind, p) in enumerate(pending)
                    if kind == "cold" or any(o <= index - lag for o in unrepeated[p])
                ]
                if found:
                    break
            kind, program = pending.pop(found[0])
            if kind == "warm":
                eligible = [o for o in unrepeated[program] if o <= index - lag]
                origin = eligible[int(rng.integers(0, len(eligible)))]
                unrepeated[program].remove(origin)
                requests.append(Request(index, requests[origin].case, requests[origin].job, origin))
                continue
            circuit = programs[program]
            rate = spec["bit_flip"] * (1.0 + spec["rate_jitter"] * rng.uniform(-1.0, 1.0))
            case = Case(
                f"{circuit.name}@{rate:.6g}", circuit, NoiseModel.uniform_bit_flip(rate), config
            )
            requests.append(Request(index, case, case.job()))
            unrepeated[program].append(index)
    return requests
