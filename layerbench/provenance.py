"""Workload sizes and the measuring environment, for ``provenance.json``."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

import inputs

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    info["threads_env"] = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    libraries = {
        line.split()[-1]
        for line in Path("/proc/self/maps").read_text().splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    }
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(handle, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                info["threads"] = function()
                return info
    return info


def workload_sizes(seconds: float) -> dict:
    wide = inputs.wide_walk_cases(seed=1, seconds=seconds)
    requests = inputs.serving_rounds(seed=1, seconds=seconds)
    programs = {}
    for request in requests:
        circuit = request.case.circuit
        programs[circuit.name] = {"qubits": circuit.num_qubits, "gates": circuit.gate_count()}
    return {
        "solver_tail": {
            **inputs.SOLVER_TAIL,
            "jobs": len(inputs.solver_tail_cases(seed=1, seconds=seconds)),
        },
        "wide_walk": {
            **inputs.WIDE_WALK,
            "qubits": wide[0].circuit.num_qubits,
            "gates": wide[0].circuit.gate_count(),
            "edges": inputs.qaoa50_graph().number_of_edges(),
            "jobs": len(wide),
        },
        "serving_mix": {
            **inputs.SERVING_MIX,
            "programs": programs,
            "requests": len(requests),
            "repeats": sum(1 for request in requests if not request.cold),
        },
    }


def collect(workloads: dict, seconds: float) -> dict:
    sizes = workload_sizes(seconds)
    return {
        "run_seconds": seconds,
        "workloads": {
            name: {"why": why, "sizes": sizes[name]} for name, why in workloads.items()
        },
        "environment": {
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
    }
