"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q layerbench/test_layerbench.py
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]

sys.path[:0] = [str(REPO_ROOT / "src"), str(BENCH_DIR)]

import procs  # noqa: E402
import run  # noqa: E402


def _run(*args: str, cwd: Path = REPO_ROOT, timeout: float = 300.0):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["solver_tail", "wide_walk", "serving_mix"])
def test_workload_smoke(workload):
    # --seconds 0 runs one job (one serving round), traced and untraced.
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["sdp.cert_failures"]["value"] == 0
    assert result["metrics"]["sdp.solves"]["value"] > 0
    assert result["metrics"]["mps.apply_gate_calls"]["value"] > 0
    if workload == "serving_mix":
        # A quarter of all requests are traced repeats, each one answered by
        # the shared outcome store.
        assert result["metrics"]["outcomes.hits"]["value"] == result["attempted"] / 4


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("--workload", "solver_tail", "--seed", "4", "--seconds", "0"))
    assert set(result["metrics"]) == set(run.END_TO_END) == set(run.MEANING)
    for name, metric in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == metric["unit"]
        assert result["metrics"][name]["value"] > 0


def test_sigterm_during_serving_mix_leaves_no_process():
    bench = subprocess.Popen(
        [*RUN, "--workload", "serving_mix", "--seed", "5", "--seconds", "120"],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # Bounds the blocking reads below if the benchmark hangs.
    watchdog = threading.Timer(300.0, bench.kill)
    watchdog.start()
    try:
        for line in bench.stderr:
            if "timed phase" in line:
                break
        else:
            pytest.fail("the benchmark never reached its timed phase")
        servers = _children(bench.pid)
        assert len(servers) == 2  # the writer and the reader server
        # Interrupt while pool workers of a server are running jobs.
        deadline = time.monotonic() + 60.0
        while not any(len(procs.group_members(pgid)) >= 2 for pgid in servers):
            assert time.monotonic() < deadline, "no pool worker ever started"
            time.sleep(0.05)
        bench.send_signal(signal.SIGTERM)
        stdout, _ = bench.communicate(timeout=60.0)
    finally:
        watchdog.cancel()
        if bench.poll() is None:
            bench.kill()
            bench.wait()
        shutil.rmtree(REPO_ROOT / ".layerbench" / f"serving_mix-{bench.pid}", ignore_errors=True)
        with contextlib.suppress(OSError):
            (REPO_ROOT / ".layerbench").rmdir()
    assert bench.returncode == 128 + signal.SIGTERM
    assert not stdout.strip().endswith("}")  # no result line
    for pgid in servers:
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)
        assert procs.group_members(pgid) == []


def test_sigterm_exits_even_when_stderr_is_closed():
    # The handler's message must not be able to stop it: a write to a closed
    # pipe would otherwise raise inside the running analysis.
    bench = subprocess.Popen(
        [*RUN, "--workload", "solver_tail", "--seed", "7", "--seconds", "120"],
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(300.0, bench.kill)
    watchdog.start()
    try:
        for line in bench.stderr:
            if "timed phase" in line:
                break
        bench.stderr.close()
        bench.send_signal(signal.SIGTERM)
        bench.wait(timeout=30.0)
    finally:
        watchdog.cancel()
        if bench.poll() is None:
            bench.kill()
            bench.wait()
    assert bench.returncode == 128 + signal.SIGTERM


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = procs._proc_stat(entry.name)
            if stat is not None and int(stat[1]) == pid and stat[0] != "Z":
                found.append(int(entry.name))
    return found


def test_bound_below_exact_error_is_a_failure(monkeypatch, tmp_path):
    import workloads

    true_exact = workloads.exact_program_error
    # Pretend the exact error is larger than every certified bound.
    monkeypatch.setattr(
        workloads, "exact_program_error", lambda *args, **kw: 2.0 * true_exact(*args, **kw) + 0.5
    )
    workload = workloads.InProcessWorkload("solver_tail", 6, 0.0, tmp_path)
    workload.setup_once()
    result = workload.run(trace=False)
    cold = result["phase"].cold
    assert cold and all(
        any("below the exact error" in failure for failure in record.failures) for record in cold
    )
    assert workloads.check_sound(0.05, 0.06) and not workloads.check_sound(0.06, 0.05)
    for bad in (None, float("nan"), float("inf"), 0.0, -0.1, 1.5):
        assert workloads.check_bound(bad)
    assert not workloads.check_bound(1.0)


def test_bench_alone_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "solver_tail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60.0, check=False,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout

