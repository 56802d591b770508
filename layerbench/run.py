"""Layer-by-layer benchmark of the Gleipnir reproduction.

Run one workload (the last stdout line is a JSON result)::

    python3 layerbench/run.py --workload solver_tail --seed 1 --seconds 25 --trace 0

``--seconds`` sets how many jobs a run has (see :mod:`inputs`).  ``--trace 0``
reports the end-to-end metrics of a timed run.  ``--trace 1`` runs the same
jobs a second time with runtime wrappers around each layer's public functions
and reports the per-layer metrics instead.  Other modes::

    python3 layerbench/run.py --all --seed 1 --seconds 25 [--trace 1]
    python3 layerbench/run.py --write-provenance   # layerbench/provenance.json

Run from the repository root; the analysed code is imported from ``src/``.
Metric names, units and bounds come from ``BENCHMARK.json`` there.
"""

from __future__ import annotations

import time

_PROCESS_CLOCK = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = Path.cwd() / "src"

#: ``BENCHMARK.json`` at the repository root: the workloads and metric tables.
MANIFEST = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"]: workload["why"] for workload in MANIFEST["workloads"]}
END_TO_END = {metric["name"]: metric for metric in MANIFEST["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in MANIFEST["per_layer"]}

#: What each end-to-end metric means, for the printed table.
MEANING = {
    "setup_s": "imports plus the median of repeated set-ups",
    "jobs_per_s": "timed jobs / timed wall time",
    "cold_p50_s": "median latency of first-time jobs",
    "bound_geomean": "geometric mean of distinct certified bounds",
    "peak_rss_mb": "peak RSS of the analysing processes",
}

#: Shown in the serving_mix per-layer table only (the layers exist only there).
SERVING_EXTRA = {
    "api.submit_s": "s",
    "api.wait_s": "s",
    "aserve.request_s": "s",
    "service.queue_wait_s": "s",
}


# -- metrics ------------------------------------------------------------------
def end_to_end_metrics(result: dict, setup_s: float) -> tuple[dict, dict]:
    """Gated metrics as ``name -> (value, samples)``, and printed-only extras."""
    from tracer import percentile
    from workloads import geomean, median

    phase = result["phase"]
    timed = phase.records
    cold = [record.latency for record in phase.cold]
    warm = [record.latency for record in phase.warm]
    values = {
        "setup_s": (setup_s, result["setup_samples"]),
        "jobs_per_s": (len(timed) / phase.wall, len(timed)),
        "cold_p50_s": (median(cold), len(cold)),
        "bound_geomean": (geomean(r.bound for r in phase.cold), len(phase.cold)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }
    # Printed, not gated: repeat latency, which only serving_mix has and
    # whose run-to-run spread exceeds any allowed bound on a small shared VM;
    # a tail percentile (too few wide_walk jobs to gate one); a failure share
    # that is zero on a correct run; a ratio that exists only where exact
    # simulation does.
    failed = sum(1 for record in phase.records if record.failures)
    extra = {
        "failed_frac": ("1", failed / len(phase.records), len(phase.records),
                        "failed / attempted jobs"),
    }
    if warm:
        extra["warm_p50_s"] = ("s", median(warm), len(warm), "median latency of repeated jobs")
    if len(timed) >= 20:
        # The highest percentile with at least ten samples beyond it.
        share = math.floor(100 * (1 - 10 / len(timed))) / 100
        extra[f"job_p{round(100 * share)}_s"] = (
            "s", percentile([r.latency for r in timed], share), len(timed),
            "tail latency of all timed jobs",
        )
    exact = result.get("exact")
    if exact:
        ratios = [r.bound / exact[r.fingerprint] for r in phase.cold if r.fingerprint in exact]
        extra["bound_over_exact"] = ("1", geomean(ratios), len(ratios),
                                     "geometric mean of bound / exact error")
    return values, extra


def per_layer_metrics(workload: str, result: dict) -> tuple[dict, dict, dict]:
    """Per-layer metrics, serving-only extras, and the per-span summary."""
    from tracer import percentile, summarize
    from workloads import metric_total

    phase, traced = result["phase"], result["traced"]
    summary = summarize(traced.spans)
    names = summary["names"]

    def span(name: str, kind: str = "total") -> float:
        return names.get(name, {}).get(kind, 0.0)

    solves = summary["solves"]
    iterations = [solve[0] for solve in solves]
    capped = sum(1 for solve in solves if solve[2])
    delta = traced.metrics_delta
    records = traced.records
    executed = metric_total(delta, "repro_engine_jobs_total")
    exec_s = metric_total(delta, "repro_engine_job_seconds_sum")
    batches = metric_total(delta, "repro_service_batches_run_total")
    lookups = metric_total(delta, "repro_outcome_store_lookups_total")
    hits = metric_total(
        delta, "repro_outcome_store_lookups_total", lambda labels: labels.endswith('hit"}')
    )
    not_metrics = lambda labels: "metrics" not in labels  # noqa: E731 - the scrape itself
    api_call_s = span("api.analyze") + span("api.submit") + span("api.wait")
    cold = [record for record in records if record.cold]
    cache_hits = sum(record.sdp_cache_hits for record in cold)
    solved = sum(record.sdp_solves for record in cold)
    local_roots = summary["root_seconds_by_pid"].get(os.getpid(), 0.0)
    capacity = traced.threads * traced.wall
    values = {
        "mps.walk_s": span("mps.apply_gate", "self") + span("mps.predicate", "self"),
        "mps.apply_gate_s": span("mps.apply_gate"),
        "mps.apply_gate_calls": span("mps.apply_gate", "calls"),
        "mps.predicate_s": span("mps.predicate"),
        "mps.predicate_calls": span("mps.predicate", "calls"),
        "mps.delta_max": max((record.final_delta or 0.0) for record in cold),
        "sdp.batch_s": span("sdp.batch"),
        "sdp.admm_s": span("sdp.admm"),
        "sdp.certify_s": span("sdp.certify"),
        "sdp.other_s": span("sdp.batch", "self"),
        "sdp.solves": len(solves),
        "sdp.iterations": sum(iterations),
        "sdp.iterations_p90": percentile(iterations, 0.9),
        "sdp.capped": capped,
        "sdp.capped_frac": capped / len(solves) if solves else 0.0,
        "sdp.gap_ratio_p90": percentile([solve[3] for solve in solves], 0.9),
        "sdp.cache_hit_frac": cache_hits / (cache_hits + solved) if cache_hits + solved else 0.0,
        "sdp.cert_failures": summary["cert_failures"],
        "core.analyze_s": span("core.analyze"),
        "core.self_s": span("core.analyze", "self"),
        "pool.executed": executed,
        "pool.exec_s": exec_s,
        "pool.dedup_frac": 1.0 - executed / len(records),
        "service.batches": batches,
        "service.jobs_per_batch": executed / batches if batches else 0.0,
        "outcomes.hits": hits,
        "outcomes.hit_frac": hits / lookups if lookups else 0.0,
        "aserve.requests": metric_total(delta, "repro_http_request_seconds_count", not_metrics),
        "api.call_s": api_call_s,
        "api.self_s": api_call_s - exec_s,
        "api.requests_per_job": traced.requests_sent / len(records),
        "obs.trace_overhead": traced.wall / phase.wall - 1.0,
        "unattributed_frac": (capacity - local_roots) / capacity,
    }
    extra = {}
    if workload == "serving_mix":
        extra = {
            "api.submit_s": span("api.submit"),
            "api.wait_s": span("api.wait"),
            "aserve.request_s": metric_total(
                delta, "repro_http_request_seconds_sum", not_metrics
            ),
            "service.queue_wait_s": sum(r.latency - r.exec_seconds for r in cold),
        }
    return values, extra, names


# -- reporting -------------------------------------------------------------------
def print_end_to_end(workload: str, values: dict, extra: dict, phase) -> None:
    print(f"\n== {workload}: end-to-end ({len(phase.records)} jobs, {phase.wall:.2f} s timed)")
    print(f"{'metric':<18}{'value':>14}  {'unit':<6}{'n':>6}  meaning")
    rows = [(name, END_TO_END[name]["unit"], value, samples, MEANING[name])
            for name, (value, samples) in values.items()]
    rows += [(name, unit, value, samples, meaning)
             for name, (unit, value, samples, meaning) in extra.items()]
    for name, unit, value, samples, meaning in rows:
        print(f"{name:<18}{value:>14.6g}  {unit:<6}{samples:>6}  {meaning}")


def print_per_layer(workload: str, values: dict, extra: dict, names: dict, traced) -> None:
    print(f"\n== {workload}: per layer (traced run, {len(traced.records)} jobs)")
    print(f"{'span':<18}{'calls':>9}{'total_s':>12}{'self_s':>12}")
    for name in sorted(names):
        entry = names[name]
        print(f"{name:<18}{entry['calls']:>9}{entry['total']:>12.4f}{entry['self']:>12.4f}")
    print(f"{'unattributed':<18}{'':>9}{'':>12}"
          f"{values['unattributed_frac'] * traced.threads * traced.wall:>12.4f}")
    print(f"\n{'metric':<24}{'value':>14}  unit")
    units = {**{name: metric["unit"] for name, metric in PER_LAYER.items()}, **SERVING_EXTRA}
    for name, value in {**values, **extra}.items():
        print(f"{name:<24}{value:>14.6g}  {units[name]}")


# -- one workload ------------------------------------------------------------------
def run_workload(args) -> int:
    if not (SRC_DIR / "repro").is_dir():
        print(f"layerbench: no src/repro under {Path.cwd()}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import procs

    procs.install_handlers()
    import workloads
    from workloads import SETUP_REPEATS, median, remove_run_dir

    import_s = time.perf_counter() - _PROCESS_CLOCK
    run_dir = Path.cwd() / ".layerbench" / f"{args.workload}-{os.getpid()}"
    if args.workload == "serving_mix":
        workload = workloads.ServingWorkload(args.seed, args.seconds, run_dir, SRC_DIR)
    else:
        workload = workloads.InProcessWorkload(args.workload, args.seed, args.seconds, run_dir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup_once()
            setups.append(time.perf_counter() - start)
        print("layerbench: set-up done; timed phase starts", file=sys.stderr, flush=True)
        result = workload.run(bool(args.trace))
    finally:
        workload.close()
        procs.stop_all()
        remove_run_dir(run_dir)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()
    result["setup_samples"] = len(setups)
    phase, traced = result["phase"], result["traced"]

    records = phase.records + (traced.records if traced else [])
    failed = sum(1 for record in records if record.failures)
    for record in [r for r in records if r.failures][:10]:
        print(f"layerbench: FAILED {record.name}: {'; '.join(record.failures)}", file=sys.stderr)
    survivors = list(getattr(workload, "survivors", [])) + procs.live_children()
    if survivors:
        print(f"layerbench: processes outlived the run: {survivors}", file=sys.stderr)

    e2e, e2e_extra = end_to_end_metrics(result, import_s + median(setups))
    print_end_to_end(args.workload, e2e, e2e_extra, phase)
    if traced is not None:
        values, extra, names = per_layer_metrics(args.workload, result)
        print_per_layer(args.workload, values, extra, names, traced)
        failed += int(values["sdp.cert_failures"])
        metrics = {name: {"value": float(values[name]), "unit": metric["unit"]}
                   for name, metric in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(e2e[name][0]), "unit": metric["unit"]}
                   for name, metric in END_TO_END.items()}
    summary = {
        "correct": failed == 0 and not survivors,
        "attempted": len(records),
        "failed": failed + len(survivors),
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


# -- all workloads / provenance -------------------------------------------------------
def run_all(args) -> int:
    summaries = {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(completed.stdout)
        if completed.returncode != 0:
            print(f"layerbench: {workload} exited with {completed.returncode}", file=sys.stderr)
            return completed.returncode
        summaries[workload] = json.loads(completed.stdout.strip().splitlines()[-1])
    print("\n== summary")
    for workload, summary in summaries.items():
        print(f"{workload:<12} correct={summary['correct']} attempted={summary['attempted']} "
              f"failed={summary['failed']}")
    print(json.dumps(summaries))
    return 0 if all(summary["correct"] for summary in summaries.values()) else 1


def write_provenance() -> int:
    if not (SRC_DIR / "repro").is_dir():
        print("layerbench: run --write-provenance from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import provenance

    (BENCH_DIR / "provenance.json").write_text(
        json.dumps(provenance.collect(WORKLOADS, MANIFEST["run_seconds"]), indent=2) + "\n"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--write-provenance", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.write_provenance:
        return write_provenance()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("one of --workload, --all or --write-provenance is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
