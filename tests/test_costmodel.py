"""Tests for the per-solve-class SDP cost model and LPT chunk packing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.circuits.program import Seq
from repro.config import AnalysisConfig, SDPConfig
from repro.core.scheduler import clear_tape_memo
from repro.engine.costmodel import (
    COLD_PRIOR_SECONDS_PER_DIM3,
    SolveCostModel,
    global_model,
    lpt_pack,
    parse_label_big,
    reset_global_model,
)
from repro.engine.pool import AnalysisEngine
from repro.engine.spec import AnalysisJob
from repro.noise import NoiseModel

FAST = AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=200, tolerance=1e-4))
MODEL = NoiseModel.uniform_bit_flip(1e-3)


def prefix_jobs(seed: int, num_gates: int = 12, fractions=(0.5, 1.0)) -> list[AnalysisJob]:
    """Prefix truncations of one random circuit: distinct jobs (distinct
    fingerprints, no engine dedupe) whose shared prefix guarantees
    overlapping quantised solve classes."""
    circuit = random_circuit(3, num_gates, seed=seed)
    program = circuit.to_program()
    parts = list(program.parts) if isinstance(program, Seq) else [program]
    jobs = []
    for fraction in fractions:
        keep = max(1, int(len(parts) * fraction))
        jobs.append(
            AnalysisJob(
                program=Seq(tuple(parts[:keep])),
                noise_model=MODEL,
                config=FAST,
                num_qubits=circuit.num_qubits,
                name=f"prefix{keep}",
            )
        )
    return jobs


class TestLabelParsing:
    def test_parses_solve_class_labels(self):
        assert parse_label_big("dim16_constrained") == 16
        assert parse_label_big("dim4_unconstrained") == 4

    def test_foreign_labels_fall_back_to_small_positive_dim(self):
        for label in ("", "dim_constrained", "garbage", "dim-3_constrained", None):
            assert parse_label_big(label) >= 1


class TestColdStartPrior:
    """Never-observed classes predict by the dim³ prior."""

    def test_prior_scales_as_big_cubed(self):
        model = SolveCostModel()
        coefficients = model.coefficients_for("dim16_constrained")
        assert coefficients.source == "prior"
        assert coefficients.observations == 0
        assert coefficients.per_instance_seconds == COLD_PRIOR_SECONDS_PER_DIM3 * 16**3

    @given(
        small=st.integers(min_value=1, max_value=30),
        larger=st.integers(min_value=1, max_value=30),
    )
    def test_prior_orders_classes_by_dimension(self, small, larger):
        if small > larger:
            small, larger = larger, small
        model = SolveCostModel()
        low = model.predict(f"dim{small}_constrained", 3)
        high = model.predict(f"dim{larger}_constrained", 3)
        assert low <= high
        if small < larger:
            assert low < high

    def test_constraint_flag_does_not_break_the_prior(self):
        model = SolveCostModel()
        assert model.predict("dim8_constrained") == model.predict("dim8_unconstrained")


class TestFitting:
    def test_varied_counts_recover_exact_linear_coefficients(self):
        model = SolveCostModel()
        setup, per_instance = 0.1, 0.04
        for count in (1, 2, 5, 8):
            model.observe("dim4_constrained", count, setup + per_instance * count)
        fit = model.coefficients_for("dim4_constrained")
        assert fit.source == "fitted"
        assert abs(fit.setup_seconds - setup) < 1e-9
        assert abs(fit.per_instance_seconds - per_instance) < 1e-9
        assert abs(model.predict("dim4_constrained", 10) - (setup + per_instance * 10)) < 1e-8

    def test_constant_counts_fall_back_to_ratio(self):
        model = SolveCostModel()
        for _ in range(4):
            model.observe("dim4_constrained", 2, 0.5)
        fit = model.coefficients_for("dim4_constrained")
        assert fit.source == "ratio"
        assert abs(fit.per_instance_seconds - 0.25) < 1e-12
        assert fit.setup_seconds == 0.0

    def test_single_event_uses_ratio(self):
        model = SolveCostModel()
        model.observe("dim4_constrained", 4, 1.0)
        assert model.coefficients_for("dim4_constrained").source == "ratio"

    def test_nonsensical_observations_train_nothing(self):
        model = SolveCostModel()
        model.observe("dim4_constrained", 0, 1.0)
        model.observe("dim4_constrained", -3, 1.0)
        model.observe("dim4_constrained", 2, -1.0)
        assert model.coefficients_for("dim4_constrained").source == "prior"

    def test_observe_events_skips_foreign_shapes(self):
        model = SolveCostModel()
        model.observe_events(
            [
                {"solve_class": "dim4_constrained", "count": 2, "seconds": 0.5},
                {"count": 2, "seconds": 0.5},  # no label
                {"solve_class": "dim4_constrained"},  # no timing
                "not-a-dict",
                None,
            ]
        )
        fit = model.coefficients_for("dim4_constrained")
        assert fit.observations == 1

    def test_ingest_timings_reads_solve_classes_key(self):
        model = SolveCostModel()
        model.ingest_timings(
            {"solve_classes": [{"solve_class": "dim4_constrained", "count": 1, "seconds": 0.2}]}
        )
        model.ingest_timings(None)
        model.ingest_timings({"other": 1})
        assert model.coefficients_for("dim4_constrained").observations == 1

    def test_coefficients_lists_every_observed_class(self):
        model = SolveCostModel()
        model.observe("dim4_constrained", 1, 0.1)
        model.observe("dim16_unconstrained", 1, 0.9)
        coefficients = model.coefficients()
        assert set(coefficients) == {"dim16_unconstrained", "dim4_constrained"}
        assert coefficients["dim4_constrained"]["source"] == "ratio"


class TestGlobalModel:
    def test_reset_replaces_the_shared_instance(self):
        first = global_model()
        first.observe("dim4_constrained", 1, 0.5)
        second = reset_global_model()
        assert second is global_model()
        assert second is not first
        assert second.coefficients_for("dim4_constrained").source == "prior"


costs_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=40,
)


class TestLptPack:
    @given(costs=costs_strategy, bins=st.integers(min_value=1, max_value=8))
    def test_packing_is_a_partition(self, costs, bins):
        packed = lpt_pack(costs, bins)
        assert len(packed) == bins
        flattened = [index for chunk in packed for index in chunk]
        assert sorted(flattened) == list(range(len(costs)))
        for chunk in packed:
            assert chunk == sorted(chunk)

    @given(costs=costs_strategy, bins=st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_packing_is_deterministic(self, costs, bins):
        assert lpt_pack(costs, bins) == lpt_pack(list(costs), bins)

    @given(costs=costs_strategy, bins=st.integers(min_value=1, max_value=8))
    def test_enough_items_fill_every_bin(self, costs, bins):
        if len(costs) >= bins:
            assert all(chunk for chunk in lpt_pack(costs, bins))

    def test_zero_costs_spread_round_robin(self):
        assert lpt_pack([0.0, 0.0, 0.0, 0.0], 2) == [[0, 2], [1, 3]]

    def test_lpt_balances_uneven_costs(self):
        # One heavy item plus small ones: the heavy item gets a bin mostly to
        # itself instead of stacking with the small ones.
        packed = lpt_pack([5.0, 1.0, 1.0, 1.0, 4.0, 4.0], 3)
        assert packed == [[0, 3], [1, 4], [2, 5]]


class TestTimingAttribution:
    """solve_timings events carry worker/chunk attribution and a prediction."""

    @pytest.fixture(autouse=True)
    def _fresh_process_state(self):
        """No job may inherit a warm tape memo or a trained cost model."""
        clear_tape_memo()
        reset_global_model()
        yield
        clear_tape_memo()
        reset_global_model()

    def test_events_record_worker_chunk_and_prediction(self):
        jobs = prefix_jobs(seed=11, fractions=(1.0,))
        report = AnalysisEngine(workers=1).run(jobs)
        assert report.ok
        events = (report.results[0].timings or {}).get("solve_classes")
        assert events
        for event in events:
            assert event["count"] >= 1
            assert event["seconds"] >= 0.0
            assert isinstance(event["worker"], int) and event["worker"] >= 0
            assert event["chunk"] == event["worker"]
            assert event["predicted_seconds"] >= 0.0


class TestEngineStats:
    def test_stats_expose_costmodel(self):
        assert "coefficients" in AnalysisEngine(workers=1).stats()["costmodel"]
