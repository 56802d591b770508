"""Built-in channel metrics: diamond norm, trace norm, process fidelity.

Each metric compares two arbitrary same-arity :class:`QuantumChannel`\\ s and
reports its certification tier honestly:

* :class:`DiamondNormMetric` — the comparative diamond distance
  ``0.5 ||A - B||_diamond`` through the Watrous SDP.  It calls
  :func:`~repro.sdp.diamond.constrained_diamond_norm` on the Choi difference
  — exactly the arithmetic of the legacy
  :func:`~repro.sdp.diamond.diamond_distance` path, so registry routing is
  bit-identical to a direct call, and it inherits the batched kernel
  templates and solve classes for free.  Tier: *certified*
  (dual certificate attached).
* :class:`TraceNormMetric` — ``0.5 ||J_A - J_B||_1 / d`` on normalised Choi
  matrices; a closed-form lower bound on the diamond distance.  Tier:
  *exact* (linear algebra, no solver, nothing to certify).
* :class:`ProcessFidelityMetric` — ``sqrt(1 - F)`` with ``F`` the Uhlmann
  fidelity between the normalised Choi states (for unitary-vs-channel
  comparisons this is the entanglement infidelity root).  Tier: *heuristic*
  — a standard distance proxy without a certificate.

All three satisfy the metric axioms the property tests enforce:
non-negativity, symmetry (up to solver determinism — the SDP is deterministic
here, and trace/fidelity are algebraically symmetric), and exact zero on
identical channels (the SDP path short-circuits a zero Choi difference to the
exact-zero bound).
"""

from __future__ import annotations

import numpy as np

from ..config import SDPConfig
from ..linalg.channels import QuantumChannel
from ..linalg.norms import trace_norm
from ..sdp.diamond import constrained_diamond_norm
from .base import (
    TIER_CERTIFIED,
    TIER_EXACT,
    TIER_HEURISTIC,
    ChannelMetric,
    MetricValue,
    register_metric,
)

__all__ = [
    "BoundDriftMetric",
    "DiamondNormMetric",
    "ProcessFidelityMetric",
    "TraceNormMetric",
]


@register_metric
class DiamondNormMetric(ChannelMetric):
    """Certified comparative diamond distance via the Watrous SDP."""

    name = "diamond_norm"
    tier = TIER_CERTIFIED
    description = (
        "0.5 ||A - B||_diamond via the Watrous SDP; certified upper bound "
        "with an independently re-verifiable dual certificate."
    )

    def compute(
        self,
        channel_a: QuantumChannel,
        channel_b: QuantumChannel,
        *,
        config: SDPConfig | None = None,
    ) -> MetricValue:
        self.check_arity(channel_a, channel_b)
        # Same expression as sdp.diamond.diamond_distance — bit-identity with
        # the legacy path is a tested invariant, not a coincidence.
        choi = channel_a.choi() - channel_b.choi()
        bound = constrained_diamond_norm(choi, config=config)
        return MetricValue(
            metric=self.name,
            value=float(bound.value),
            tier=self.tier,
            method=bound.method,
            bound=bound,
            details={
                "iterations": int(bound.iterations),
                "converged": bool(bound.converged),
                "primal_estimate": float(bound.primal_estimate),
            },
        )


@register_metric
class TraceNormMetric(ChannelMetric):
    """Exact trace-norm distance between normalised Choi matrices."""

    name = "trace_norm"
    tier = TIER_EXACT
    description = (
        "0.5 ||J_A - J_B||_1 on normalised Choi matrices; exact closed form, "
        "a lower bound on the diamond distance."
    )

    def compute(
        self,
        channel_a: QuantumChannel,
        channel_b: QuantumChannel,
        *,
        config: SDPConfig | None = None,
    ) -> MetricValue:
        self.check_arity(channel_a, channel_b)
        dim = channel_a.dim_in
        value = 0.5 * trace_norm(channel_a.choi() - channel_b.choi()) / dim
        return MetricValue(
            metric=self.name,
            value=float(value),
            tier=self.tier,
            method="schatten-1",
            details={"dim": int(dim)},
        )


@register_metric
class ProcessFidelityMetric(ChannelMetric):
    """Heuristic infidelity-derived distance ``sqrt(1 - F(J_A/d, J_B/d))``."""

    name = "process_fidelity"
    tier = TIER_HEURISTIC
    description = (
        "sqrt(1 - F) with F the Uhlmann fidelity of normalised Choi states; "
        "heuristic distance proxy, no certificate."
    )

    def compute(
        self,
        channel_a: QuantumChannel,
        channel_b: QuantumChannel,
        *,
        config: SDPConfig | None = None,
    ) -> MetricValue:
        self.check_arity(channel_a, channel_b)
        dim = channel_a.dim_in
        rho = np.asarray(channel_a.choi(), dtype=complex) / dim
        sigma = np.asarray(channel_b.choi(), dtype=complex) / dim
        fidelity = _uhlmann_fidelity(rho, sigma)
        value = float(np.sqrt(max(0.0, 1.0 - fidelity)))
        return MetricValue(
            metric=self.name,
            value=value,
            tier=self.tier,
            method="uhlmann",
            details={"fidelity": fidelity, "dim": int(dim)},
        )


@register_metric
class BoundDriftMetric(ChannelMetric):
    """Program-level noise-model A/B drift (engine-executed, not pairwise).

    Registered so capability discovery and job validation know the name; the
    actual computation lives in :mod:`repro.engine.comparisons`, which runs
    the full certified analysis under each noise model and reports
    ``|bound_a - bound_b|``.  The drift itself is heuristic — each side is a
    certified upper bound, but a difference of upper bounds does not bound
    the true drift — so the tier says so, while both dual certificate sets
    are still harvested into the outcome store.
    """

    name = "bound_drift"
    tier = TIER_HEURISTIC
    kind = "program"
    description = (
        "|bound_A - bound_B| of the certified program error bound under two "
        "noise models; both sides individually certified."
    )

    def compute(
        self,
        channel_a: QuantumChannel,
        channel_b: QuantumChannel,
        *,
        config: SDPConfig | None = None,
    ) -> MetricValue:
        from ..errors import MetricError

        raise MetricError(
            "bound_drift diffs two noise models over a program; submit it as a "
            "noise-model A/B ComparisonJob, not a channel pair"
        )


def _uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2``, clipped to [0, 1].

    Computed symmetrically as ``(sum_i sqrt(eig_i(sqrt(rho) sigma sqrt(rho))))^2``
    so ``F(a, b) == F(b, a)`` holds to rounding; identical inputs give exactly
    1 because ``sqrt(rho) rho sqrt(rho)`` has eigenvalue sums equal to
    ``tr(rho) = 1``.
    """
    if np.array_equal(rho, sigma):
        return 1.0
    sqrt_rho = _psd_sqrt(rho)
    inner = sqrt_rho @ sigma @ sqrt_rho
    eigenvalues = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    root_sum = float(np.sqrt(np.clip(eigenvalues, 0.0, None)).sum())
    return float(min(1.0, root_sum * root_sum))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix (eigenvalues clipped at zero)."""
    eigenvalues, eigenvectors = np.linalg.eigh((matrix + matrix.conj().T) / 2.0)
    roots = np.sqrt(np.clip(eigenvalues, 0.0, None))
    return (eigenvectors * roots) @ eigenvectors.conj().T
