"""Parameter-sweep drivers: equilibrium scans, bias sweeps, rectification,
and the entanglement sudden-death threshold.

A single point (:func:`solve_point`) takes the scalar path through
``channel_rates``, ``steady_populations``, ``heat_current`` and
``correlation_report``. A grid (:func:`run_sweep`,
:func:`rectification_scan`) is solved in one array pass by
``solver.transport_kernel`` and ``correlations.correlation_kernel``, which
compute the same closed forms. The sudden-death threshold is a closed form
of its own, valid at any equilibrium.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baths import BathKind, BathSpec
from .correlations import correlation_kernel, correlation_report
from .model import DegeneratePhysicsError, SystemParams
from .solver import (
    NonUniqueSteadyStateError,
    channel_rates,
    heat_current,
    steady_populations,
    transport_kernel,
)


class SweepVariable(enum.Enum):
    T_COMMON = "t_common"  # equilibrium: T_L = T_R swept together
    T_RIGHT = "t_right"    # T_R swept at fixed T_L
    DELTA_T = "delta_t"    # T_L = T_a + dT, T_R = T_a - dT at fixed T_a


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: system, reservoir kind and couplings, grid definition.

    ``t_left`` fixes T_L for T_RIGHT sweeps; ``t_avg`` fixes T_a for DELTA_T
    sweeps. Grids are uniform and closed at both ends, and every temperature
    must be finite; DELTA_T grids must stay strictly inside (-T_a, T_a) so
    both temperatures remain positive.
    """

    params: SystemParams
    kind: BathKind
    gamma_left: float
    gamma_right: float
    variable: SweepVariable
    lo: float
    hi: float
    count: int
    t_left: float | None = None
    t_avg: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.lo) or not math.isfinite(self.hi):
            raise ValueError(f"grid ends must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.count < 2:
            raise ValueError(f"need at least 2 grid points, got {self.count}")
        if not (self.gamma_left >= 0.0 and self.gamma_right >= 0.0):
            raise ValueError("couplings must be nonnegative")
        if self.variable is SweepVariable.DELTA_T:
            if self.t_avg is None or not 0.0 < self.t_avg < math.inf:
                raise ValueError("DELTA_T sweeps need a positive, finite t_avg")
            if self.lo <= -self.t_avg or self.hi >= self.t_avg:
                raise ValueError(
                    f"bias grid [{self.lo}, {self.hi}] leaves (-T_a, T_a) "
                    f"for T_a = {self.t_avg}"
                )
        elif self.variable is SweepVariable.T_RIGHT:
            if self.t_left is None or not 0.0 <= self.t_left < math.inf:
                raise ValueError("T_RIGHT sweeps need a nonnegative, finite t_left")
            if self.lo < 0.0:
                raise ValueError("temperatures must be nonnegative")
        else:
            if self.lo < 0.0:
                raise ValueError("temperatures must be nonnegative")


class SweepRow(NamedTuple):
    """One sweep point: temperatures, populations, current, correlations."""

    t_left: float
    t_right: float
    p1: float
    p2: float
    p3: float
    p4: float
    heat_current: float
    concurrence: float
    discord: float
    mutual_information: float
    classical_correlation: float


class RectificationPoint(NamedTuple):
    """Currents under a bias and its reversal at the same mean temperature."""

    delta_t: float
    j_forward: float   # J_L at (T_a + dT, T_a - dT)
    j_reverse: float   # J_L at (T_a - dT, T_a + dT)


def solve_point(
    params: SystemParams,
    kind: BathKind,
    gamma_left: float,
    gamma_right: float,
    t_left: float,
    t_right: float,
) -> SweepRow:
    """Full steady-state solution for a single pair of bath temperatures.

    Raises ``ValueError`` when the rates overflow, so that the populations
    or the heat current would not be finite.
    """
    rates = channel_rates(
        params,
        BathSpec(kind, gamma_left, t_left),
        BathSpec(kind, gamma_right, t_right),
    )
    pops = steady_populations(rates)
    current = heat_current(rates)
    if not math.isfinite(current):
        raise ValueError(
            f"heat current is not finite at T_L = {t_left}, T_R = {t_right}"
        )
    rep = correlation_report(pops)
    return SweepRow(
        t_left=float(t_left),
        t_right=float(t_right),
        p1=pops.p1,
        p2=pops.p2,
        p3=pops.p3,
        p4=pops.p4,
        heat_current=current,
        concurrence=rep.concurrence,
        discord=rep.discord,
        mutual_information=rep.mutual_information,
        classical_correlation=rep.classical_correlation,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep grid in ascending order of the sweep variable."""
    values = np.linspace(spec.lo, spec.hi, spec.count)
    if spec.variable is SweepVariable.T_COMMON:
        t_left = t_right = values
    elif spec.variable is SweepVariable.T_RIGHT:
        t_left, t_right = np.full(spec.count, float(spec.t_left)), values
    else:
        t_left, t_right = spec.t_avg + values, spec.t_avg - values
    try:
        rates, j = transport_kernel(
            spec.params, spec.kind, spec.gamma_left, spec.gamma_right, t_left, t_right
        )
        state = correlation_kernel(rates, spec.params.epsilon > spec.params.kappa)
    except DegeneratePhysicsError as exc:
        raise DegeneratePhysicsError(
            f"sweep aborted on the {spec.variable.value} grid: {exc}"
        ) from exc
    columns = np.vstack((t_left, t_right, state[:4], j, state[4:]))
    return list(map(SweepRow._make, zip(*columns.tolist())))


def rectification_scan(
    params: SystemParams,
    kind: BathKind,
    gamma_left: float,
    gamma_right: float,
    t_avg: float,
    delta_ts,
) -> list[RectificationPoint]:
    """Forward/reversed currents over a grid of biases dT in (0, T_a).

    The junction rectifies when |j_reverse| differs from |j_forward|; with
    equal couplings the two magnitudes coincide identically.
    """
    if not 0.0 < t_avg < math.inf:
        raise ValueError(f"t_avg must be positive and finite, got {t_avg}")
    if not (gamma_left >= 0.0 and gamma_right >= 0.0):
        raise ValueError("couplings must be nonnegative")
    dts = np.asarray(delta_ts, dtype=float)
    outside = ~((dts > 0.0) & (dts < t_avg))
    if outside.any():
        raise ValueError(f"bias {float(dts[np.argmax(outside)])} outside (0, {t_avg})")
    # forward biases (hot left) first, then the same biases reversed
    hot, cold = t_avg + dts, t_avg - dts
    _, j = transport_kernel(
        params, kind, gamma_left, gamma_right,
        np.concatenate((hot, cold)), np.concatenate((cold, hot)),
    )
    n = dts.size
    columns = zip(dts.tolist(), j[:n].tolist(), j[n:].tolist())
    return list(map(RectificationPoint._make, columns))


def sudden_death_temperature(
    params: SystemParams,
    kind: BathKind,
    gamma_left: float = 1.0,
    gamma_right: float = 1.0,
) -> float:
    """Equilibrium temperature at which the concurrence vanishes.

    At T_L = T_R = T the steady state is the Gibbs state for either bath
    kind and any couplings, so sqrt(P2 P3) = 1/Z, P1 is the largest of P1,
    P4 and sqrt(P2 P3), and C = 2 (sinh(kappa/T) - 1) / Z. That is zero
    exactly at

        T_d = kappa / asinh(1) = kappa / ln(1 + sqrt(2)),

    whatever epsilon, the bath kind and the couplings are. The couplings
    only decide whether the equilibrium exists: they must be
    nonnegative and finite (``ValueError``), and with both zero no channel
    carries rates, so the stationary state is not unique and
    ``NonUniqueSteadyStateError`` is raised (CLI exit 3), as solving the
    equilibrium itself would. Raises ``ValueError`` when T_d overflows.
    """
    if not (0.0 <= gamma_left < math.inf and 0.0 <= gamma_right < math.inf):
        raise ValueError("couplings must be nonnegative and finite")
    if gamma_left == 0.0 and gamma_right == 0.0:
        raise NonUniqueSteadyStateError(
            "no channel carries rates; the equilibrium state is not unique"
        )
    t_death = params.kappa / math.asinh(1.0)
    if t_death == math.inf:
        raise ValueError(f"sudden-death temperature overflows at kappa = {params.kappa}")
    return t_death
