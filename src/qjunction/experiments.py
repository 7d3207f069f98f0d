"""Parameter-sweep drivers: equilibrium scans, bias sweeps, rectification,
and the entanglement sudden-death threshold.

A single point (:func:`solve_point`) runs the float closed forms in turn
(``solver.transport_kernel``, then ``correlations._measures``), building only
its row, importing no numpy. A grid is solved on numpy arrays of ``_CHUNK``
values, into the one read-only float64 array its rows are read from, both
channels at once: :func:`run_sweep` by the same forms (``solver._channel``,
``correlations._states``), each chunk unchecked, a failing grid's point named
from that array once, and :func:`rectification_scan` by the current alone, from
one E = expm1(omega/T) block per chunk that both baths read under both biases.
The sudden-death threshold is a closed form, valid at any equilibrium.
"""

import enum
import math
import operator
from collections.abc import Sequence
from typing import NamedTuple

from .baths import _FLOATS, BathKind, _arrays
from .correlations import _measures, _states
from .model import DegeneratePhysicsError, SystemParams, _Record, _set
from .solver import (NonUniqueSteadyStateError, _channel, _couplings, _current,
                     _current_not_finite, _difference, _gaps, transport_kernel)


class SweepVariable(enum.Enum):
    T_COMMON = "t_common"  # equilibrium: T_L = T_R swept together
    T_RIGHT = "t_right"    # T_R swept at fixed T_L
    DELTA_T = "delta_t"    # T_L = T_a + dT, T_R = T_a - dT at fixed T_a


class SweepSpec(_Record):
    """One sweep: system, reservoir kind and couplings, grid definition.

    ``t_left`` fixes T_L for T_RIGHT sweeps; ``t_avg`` fixes T_a for DELTA_T
    sweeps. Grids are uniform and closed at both ends, and every temperature
    on them must be finite; DELTA_T grids must stay strictly inside
    (-T_a, T_a) so both temperatures remain positive.
    """

    __slots__ = __match_args__ = ("params", "kind", "gamma_left", "gamma_right", "variable",
                                  "lo", "hi", "count", "t_left", "t_avg")

    def __init__(self, params: SystemParams, kind: BathKind, gamma_left: float,
                 gamma_right: float, variable: SweepVariable, lo: float, hi: float, count: int,
                 t_left: float | None = None, t_avg: float | None = None):
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise ValueError(f"grid ends must be finite, got [{lo}, {hi}]")
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        if count < 2:
            raise ValueError(f"need at least 2 grid points, got {count}")
        _check_couplings(gamma_left, gamma_right)
        if variable is SweepVariable.DELTA_T:
            if t_avg is None or not 0.0 < t_avg < math.inf:
                raise ValueError("DELTA_T sweeps need a positive, finite t_avg")
            if lo <= -t_avg or hi >= t_avg:
                raise ValueError(f"bias grid [{lo}, {hi}] leaves (-T_a, T_a) for T_a = {t_avg}")
            if t_avg + max(hi, -lo) == math.inf:
                raise ValueError(f"T_a + |dT| overflows for T_a = {t_avg}")
        else:
            if variable is SweepVariable.T_RIGHT and (
                    t_left is None or not 0.0 <= t_left < math.inf):
                raise ValueError("T_RIGHT sweeps need a nonnegative, finite t_left")
            if lo < 0.0:
                raise ValueError("temperatures must be nonnegative")
        for name, value in zip(self.__slots__, (params, kind, gamma_left, gamma_right, variable,
                                                lo, hi, count, t_left, t_avg)):
            _set(self, name, value)


def _check_couplings(gamma_left, gamma_right):
    if not (gamma_left >= 0.0 and gamma_right >= 0.0):
        raise ValueError("couplings must be nonnegative")
    if math.inf in (gamma_left, gamma_right):
        raise ValueError("couplings must be finite")


class SweepRow(NamedTuple):
    """One point as Python floats: temperatures, populations, current, correlations."""

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


class _Table(Sequence):
    """Rows of ``row_type``, built as read, over a read-only (fields, points) array."""

    def __init__(self, row_type, columns):
        columns.flags.writeable = False
        self._row, self._columns = row_type, columns

    def __len__(self):
        return self._columns.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._row._make, zip(*self._columns[:, index].tolist())))
        return self._row._make(self._columns[:, operator.index(index)].tolist())

    def __iter__(self):
        return map(self._row._make, zip(*self._columns.tolist()))

    def __array__(self, dtype=None, copy=None):
        import numpy as np
        return np.array(self._columns.T, dtype=dtype, copy=copy)


def solve_point(
    params: SystemParams,
    kind: BathKind,
    gamma_left: float,
    gamma_right: float,
    t_left: float,
    t_right: float,
) -> SweepRow:
    """Full steady-state solution for a single pair of bath temperatures.

    Raises ``ValueError`` where the heat current is not finite, as
    ``run_sweep`` does on a grid, and ``NonUniqueSteadyStateError`` where
    no bath is coupled.
    """
    (fa, ga, fb, gb), current = transport_kernel(
        params, kind, gamma_left, gamma_right, t_left, t_right)
    if math.isnan(ga) or math.isnan(gb):
        raise NonUniqueSteadyStateError(
            "a channel carries no rates; the stationary state is not unique")
    p1, p2, p3, p4 = fa * fb, ga * fb, fa * gb, ga * gb
    conc, mi, ccl, disc = _measures(_FLOATS, fa, ga, fb, gb)
    return SweepRow(float(t_left), float(t_right), p1, p2, p3, p4, current,
                    conc, disc, mi, ccl)


# Grid arrays hold _CHUNK values: a sweep's chunk is _CHUNK // 2 points, a scan's _CHUNK // 4
# biases, forward and reversed, both channels at once; a call, not a chunk, pays the checks. A
# 9,410-point call holds at most 10 chunk arrays (320 KiB) besides its result (221 KiB for a
# scan, 809 for a sweep), under glibc's trim threshold (twice the largest mmapped block freed),
# so the heap keeps that memory for the next call rather than faulting it in at ~2 us a page.
_CHUNK = 4096


def _fill_grid(row, lo, hi):
    # np.linspace(lo, hi, row.size), row.size >= 2, in numpy's arithmetic without its fixed
    # cost: i * step + lo (i / 1.0 is i), or i / (n - 1) * (hi - lo) + lo where step is 0
    import numpy as np
    lo, hi, div = float(lo), float(hi), row.size - 1
    step = (hi - lo) / div
    np.divide(np.arange(row.size, dtype=float), 1.0 if step else div, out=row)
    row *= step or hi - lo
    row += lo
    row[-1] = hi


def _float_grid(lo, hi, count):
    # np.linspace(lo, hi, count) as floats in its arithmetic, which _fill_grid's repeats
    div = max(count - 1, 1)
    step = (hi - lo) / div
    grid = [i * step + lo if step else i / div * (hi - lo) + lo for i in range(count)]
    return grid[:-1] + [hi] if count > 1 else grid


def run_sweep(spec: SweepSpec) -> Sequence[SweepRow]:
    """Evaluate the sweep grid in ascending order of the sweep variable.

    ``np.asarray`` of the result is the (count, 11) array; it equals only itself.
    A failing grid raises ``DegeneratePhysicsError`` at point 0 where no bath is
    coupled, and otherwise ``ValueError`` at its first point whose heat current is
    not finite, as ``solve_point`` does; a finite current has finite weights.
    """
    couplings, (gap_a, gap_b) = (spec.gamma_left, spec.gamma_right), _gaps(spec.params)
    if not any(couplings) and gap_b < math.inf:  # no rates anywhere, and a current of 0.0
        raise _no_rates(spec.variable, 0)
    import numpy as np
    out = np.empty((11, spec.count))
    _fill_grid(out[1], spec.lo, spec.hi)
    common = spec.variable is SweepVariable.T_COMMON
    if common:
        out[0] = out[1]
    elif spec.variable is SweepVariable.T_RIGHT:
        out[0] = float(spec.t_left)
    else:
        out[0], out[1] = spec.t_avg + out[1], spec.t_avg - out[1]
    gaps, inverted = np.array([[gap_a], [gap_b]]), spec.params.epsilon > spec.params.kappa
    ops, step = _arrays(), _CHUNK // 2
    with np.errstate(all="ignore"):
        # per chunk, unchecked: J into row 6, the states into rows 2-5 and 7-10
        for start in range(0, spec.count, step):
            part = slice(start, start + step)
            t_left = out[0, part]
            (f, g), j = _channel(ops, spec.kind, *couplings, gaps, t_left,
                                 t_left if common else out[1, part])
            np.add(0.0, j[0], out=out[6, part])  # 0.0 + j_a + j_b
            out[6, part] += j[1]
            del j  # before the measures are formed
            _states(inverted, f[0], g[0], f[1], g[1], out[:, part])
            del f, g  # before the next chunk's are formed
    _check_current(out[6], out[0], out[1])
    return _Table(SweepRow, out)


def _no_rates(variable, i):
    return DegeneratePhysicsError(f"sweep aborted on the {variable.value} grid: a channel carries "
                                  f"no rates at grid point {i}; the stationary state is not unique")


def _check_current(j, t_left, t_right):
    # ValueError at the first point of a grid where the current is not finite
    import numpy as np
    bad = ~np.isfinite(j)
    if bad.any():
        i = int(np.argmax(bad))
        raise _current_not_finite(float(t_left[i]), float(t_right[i]))


def rectification_scan(
    params: SystemParams,
    kind: BathKind,
    gamma_left: float,
    gamma_right: float,
    t_avg: float,
    delta_ts,
) -> Sequence[RectificationPoint]:
    """Forward/reversed currents over a 1-D grid of biases dT in (0, T_a).

    The junction rectifies when |j_reverse| differs from |j_forward|; with
    equal couplings the two magnitudes coincide identically. ``np.asarray``
    of the result is the (n, 3) array, dT copied; it equals only itself. A
    current that is not finite raises ``ValueError`` at the first such point
    of the forward grid, else of the reversed one, as ``solve_point`` names it.
    """
    if not 0.0 < t_avg < math.inf:
        raise ValueError(f"t_avg must be positive and finite, got {t_avg}")
    _check_couplings(gamma_left, gamma_right)
    import numpy as np
    dts = np.asarray(delta_ts)
    if dts.dtype.kind == "c":  # a cast to float would drop the imaginary parts
        raise ValueError(f"biases must be real, got dtype {dts.dtype}")
    dts = dts.astype(float, copy=False)
    if dts.ndim != 1:
        raise ValueError(f"biases must form a 1-D grid, got shape {dts.shape}")
    lo, hi = float(dts.min(initial=math.inf)), float(dts.max(initial=-math.inf))
    if not (lo > 0.0 and hi < t_avg):  # NaN fails both tests
        bias = float(dts[np.argmax(~((dts > 0.0) & (dts < t_avg)))])
        raise ValueError(f"bias {bias} outside (0, {t_avg})")
    if t_avg + hi == math.inf:
        raise ValueError(f"T_a + dT overflows at T_a = {t_avg}, dT = {hi}")
    out = np.empty((3, dts.size))
    out[0], out[1:] = dts, 0.0  # calloc's zeros fault in more pages per call here
    # per chunk, one E at each side (T_a + dT, T_a - dT) and gap, which both baths read (an
    # uncoupled one as y = 1, at T = 0): the forward bias has the left bath hot, the reversed one
    # the sides swapped and (y_R - y_L)/2 negated
    gaps, sides = np.array(_gaps(params))[:, None], np.array([1.0, -1.0])[:, None, None]
    ops, (left_big, small, _, ratio) = _arrays(), _couplings(gamma_left, gamma_right)
    with np.errstate(all="ignore"):
        for start in range(0, dts.size, _CHUNK // 4):
            part = slice(start, start + _CHUNK // 4)
            e = ops.expm1(gaps / (t_avg + sides * dts[part]))  # (side, gap, bias), hot first
            d, y_hot, y_cold = _difference(ops, kind, e[0], e[1])
            del e  # before the currents are formed
            for row, d, y_l, y_r in ((1, d, y_hot, y_cold), (2, -d, y_cold, y_hot)):
                y_l, y_r = y_l if gamma_left else 1.0, y_r if gamma_right else 1.0
                j = _current(kind, gaps, small, ratio, d,
                             *((y_l, y_r) if left_big else (y_r, y_l)))[1]
                out[row, part] += j[0]  # 0.0 + j_a + j_b; numpy skips the copy back
                out[row, part] += j[1]
            del d, y_hot, y_cold, y_l, y_r, j  # before the next chunk's are formed
        if not np.isfinite(out[1:]).all():  # named as one call on the forward, then reversed grid
            signed = np.concatenate((dts, -dts))
            _check_current(out[1:].reshape(-1), t_avg + signed, t_avg - signed)
    return _Table(RectificationPoint, out)


def sudden_death_temperature(
    params: SystemParams,
    kind: BathKind,
    gamma_left: float = 1.0,
    gamma_right: float = 1.0,
) -> float:
    """Equilibrium temperature at which the concurrence vanishes.

    At T_L = T_R = T the steady state is the Gibbs state for either bath
    kind and any couplings, so sqrt(P2 P3) = 1/Z, P1 >= P4 and
    C = 2 (sinh(kappa/T) - 1) / Z. That is zero exactly at

        T_d = kappa / asinh(1) = kappa / ln(1 + sqrt(2)),

    whatever epsilon, the bath kind and the couplings are. The couplings
    only decide whether the equilibrium exists: they must be
    nonnegative and finite (``ValueError``), and with both zero no channel
    carries rates, so the stationary state is not unique and
    ``NonUniqueSteadyStateError`` is raised (CLI exit 3), as solving the
    equilibrium itself would. Raises ``ValueError`` when T_d overflows.
    """
    _check_couplings(gamma_left, gamma_right)
    if gamma_left == 0.0 and gamma_right == 0.0:
        raise NonUniqueSteadyStateError(
            "no channel carries rates; the equilibrium state is not unique"
        )
    t_death = params.kappa / math.asinh(1.0)
    if t_death == math.inf:
        raise ValueError(f"sudden-death temperature overflows at kappa = {params.kappa}")
    return t_death
