"""Golden-rule transition rates for boson and spin thermal reservoirs.

A reservoir is characterized only by its statistics, a flat (frequency
independent) coupling strength Gamma, and a temperature. The microscopic
bath operators never appear: they are folded into Gamma and the thermal
occupation factor of the transition frequency.
"""

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# exp(x) overflows IEEE doubles near x ~ 709; past this the occupation is
# indistinguishable from its zero-temperature limit
_X_CLAMP = 700.0


class BathKind(enum.Enum):
    BOSON = "boson"
    SPIN = "spin"


@dataclass(frozen=True)
class BathSpec:
    """One reservoir: statistics ``kind``, coupling ``gamma``, ``temperature``.

    gamma is a rate (energy-flat), temperature is in energy units (k_B = 1);
    both must be nonnegative, and the temperature finite.
    """

    kind: BathKind
    gamma: float
    temperature: float

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )


def occupation(kind: BathKind, omega: float, temperature: float) -> float:
    """Thermal occupation of a reservoir mode at frequency ``omega`` > 0.

    Parameters
    ----------
    kind : BathKind
        Reservoir statistics. Boson gives the Bose-Einstein factor
        1/(e^{w/T} - 1); spin gives 1/(e^{w/T} + 1).
    omega : float
        Transition frequency, strictly positive.
    temperature : float
        Reservoir temperature, finite and >= 0. At T = 0 the limit value 0
        is returned for either kind, and omega/T beyond the floating-point
        exponent range clamps to the same limit.

    Returns
    -------
    float
        Occupation number; nonnegative, and bounded by 1/2 for spin baths.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = omega / temperature
    if x > _X_CLAMP:
        return 0.0
    if kind is BathKind.BOSON:
        if x == 0.0:
            raise ValueError(
                f"omega/T underflows to 0 at omega = {omega}, T = {temperature}"
            )
        return 1.0 / math.expm1(x)
    return 1.0 / (math.exp(x) + 1.0)


def rate_pair(bath: BathSpec, omega: float) -> tuple[float, float]:
    """(down, up) golden-rule rates across a transition of gap ``omega`` > 0.

    ``down`` relaxes toward the lower level, ``up`` excites against the gap.
    Boson: down = Gamma (n_B + 1), up = Gamma n_B. Spin: down =
    Gamma n_S(-omega) = Gamma / (e^{-omega/T} + 1), up = Gamma n_S(omega).
    Both kinds obey detailed balance, down/up = e^{omega/T}.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    g, t = bath.gamma, bath.temperature
    if g == 0.0:
        return 0.0, 0.0
    if t == 0.0:
        return g, 0.0
    return _rates(_FLOATS, bath.kind, g, omega / t, occupation(bath.kind, omega, t))


def _rates(ops, kind: BathKind, gamma: float, x, n):
    # (down, up) of rate_pair from x = omega/T and the occupation n, for one
    # temperature (ops = _FLOATS) or an array of them (_ARRAYS)
    if gamma == 0.0:  # not gamma * n: n is inf where omega/T underflows
        zero = ops.zeros_like(x)
        return zero, zero
    if kind is BathKind.BOSON:
        return gamma * (n + 1.0), gamma * n
    # exp underflows gracefully to 0 for large gaps, giving down -> Gamma
    return gamma / (ops.exp(-x) + 1.0), gamma * n


# The closed forms of the package are written once, over one of these two
# namespaces: _FLOATS for a single point, _ARRAYS for a grid. They hold only
# what differs between math on floats and numpy on float64 arrays. math
# raises where numpy returns inf or NaN (exp past 709, x / 0, log2(0)), so a
# guarded float form never evaluates the branch it discards; grid callers
# run under np.errstate(all="ignore").


def _float_quotient(num, den, fallback, *args):
    # num / den, 0 where den is 0, and fallback(*args) where num / den is not finite
    if not den:
        return 0.0
    value = num / den
    return value if math.isfinite(value) else fallback(*args)


_FLOATS = SimpleNamespace(
    exp=math.exp, sqrt=math.sqrt, hypot=math.hypot, frexp=math.frexp, ldexp=math.ldexp,
    maximum=max, minimum=min,
    zeros_like=lambda x: 0.0,
    top=lambda x: x,  # the value tested against the rescaling ceiling
    select=lambda cond, if_true, if_false: if_true if cond else if_false,
    quotient=_float_quotient,
    xlog2x=lambda x: x * math.log2(x) if x > 0.0 else 0.0,
    # -w log2(num / den), and 0 where the weight w is 0
    conditional=lambda w, num, den: -w * math.log2(num / den) if w > 0.0 else 0.0,
)


def _clamped_occupation(kind, x):
    # occupation() over an array of x = omega/T, in which T = 0 gives inf
    n = 1.0 / np.expm1(x) if kind is BathKind.BOSON else 1.0 / (np.exp(x) + 1.0)
    n[x > _X_CLAMP] = 0.0
    return n


def _quotient(num, den, fallback, *args):
    value = num / den
    value[den == 0.0] = 0.0
    over = ~np.isfinite(value)
    if over.any():
        value[over] = fallback(*(a[over] if isinstance(a, np.ndarray) else a for a in args))
    return value


_ARRAYS = SimpleNamespace(
    exp=np.exp, sqrt=np.sqrt, hypot=np.hypot, frexp=np.frexp, ldexp=np.ldexp,
    maximum=np.maximum, minimum=np.minimum,
    zeros_like=np.zeros_like,
    occupation=_clamped_occupation,
    top=lambda x: x.max(initial=0.0),
    select=np.where,
    quotient=_quotient,
    xlog2x=lambda x: x * np.log2(x, out=np.zeros_like(x), where=x > 0.0),
    conditional=lambda w, num, den: -w * np.log2(num / den, out=np.zeros_like(w), where=w > 0.0),
)
