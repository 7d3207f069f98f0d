"""Golden-rule transition rates for boson and spin thermal reservoirs.

A reservoir is characterized only by its statistics, a flat (frequency
independent) coupling strength Gamma, and a temperature. The microscopic
bath operators never appear: they are folded into Gamma and the thermal
occupation factor of the transition frequency.
"""

import enum
import math
from dataclasses import dataclass

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
    g = bath.gamma
    t = bath.temperature
    if g == 0.0:
        return 0.0, 0.0
    if t == 0.0:
        return g, 0.0
    n = occupation(bath.kind, omega, t)
    if bath.kind is BathKind.BOSON:
        return g * (n + 1.0), g * n
    # math.exp underflows gracefully to 0 for large gaps, giving down -> Gamma
    return g / (math.exp(-omega / t) + 1.0), g * n
