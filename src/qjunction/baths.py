"""Golden-rule transition rates for boson and spin thermal reservoirs.

A reservoir is characterized only by its statistics, a flat (frequency
independent) coupling strength Gamma, and a temperature. The microscopic
bath operators never appear: they are folded into Gamma and the thermal
occupation factor of the transition frequency.

Across a transition of gap omega > 0 a bath has two rates: ``down`` relaxes
toward the lower level, ``up`` excites against the gap. With x = omega/T,
a boson bath has occupation n_B = 1/(e^x - 1), down = Gamma (n_B + 1) and
up = Gamma n_B; a spin bath has n_S = 1/(e^x + 1), bounded by 1/2, down =
Gamma / (e^{-x} + 1) and up = Gamma n_S. Both kinds obey detailed balance,
down/up = e^x. At T = 0 the occupation takes its zero-temperature limit 0,
as it does where e^x overflows (x past 709.78): n = 1/inf = 0. Temperatures
and couplings must be nonnegative and finite.
"""

import enum
import functools
import math
from types import SimpleNamespace


class BathKind(enum.Enum):
    BOSON = "boson"
    SPIN = "spin"


# kinds are compared against this global: a lookup through the class costs ten times more
_BOSON = BathKind.BOSON


def _check_bath(gamma, temperature):
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be {'finite' if gamma == math.inf else '>= 0'}, got {gamma}")
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    return float(gamma)


def _rates(kind: BathKind, gamma: float, n, base):
    # (down, up) from the occupation n and down's part free of gamma, base: n + 1
    # (boson) or e^{-x} + 1 (spin). Neither is changed: the current reads them too
    up = gamma * n
    if kind is _BOSON:
        return base * gamma, up
    # base -> 1 for large gaps (exp(-x) underflows gracefully), giving down -> Gamma
    return gamma / base, up


# The closed forms of the package are written once, over one of two
# namespaces: _FLOATS for a single point, _arrays() for a grid. They hold only
# what differs between math on floats and numpy on float64 arrays. numpy is
# imported when _arrays() is first called, by the first grid, so a process
# that solves only points never loads it. math raises where numpy returns
# inf or NaN (exp past 709, x / 0, log2(0)), so a guarded float form never
# evaluates the branch it discards; grid callers run under
# np.errstate(all="ignore").


def _float_occupation(kind, gamma, omega, temperature):
    # one bath's (n, base) at one temperature, for a gap omega > 0; an uncoupled bath
    # forms none and stands in as (0, 1), whose rates are (0, 0)
    if gamma == 0.0 or temperature == 0.0:
        return 0.0, 1.0
    x = omega / temperature
    try:
        if kind is _BOSON:
            if x == 0.0:  # a ValueError, which the handler below lets through
                raise ValueError(f"omega/T underflows to 0 at omega = {omega}, T = {temperature}")
            n = 1.0 / math.expm1(x)
            return n, n + 1.0
        return 1.0 / (math.exp(x) + 1.0), math.exp(-x) + 1.0
    except OverflowError:  # numpy's value: 1/inf is 0, and e^{-x} + 1 is 1.0 from x = 37 on
        return 0.0, 1.0


_FLOATS = SimpleNamespace(
    sqrt=math.sqrt, frexp=math.frexp, ldexp=math.ldexp,
    # max and min of two with the builtins' choice: the first unless the second is greater (less)
    maximum=lambda a, b: b if b > a else a, minimum=lambda a, b: b if b < a else a,
    occupation=_float_occupation,
    top=lambda x: x,  # the value tested against the rescaling ceiling
    select=lambda cond, if_true, if_false: if_true if cond else if_false,
    xlog2x=lambda x: x * math.log2(x) if x > 0.0 else 0.0,
)


def _occupation(kind: BathKind, x):
    # n and base (see _rates) over an array x = omega/T (inf where T = 0), base in x's memory
    import numpy as np
    n = np.expm1(x) if kind is _BOSON else np.exp(x) + 1.0
    np.divide(1.0, n, out=n)
    if kind is _BOSON:
        return n, np.add(n, 1.0, out=x)
    return n, np.add(np.exp(np.negative(x, out=x), out=x), 1.0, out=x)


@functools.cache
def _arrays():
    # the numpy namespace, built once
    import numpy as np

    def xlog2x(x):
        # x log2 x in one new array; the least subnormal stands in for x = 0, where
        # its log2 (-1074) times x gives a zero, as on floats (x is never negative here)
        y = np.maximum(x, 5e-324)
        np.log2(y, out=y)
        y *= x
        return y

    def select(cond, if_true, if_false):
        # if_false, with if_true written into it where cond holds
        np.copyto(if_false, if_true, where=cond)
        return if_false

    def occupation(kind, gamma, omega, temperature):
        # _float_occupation over an array of temperatures, at a gap or a column of them
        x = omega / temperature
        return _occupation(kind, x) if gamma else (np.zeros(x.shape), np.ones(x.shape))

    ops = SimpleNamespace(
        sqrt=np.sqrt, frexp=np.frexp, ldexp=np.ldexp,
        maximum=np.maximum, minimum=np.minimum,
        occupation=occupation,
        top=lambda x: x.max(initial=0.0),
        select=select,
        xlog2x=xlog2x,
    )
    return ops
