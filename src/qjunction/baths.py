"""Boson and spin thermal reservoirs, each read as y = tanh(omega/2T) at a gap.

A reservoir is characterized only by its statistics, a flat (frequency
independent) coupling Gamma, and a temperature. Across a gap omega > 0, with
x = omega/T, a boson bath relaxes at Gamma (n_B + 1) and excites at Gamma n_B,
n_B = 1/(e^x - 1); a spin bath at Gamma / (e^{-x} + 1) and Gamma n_S, n_S =
1/(e^x + 1). The solver forms none of these rates, which are rational in y =
tanh(x/2) and ybar = 1 - y: down - up is Gamma (boson) or Gamma y (spin), and
down + up is Gamma/y or Gamma. A bath is read as E = expm1(x), y = E/(E + 2)
and ybar = 2/(E + 2); at T = 0, and where e^x overflows (x past 709.78), E is
inf, y = 1 and ybar = 0. Couplings and temperatures must be finite and >= 0.
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


def _check_bath(side, gamma, temperature):
    # one bath's coupling and temperature; side ("left" or "right") names an array given for one,
    # which only a value that is not exactly a float can be
    if (type(gamma) is not float or type(temperature) is not float) and (
            getattr(gamma, "shape", ()) or getattr(temperature, "shape", ())):
        name, value = ((f"gamma_{side}", gamma) if getattr(gamma, "shape", ())
                       else (f"t_{side}", temperature))
        raise ValueError(f"{name} must be a single number, got an array of shape {value.shape}")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be {'finite' if gamma == math.inf else '>= 0'}, got {gamma}")
    if not 0.0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    return float(gamma)


# The closed forms of the package are written once, over one of two namespaces: _FLOATS for a
# single point, _arrays() for a grid. They hold only what differs between math on floats and
# numpy on float64 arrays. numpy is imported when _arrays() is first called, by the first grid,
# so a process that solves only points never loads it. math raises where numpy returns inf or
# NaN (exp past 709, x / 0, log2(0)), so a guarded float form never evaluates the branch it
# discards; grid callers run under np.errstate(all="ignore").


def _float_exponent(kind, gamma, omega, temperature):
    # one bath's x = omega/T at a gap omega > 0, inf at T = 0, as for an uncoupled bath
    if gamma == 0.0 or temperature == 0.0:
        return math.inf
    x = omega / temperature
    if x == 0.0 and kind is _BOSON:
        raise ValueError(f"omega/T underflows to 0 at omega = {omega}, T = {temperature}")
    return x


def _float_expm1(x):
    try:
        return math.expm1(x)
    except OverflowError:  # numpy's value
        return math.inf


_FLOATS = SimpleNamespace(
    sqrt=math.sqrt, exp=math.exp, expm1=_float_expm1,
    # max and min of two with the builtins' choice: the first unless the second is greater (less)
    maximum=lambda a, b: b if b > a else a, minimum=lambda a, b: b if b < a else a,
    exponent=_float_exponent,
    select=lambda cond, if_true, if_false: if_true if cond else if_false,
    xlog2x=lambda x: x * math.log2(x) if x > 0.0 else 0.0,
)


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

    def exponent(kind, gamma, omega, temperature):
        # _float_exponent over an array of temperatures, at a gap or a column of them
        x = omega / temperature
        if not gamma:
            x.fill(math.inf)
        return x

    ops = SimpleNamespace(
        sqrt=np.sqrt, exp=np.exp,
        expm1=lambda x: np.expm1(x, out=x),  # in x's memory, which only the caller holds
        maximum=np.maximum, minimum=np.minimum,
        exponent=exponent,
        select=select,
        xlog2x=xlog2x,
    )
    return ops
