"""Two interacting qubits in a magnetic field with an XY coupling.

The system Hamiltonian (k_B = hbar = 1)

    H_S = (epsilon/2) (sigma_1^z + sigma_2^z)
        + (kappa/2)   (sigma_1^x sigma_2^x + sigma_1^y sigma_2^y)

diagonalizes analytically in the singlet/triplet basis

    |1> = (|du> - |ud>)/sqrt(2)   E_1 = -kappa
    |2> = |dd>                    E_2 = -epsilon
    |3> = |uu>                    E_3 = +epsilon
    |4> = (|du> + |ud>)/sqrt(2)   E_4 = +kappa

Labels are fixed by this list for either sign of kappa - epsilon; the
ground state is whichever label has the lowest energy. Each qubit couples
to its reservoir through sigma^x, which connects exactly the pairs
1<->2, 1<->3, 2<->4 and 3<->4 with squared matrix element 1/2 per bath
(the bare elements differ in sign between the two baths, e.g. -|1><2| on
the left versus +|1><2| on the right, but only the modulus squared enters
the transition rates). The pairs 1<->4 and 2<->3 are never connected.
Since E_2 - E_1 = E_4 - E_3 = kappa - epsilon and E_3 - E_1 = E_4 - E_2 =
kappa + epsilon, the junction has exactly two transition frequencies,
|kappa - epsilon| and kappa + epsilon.

``SystemParams`` and ``experiments.SweepSpec`` are immutable records on the
small base ``_Record`` below: the standard library's record decorator imports
``inspect`` and ``ast``, about 8 ms of each CLI process. A record's fields are
its ``__slots__``, set once by its ``__init__``, which validates them.
"""

import math


class DegeneratePhysicsError(ValueError):
    """Raised for configurations whose steady state is ill-defined."""


class _Record:
    # an immutable record whose fields are the subclass's __slots__ (also its __match_args__)
    __slots__ = ()

    def _fields(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


_set = object.__setattr__  # how a record's __init__ sets its fields


class SystemParams(_Record):
    """Junction parameters: qubit splitting ``epsilon`` and XY coupling ``kappa``.

    Both must be positive and finite, and distinct: at epsilon == kappa the
    1<->2 gap closes and a boson reservoir's occupation of that channel
    diverges.
    """

    __slots__ = __match_args__ = ("epsilon", "kappa")

    def __init__(self, epsilon: float, kappa: float):
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        if not 0.0 < kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {kappa}")
        if epsilon == kappa:
            raise DegeneratePhysicsError(f"degenerate spectrum: epsilon == kappa == {kappa}")
        _set(self, "epsilon", epsilon)
        _set(self, "kappa", kappa)
