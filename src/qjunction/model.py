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
"""

import math
from dataclasses import dataclass


class DegeneratePhysicsError(ValueError):
    """Raised for configurations whose steady state is ill-defined."""


@dataclass(frozen=True)
class SystemParams:
    """Junction parameters: qubit splitting ``epsilon`` and XY coupling ``kappa``.

    Both must be positive and finite, and distinct: at epsilon == kappa the
    1<->2 gap closes and a boson reservoir's occupation of that channel
    diverges.
    """

    epsilon: float
    kappa: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        if self.epsilon == self.kappa:
            raise DegeneratePhysicsError(
                f"degenerate spectrum: epsilon == kappa == {self.kappa}"
            )
