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
"""

import math
from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class EigenSystem:
    """Spectrum (-kappa, -epsilon, epsilon, kappa) and the two channel gaps.

    ``omega21`` = E_2 - E_1 = kappa - epsilon may be negative (epsilon > kappa
    puts |2> below |1>); ``omega31`` = E_3 - E_1 = kappa + epsilon is always
    positive. By symmetry E_4 - E_3 = omega21 and E_4 - E_2 = omega31, so the
    junction has exactly two distinct transition frequencies.
    """

    energies: tuple[float, float, float, float]
    omega21: float
    omega31: float


@dataclass(frozen=True)
class Transition:
    """Allowed eigenstate pair (m, n) with per-bath squared matrix elements."""

    m: int
    n: int
    s2_left: float = 0.5
    s2_right: float = 0.5


#: The four sigma^x-connected pairs; 1<->4 and 2<->3 are forbidden.
CHANNEL_TABLE: tuple[Transition, ...] = (
    Transition(1, 2),
    Transition(1, 3),
    Transition(2, 4),
    Transition(3, 4),
)


def eigensystem(params: SystemParams) -> EigenSystem:
    """Diagonalize the two-qubit Hamiltonian analytically."""
    eps, kap = params.epsilon, params.kappa
    return EigenSystem(
        energies=(-kap, -eps, eps, kap),
        omega21=kap - eps,
        omega31=kap + eps,
    )


def density_matrix_uncoupled(pops) -> np.ndarray:
    """Steady-state density matrix in the product basis |dd>, |du>, |ud>, |uu>.

    ``pops`` holds the eigenstate populations (P1, P2, P3, P4), assumed
    normalized. The eigenbasis-diagonal state turns into an X-form matrix:
    corners P2 and P3, and a central block mixing the singlet and triplet
    populations,

        [[ (P1+P4)/2, (P4-P1)/2 ],
         [ (P4-P1)/2, (P1+P4)/2 ]].

    Its eigenvalues are exactly {P2, P1, P4, P3}.
    """
    p1, p2, p3, p4 = (float(x) for x in pops)
    c = 0.5 * (p1 + p4)
    d = 0.5 * (p4 - p1)
    return np.array(
        [
            [p2, 0.0, 0.0, 0.0],
            [0.0, c, d, 0.0],
            [0.0, d, c, 0.0],
            [0.0, 0.0, 0.0, p3],
        ]
    )


def ground_state_index(params: SystemParams) -> int:
    """1-based label of the lowest-energy eigenstate (1 if kappa > epsilon)."""
    energies = eigensystem(params).energies
    return int(np.argmin(energies)) + 1
