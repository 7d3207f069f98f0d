"""Independent checks of qjunction results, built from the Hamiltonian alone.

Nothing here imports qjunction: the reference diagonalizes the 4x4 system
Hamiltonian with ``numpy.linalg.eigh``, forms secular (Pauli) rates from the
sigma^x matrix elements of each qubit, and solves for the stationary state
with the matrix-tree (Kirchhoff) theorem in log space, which stays accurate
when rates span hundreds of decades. Concurrence comes from the Wootters
construction on the density matrix, mutual information from the spectra of
the density matrix and its marginals.

Every check returns None when the result is right, or a short reason.
"""

import itertools
import math

import numpy as np

# single-qubit operators in the basis (|d>, |u>); two-qubit basis
# |dd>, |du>, |ud>, |uu> with qubit 1 (left bath) first
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SY = np.array([[0.0, 1j], [-1j, 0.0]])
_SZ = np.diag([-1.0, 1.0])
_I2 = np.eye(2)
_SX1 = np.kron(_SX, _I2)
_SX2 = np.kron(_I2, _SX)
_SZZ = np.kron(_SZ, _I2) + np.kron(_I2, _SZ)
_XY = (np.kron(_SX, _SX) + np.kron(_SY, _SY)).real
_SYSY = np.kron(_SY, _SY)

# documented eigenstate labels 1..4 of qjunction: singlet, |dd>, |uu>, triplet
_S = 1.0 / math.sqrt(2.0)
_LABELS = np.array(
    [[0.0, _S, -_S, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, _S, _S, 0.0]]
)


def _arborescences(n: int):
    """Spanning trees directed into each root in turn, as (edge rows, edge cols)."""
    rows, cols = [], []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        for parents in itertools.product(range(n), repeat=n - 1):
            parent = dict(zip(others, parents))
            if any(i == p for i, p in parent.items()):
                continue
            ok = True
            for start in others:
                seen, node = set(), start
                while node != root:
                    if node in seen:
                        ok = False
                        break
                    seen.add(node)
                    node = parent[node]
                if not ok:
                    break
            if ok:
                # edge i -> parent(i) uses the rate W[parent(i), i]
                rows.append([parent[i] for i in others])
                cols.append(others)
    return np.array(rows), np.array(cols)


# grouped by root: every root of the 4-node graph has the same number of trees
_TREE_ROWS, _TREE_COLS = _arborescences(4)
_ASINH1 = math.asinh(1.0)
# qjunction documents that an occupation whose exponent omega/T passes 700
# clamps to its zero-temperature limit; currents below this size are that clamp
_CLAMP = math.exp(-700.0)


def _logsumexp(x: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis) if axis is not None else out.item()


class Spectrum:
    """Eigenbasis of H_S for one (epsilon, kappa), reordered to qjunction's labels."""

    def __init__(self, eps: float, kap: float):
        h = 0.5 * eps * _SZZ + 0.5 * kap * _XY
        energies, vecs = np.linalg.eigh(h)
        order = np.argmax((_LABELS @ vecs) ** 2, axis=1)
        self.energies = energies[order]
        self.vecs = vecs[:, order]
        elem = []
        for op in (_SX1, _SX2):
            m2 = (self.vecs.T @ op @ self.vecs) ** 2
            with np.errstate(divide="ignore"):
                # rounding leaves ~1e-33 on forbidden pairs; they are exactly zero
                elem.append(np.where(m2 > 1e-20, np.log(np.where(m2 > 1e-20, m2, 1.0)), -np.inf))
        self.log_elem = elem
        # gap[m, n] = E_n - E_m: energy released into the bath by the jump n -> m
        self.gap = self.energies[None, :] - self.energies[:, None]


def _log_bath_rates(kind: str, gamma: float, temperature: float, gap: np.ndarray):
    """log of the golden-rule rate for each jump gap (emission when gap > 0)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.abs(gap) / temperature if temperature > 0.0 else np.full(gap.shape, np.inf)
        x = np.where(gap == 0.0, np.inf, x)
        lg = math.log(gamma) if gamma > 0.0 else -np.inf
        if kind == "boson":
            emit = lg - np.log(-np.expm1(-x))
            absorb = lg - x - np.log(-np.expm1(-x))
        else:
            emit = lg - np.log1p(np.exp(-x))
            absorb = lg - x - np.log1p(np.exp(-x))
        out = np.where(gap > 0.0, emit, absorb)
    np.fill_diagonal(out, -np.inf)
    return out


class Reference:
    """Stationary populations, heat current and correlations for one query."""

    def __init__(self, spec: Spectrum, kind, gamma_left, gamma_right, t_left, t_right):
        with np.errstate(all="ignore"):
            self._solve(spec, kind, gamma_left, gamma_right, t_left, t_right)

    def _solve(self, spec, kind, gamma_left, gamma_right, t_left, t_right):
        ll = spec.log_elem[0] + _log_bath_rates(kind, gamma_left, t_left, spec.gap)
        lr = spec.log_elem[1] + _log_bath_rates(kind, gamma_right, t_right, spec.gap)
        self.ok = not (np.any(np.isnan(ll)) or np.any(np.isnan(lr))
                       or np.any(ll == np.inf) or np.any(lr == np.inf))
        if not self.ok:
            return
        lw = np.logaddexp(ll, lr)
        trees = np.sum(lw[_TREE_ROWS, _TREE_COLS], axis=1).reshape(4, -1)
        logp = _logsumexp(trees, axis=1)
        norm = _logsumexp(logp)
        if not np.isfinite(norm):
            self.ok = False
            return
        self.logp = logp - norm
        self.pops = np.exp(self.logp)
        # J_L = sum_{m,n} (E_m - E_n) W^L_mn p_n = -J_R in the steady state. The
        # sum cancels down from the size of its largest term, so take it over
        # the weaker bath and keep that size as the scale of the rounding error.
        j_l, top_l = _current(spec, ll, self.logp)
        j_r, top_r = _current(spec, lr, self.logp)
        self.current, top = (j_l, top_l) if top_l <= top_r else (-j_r, top_r)
        self.error_scale = math.exp(min(top, 709.0)) * (spec.energies.max() - spec.energies.min())
        rho = (spec.vecs * self.pops) @ spec.vecs.T
        self.concurrence = _wootters(rho)
        self.mutual_information = _mutual_information(rho)


def _current(spec: Spectrum, log_rates: np.ndarray, logp: np.ndarray):
    """Heat current into the system from one bath, and log of its largest term."""
    terms = log_rates + logp[None, :]
    top = float(np.max(terms))
    if top == -np.inf:
        return 0.0, top
    if top > 709.0:
        return math.inf, top
    return float(math.exp(top) * np.sum(-spec.gap * np.exp(terms - top))), top


def _wootters(rho: np.ndarray) -> float:
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    flipped = _SYSY @ rho.conj() @ _SYSY
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root).real, 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _entropy(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _mutual_information(rho: np.ndarray) -> float:
    r = rho.reshape(2, 2, 2, 2)
    return (_entropy(np.einsum("ijkj->ik", r)) + _entropy(np.einsum("ijil->jl", r))
            - _entropy(rho))


# -------------------------------------------------------------------------
# row checks. A point row is (t_left, t_right, p1, p2, p3, p4, J, C, Q, I, C_cl)
# and a system q is (epsilon, kappa, kind, gamma_left, gamma_right)


def invariant_failures(q, rows: np.ndarray) -> str | None:
    """Vectorized invariants over an array of point rows for one system."""
    eps, kap, kind, gl, gr = q
    if rows.size == 0:
        return None
    if not np.all(np.isfinite(rows)):
        return "non-finite value"
    tl, tr, p = rows[:, 0], rows[:, 1], rows[:, 2:6]
    j, c, disc, mi, ccl = rows[:, 6], rows[:, 7], rows[:, 8], rows[:, 9], rows[:, 10]
    if np.any(p < 0.0) or np.any(p > 1.0) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
        return "populations not a distribution"
    if np.any(ccl < -1e-12) or np.any(ccl > mi + 1e-12):
        return "classical correlation outside [0, I]"
    if np.any(np.abs(disc - (mi - ccl)) > 1e-12):
        return "discord != I - C_cl"
    if np.any((c < 0.0) | (c > 1.0)) or np.any((mi < -1e-12) | (mi > 2.0 + 1e-12)):
        return "concurrence or mutual information out of range"
    # the closed form cancels products of rates that grow like T / gap
    scale = max(gl, gr) * (eps + kap) * (1.0 + np.maximum(tl, tr) / min(abs(kap - eps), eps + kap))
    # second law: sigma = J_L (1/T_R - 1/T_L) >= 0, i.e. J_L follows T_L - T_R
    if np.any(j * np.sign(tl - tr) < -1e-9 * scale):
        return "negative entropy production"
    eq = tl == tr
    if np.any(eq):
        if np.any(np.abs(j[eq]) > 1e-12 * scale[eq]):
            return "nonzero current at equilibrium"
        gibbs = _gibbs(Spectrum(eps, kap).energies, tl[eq])
        if np.any(np.abs(p[eq] - gibbs) > 1e-9):
            return "equilibrium populations are not Gibbs"
    return None


def _gibbs(energies: np.ndarray, temps: np.ndarray) -> np.ndarray:
    shifted = energies[None, :] - energies.min()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        expo = np.where(temps[:, None] > 0.0, -shifted / temps[:, None],
                        np.where(shifted == 0.0, 0.0, -np.inf))
        w = np.exp(expo)
    return w / w.sum(axis=1, keepdims=True)


def _current_mismatch(q, ref: Reference, current: float) -> bool:
    eps, kap, kind, gl, gr = q
    tol = 1e-9 * abs(ref.current) + 1e-12 * ref.error_scale + _CLAMP * max(gl, gr) * (eps + kap)
    return abs(current - ref.current) > tol


def reference_failure(spec: Spectrum, q, row) -> str | None:
    """Compare one point row with the Hamiltonian reference."""
    eps, kap, kind, gl, gr = q
    ref = Reference(spec, kind, gl, gr, row[0], row[1])
    if not ref.ok or not math.isfinite(ref.current):
        return None  # no finite reference exists; the invariants still apply
    if np.max(np.abs(np.asarray(row[2:6]) - ref.pops)) > 1e-9:
        return "populations disagree with the Hamiltonian reference"
    if _current_mismatch(q, ref, row[6]):
        return "heat current disagrees with the Hamiltonian reference"
    if abs(row[7] - ref.concurrence) > 1e-7:
        return "concurrence disagrees with the Wootters construction"
    if abs(row[9] - ref.mutual_information) > 1e-8:
        return "mutual information disagrees with the density-matrix spectra"
    return None


def current_failure(spec: Spectrum, q, t_left, t_right, current) -> str | None:
    """Check one heat current (rectification rows) against the reference."""
    eps, kap, kind, gl, gr = q
    if not math.isfinite(current):
        return "non-finite value"
    ref = Reference(spec, kind, gl, gr, t_left, t_right)
    if not ref.ok or not math.isfinite(ref.current):
        return None
    if _current_mismatch(q, ref, current):
        return "heat current disagrees with the Hamiltonian reference"
    if current * math.copysign(1.0, t_left - t_right) < -1e-9 * max(gl, gr) * (eps + kap):
        return "negative entropy production"
    return None


def death_failure(kap: float, t_death: float) -> str | None:
    """Sudden death sits at kappa / asinh(1) for any epsilon, kind and coupling."""
    if not math.isfinite(t_death):
        return "non-finite value"
    if abs(t_death - kap / _ASINH1) > 1e-6:
        return "sudden-death temperature is not kappa / asinh(1)"
    return None
