"""End-to-end acceptance checks for the junction simulator.

One check per numbered criterion, each printing a single pass/fail line
(run ``pytest tests/test_acceptance.py -v -s`` to see them inline).
Checks 08 and 11 assert the claims of the abstract and the README at
readings the documented model can reach, and still print the literature
readings they were first written against:

- 08 asserts the spin-bath reversal of criterion 07's ordering at the
  README splitting (epsilon = 0.2, kappa = 1): concurrence exceeds discord
  on one run of points from the coldest T_R, discord leads at the hot end.
  It prints max(C - Q) and the largest P1:P4 ratio at the inverted splitting
  (epsilon = 1, kappa = 0.2), where the model cannot entangle the steady
  state, and asserts the separability bound behind that.
- 11 asserts the direction of the three bias statements of the abstract on
  the kappa = 2 bias sweep: even degradation for equal couplings, growth
  toward an interior maximum when weakly linked to the hot bath, monotone
  suppression when strongly linked to it. It prints Q(-1.9)/Q(+1.9), which
  a literature reading required to exceed 5; no source in this repository
  gives a size for the effect.

The measured values are printed either way so the outcome is auditable.
"""

import math

import numpy as np

from conftest import measures, populations, random_weights
from oracles import (
    classical_correlation_grid,
    density_matrix_uncoupled,
    hamiltonian_route,
    wootters_concurrence,
)
from qjunction import (
    BathKind,
    SweepSpec,
    SweepVariable,
    SystemParams,
    rectification_scan,
    run_sweep,
    solve_point,
    sudden_death_temperature,
)
from qjunction.cli import main

BASE = SystemParams(epsilon=0.2, kappa=1.0)
T_DEATH_UNIT = 1.134592657106511  # 1 / ln(1 + sqrt(2))
J_REFERENCE = 0.19944354433419976  # independent two-channel evaluation, (1.5, 0.5)

EXPECTED_POINT_HEADER = (
    "T_L,T_R,gamma_L,gamma_R,bath,epsilon,kappa,"
    "P1,P2,P3,P4,J_L,concurrence,discord,mutual_info,classical_corr"
)
EXPECTED_RECT_HEADER = "dT,J_forward,J_reverse"

TEMPERATURES = (0.1, 0.3, 0.5, 1.0, 3.0)
COUPLING_RATIOS = (1.0, 5.0, 20.0, 0.2, 0.05)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _gibbs(params: SystemParams, temperature: float) -> np.ndarray:
    eps, kap = params.epsilon, params.kappa
    energies = np.array([-kap, -eps, eps, kap])
    weights = np.exp(-energies / temperature)
    return weights / weights.sum()


def _random_point(rng):
    eps = rng.uniform(0.05, 2.0)
    kap = rng.uniform(0.05, 2.0)
    while abs(kap - eps) < 0.05:
        kap = rng.uniform(0.05, 2.0)
    return (SystemParams(eps, kap), rng.uniform(0.02, 2.0), rng.uniform(0.02, 2.0),
            rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0))


def test_criterion_01_equilibrium_gibbs():
    worst = 0.0
    for temperature in TEMPERATURES:
        for ratio in COUPLING_RATIOS:
            for kind in BathKind:
                row = solve_point(BASE, kind, ratio, 1.0, temperature, temperature)
                gap = np.array(row[2:6]) - _gibbs(BASE, temperature)
                worst = max(worst, np.max(np.abs(gap)))
    _report(1, "equilibrium Gibbs state", worst < 1e-12,
            f"max |P - Gibbs| = {worst:.2e} over 5x5x2 grid (tol 1e-12)")


def test_criterion_02_oracle_equivalence():
    # the steady state and J_L against the Hamiltonian route, which shares no
    # code with the solver: numerical eigenbasis, sigma^x matrix elements,
    # its own golden-rule rates and the null space of their generator
    rng = np.random.default_rng(20260810)
    worst_pop = 0.0
    worst_j = 0.0
    worst_conc = 0.0
    for i in range(1000):
        params, gl, gr, tl, tr = _random_point(rng)
        kind = BathKind.BOSON if i % 2 == 0 else BathKind.SPIN
        row = solve_point(params, kind, gl, gr, tl, tr)
        route, current = hamiltonian_route(params.epsilon, params.kappa, kind.value,
                                           gl, gr, tl, tr)
        worst_pop = max(worst_pop, np.max(np.abs(np.array(row[2:6]) - route)))
        worst_j = max(worst_j, abs(row.heat_current - current))
        worst_conc = max(worst_conc, abs(row.concurrence - wootters_concurrence(
            density_matrix_uncoupled(row[2:6]))))
    ok = worst_pop < 1e-12 and worst_j < 1e-12 and worst_conc < 1e-10
    _report(2, "independent steady-state and entanglement routes", ok,
            f"1000 draws: populations {worst_pop:.2e}, J_L {worst_j:.2e} (tol 1e-12), "
            f"concurrence {worst_conc:.2e} (tol 1e-10)")


def test_criterion_03_zero_current_at_equilibrium():
    worst = 0.0
    for temperature in TEMPERATURES:
        for ratio in COUPLING_RATIOS:
            for kind in BathKind:
                row = solve_point(BASE, kind, ratio, 1.0, temperature, temperature)
                worst = max(worst, abs(row.heat_current))
    _report(3, "equilibrium current vanishes", worst < 1e-14,
            f"max |J_L| = {worst:.2e} including asymmetric couplings (tol 1e-14)")


def test_criterion_04_second_law():
    rng = np.random.default_rng(4)
    violations = 0
    for i in range(1000):
        params, gl, gr, tl, tr = _random_point(rng)
        while abs(tl - tr) < 1e-3:
            tr = rng.uniform(0.05, 3.0)
        kind = BathKind.BOSON if i % 2 == 0 else BathKind.SPIN
        j = solve_point(params, kind, gl, gr, tl, tr).heat_current
        if math.copysign(1.0, j) != math.copysign(1.0, tl - tr):
            violations += 1
    _report(4, "heat flows from hot to cold", violations == 0,
            f"{violations} sign violations in 1000 nonequilibrium draws, both kinds")


def test_criterion_05_reference_current_value():
    j = solve_point(BASE, BathKind.BOSON, 1.0, 1.0, 1.5, 0.5).heat_current
    err = abs(j - J_REFERENCE)
    _report(5, "pinned nonequilibrium current", err < 1e-9,
            f"J_L = {j!r}, |J - {J_REFERENCE}| = {err:.2e} (tol 1e-9)")


def test_criterion_06_sudden_death_threshold():
    worst = 0.0
    for eps, kap in ((0.1, 1.0), (0.2, 1.0), (0.5, 1.0), (0.2, 2.0)):
        td = sudden_death_temperature(SystemParams(eps, kap), BathKind.BOSON)
        worst = max(worst, abs(td - kap * T_DEATH_UNIT))
    td_base = sudden_death_temperature(BASE, BathKind.BOSON)
    row = solve_point(BASE, BathKind.BOSON, 1.0, 1.0, td_base, td_base)
    ground_gap = abs(row.p1 - 0.5)
    ok = worst < 1e-6 and ground_gap < 0.01
    _report(6, "entanglement sudden death", ok,
            f"max |T_d - kappa/ln(1+sqrt(2))| = {worst:.2e} (tol 1e-6); "
            f"|P1(T_d) - 1/2| = {ground_gap:.4f} (tol 0.01)")


def test_criterion_07_hot_left_boson_ordering():
    spec = SweepSpec(params=BASE, kind=BathKind.BOSON, gamma_left=1.0,
                     gamma_right=1.0, variable=SweepVariable.T_RIGHT,
                     lo=0.05, hi=1.5, count=100, t_left=1.5)
    rows = run_sweep(spec)
    margin = min(row.discord - row.concurrence for row in rows)
    _report(7, "discord exceeds concurrence (boson, hot left)", margin > 0.0,
            f"min(Q - C) = {margin:.4f} over 100-point T_R sweep in [0.05, 1.5]")


def _spin_hot_left_sweep(params):
    return run_sweep(SweepSpec(params=params, kind=BathKind.SPIN, gamma_left=1.0,
                               gamma_right=1.0, variable=SweepVariable.T_RIGHT,
                               lo=0.01, hi=1.5, count=100, t_left=1.5))


def test_criterion_08_hot_left_spin_ordering():
    # spin reservoirs, hot left, README splitting: the reverse of criterion
    # 07's boson ordering, C > Q on one run from the coldest T_R that ends
    # below T_R = 0.5, Q > C hot
    rows = _spin_hot_left_sweep(BASE)
    lead = [i for i, row in enumerate(rows) if row.concurrence > row.discord]
    cold_run = bool(lead) and lead == list(range(len(lead)))
    hot_end = rows[-1].discord > rows[-1].concurrence
    # the literature reading, inverted splitting (epsilon = 1, kappa = 0.2):
    # every steady state has P2 P3 = P1 P4, so C = max(0, |P1 - P4| -
    # 2 sqrt(P1 P4)) is zero unless max(P1, P4) / min(P1, P4) exceeds
    # (1 + sqrt 2)^2 = 3 + 2 sqrt 2, which this sweep never reaches
    inverted = _spin_hot_left_sweep(SystemParams(epsilon=1.0, kappa=0.2))
    ratios = [max(r.p1, r.p4) / min(r.p1, r.p4) for r in inverted]
    bound = 3.0 + 2.0 * math.sqrt(2.0)
    separable = all(r.concurrence == 0.0 for r, x in zip(inverted, ratios) if x < bound)
    best = max(r.concurrence - r.discord for r in inverted)
    ok = cold_run and rows[lead[-1]].t_right < 0.5 and hot_end and separable
    edge = f"T_R <= {rows[lead[-1]].t_right:.3f}" if lead else "none"
    _report(8, "concurrence leads discord at the cold end (spin, hot left)", ok,
            f"{len(lead)} points with C > Q ({edge}), one run from the coldest "
            f"T_R = {cold_run}; hottest Q - C = "
            f"{rows[-1].discord - rows[-1].concurrence:.4f}; inverted splitting: "
            f"max(C - Q) = {best:.4f}, max P1:P4 = {max(ratios):.3f} against "
            f"3 + 2 sqrt 2 = {bound:.3f}, C = 0 below it = {separable}")


def test_criterion_09_rectification():
    grid = np.linspace(0.0475, 0.95, 20)
    asym = rectification_scan(BASE, BathKind.BOSON, 1.0, 0.05, 1.0, grid)
    ordering = all(abs(p.j_reverse) > abs(p.j_forward) for p in asym)
    sym = rectification_scan(BASE, BathKind.BOSON, 1.0, 1.0, 1.0, grid)
    mismatch = max(abs(abs(p.j_forward) - abs(p.j_reverse)) for p in sym)
    ok = ordering and mismatch < 1e-12
    _report(9, "thermal rectification", ok,
            f"asymmetric: |J(-dT)| > |J(+dT)| at all 20 biases = {ordering}; "
            f"symmetric mismatch = {mismatch:.2e} (tol 1e-12)")


def test_criterion_10_correlation_bias_asymmetry():
    worst_even = 0.0
    for dt in np.linspace(0.05, 0.9, 18):
        forward = solve_point(BASE, BathKind.BOSON, 1.0, 1.0, 1.0 + dt, 1.0 - dt)
        reverse = solve_point(BASE, BathKind.BOSON, 1.0, 1.0, 1.0 - dt, 1.0 + dt)
        worst_even = max(worst_even,
                         abs(forward.concurrence - reverse.concurrence),
                         abs(forward.discord - reverse.discord))
    negative_bias = solve_point(BASE, BathKind.BOSON, 1.0, 0.05, 0.1, 1.9)
    positive_bias = solve_point(BASE, BathKind.BOSON, 1.0, 0.05, 1.9, 0.1)
    ok = (worst_even < 1e-12 and negative_bias.concurrence > 0.0
          and positive_bias.concurrence == 0.0)
    _report(10, "bias-reversal behaviour of the correlations", ok,
            f"symmetric junction evenness = {worst_even:.2e} (tol 1e-12); "
            f"asymmetric C(-0.9) = {negative_bias.concurrence:.4f} > 0, "
            f"C(+0.9) = {positive_bias.concurrence}")


def test_criterion_11_strong_coupling_bias_sweep():
    # kappa = 2 junction at mean temperature 1 with 20:1 coupling asymmetry;
    # the bias dT below is the full difference T_L - T_R (temperatures
    # T_a +- dT/2), the only reading that keeps both reservoirs physical
    # over dT in (-2, 2)
    params = SystemParams(epsilon=0.2, kappa=2.0)
    spec = SweepSpec(params=params, kind=BathKind.BOSON, gamma_left=1.0,
                     gamma_right=0.05, variable=SweepVariable.DELTA_T,
                     lo=-0.975, hi=0.975, count=79, t_avg=1.0)
    rows = run_sweep(spec)
    discords = [row.discord for row in rows]
    biases = [row.t_left - row.t_right for row in rows]
    maxima = [biases[i] for i in range(1, len(rows) - 1)
              if discords[i] > discords[i - 1] and discords[i] > discords[i + 1]]
    interior = [b for b in maxima if -2.0 < b < -1.0]
    # the grid's middle point sits at bias ~1e-16, not exactly 0
    zero = min(range(len(rows)), key=lambda i: abs(biases[i]))
    peak = discords.index(max(discords))

    def q(gamma_right, t_left, t_right):
        return solve_point(params, BathKind.BOSON, 1.0, gamma_right, t_left, t_right).discord

    # equal couplings: correlations degrade under either bias polarity
    q0_sym = q(1.0, 1.0, 1.0)
    q_sym = (q(1.0, 0.05, 1.95), q(1.0, 1.95, 0.05))
    degrades = max(q_sym) < q0_sym
    # weakly linked to the hot bath (dT < 0): Q persists above Q(0) and
    # grows from zero bias up to the interior maximum
    q0 = q(0.05, 1.0, 1.0)
    persists = all(d > q0 for d in discords[:zero])
    grows = biases[peak] in interior and all(
        discords[i] > discords[i + 1] for i in range(peak, zero))
    # strongly linked to the hot bath (dT > 0): Q falls all the way, and
    # further than in the symmetric junction
    q_negative, q_positive = q(0.05, 0.05, 1.95), q(0.05, 1.95, 0.05)
    falls = all(discords[i] > discords[i + 1] for i in range(zero, len(rows) - 1))
    suppressed = q_positive / q0 < q_sym[1] / q0_sym
    ok = degrades and persists and grows and falls and suppressed
    _report(11, "strong-coupling bias phenomenology", ok,
            f"equal couplings Q(-1.9)/Q(0) = {q_sym[0] / q0_sym:.4f}, "
            f"Q(+1.9)/Q(0) = {q_sym[1] / q0_sym:.4f}; 1:0.05 couplings: "
            f"Q(dT < 0) > Q(0) = {persists}, rising to the interior discord "
            f"maxima at bias {interior} = {grows}, falling over dT > 0 = {falls}, "
            f"Q(+1.9)/Q(0) = {q_positive / q0:.4f}; "
            f"Q(-1.9)/Q(+1.9) = {q_negative / q_positive:.4f} "
            f"(a literature reading asked for > 5)")


def test_criterion_12_cold_limit_measure_agreement():
    cold = solve_point(BASE, BathKind.BOSON, 1.0, 1.0, 0.05, 0.05)
    gap = abs(cold.concurrence - cold.discord)
    zero = solve_point(BASE, BathKind.BOSON, 1.0, 1.0, 0.0, 0.0)
    exact = zero.concurrence == 1.0 and zero.discord == 1.0
    _report(12, "cold-limit agreement of the measures", gap < 0.01 and exact,
            f"|C - Q| = {gap:.2e} at T = 0.05 (tol 0.01); "
            f"T = 0 limit gives C = {zero.concurrence}, Q = {zero.discord}")


def test_criterion_13_measurement_grid_oracle():
    # the equatorial measurement sits on the grid, so the scan can never do
    # worse than the closed form, and on a steady state no axis does better
    worst = 0.0
    for weights in random_weights(np.random.default_rng(13), 200):
        closed = measures(*weights).classical_correlation
        grid = classical_correlation_grid(populations(*weights), n_theta=200)
        worst = max(worst, abs(closed - grid))
    _report(13, "closed-form classical correlation vs measurement grid", worst <= 1e-9,
            f"max |closed - grid| = {worst:.2e} over 200 drawn steady states (tol 1e-9)")


def test_criterion_14_cli_determinism(capsys, tmp_path):
    argv = ["sweep", "--var", "tr", "--lo", "0.05", "--hi", "1.5", "--n", "25",
            "--tl", "1.5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert main(["rect", "--ta", "1.0", "--lo", "0.1", "--hi", "0.9", "--n", "4"]) == 0
    rect_out = capsys.readouterr().out
    out_path = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    ok = (first == second
          and first.splitlines()[0] == EXPECTED_POINT_HEADER
          and rect_out.splitlines()[0] == EXPECTED_RECT_HEADER
          and out_path.read_bytes().decode("ascii") == first)
    _report(14, "CLI determinism and headers", ok,
            "byte-identical repeat runs; headers match the documented strings")
