"""Golden CLI corpus: the exact stdout of a fixed set of invocations.

Each case runs twice in-process and must reproduce its pinned file under
``tests/golden`` byte for byte. The cases cover all four subcommands, both
bath kinds, inverted splittings (epsilon > kappa), T = 0, one-sided
Gamma = 0, T_L = T_R, a separable state and the edges of the float range.
A change that moves any output, even by an ulp, shows here; a deliberate
one rewrites the file with ``python -m qjunction.cli <argv>``.
"""

from pathlib import Path

import pytest

from qjunction.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "point_boson": ["point", "--tl", "1.5", "--tr", "0.5"],
    "point_spin_inverted": ["point", "--bath", "spin", "--epsilon", "1.0", "--kappa", "0.2",
                            "--tl", "2.0", "--tr", "0.3", "--gl", "0.5"],
    "point_zero_temperature": ["point", "--epsilon", "0.5", "--kappa", "0.3",
                               "--tl", "0", "--tr", "0.8"],
    "point_one_sided": ["point", "--bath", "spin", "--tl", "1.2", "--tr", "0.4", "--gr", "0"],
    # T_L = T_R with unequal couplings, where the two occupations are equal
    # and J is 0.0; a hot separable state, whose
    # concurrence is clamped to 0; an inverted boson junction with Gamma_L = 0;
    # a spin bath at T_R = 0
    "point_equal_temperatures": ["point", "--tl", "1.3", "--tr", "1.3", "--gl", "0.37",
                                 "--gr", "2.9"],
    "point_hot_separable": ["point", "--tl", "5", "--tr", "4"],
    "point_inverted_boson_one_sided": ["point", "--epsilon", "1.0", "--kappa", "0.2",
                                       "--gl", "0", "--tl", "1.5", "--tr", "0.5"],
    "point_spin_zero_right": ["point", "--bath", "spin", "--tl", "1.0", "--tr", "0"],
    "sweep_ta_boson": ["sweep", "--var", "ta", "--lo", "0", "--hi", "3", "--n", "25"],
    "sweep_tr_spin_inverted": ["sweep", "--var", "tr", "--bath", "spin", "--epsilon", "1.0",
                               "--kappa", "0.2", "--lo", "0.01", "--hi", "1.5", "--n", "20",
                               "--tl", "1.5"],
    "sweep_dt_one_sided": ["sweep", "--var", "dt", "--lo", "-0.9", "--hi", "0.9", "--n", "19",
                           "--ta", "1.0", "--gl", "0"],
    "rect_boson": ["rect", "--ta", "1.0", "--lo", "0.1", "--hi", "0.9", "--n", "9",
                   "--gr", "0.05"],
    "rect_spin_inverted": ["rect", "--bath", "spin", "--epsilon", "2.0", "--kappa", "0.5",
                           "--ta", "1.5", "--lo", "0.05", "--hi", "1.4", "--n", "8"],
    "death_boson": ["death"],
    "death_spin_inverted": ["death", "--bath", "spin", "--epsilon", "1.5", "--kappa", "0.07",
                            "--gl", "0.76", "--gr", "8.5"],
    "death_one_sided": ["death", "--kappa", "2.0", "--gl", "0"],
    # domain edges: omega/T underflows beside an uncoupled bath; a bath at T = 1e308,
    # whose rates would sum past 2**1020; couplings and temperatures 600 decades apart
    "sweep_tr_uncoupled_to_ceiling": ["sweep", "--var", "tr", "--epsilon", "0.99",
                                      "--kappa", "1.0", "--tl", "0.5", "--lo", "0",
                                      "--hi", "1e308", "--n", "5", "--gr", "0"],
    "sweep_tr_rescaled_over_sum": ["sweep", "--var", "tr", "--tl", "1e308", "--lo", "0.5",
                                   "--hi", "4.0", "--n", "6", "--epsilon", "6.8145",
                                   "--kappa", "1.6143", "--gl", "0.2039", "--gr", "10.58"],
    "point_inverted_extreme_ratio": ["point", "--epsilon", "1.0", "--kappa", "0.2",
                                     "--gl", "1.0", "--gr", "1e-300", "--tl", "1e308",
                                     "--tr", "1.0"],
    "sweep_ta_spin_extreme_couplings": ["sweep", "--var", "ta", "--bath", "spin",
                                        "--gl", "1e300", "--gr", "1e-300", "--lo", "0",
                                        "--hi", "1e300", "--n", "6"],
    "rect_spin_huge_couplings": ["rect", "--bath", "spin", "--ta", "1.0", "--lo", "0.1",
                                 "--hi", "0.9", "--n", "5", "--gl", "1e300", "--gr", "1e300"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(capsys, name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="ascii")
    for _ in range(2):
        assert main(CASES[name]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == expected
