"""Golden CLI corpus: the exact stdout of a fixed set of invocations.

Each case runs twice in-process and must reproduce its pinned file under
``tests/golden`` byte for byte. The cases cover all four subcommands, both
bath kinds, inverted splittings (epsilon > kappa), T = 0 and one-sided
Gamma = 0. A change that moves any output, even by an ulp, shows here; a
deliberate one rewrites the file with ``python -m qjunction.cli <argv>``.
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(capsys, name):
    expected = (GOLDEN / f"{name}.csv").read_text(encoding="ascii")
    for _ in range(2):
        assert main(CASES[name]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == expected
