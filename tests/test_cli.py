import math

import pytest

from oracles import exact_boson_point
from qjunction import BathKind, SystemParams, solve_point
from qjunction.cli import main

POINT_HEADER = (
    "T_L,T_R,gamma_L,gamma_R,bath,epsilon,kappa,"
    "P1,P2,P3,P4,J_L,concurrence,discord,mutual_info,classical_corr"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_single_row_with_header(self, capsys):
        code, out, err = run_cli(capsys, "point", "--tl", "1.5", "--tr", "0.5")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == POINT_HEADER
        fields = lines[1].split(",")
        assert len(fields) == 16
        row = solve_point(SystemParams(0.2, 1.0), BathKind.BOSON, 1.0, 1.0, 1.5, 0.5)
        assert fields[0] == "1.5" and fields[1] == "0.5"
        assert fields[4] == "boson"
        assert float(fields[11]) == row.heat_current
        assert float(fields[12]) == row.concurrence
        assert float(fields[13]) == row.discord

    def test_round_trip_precision(self, capsys):
        # shortest round-trip floats: parsing the CSV recovers exact values
        _, out, _ = run_cli(capsys, "point", "--tl", "1.5", "--tr", "0.5",
                            "--bath", "spin", "--gl", "0.3")
        fields = out.splitlines()[1].split(",")
        row = solve_point(SystemParams(0.2, 1.0), BathKind.SPIN, 0.3, 1.0, 1.5, 0.5)
        for text, expected in zip(fields[7:11], (row.p1, row.p2, row.p3, row.p4)):
            assert float(text) == expected


class TestSweep:
    def test_row_count_and_ascending_variable(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--var", "tr", "--lo", "0.05",
                               "--hi", "1.5", "--n", "100", "--tl", "1.5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == POINT_HEADER
        assert len(lines) == 101
        t_rs = [float(line.split(",")[1]) for line in lines[1:]]
        assert t_rs == sorted(t_rs)
        assert t_rs[0] == 0.05 and t_rs[-1] == 1.5

    def test_var_tr_requires_tl(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--var", "tr", "--lo", "0.1",
                               "--hi", "1.0", "--n", "5")
        assert code == 2
        assert "--tl" in err

    def test_bias_grid_outside_window_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--var", "dt", "--lo", "-1.5",
                               "--hi", "0.5", "--n", "5", "--ta", "1.0")
        assert code == 2 and err != ""


class TestRect:
    def test_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "rect", "--ta", "1.0", "--lo", "0.1",
                               "--hi", "0.9", "--n", "5", "--gr", "0.05")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dT,J_forward,J_reverse"
        assert len(lines) == 6
        for line in lines[1:]:
            dt, jf, jr = (float(x) for x in line.split(","))
            assert 0.0 < dt < 1.0
            assert jf > 0.0 > jr


class TestDeath:
    def test_single_line_value(self, capsys):
        code, out, _ = run_cli(capsys, "death")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        label, value = lines[0].split(",")
        assert label == "T_death"
        assert float(value) == pytest.approx(1.0 / math.log(1.0 + math.sqrt(2.0)),
                                             abs=1e-5)

    def test_scales_with_kappa(self, capsys):
        _, out, _ = run_cli(capsys, "death", "--kappa", "2.0")
        assert float(out.split(",")[1]) == pytest.approx(
            2.0 / math.log(1.0 + math.sqrt(2.0)), abs=1e-5)

    def test_huge_kappa_stays_finite(self, capsys):
        code, out, err = run_cli(capsys, "death", "--kappa", "1e308")
        assert code == 0 and err == ""
        assert out == f"T_death,{1e308 / math.asinh(1.0)!r}\n"


class TestDeterminismAndOutput:
    def test_identical_invocations_byte_identical(self, capsys):
        argv = ("sweep", "--var", "ta", "--lo", "0.05", "--hi", "3.0", "--n", "40")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(capsys, "point", "--tl", "1.0", "--tr", "0.2")
        assert code == 0
        code = main(["point", "--tl", "1.0", "--tr", "0.2", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert target.read_bytes().decode("ascii") == out


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "point", "--tl", "1.0", "--tr", "0.5",
                               "--frequency", "3")
        assert code == 2 and err != ""

    def test_out_of_domain_value_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "point", "--tl", "1.0", "--tr", "0.5",
                               "--epsilon", "-1.0")
        assert code == 2
        assert "--epsilon" in err

    def test_negative_temperature_rejected(self, capsys):
        code, _, err = run_cli(capsys, "point", "--tl", "-0.5", "--tr", "0.5")
        assert code == 2
        assert "--tl" in err

    def test_degenerate_system_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "point", "--tl", "1.0", "--tr", "0.5",
                               "--epsilon", "0.5", "--kappa", "0.5")
        assert code == 3
        assert "degenerate" in err

    def test_frozen_junction_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "point", "--tl", "1.0", "--tr", "0.5",
                               "--gl", "0", "--gr", "0")
        assert code == 3 and err != ""

    def test_frozen_junction_death_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "death", "--gl", "0", "--gr", "0")
        assert code == 3 and out == ""
        assert err.startswith("qjunction: degenerate physics: ")

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("point", "--tl", "inf", "--tr", "0.5"),
        ("point", "--tl", "1e308", "--tr", "0.5", "--gl", "1e200"),
        # Gamma T / omega overflows: the rates themselves are not finite
        ("sweep", "--var", "tr", "--lo", "0.1", "--hi", "1.0", "--n", "5",
         "--tl", "1e308", "--gl", "1e10"),
        ("sweep", "--var", "ta", "--lo", "0.1", "--hi", "inf", "--n", "5"),
        ("rect", "--ta", "1e308", "--lo", "1e300", "--hi", "1e301", "--n", "5",
         "--gl", "1e10"),
        ("death", "--kappa", "inf"),
        ("point", "--tl", "1.0", "--tr", "0.5", "--epsilon", "inf"),
        ("death", "--kappa", "1.7e308"),  # kappa / asinh(1) overflows
    ])
    def test_non_finite_values_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("qjunction: ")

    def test_empty_rect_grid_rejected(self, capsys):
        code, out, err = run_cli(capsys, "rect", "--ta", "1.0", "--lo", "0.1",
                                 "--hi", "0.9", "--n", "0")
        assert code == 2 and out == ""
        assert "--n" in err


class TestLimitPoints:
    def test_zero_temperature_point(self, capsys):
        code, out, _ = run_cli(capsys, "point", "--tl", "0", "--tr", "0")
        assert code == 0
        fields = out.splitlines()[1].split(",")
        assert fields[7:11] == ["1.0", "0.0", "0.0", "0.0"]
        assert fields[12] == "1.0"  # concurrence
        assert fields[13] == "1.0"  # discord

    def test_spin_bath_changes_output(self, capsys):
        _, boson_out, _ = run_cli(capsys, "point", "--tl", "1.5", "--tr", "0.5")
        _, spin_out, _ = run_cli(capsys, "point", "--tl", "1.5", "--tr", "0.5",
                                 "--bath", "spin")
        assert boson_out != spin_out
        assert spin_out.splitlines()[1].split(",")[4] == "spin"


class TestHugeCouplings:
    # Gamma_L = Gamma_R = 1e300: J is linear in the coupling scale, but
    # products of two rates overflow unless the channel is rescaled first
    COUPLINGS = ("--gl", "1e300", "--gr", "1e300")

    def test_point_matches_exact_evaluation(self, capsys):
        code, out, err = run_cli(capsys, "point", "--tl", "1.5", "--tr", "0.5",
                                 *self.COUPLINGS)
        assert code == 0 and err == ""
        fields = [float(x) for x in out.splitlines()[1].split(",")[7:12]]
        pops, current = exact_boson_point(0.2, 1.0, 1e300, 1e300, 1.5, 0.5)
        assert fields[:4] == pytest.approx(pops, abs=1e-12)
        assert fields[4] == pytest.approx(current, rel=1e-12)

    def test_rect_matches_exact_evaluation(self, capsys):
        code, out, err = run_cli(capsys, "rect", "--ta", "1.0", "--lo", "0.1",
                                 "--hi", "0.9", "--n", "5", *self.COUPLINGS)
        assert code == 0 and err == ""
        lines = out.splitlines()[1:]
        assert len(lines) == 5
        for line in lines:
            dt, forward, reverse = (float(x) for x in line.split(","))
            hot, cold = 1.0 + dt, 1.0 - dt
            assert forward == pytest.approx(
                exact_boson_point(0.2, 1.0, 1e300, 1e300, hot, cold)[1], rel=1e-12)
            assert reverse == pytest.approx(
                exact_boson_point(0.2, 1.0, 1e300, 1e300, cold, hot)[1], rel=1e-12)
