"""Command-line interface: formats, exit codes, round trips, stability."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from lexflow.cli import decimal_string, main, parse_instance, solution_from_document
from lexflow import balanced_flow, verify_certificate

F = Fraction

D4_JSON = """\
{
  "nodes": [
    {"id": "s", "d": 4},
    {"id": "a", "d": 0},
    {"id": "b", "d": 0},
    {"id": "t", "d": -4}
  ],
  "arcs": [
    {"id": "sa", "tail": "s", "head": "a", "capacity": 1},
    {"id": "sb", "tail": "s", "head": "b", "capacity": 3},
    {"id": "at", "tail": "a", "head": "t", "capacity": 2},
    {"id": "bt", "tail": "b", "head": "t", "capacity": 2}
  ]
}
"""

D4_TEXT = """\
c diamond instance
n s 4
n a 0
n b 0
n t -4
a sa s a 1
a sb s b 3
a at a t 2
a bt b t 2
"""


@pytest.fixture
def d4_json(tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(D4_JSON)
    return str(path)


class TestParsing:
    def test_json_and_text_agree(self):
        assert parse_instance(D4_JSON) == parse_instance(D4_TEXT)

    def test_json_decimal_strings_are_exact(self):
        p = parse_instance(
            '{"nodes": [{"id": "u", "d": 0.1}, {"id": "w", "d": "-0.1"}],'
            ' "arcs": [{"id": "e", "tail": "u", "head": "w", "capacity": "5/2"}]}'
        )
        assert p.balances["u"] == F(1, 10)
        assert p.arcs[0].capacity == F(5, 2)

    def test_text_diagnostics_carry_line_numbers(self, capsys):
        bad = "n u 1\nn w -1\nbogus line here\n"
        from lexflow.cli import CliError

        with pytest.raises(CliError, match="line 3"):
            parse_instance(bad)

    def test_json_diagnostics_name_the_entry(self):
        from lexflow.cli import CliError

        with pytest.raises(CliError, match=r"nodes\[1\]"):
            parse_instance('{"nodes": [{"id": "u", "d": 0}, {"id": "w"}], "arcs": []}')


class TestCheck:
    def test_weakly_feasible_only(self, d4_json, capsys):
        code = main(["check", d4_json])
        out = capsys.readouterr().out
        assert code == 11
        assert out.splitlines()[0] == "WEAKLY_FEASIBLE_ONLY"
        assert "witness: s b" in out
        assert "deficiency: 4" in out
        assert "capacity: 3" in out

    def test_feasible(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        doc = json.loads(D4_JSON)
        doc["nodes"][0]["d"] = 2
        doc["nodes"][3]["d"] = -2
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "FEASIBLE"

    def test_infeasible_weakly(self, tmp_path, capsys):
        path = tmp_path / "fatal.txt"
        path.write_text("n u -1\nn w 1\na uw u w 2\n")
        assert main(["check", str(path)]) == 10
        assert capsys.readouterr().out.splitlines()[0] == "INFEASIBLE_WEAKLY"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [{"id": "u", "d": 1}], "arcs": []}')
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_diamond_document(self, d4_json, capsys):
        assert main(["solve", d4_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "weakly_feasible_only"
        assert doc["r0"] == "4/3"
        assert doc["flow"] == {
            "sa": "4/3",
            "sb": "8/3",
            "at": "4/3",
            "bt": "8/3",
        }
        assert doc["sorted_ratios"] == ["4/3", "4/3", "8/9", "2/3"]
        assert [lv["cut"] for lv in doc["certificate"]["levels"]] == [
            ["s", "b"],
            ["s"],
            ["a"],
        ]

    def test_flow_keys_in_input_arc_order(self, d4_json, capsys):
        main(["solve", d4_json])
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["flow"]) == ["sa", "sb", "at", "bt"]

    def test_single_arc(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("n u 5\nn w -5\na uw u w 2\n")
        assert main(["solve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flow"] == {"uw": "5"}
        assert doc["r0"] == "5/2"

    def test_zero_balances(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("n u 0\nn w 0\na uw u w 1\n")
        assert main(["solve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flow"] == {"uw": "0"}
        assert doc["r0"] == "0" and doc["status"] == "feasible"
        assert doc["certificate"]["levels"] == []
        assert doc["certificate"]["zero_tail"] == ["uw"]

    def test_bare_decimals_flag_defaults_to_six_places(self, d4_json, capsys):
        assert main(["solve", d4_json, "--decimals"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["decimals"]["r0"] == "1.333333"

    def test_byte_stable(self, d4_json, capsys):
        main(["solve", d4_json])
        first = capsys.readouterr().out
        main(["solve", d4_json])
        assert capsys.readouterr().out == first

    def test_mode_flag(self, d4_json, capsys):
        assert main(["solve", d4_json, "--mode", "dichotomy"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flow"]["sa"] == "4/3"

    def test_decimals_appended_not_replacing(self, d4_json, capsys):
        assert main(["solve", d4_json, "--decimals", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r0"] == "4/3"
        assert doc["decimals"]["r0"] == "1.3333"
        assert doc["decimals"]["flow"]["sb"] == "2.6667"

    def test_fatal_exit(self, tmp_path, capsys):
        path = tmp_path / "fatal.txt"
        path.write_text("n u -1\nn w 1\na uw u w 2\n")
        assert main(["solve", str(path)]) == 10
        err = capsys.readouterr().err
        assert "witness: w" in err

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(D4_TEXT))
        assert main(["solve", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["r0"] == "4/3"


class TestVerify:
    def test_round_trip_accept(self, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        assert main(["solve", d4_json, "--certificate", str(cert)]) == 0
        capsys.readouterr()
        assert main(["verify", d4_json, "--solution", str(cert)]) == 0
        assert capsys.readouterr().out.strip() == "ACCEPT"

    def test_tampered_flow_rejected(self, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        main(["solve", d4_json, "--certificate", str(cert)])
        capsys.readouterr()
        doc = json.loads(cert.read_text())
        doc["flow"]["sa"] = "1"
        cert.write_text(json.dumps(doc))
        assert main(["verify", d4_json, "--solution", str(cert)]) == 12
        assert "REJECT conservation" in capsys.readouterr().out

    def test_tampered_level_order_rejected(self, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        main(["solve", d4_json, "--certificate", str(cert)])
        capsys.readouterr()
        doc = json.loads(cert.read_text())
        doc["certificate"]["levels"].reverse()
        cert.write_text(json.dumps(doc))
        assert main(["verify", d4_json, "--solution", str(cert)]) == 12
        assert "REJECT monotonicity" in capsys.readouterr().out

    def test_parsed_solution_round_trips_exactly(self, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        main(["solve", d4_json, "--certificate", str(cert)])
        capsys.readouterr()
        problem = parse_instance(D4_JSON)
        document = json.loads(cert.read_text(), parse_float=str)
        rebuilt = solution_from_document(problem, document)
        direct = balanced_flow(problem)
        assert rebuilt.flow == direct.flow
        assert rebuilt.certificate == direct.certificate
        assert rebuilt.sorted_ratios == direct.sorted_ratios
        assert verify_certificate(problem, rebuilt).accepted


class TestRatioAndOracle:
    def test_ratio(self, d4_json, capsys):
        assert main(["ratio", d4_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"r0": "4/3", "critical_cut": ["s", "b"]}

    def test_ratio_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("n u 0\nn w 0\na uw u w 1\n")
        assert main(["ratio", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"r0": "0", "critical_cut": None}

    def test_oracle_matches(self, d4_json, capsys):
        assert main(["oracle", d4_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matches_solver"] is True
        assert doc["oracle_flow"]["sa"] == "4/3"

    def test_oracle_fatal_exit(self, tmp_path, capsys):
        path = tmp_path / "fatal.txt"
        path.write_text("n u -1\nn w 1\na uw u w 2\n")
        assert main(["oracle", str(path)]) == 10

    def test_oracle_matches_on_thirteen_arc_instance(self, tmp_path, capsys):
        import random

        from conftest import random_solvable_problem
        from lexflow import format_rational

        rng = random.Random(77)
        p = random_solvable_problem(rng, max_nodes=6, max_arcs=13)
        while len(p.arcs) != 13:
            p = random_solvable_problem(rng, max_nodes=6, max_arcs=13)
        lines = [f"n {v} {format_rational(p.balances[v])}" for v in p.node_ids]
        lines += [
            f"a {a.arc_id} {a.tail} {a.head} {format_rational(a.capacity)}"
            for a in p.arcs
        ]
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["oracle", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["matches_solver"] is True


class TestDecimalString:
    @pytest.mark.parametrize(
        "value,places,expected",
        [
            (F(4, 3), 6, "1.333333"),
            (F(8, 3), 4, "2.6667"),
            (F(1, 2), 0, "0"),      # round half to even
            (F(3, 2), 0, "2"),
            (F(-3, 2), 0, "-2"),
            (F(1, 8), 2, "0.12"),   # 0.125 -> even neighbor
            (F(3, 8), 2, "0.38"),
            (F(-5, 4), 1, "-1.2"),
            (F(7), 3, "7.000"),
        ],
    )
    def test_round_half_even(self, value, places, expected):
        assert decimal_string(value, places) == expected


class TestRobustness:
    HUGE = "1" + "0" * 5000  # past the interpreter's default int-string limit

    def test_huge_rational_gives_exact_digits(self, tmp_path, capsys):
        import sys

        limit = sys.get_int_max_str_digits()
        path = tmp_path / "huge.json"
        path.write_text(
            '{"nodes": [{"id": "s", "d": "1e5000"}, {"id": "t", "d": "-1e5000"}],'
            ' "arcs": [{"id": "st", "tail": "s", "head": "t", "capacity": 3}]}'
        )
        assert main(["ratio", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"r0": f"{self.HUGE}/3", "critical_cut": ["s"]}

        solution = tmp_path / "solution.json"
        assert main(["solve", str(path), "--certificate", str(solution)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["flow"] == {"st": self.HUGE}
        assert doc["sorted_ratios"] == [f"{self.HUGE}/3"]
        assert main(["verify", str(path), "--solution", str(solution)]) == 0
        assert capsys.readouterr().out.strip() == "ACCEPT"
        assert sys.get_int_max_str_digits() == limit

    def test_huge_bare_json_integer_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(
            f'{{"nodes": [{{"id": "s", "d": {self.HUGE}}},'
            f' {{"id": "t", "d": -{self.HUGE}}}],'
            ' "arcs": [{"id": "st", "tail": "s", "head": "t", "capacity": 3}]}'
        )
        assert main(["ratio", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_internal_error_exits_3_without_traceback(
        self, d4_json, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("solver bug\nsecond line")

        monkeypatch.setattr("lexflow.cli.minmax_ratio", broken)
        assert main(["ratio", d4_json]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: solver bug second line\n"
