"""Command-line interface: formats, exit codes, round trips, stability."""

from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lexflow
from lexflow.cli import (
    CliError,
    decimal_places,
    decimal_string,
    main,
    parse_instance,
    solution_document,
    solution_from_document,
)
from lexflow import (
    BalancedSolution,
    Certificate,
    Cut,
    Flow,
    Level,
    balanced_flow,
    parse_rational,
    verify_certificate,
)
from lexflow.model import MAX_DECIMAL_EXPONENT
from conftest import grid_problem

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

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

# Two blocks with no arc between them, solved in two levels: u1's cut at
# ratio 5 first, then u2's at 1/10.
SEED_JSON = """\
{"nodes": [{"id": "u1", "d": 5}, {"id": "w1", "d": -5},
           {"id": "u2", "d": 1}, {"id": "w2", "d": -1}],
 "arcs": [{"id": "a1", "tail": "u1", "head": "w1", "capacity": 1},
          {"id": "a2", "tail": "u2", "head": "w2", "capacity": 10}]}
"""


@pytest.fixture
def d4_json(tmp_path):
    path = tmp_path / "d4.json"
    path.write_text(D4_JSON)
    return str(path)


@pytest.fixture
def seed_json(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(SEED_JSON)
    return str(path)


# The environment of a `python -m lexflow.cli` subprocess: the lexflow under test.
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(lexflow.__file__).resolve().parents[1])}


def sh_lexflow(redirect: str, *args: str) -> subprocess.CompletedProcess:
    """`python -m lexflow.cli ARGS REDIRECT` run by `sh -c`, so that the
    redirection (`<&-`, `>&-`, `> /dev/full`) holds before lexflow starts."""
    return subprocess.run(
        ["sh", "-c", f'"$0" -m lexflow.cli "$@" {redirect}', sys.executable, *args],
        capture_output=True, env=CLI_ENV, timeout=60,
    )


class TestParsing:
    def test_json_and_text_agree(self):
        assert parse_instance(D4_JSON) == parse_instance(D4_TEXT)

    def test_readme_instances_agree_and_solve(self, tmp_path, capsys):
        with open(README, encoding="utf-8") as f:
            readme = f.read()
        json_text = re.search(r"```json\n(\{\n.*?)```", readme, re.S)[1]
        text = re.search(r"```\n(c diamond instance\n.*?)```", readme, re.S)[1]
        assert parse_instance(json_text) == parse_instance(text)
        for name, body in (("readme.json", json_text), ("readme.txt", text)):
            path = tmp_path / name
            path.write_text(body)
            assert main(["solve", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["r0"] == "4/3"

    def test_readme_library_example_runs(self):
        with open(README, encoding="utf-8") as f:
            readme = f.read()
        example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)[1]
        namespace: dict = {}
        exec(compile(example, "README.md", "exec"), namespace)
        assert namespace["solution"].flow.values["sb"] == F(8, 3)

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

    def test_text_comment_is_c_alone_or_c_and_whitespace(self):
        from lexflow.cli import CliError

        commented = "c\nc\tnote\n  c  indented note\n" + D4_TEXT
        assert parse_instance(commented) == parse_instance(D4_TEXT)
        with pytest.raises(CliError, match="line 2"):
            parse_instance("n u 1\ncap 1 2\nn w -1\na e u w 1\n")

    ID_TEMPLATE = (
        '{"nodes": [{"id": NODE, "d": 1}, {"id": "w", "d": -1}],'
        ' "arcs": [{"id": "e", "tail": TAIL, "head": "w", "capacity": 1}]}'
    )

    def test_json_integer_id_reads_as_its_digits(self):
        p = parse_instance(self.ID_TEMPLATE.replace("NODE", "7").replace("TAIL", "7"))
        assert p.node_ids == ("7", "w") and p.arcs[0].tail == "7"

    @pytest.mark.parametrize("bad", ["null", "true", "{}", "[]"])
    def test_json_id_is_a_string_or_an_integer(self, bad):
        from lexflow.cli import CliError

        with pytest.raises(CliError, match=r"nodes\[0\] 'id' must be"):
            parse_instance(self.ID_TEMPLATE.replace("NODE", bad).replace("TAIL", "7"))
        with pytest.raises(CliError, match=r"arcs\[0\] 'id', 'tail' and 'head'"):
            parse_instance(self.ID_TEMPLATE.replace("NODE", "7").replace("TAIL", bad))


class TestCheck:
    def test_weakly_feasible_only(self, d4_json, capsys):
        assert main(["check", d4_json]) == 11
        assert capsys.readouterr() == (
            "WEAKLY_FEASIBLE_ONLY\nwitness: s b\ndeficiency: 4\ncapacity: 3\n", ""
        )

    def test_two_blocks_witness_is_the_first_levels_cut(self, seed_json, capsys):
        assert main(["check", seed_json]) == 11
        assert capsys.readouterr() == (
            "WEAKLY_FEASIBLE_ONLY\nwitness: u1\ndeficiency: 5\ncapacity: 1\n", ""
        )

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

    def test_witness_expands_a_strong_component(self, tmp_path, capsys):
        path = tmp_path / "scc.txt"
        path.write_text("n u -2\nn w 1\nn x 1\na uw u w 1\na wx w x 1\na xw x w 1\n")
        assert main(["check", str(path)]) == 10
        out = capsys.readouterr().out.splitlines()
        assert out == ["INFEASIBLE_WEAKLY", "witness: w x", "deficiency: 2", "capacity: 0"]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"nodes": [{"id": "u", "d": 1}], "arcs": []}')
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("bad", ["true", "false", "[]", "{}"])
    @pytest.mark.parametrize("first", ["1", '"1"'])
    def test_capacity_that_is_no_number_is_refused_after_a_one(
        self, first, bad, tmp_path, capsys
    ):
        # A read kept for "1" or 1 must not answer for true, which equals 1.
        path = tmp_path / "bad.json"
        path.write_text(
            '{"nodes": [{"id": "u", "d": 0}, {"id": "w", "d": 0}], "arcs": ['
            f'{{"id": "a", "tail": "u", "head": "w", "capacity": {first}}}, '
            f'{{"id": "b", "tail": "u", "head": "w", "capacity": {bad}}}]}}'
        )
        assert main(["check", str(path)]) == 2
        shown = {"true": "True", "false": "False"}.get(bad, bad)
        assert capsys.readouterr() == (
            "",
            f"error: {path}: cannot parse rational from {shown} (quote decimals as strings)\n",
        )

    @pytest.mark.parametrize(
        "text",
        [
            "n u 1_000\nn w -1000\n",
            '{"nodes": [{"id": "u", "d": "2 / 3"}, {"id": "w", "d": "-2/3"}]}',
            '{"nodes": [{"id": "u", "d": "1e1_0"}, {"id": "w", "d": -1}]}',
        ],
    )
    def test_number_outside_the_documented_forms_is_refused(self, text, tmp_path, capsys):
        # Fraction(str) reads "1_000" from Python 3.11 on and "2 / 3" from
        # 3.12 on; neither is a number on any version.
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: cannot parse rational from '")


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

    def test_two_blocks_document_and_its_certificate(self, seed_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        assert main(["solve", seed_json, "--certificate", str(cert)]) == 0
        expected = {
            "status": "weakly_feasible_only",
            "r0": "5",
            "flow": {"a1": "5", "a2": "1"},
            "sorted_ratios": ["5", "1/10"],
            "certificate": {
                "levels": [
                    {
                        "ratio": "5",
                        "cut": ["u1"],
                        "fixed_forward": [{"arc": "a1", "value": "5"}],
                        "zeroed_reverse": [],
                    },
                    {
                        "ratio": "1/10",
                        "cut": ["u2"],
                        "fixed_forward": [{"arc": "a2", "value": "1"}],
                        "zeroed_reverse": [],
                    },
                ],
                "zero_tail": [],
            },
        }
        assert capsys.readouterr() == (json.dumps(expected, indent=2) + "\n", "")
        assert main(["verify", seed_json, "--solution", str(cert)]) == 0
        assert capsys.readouterr() == ("ACCEPT\n", "")

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

    # 100001 is one past MAX_DECIMAL_EXPONENT: rendering costs about N² time.
    @pytest.mark.parametrize("places", ["-3", "x", "100001"])
    def test_decimals_must_be_a_nonnegative_integer(self, places, d4_json, capsys):
        with pytest.raises(SystemExit) as done:
            main(["solve", d4_json, "--decimals", places])
        assert done.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--decimals" in captured.err

    def test_decimals_bound_is_inclusive(self):
        assert decimal_places(str(MAX_DECIMAL_EXPONENT)) == MAX_DECIMAL_EXPONENT

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
        assert doc["flow"]["sb"] == "8/3"
        doc["flow"]["sb"] = "3"
        cert.write_text(json.dumps(doc))
        assert main(["verify", d4_json, "--solution", str(cert)]) == 12
        assert capsys.readouterr() == (
            "REJECT conservation: conservation fails at node 's'\n", ""
        )

    @pytest.mark.parametrize(
        "arc_id,value,detail",
        [
            ("sa", None, "flow keys do not match the arcs"),
            ("zz", "0", "flow keys do not match the arcs"),
            ("sa", "-1", "arc 'sa' carries negative flow"),
        ],
        ids=["missing_key", "extra_key", "negative_value"],
    )
    def test_conservation_verdicts(self, arc_id, value, detail, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        main(["solve", d4_json, "--certificate", str(cert)])
        capsys.readouterr()
        doc = json.loads(cert.read_text())
        if value is None:
            del doc["flow"][arc_id]
        else:
            doc["flow"][arc_id] = value
        cert.write_text(json.dumps(doc))
        problem = parse_instance(D4_JSON)
        verdict = verify_certificate(problem, solution_from_document(problem, doc))
        assert (verdict.accepted, verdict.failed_check, verdict.detail) == (
            False,
            "conservation",
            detail,
        )
        assert main(["verify", d4_json, "--solution", str(cert)]) == 12
        assert capsys.readouterr().out == f"REJECT conservation: {detail}\n"

    def test_tampered_level_order_rejected(self, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        main(["solve", d4_json, "--certificate", str(cert)])
        capsys.readouterr()
        doc = json.loads(cert.read_text())
        doc["certificate"]["levels"].reverse()
        cert.write_text(json.dumps(doc))
        assert main(["verify", d4_json, "--solution", str(cert)]) == 12
        assert "REJECT monotonicity" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field,forged",
        [
            ("r0", "1/7"),
            ("status", "feasible"),
            ("sorted_ratios", ["0", "0", "0", "0", "9"]),
        ],
    )
    def test_forged_summary_field_rejected(self, field, forged, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        main(["solve", d4_json, "--certificate", str(cert)])
        capsys.readouterr()
        doc = json.loads(cert.read_text())
        doc[field] = forged
        cert.write_text(json.dumps(doc))
        assert main(["verify", d4_json, "--solution", str(cert)]) == 12
        assert capsys.readouterr().out.startswith("REJECT summary: ")

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


class TestMalformedSolution:
    """`lexflow verify` reads each field of a solution document only in its
    documented shape; any other shape exits 2 with nothing on stdout."""

    INSTANCE = "n s 2\nn t -2\na e s t 1\n"

    def verify(self, tmp_path, capsys, mutate, instance=INSTANCE):
        path = tmp_path / "instance.txt"
        path.write_text(instance)
        cert = tmp_path / "solution.json"
        assert main(["solve", str(path), "--certificate", str(cert)]) == 0
        capsys.readouterr()
        doc = json.loads(cert.read_text())
        mutate(doc, doc["certificate"], doc["certificate"]["levels"][0])
        cert.write_text(json.dumps(doc))
        code = main(["verify", str(path), "--solution", str(cert)])
        return code, capsys.readouterr()

    def test_strings_for_lists_are_malformed(self, tmp_path, capsys):
        # Iterated as they come, "s", "" and "2" read as a valid certificate.
        def mutate(doc, certificate, level):
            level["cut"], level["zeroed_reverse"], doc["sorted_ratios"] = "s", "", "2"

        code, out = self.verify(tmp_path, capsys, mutate)
        assert (code, out.out) == (2, "")
        assert out.err.startswith("error: malformed solution document: 'cut' must be a list")

    @pytest.mark.parametrize(
        "where,key,value",
        [
            ("certificate", "levels", {}),
            ("level", "cut", "s"),
            ("level", "cut", {"s": 1}),
            ("level", "fixed_forward", {}),
            ("level", "zeroed_reverse", ""),
            ("certificate", "zero_tail", ""),
            ("document", "sorted_ratios", "2"),
            ("document", "flow", [["e", "2"]]),
            ("level", "cut", [True]),
            ("level", "cut", [["s"]]),
            ("level", "zeroed_reverse", [None]),
            ("certificate", "zero_tail", [{"e": 0}]),
            ("fixed", "arc", False),
            ("fixed", "arc", ["e"]),
        ],
    )
    def test_field_of_another_shape_is_malformed(self, where, key, value, tmp_path, capsys):
        def mutate(doc, certificate, level):
            fixed = level["fixed_forward"][0]
            parent = {"document": doc, "certificate": certificate, "level": level, "fixed": fixed}
            parent[where][key] = value

        code, out = self.verify(tmp_path, capsys, mutate)
        assert (code, out.out) == (2, "")
        assert out.err.startswith("error: malformed solution document: ")

    def test_integer_ids_are_accepted(self, tmp_path, capsys):
        instance = json.dumps(
            {
                "nodes": [{"id": 1, "d": 2}, {"id": 2, "d": -2}],
                "arcs": [{"id": 3, "tail": 1, "head": 2, "capacity": 1}],
            }
        )

        def mutate(doc, certificate, level):
            level["cut"], level["fixed_forward"][0]["arc"] = [1], 3

        code, out = self.verify(tmp_path, capsys, mutate, instance)
        assert (code, out.out) == (0, "ACCEPT\n")


def read_number_by_number(document: dict) -> BalancedSolution:
    """`solution_from_document` of a well-formed document, every number read
    on its own."""
    certificate = document["certificate"]
    levels = tuple(
        Level(
            parse_rational(level["ratio"]),
            Cut(frozenset(level["cut"])),
            tuple((item["arc"], parse_rational(item["value"])) for item in level["fixed_forward"]),
            tuple(level["zeroed_reverse"]),
        )
        for level in certificate["levels"]
    )
    return BalancedSolution(
        Flow({arc_id: parse_rational(value) for arc_id, value in document["flow"].items()}),
        Certificate(levels, tuple(certificate["zero_tail"])),
        tuple(parse_rational(r) for r in document["sorted_ratios"]),
    )


class TestSolutionReader:
    """`solution_from_document` reads each distinct number string once per
    document; the solution and every error stay those of reading each number
    on its own."""

    @pytest.fixture
    def grid(self):
        problem = grid_problem(random.Random(2601), 4)
        text = json.dumps(solution_document(problem, balanced_flow(problem)), indent=2)
        return problem, text

    def test_repeated_values_read_as_each_on_its_own(self, grid):
        problem, text = grid
        document = json.loads(text, parse_float=str)
        values = [*document["flow"].values(), *document["sorted_ratios"]]
        assert len(set(values)) < len(values) / 2
        rebuilt = solution_from_document(problem, document)
        assert rebuilt == read_number_by_number(document)
        assert rebuilt == balanced_flow(problem)
        assert verify_certificate(problem, rebuilt).accepted

    def test_bad_value_where_a_good_one_repeats_is_rejected(self, grid):
        problem, text = grid
        document = json.loads(text, parse_float=str)
        flow = document["flow"]
        first, *_, last = [arc_id for arc_id, value in flow.items() if value == "0"]
        flow[last] = "0/0"
        for _ in range(2):  # nothing is kept from one document to the next
            with pytest.raises(CliError) as error:
                solution_from_document(problem, document)
            assert str(error.value) == "malformed solution document: cannot parse rational from '0/0'"
        document["sorted_ratios"][-1] = flow[first] = "0/0"
        with pytest.raises(CliError) as error:
            solution_from_document(problem, document)
        assert str(error.value) == "malformed solution document: cannot parse rational from '0/0'"

    @pytest.mark.parametrize("bad", [True, [], {}])
    def test_value_that_is_no_string_after_its_digits(self, bad, grid):
        problem, text = grid
        document = json.loads(text, parse_float=str)
        document["sorted_ratios"][-1] = bad
        document["sorted_ratios"][:0] = ["1", 1]
        with pytest.raises(CliError) as error:
            solution_from_document(problem, document)
        assert str(error.value) == (
            f"malformed solution document: cannot parse rational from {bad!r} "
            "(quote decimals as strings)"
        )


class TestRatioAndOracle:
    def test_ratio(self, d4_json, capsys):
        assert main(["ratio", d4_json]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"r0": "4/3", "critical_cut": ["s", "b"]}

    def test_ratio_of_two_blocks(self, seed_json, capsys):
        assert main(["ratio", seed_json]) == 0
        expected = json.dumps({"r0": "5", "critical_cut": ["u1"]}, indent=2)
        assert capsys.readouterr() == (expected + "\n", "")

    def test_ratio_zero(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("n u 0\nn w 0\na uw u w 1\n")
        assert main(["ratio", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"r0": "0", "critical_cut": None}

    def test_ratio_fatal_exit(self, tmp_path, capsys):
        # {x} is fatal; the producer cut {u, x} is not, so the Newton
        # search finds {x} as a probe's witness.
        path = tmp_path / "fatal.txt"
        path.write_text("n u 2\nn x 1\nn w -3\na uw u w 1\n")
        assert main(["ratio", str(path)]) == 10
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "witness: x" in captured.err.splitlines()
        assert main(["solve", str(path)]) == 10
        assert capsys.readouterr().err == captured.err

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

    @given(
        st.integers(-10**6, 10**6),
        st.integers(0, 6),
        st.integers(0, 6),
        st.integers(0, 5),
    )
    def test_matches_decimal_quantize(self, numerator, twos, fives, places):
        # Denominators 2^a 5^b make the value an exact Decimal, ties included.
        value = F(numerator, 2**twos * 5**fives)
        exact = Decimal(value.numerator) / Decimal(value.denominator)
        expected = exact.quantize(Decimal(1).scaleb(-places), ROUND_HALF_EVEN)
        text = decimal_string(value, places)
        assert Decimal(text) == expected
        assert text.lstrip("-").count(".") == (1 if places else 0)


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

    def test_exponent_bomb_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bomb.json"
        path.write_text(
            '{"nodes": [{"id": "s", "d": "1e1000000000"}, {"id": "t", "d": "-1e1000000000"}],'
            ' "arcs": [{"id": "st", "tail": "s", "head": "t", "capacity": "1e-1000000000"}]}'
        )
        assert main(["solve", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exponent" in captured.err

    def test_huge_bare_json_integer_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(
            f'{{"nodes": [{{"id": "s", "d": {self.HUGE}}},'
            f' {{"id": "t", "d": -{self.HUGE}}}],'
            ' "arcs": [{"id": "st", "tail": "s", "head": "t", "capacity": 3}]}'
        )
        assert main(["ratio", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,text,code",
        [
            ("capacity", "-1e5000", 2),
            ("balance", "1e5000", 2),
            ("level_ratio", "1e5000", 12),
        ],
    )
    def test_huge_number_in_a_message_is_not_an_internal_error(
        self, field, text, code, d4_json, tmp_path, capsys
    ):
        # Messages that quote the number print it with all its digits; str()
        # of a Fraction would refuse them and end in exit 3.
        instance = json.loads(D4_JSON)
        if field == "capacity":
            instance["arcs"][0]["capacity"] = text
        elif field == "balance":
            instance["nodes"][0]["d"] = text
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        cert = tmp_path / "solution.json"
        main(["solve", d4_json, "--certificate", str(cert)])
        doc = json.loads(cert.read_text())
        if field == "level_ratio":
            doc["certificate"]["levels"][0]["ratio"] = text
        cert.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path), "--solution", str(cert)]) == code
        assert "internal error" not in capsys.readouterr().err

    def assert_one_error_line(self, capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_instance_is_a_parse_error(
        self, source, tmp_path, capsys, monkeypatch
    ):
        import io
        import sys

        data = b'{"nodes": [{"id": "\xff", "d": 0}], "arcs": []}'
        if source == "file":
            path = tmp_path / "latin1.json"
            path.write_bytes(data)
            argv = ["solve", str(path)]
        else:
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            monkeypatch.setattr(sys, "stdin", stdin)
            argv = ["solve", "-"]
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("document", ["instance", "solution"])
    def test_deeply_nested_json_is_a_parse_error(
        self, document, d4_json, tmp_path, capsys
    ):
        path = tmp_path / "deep.json"
        path.write_text('{"nodes": ' + "[" * 200_000 + "]" * 200_000 + "}")
        if document == "instance":
            argv = ["solve", str(path)]
        else:
            argv = ["verify", d4_json, "--solution", str(path)]
        assert main(argv) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "text", ['{"nodes": 5}', '{"nodes": [{"id": "u", "d": 0}], "arcs": 5}']
    )
    def test_nodes_and_arcs_must_be_lists(self, text, tmp_path, capsys):
        path = tmp_path / "scalar.json"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        self.assert_one_error_line(capsys)

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

    def test_reader_gone_ends_quietly(self, d4_json):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        try:
            done = subprocess.run(
                [sys.executable, "-m", "lexflow.cli", "solve", d4_json],
                stdout=write_end, stderr=subprocess.PIPE, env=CLI_ENV, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == b""

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_closed_stdin_is_a_read_error(self, command, d4_json):
        if command == "check":
            done = sh_lexflow("<&-", "check", "-")
        else:
            done = sh_lexflow("<&-", "verify", d4_json, "--solution", "-")
        assert (done.returncode, done.stdout, done.stderr) == (
            2, b"", b"error: cannot read -: stdin is closed\n"
        )

    def test_closed_stdout_is_a_write_error(self, d4_json):
        done = sh_lexflow(">&-", "solve", d4_json)
        assert (done.returncode, done.stderr) == (
            2, b"error: cannot write stdout: it is closed\n"
        )

    # A small document fails at main's flush, one past the stream's buffer
    # inside print; both leave nothing for the interpreter's exit flush to say.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("nodes", [2, 400])
    def test_full_stdout_is_a_write_error(self, nodes, tmp_path):
        path = tmp_path / "chain.txt"
        lines = [f"n v{i} {1 if i == 0 else -1 if i == nodes - 1 else 0}" for i in range(nodes)]
        lines += [f"a e{i} v{i} v{i + 1} 1" for i in range(nodes - 1)]
        path.write_text("\n".join(lines) + "\n")
        done = sh_lexflow("> /dev/full", "solve", str(path))
        full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert (done.returncode, done.stderr) == (
            2, f"error: cannot write stdout: {full}\n".encode()
        )

    # Diagnostics go to stderr or nowhere: neither a full stderr nor a closed
    # one changes the exit code or a byte of stdout.
    @pytest.mark.parametrize(
        "redirect",
        [
            pytest.param(
                "2>/dev/full",
                marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
            ),
            "2>&-",
        ],
    )
    @pytest.mark.parametrize(
        "case,code",
        [("invalid", 2), ("usage", 2), ("witness", 11), ("fatal", 10), ("solved", 0)],
    )
    def test_unwritable_stderr_changes_no_exit_code_or_stdout(
        self, redirect, case, code, d4_json, tmp_path
    ):
        invalid = tmp_path / "invalid.txt"
        invalid.write_text("n u 1\nn w 0\na uw u w 1\n")  # balances sum to 1
        fatal = tmp_path / "fatal.txt"
        fatal.write_text("n u -1\nn w 1\na uw u w 2\n")
        args = {
            "invalid": ["check", str(invalid)],
            "usage": ["bogus"],
            "witness": ["check", d4_json],
            "fatal": ["solve", str(fatal)],
            "solved": ["solve", d4_json],
        }[case]
        reference = sh_lexflow("", *args)
        assert reference.returncode == code
        assert (reference.stderr == b"") == (code in (0, 11))
        done = sh_lexflow(redirect, *args)
        assert (done.returncode, done.stdout, done.stderr) == (code, reference.stdout, b"")

    def test_unwritable_certificate_is_a_usage_error(self, d4_json, tmp_path, capsys):
        target = tmp_path / "missing" / "out.json"
        assert main(["solve", d4_json, "--certificate", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}:")

    def test_certificate_file_is_the_printed_document(self, d4_json, tmp_path, capsys):
        cert = tmp_path / "solution.json"
        assert main(["solve", d4_json, "--certificate", str(cert)]) == 0
        assert cert.read_bytes() == capsys.readouterr().out.encode()


NON_ASCII = json.dumps(
    {
        "nodes": [{"id": "\u00e9", "d": 4}, {"id": "\u2192", "d": -4}],
        "arcs": [{"id": "\u00e9\u2192", "tail": "\u00e9", "head": "\u2192", "capacity": 1}],
    },
    ensure_ascii=False,
).encode("utf-8")


class TestEncoding:
    """stdin is read and stdout written as UTF-8, whatever the locale (here
    PYTHONIOENCODING) says they hold."""

    def lexflow(self, *args: str, encoding: str, stdin: bytes = b""):
        return subprocess.run(
            [sys.executable, "-m", "lexflow.cli", *args],
            input=stdin, capture_output=True,
            env={**CLI_ENV, "PYTHONIOENCODING": encoding}, timeout=60,
        )

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_stdin_reads_as_the_file_does(self, encoding, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(NON_ASCII)
        piped = self.lexflow("solve", "-", encoding=encoding, stdin=NON_ASCII)
        named = self.lexflow("solve", str(path), encoding="utf-8")
        assert (piped.returncode, piped.stderr) == (named.returncode, named.stderr) == (0, b"")
        assert piped.stdout == named.stdout
        assert list(json.loads(piped.stdout)["flow"]) == ["\u00e9\u2192"]

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_invalid_utf8_on_stdin_cannot_be_read(self, encoding):
        # b"\xe9" is "é" in latin-1, and no UTF-8 at all.
        done = self.lexflow("solve", "-", encoding=encoding, stdin=NON_ASCII + b"\xe9")
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: cannot read -: ")
        assert done.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_witness_is_written_as_utf8(self, encoding):
        done = self.lexflow("check", "-", encoding=encoding, stdin=NON_ASCII)
        assert (done.returncode, done.stderr) == (11, b"")
        expected = "WEAKLY_FEASIBLE_ONLY\nwitness: \u00e9\ndeficiency: 4\ncapacity: 1\n"
        assert done.stdout == expected.encode("utf-8")

    @pytest.mark.parametrize("encoding", ["utf-8", "ascii"])
    def test_lone_surrogate_witness_is_written_as_its_escape(self, encoding, tmp_path):
        # JSON's escape "\ud800" reads as a lone surrogate, which UTF-8 cannot
        # hold; solve and verify write the id as JSON's escape again.
        instance = json.dumps(
            {
                "nodes": [{"id": "\ud800", "d": 4}, {"id": "w", "d": -4}],
                "arcs": [{"id": "a", "tail": "\ud800", "head": "w", "capacity": 1}],
            }
        ).encode("ascii")
        done = self.lexflow("check", "-", encoding=encoding, stdin=instance)
        assert (done.returncode, done.stderr) == (11, b"")
        assert done.stdout == b"WEAKLY_FEASIBLE_ONLY\nwitness: \\ud800\ndeficiency: 4\ncapacity: 1\n"
        path = tmp_path / "x.json"
        path.write_bytes(instance)
        solved = self.lexflow("solve", str(path), encoding=encoding)
        assert (solved.returncode, solved.stderr) == (0, b"")
        assert b'"\\ud800"' in solved.stdout
        (tmp_path / "sol.json").write_bytes(solved.stdout)
        verdict = self.lexflow(
            "verify", str(path), "--solution", str(tmp_path / "sol.json"), encoding=encoding
        )
        assert (verdict.returncode, verdict.stdout) == (0, b"ACCEPT\n")


# JSON values to plant in a document: ids, numbers and number strings of
# the instance's own kinds (and some past the int-string digit limit), and
# containers of them.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.sampled_from(
        ["s", "a", "b", "t", "sa", "sb", "at", "bt", "x", "", "0", "-4", "4/3",
         "1/0", "1/2", "0.5", "1e3", "-1/3", "feasible", "1e5000", "-1e5000"]
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["id", "d", "tail", "head", "capacity", "arc", "value",
                         "ratio", "cut", "levels", "flow"]),
        children,
        max_size=3,
    ),
    max_leaves=6,
)


def _slots(value, found):
    """Every (container, key) pair inside a JSON value, depth first."""
    if isinstance(value, (dict, list)):
        for key in list(value) if isinstance(value, dict) else range(len(value)):
            found.append((value, key))
            _slots(value[key], found)
    return found


@st.composite
def _mutated(draw, document):
    """`document` with one or two values replaced, deleted, appended,
    copied from elsewhere in it, or swapped; copies and swaps keep many
    instances valid (a swap of two balances keeps their sum)."""
    document = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 2))):
        slots = _slots(document, [])
        if not slots:
            return draw(_JSON_VALUES)
        parent, key = draw(st.sampled_from(slots))
        other, other_key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(["replace", "delete", "append", "copy", "swap", "swap"]))
        if action == "delete":
            del parent[key]
        elif action == "append" and isinstance(parent, list):
            parent.append(draw(_JSON_VALUES | st.just(parent[key])))
        elif action in ("copy", "swap"):
            mine, theirs = (json.loads(json.dumps(v)) for v in (parent[key], other[other_key]))
            parent[key] = theirs
            if action == "swap":
                other[other_key] = mine
        else:
            parent[key] = draw(_JSON_VALUES)
    return document


def _solution_json() -> dict:
    problem = parse_instance(D4_JSON)
    return json.loads(json.dumps(solution_document(problem, balanced_flow(problem))))


# Numbers past the int-string limit, as integers, as p/q and as decimal
# exponents, and the exponents at and just past the accepted bound.
_EXTREMES = [
    "1e5000",
    "-1e5000",
    "9" * 4400,
    "-" + "1" + "0" * 4399,
    "1" * 4400 + "/" + "7" * 4400,
    "1e100000",
    "1e100001",
]


@st.composite
def _planted(draw):
    """The diamond instance and its solution document, with one extreme
    number planted at one numeric field of one of them."""
    instance, solution = json.loads(D4_JSON), _solution_json()
    levels = solution["certificate"]["levels"]
    slots = [
        *((node, "d") for node in instance["nodes"]),
        *((arc, "capacity") for arc in instance["arcs"]),
        (solution, "r0"),
        *((solution["flow"], arc_id) for arc_id in solution["flow"]),
        *((solution["sorted_ratios"], k) for k in range(len(solution["sorted_ratios"]))),
        *((level, "ratio") for level in levels),
        *((fixed, "value") for level in levels for fixed in level["fixed_forward"]),
    ]
    parent, key = draw(st.sampled_from(slots))
    parent[key] = draw(st.sampled_from(_EXTREMES))
    return instance, solution


def _exit_codes(instance, solution) -> None:
    """Run every command that reads the documents; none may end in exit 3."""
    with tempfile.TemporaryDirectory() as tmp:
        instance_path = os.path.join(tmp, "instance.json")
        solution_path = os.path.join(tmp, "solution.json")
        with open(instance_path, "w") as f:
            json.dump(instance, f)
        with open(solution_path, "w") as f:
            json.dump(solution, f)
        runs = [
            ["check", instance_path],
            ["solve", instance_path],
            ["ratio", instance_path],
            ["verify", instance_path, "--solution", solution_path],
        ]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in {0, 2, 10, 11, 12}, (argv, err.getvalue())


class TestExitCodes:
    """Every command ends in a documented exit code, whatever it reads."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_never_exit_3(self, data):
        instance = json.loads(D4_JSON)
        solution = _solution_json()
        if data.draw(st.booleans()):
            instance = data.draw(_mutated(instance))
        else:
            solution = data.draw(_mutated(solution))
        _exit_codes(instance, solution)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_planted())
    def test_extreme_numbers_never_exit_3(self, documents):
        _exit_codes(*documents)
