import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lenssurg
from lenssurg.certify import certificate_from_json, certify
from lenssurg.cli import CLOSED_PIPE, build_parser, main

GOLDEN = Path(__file__).parent / "golden_certs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_certify_pass(capsys):
    code, out, _ = run(capsys, "certify", "8", "1", "3")
    assert code == 0
    assert "p=8 q=1 h=3 d=2 g=4" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 8


def test_certify_unknot(capsys):
    code, out, _ = run(capsys, "certify", "4", "1", "1")
    assert code == 0
    assert "d=0" in out


def test_certify_rejection_exit_code(capsys):
    code, out, _ = run(capsys, "certify", "9", "2", "4")
    assert code == 1
    assert "square-test" in out


def test_certify_usage_errors(capsys):
    code, _, err = run(capsys, "certify", "9", "3", "1")
    assert code == 2
    assert "gcd" in err
    with pytest.raises(SystemExit) as exc:
        main(["certify", "8", "x", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify", "8", "1", "3", "--bogus"])
    assert exc.value.code == 2


def test_certify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "certify", "22", "3", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert certificate_from_json(doc) == certify(22, 3, 5)


@pytest.mark.parametrize("argv", [
    ("dinv", "P", "3"),
    ("lambda", "P", "3"),
    ("alex", "P", "1", "1"),
    ("certify", "P", "1", "1"),
    ("group", "P", "1", "1"),
    ("search", "--pmax", "P"),
    # family m reaches 120*66^2 + 104*66 + 22 = 529,606 at l = 66
    ("families", "--lmax", "66"),
    ("families", "--lmax", "200"),
])
def test_slope_beyond_int64_bound_is_usage_error(argv, capsys):
    code, out, err = run(capsys, *(str(2**19) if a == "P" else a for a in argv))
    assert code == 2 and out == ""
    assert "2**19" in err


def test_dinv(capsys):
    code, out, _ = run(capsys, "dinv", "5", "2", "0")
    assert code == 0
    assert out == "0 2/5\n"
    code, out, _ = run(capsys, "dinv", "5", "2")
    assert out.splitlines() == ["0 2/5", "1 2/5", "2 -2/5", "3 0", "4 -2/5"]


def test_dinv_all_q1(capsys):
    code, out, _ = run(capsys, "dinv", "4", "1")
    assert code == 0
    assert out.splitlines()[0] == "0 3/4"


def test_alex(capsys):
    code, out, _ = run(capsys, "alex", "8", "1", "3")
    assert code == 0
    assert "reduced: -1 1 0 -1 2 -1 0 1" in out
    assert "genus: 4" in out
    assert "torsions: 2 1 1 1" in out


def test_lambda(capsys):
    code, out, _ = run(capsys, "lambda", "3", "1")
    assert code == 0
    assert out.strip() == "lambda(L(3,1)) = -1/36"


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--pmax", "40", "--d", "2",
                       "--threads", "1")
    assert code == 0
    assert out == "p,q,h,g\n8,1,3,4\n22,3,5,11\n38,7,7,19\n40,9,7,20\n"


def test_search_report_file(tmp_path, capsys):
    report = tmp_path / "report.json"
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "search", "--pmax", "30", "--mode", "exhaustive",
                     "--threads", "1", "--out", str(out_csv),
                     "--report", str(report))
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["mode"] == "exhaustive"
    assert set(doc["d_histogram"]) <= {"0", "2"}
    text = out_csv.read_text()
    assert text.startswith("p,q,h,g\n") and text.endswith("\n")


def test_tables_verify(tmp_path, capsys):
    fixture = tmp_path / "prefix.csv"
    fixture.write_text("p,q,h,g\n8,1,3,4\n22,3,5,11\n38,7,7,19\n40,9,7,20\n")
    code, out, _ = run(capsys, "tables", "--verify", str(fixture),
                       "--pmax", "40", "--threads", "1")
    assert code == 0
    assert "verified: 4 rows" in out

    fixture.write_text("p,q,h,g\n8,1,3,4\n22,3,5,12\n")
    code, out, _ = run(capsys, "tables", "--verify", str(fixture),
                       "--pmax", "24", "--threads", "1")
    assert code == 1
    assert "missing from search" in out


def test_tables_verify_bundled_prefix(capsys):
    code, out, _ = run(capsys, "tables", "--verify", "table1",
                       "--pmax", "120", "--threads", "1")
    assert code == 0
    assert "verified: 18 rows" in out


def test_tables_pmin_defaults_to_fixture_start(capsys):
    # table 2 starts at p = 715; the d = 2 rows below it belong to table 1
    code, out, _ = run(capsys, "tables", "--verify", "table2",
                       "--pmax", "720", "--threads", "1")
    assert code == 0
    assert "p in [715, 720]" in out


def test_group(capsys):
    code, out, _ = run(capsys, "group", "8", "1", "3")
    assert code == 0
    assert "group order: 120" in out
    code, out, _ = run(capsys, "group", "7", "2", "2")
    assert code == 0
    assert "group order: 1" in out
    code, out, _ = run(capsys, "group", "8", "1", "3", "--max-cosets", "5")
    assert code == 1
    assert "overflow" in out


def test_group_at_p_near_2000(capsys):
    # the presentation lines are frozen from the output before the coset
    # enumeration ran on a simplified copy; only the enumeration may change
    golden = (GOLDEN / "group_2001_721_82.txt").read_text()
    code, out, _ = run(capsys, "group", "2001", "721", "82")
    assert code == 0
    assert out == golden + "group order: 120\n"


def test_group_prints_the_presentation_as_built(capsys):
    # the enumeration runs on a simplified copy (relators ABAbbbb, abAAb);
    # the output prints the presentation as built from the certificate
    code, out, _ = run(capsys, "group", "71", "38", "16")
    assert code == 0
    assert out == (
        "aabaaabaaaaabaaaaabaaaaabaaaaabaaaaabaaaaabaaabaaaaabaaaaabaaaaabaaaaabaaaaabaaaaabaaab\n"
        "aabaaabaaaaabaaaaabaaaaabaaaaabaaaaabaaaaabaaabaa\n"
        "abelianization order: 1\n"
        "group order: 120\n"
    )


def test_plotdata(tmp_path, capsys):
    code, out, _ = run(capsys, "plotdata", "--pmax", "40", "--d", "2",
                       "--threads", "1")
    assert code == 0
    assert out == "h,p\n3,8\n5,22\n7,38\n7,40\n"


def test_families(capsys):
    code, out, _ = run(capsys, "families", "--lmax", "2")
    assert code == 0
    assert out == (GOLDEN / "families_lmax_2.txt").read_text()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_exhaustive_search_matches_its_golden_output(tmp_path, capsys, threads):
    # the CSV, then the --report JSON, of the exhaustive sweep over 2..250
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "search", "--pmax", "250", "--mode", "exhaustive",
                       "--threads", threads, "--report", str(report))
    assert code == 0
    assert out + report.read_text() == (GOLDEN / "search_exhaustive_250.txt").read_text()


def test_ras(capsys):
    code, out, _ = run(capsys, "ras", "--pmax", "20")
    assert code == 0
    assert "no violations" in out


BAD_RANGES = [
    (("search", "--pmin", "9", "--pmax", "3"), "need 2 <= pmin <= pmax, got [9, 3]"),
    (("search", "--pmin", "1", "--pmax", "3"), "need 2 <= pmin <= pmax, got [1, 3]"),
    (("tables", "--verify", "table1", "--pmin", "50", "--pmax", "40"),
     "need 2 <= pmin <= pmax, got [50, 40]"),
    (("plotdata", "--pmax", "1", "--d", "2"), "need 2 <= pmin <= pmax, got [2, 1]"),
    (("ras", "--pmax", "3"), "--pmax must be at least 4, got 3"),
    (("tables", "--verify", "table1", "--pmin", "0", "--pmax", "30"),
     "need 2 <= pmin <= pmax, got [0, 30]"),
    (("tables", "--verify", "table1", "--pmax", "0"), "need 2 <= pmin <= pmax, got [8, 0]"),
    (("families", "--lmax", "-3"), "--lmax must be positive, got -3"),
    (("families", "--lmax", "0"), "--lmax must be positive, got 0"),
    (("group", "22", "3", "5", "--max-cosets", "-5"), "--max-cosets must be positive, got -5"),
    (("dinv", "1", "5", "3"), "i must lie in [0, 1)"),
    (("search", "--pmax", "30", "--threads", "0"), "--threads must be positive, got 0"),
    (("search", "--pmax", "30", "--threads", "-2"), "--threads must be positive, got -2"),
    (("tables", "--verify", "table1", "--pmax", "30", "--threads", "0"),
     "--threads must be positive, got 0"),
    (("plotdata", "--pmax", "30", "--d", "2", "--threads", "-1"),
     "--threads must be positive, got -1"),
    (("lambda", "9", "9"), "q (mod p) must be nonzero, got q = 9"),
    (("dinv", "9", "9"), "q (mod p) must be nonzero, got q = 9"),
]


@pytest.mark.parametrize("argv,message", BAD_RANGES,
                         ids=[f"argv{i}" for i in range(len(BAD_RANGES))])
def test_bad_ranges_are_usage_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"usage error: {message}\n"


# every option of every subcommand, as (option strings, dest, type, default,
# required, choices, nargs); a dropped or re-defaulted option changes no
# output of the commands the other tests run
_CPUS = os.cpu_count() or 1
_DATUM = [((), name, int, None, True, None, None) for name in "pqh"]
PARSER_SURFACE = {
    "dinv": _DATUM[:2] + [((), "i", int, None, False, None, "?")],
    "alex": _DATUM + [(("--allow-odd-d",), "allow_odd_d", None, False, False, None, 0)],
    "lambda": _DATUM[:2],
    "certify": _DATUM + [(("--json",), "json", None, False, False, None, 0),
                         (("--allow-odd-d",), "allow_odd_d", None, False, False, None, 0)],
    "search": [(("--pmin",), "pmin", int, 2, False, None, None),
               (("--pmax",), "pmax", int, None, True, None, None),
               (("--mode",), "mode", None, "square", False, ["square", "exhaustive"], None),
               (("--d",), "d", int, None, False, None, None),
               (("--threads",), "threads", int, _CPUS, False, None, None),
               (("--out",), "out", None, None, False, None, None),
               (("--report",), "report", None, None, False, None, None)],
    "families": [(("--lmax",), "lmax", int, None, True, None, None)],
    "tables": [(("--verify",), "verify", None, None, True, None, None),
               (("--pmin",), "pmin", int, None, False, None, None),
               (("--pmax",), "pmax", int, None, False, None, None),
               (("--threads",), "threads", int, _CPUS, False, None, None)],
    "group": _DATUM + [(("--max-cosets",), "max_cosets", int, 10**6, False, None, None)],
    "plotdata": [(("--pmax",), "pmax", int, None, True, None, None),
                 (("--d",), "d", int, None, True, None, None),
                 (("--threads",), "threads", int, _CPUS, False, None, None),
                 (("--out",), "out", None, None, False, None, None)],
    "ras": [(("--pmax",), "pmax", int, None, True, None, None)],
}


def test_parser_surface():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: [(tuple(a.option_strings), a.dest, a.type, a.default, a.required, a.choices,
                a.nargs)
               for a in sp._actions if not isinstance(a, argparse._HelpAction)]
        for name, sp in commands.choices.items()}
    assert list(surface) == list(PARSER_SURFACE)
    assert surface == PARSER_SURFACE


def test_tables_unreadable_fixture_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "tables", "--verify", str(tmp_path / "missing.csv"))
    assert code == 2
    assert "cannot read table" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    from lenssurg import search

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(search, "enumerate_search", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["search", "--pmax", "10", "--threads", "1"])


def test_closed_stdout_exits_quietly():
    # like `lenssurg dinv 9973 1 | head -1`: the 179 kB of output cannot all
    # sit in the pipe, so the writer meets the closed read end
    src = str(Path(lenssurg.__file__).resolve().parent.parent)   # the code under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "lenssurg", "dinv", "9973", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"0 2493\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == CLOSED_PIPE
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
