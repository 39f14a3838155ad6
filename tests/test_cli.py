import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lenssurg.certify import certificate_from_json, certify
from lenssurg.cli import CLOSED_PIPE, main


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
    golden = (Path(__file__).parent / "golden_certs" / "group_2001_721_82.txt").read_text()
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


def test_ras(capsys):
    code, out, _ = run(capsys, "ras", "--pmax", "20")
    assert code == 0
    assert "no violations" in out


@pytest.mark.parametrize("argv", [
    ("search", "--pmin", "9", "--pmax", "3"),
    ("search", "--pmin", "1", "--pmax", "3"),
    ("tables", "--verify", "table1", "--pmin", "50", "--pmax", "40"),
    ("plotdata", "--pmax", "1", "--d", "2"),
    ("ras", "--pmax", "3"),
    ("tables", "--verify", "table1", "--pmin", "0", "--pmax", "30"),
    ("tables", "--verify", "table1", "--pmax", "0"),
    ("families", "--lmax", "-3"),
    ("families", "--lmax", "0"),
    ("group", "22", "3", "5", "--max-cosets", "-5"),
    ("dinv", "1", "5", "3"),
    ("search", "--pmax", "30", "--threads", "0"),
    ("search", "--pmax", "30", "--threads", "-2"),
    ("tables", "--verify", "table1", "--pmax", "30", "--threads", "0"),
    ("plotdata", "--pmax", "30", "--d", "2", "--threads", "-1"),
])
def test_bad_ranges_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error:")


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "lenssurg", "dinv", "9973", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"0 2493\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == CLOSED_PIPE
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
