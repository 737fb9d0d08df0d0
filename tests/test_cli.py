"""End-to-end runs of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clonelab
from clonelab.cli import main
from clonelab.profiles import load_fixture, serialize_profile


@pytest.fixture
def profile_path(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.profile"
        path.write_text(serialize_profile(load_fixture(name)), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clones_text(capsys, profile_path):
    code, out, _ = run(capsys, "clones", profile_path("P2"))
    assert code == 0
    assert out.splitlines() == ["a1", "a2", "b", "c", "a1,a2", "a1,a2,b,c"]


def test_clones_json(capsys, profile_path):
    code, out, _ = run(capsys, "clones", profile_path("P2"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert ["a1", "a2"] in payload["clone_sets"]


def test_pqtree(capsys, profile_path):
    code, out, _ = run(capsys, "pqtree", profile_path("P2"))
    assert code == 0
    assert out.strip() == "b⊙(a1⊙a2)⊙c"
    code, out, _ = run(capsys, "pqtree", profile_path("P2"), "--json")
    payload = json.loads(out)
    assert payload["expression"] == "b⊙(a1⊙a2)⊙c"
    assert payload["degree"] == 3
    assert payload["tree"]["kind"] == "P"


def test_winners(capsys, profile_path):
    path = profile_path("P2")
    assert run(capsys, "winners", path, "--rule", "stv")[:2] == (0, "a1\n")
    assert run(capsys, "winners", path, "--rule", "stv^cc")[:2] == (0, "a2\n")
    code, out, _ = run(capsys, "winners", profile_path("P3"), "--rule", "bp", "--json")
    assert code == 0 and json.loads(out) == {"winners": ["a1", "a2"]}


def test_rank(capsys, profile_path):
    code, out, _ = run(capsys, "rank", profile_path("P2"), "--rule", "stv*")
    assert code == 0 and out == "a1>b>c>a2\n"
    code, out, _ = run(capsys, "rank", profile_path("P8"), "--rule", "rp_n*")
    assert code == 0 and out.splitlines() == ["a>b>c", "c>b>a"]


def test_rank_cap_inconclusive(capsys, profile_path):
    code, _, err = run(capsys, "rank", profile_path("P8"), "--rule", "bp*", "--cap", "3")
    assert code == 2
    assert "inconclusive" in err


def test_cc_transform_trace(capsys, profile_path):
    code, out, err = run(capsys, "cc-transform", profile_path("P2"), "--rule", "stv", "--trace")
    assert code == 0
    assert out == "a2\n"
    trace_lines = [l for l in err.splitlines() if l.startswith("[trace]")]
    assert len(trace_lines) == 2
    assert "P node" in trace_lines[0] and "Q node" in trace_lines[1]
    # without --trace, stderr stays quiet
    code, out, err = run(capsys, "cc-transform", profile_path("P2"), "--rule", "stv")
    assert code == 0 and err == ""


def test_check_pass_fail_and_inconclusive(capsys, profile_path, tmp_path):
    path = profile_path("P2")
    code, out, _ = run(capsys, "check", path, "--axiom", "cc", "--rule", "stv^cc")
    assert code == 0 and out == "holds\n"
    code, out, _ = run(capsys, "check", path, "--axiom", "cc", "--rule", "stv")
    assert code == 1
    assert out.splitlines()[0] == "fails"
    string5 = tmp_path / "s5.profile"
    string5.write_text("candidates: a,b,c,d,e\n1: a>b>c>d>e\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(string5), "--axiom", "cc",
                       "--rule", "pv^cc", "--cap", "3")
    assert code == 2
    assert out.splitlines()[0] == "inconclusive"
    code, out, _ = run(capsys, "check", str(string5), "--axiom", "cc_spf",
                       "--rule", "stv*", "--cap", "3")
    assert code == 2
    assert out.splitlines()[0] == "inconclusive"


def test_check_json_witness(capsys, profile_path):
    code, out, _ = run(capsys, "check", profile_path("P2"), "--axiom", "ioc",
                       "--rule", "pv", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["witness"]["clone_set"] == ["a1", "a2"]


def test_check_spf_axiom(capsys, profile_path):
    code, out, _ = run(capsys, "check", profile_path("P8"), "--axiom", "cc_spf",
                       "--rule", "bp*")
    assert code == 1
    code, out, _ = run(capsys, "check", profile_path("P8"), "--axiom", "cc_spf",
                       "--rule", "rp_i:1*")
    assert code == 0


def test_candidacy(capsys, profile_path):
    code, out, _ = run(capsys, "candidacy", profile_path("P2"), "--rule", "rp_i:1",
                       "--form", "gamma")
    assert code == 0
    assert out.splitlines() == [
        "a1: run_dominant=yes obviously_dominant=no",
        "a2: run_dominant=yes obviously_dominant=no",
        "b: run_dominant=yes obviously_dominant=yes",
        "c: run_dominant=yes obviously_dominant=yes",
    ]
    code, out, _ = run(capsys, "candidacy", profile_path("P2"), "--rule", "stv_i:1",
                       "--form", "lambda", "--candidate", "a2")
    assert code == 0
    assert out == "a2: obviously_dominant=yes\n"


def test_usage_errors(capsys, profile_path):
    path = profile_path("P1")
    assert run(capsys, "winners", path, "--rule", "nope")[0] == 64
    assert run(capsys, "rank", path, "--rule", "stv")[0] == 64
    assert run(capsys, "candidacy", path, "--rule", "stv_i:1", "--form", "lambda",
               "--candidate", "zz")[0] == 64
    # indecisive rule in a candidacy game is a usage problem
    assert run(capsys, "candidacy", profile_path("P5"), "--rule", "pv",
               "--form", "gamma")[0] == 64
    # so is a voter index the profile does not have, on the masked path too
    code, out, err = run(capsys, "candidacy", profile_path("P2"), "--rule", "rp_i:40",
                         "--form", "gamma")
    assert code == 64 and out == "" and "voter index 40 out of range 1..12" in err
    # an unknown candidate is reported before the game is built
    code, _, err = run(capsys, "candidacy", profile_path("P5"), "--rule", "pv",
                       "--form", "gamma", "--candidate", "zz")
    assert code == 64 and "'zz'" in err
    # --cap applies only to bp*, and only as a positive count
    code, out, err = run(capsys, "rank", profile_path("P5"), "--rule", "stv*", "--cap", "1")
    assert code == 64 and out == "" and "bp*" in err
    # check --cap applies only to the axioms that enumerate decompositions
    for axiom in ("mono", "ioc"):
        code, out, err = run(capsys, "check", profile_path("P2"), "--axiom", axiom,
                             "--rule", "pv", "--cap", "1")
        assert code == 64 and out == "" and repr(axiom) in err
    for argv in (["rank", path, "--rule", "bp*", "--cap", "0"],
                 ["check", profile_path("P2"), "--axiom", "cc", "--rule", "pv", "--cap", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
    capsys.readouterr()


def test_argparse_errors_use_usage_code(capsys, profile_path):
    with pytest.raises(SystemExit) as exc:
        main(["winners", profile_path("P1")])  # missing --rule
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["check", profile_path("P1"), "--axiom", "nope", "--rule", "pv"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", profile_path("P1")])
    assert exc.value.code == 64
    capsys.readouterr()


def test_parse_errors(capsys, tmp_path):
    missing = str(tmp_path / "nope.profile")
    assert run(capsys, "clones", missing)[0] == 65
    bad = tmp_path / "bad.profile"
    bad.write_text("candidates: a,b\n1: a>z\n", encoding="utf-8")
    assert run(capsys, "clones", str(bad))[0] == 65


def test_output_is_deterministic(capsys, profile_path):
    path = profile_path("P3")
    first = run(capsys, "winners", path, "--rule", "sc", "--json")
    second = run(capsys, "winners", path, "--rule", "sc", "--json")
    assert first == second
    t1 = run(capsys, "pqtree", profile_path("P1"), "--json")
    t2 = run(capsys, "pqtree", profile_path("P1"), "--json")
    assert t1 == t2


def test_networkx_is_never_imported():
    """Importing the package and running Split Cycle loads no networkx."""
    package = Path(clonelab.__file__).resolve().parent
    p3 = package / "fixtures" / "P3.profile"
    script = (
        "import sys\n"
        "import clonelab\n"
        "from clonelab.cli import main\n"
        f"code = main(['winners', {str(p3)!r}, '--rule', 'sc'])\n"
        "print('networkx' in sys.modules, code)\n"
    )
    path = [str(package.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["a1,a2", "False 0"]
