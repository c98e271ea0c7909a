import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from equitor.cli import main, parse_input
from equitor.errors import InputError
from equitor.pipeline import Options
from conftest import fiber_queries, repeated_queries

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "equitor", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return proc


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_analyze_example_5_7():
    rep = run_json("analyze", str(FIXTURES / "example_5_7.json"))
    assert rep["cl_RG"] == [3]
    assert rep["t"] == 3
    assert rep["obs_restriction"] == [3, 3]
    assert rep["equidimensional"] == "yes"
    assert rep["cofree"] == "no"
    assert rep["reflection_restriction"] == []
    assert rep["certificates"]["obstruction_quotient_cofree"] is True
    assert rep["oracle_agreement"]["null_fiber"] is True


def test_analyze_example_5_8():
    rep = run_json("analyze", str(FIXTURES / "example_5_8.json"))
    assert rep["cl_R"] == [3]
    assert rep["urcl"] == [3]
    assert rep["obs_restriction"] == [3]
    assert rep["stable"] == "yes"
    assert rep["equidimensional"] == "yes"
    assert rep["cofree"] == "no"


def test_class_group_polynomial_ring():
    rep = run_json("class-group", str(FIXTURES / "polynomial_ring.json"))
    assert rep["invariant_factors"] == []
    rep = run_json("class-group", str(FIXTURES / "example_5_8.json"), "--of", "RG")
    assert rep["invariant_factors"] == [3]


def test_determinism_byte_equality():
    for fx in ("example_5_7", "example_5_8", "polynomial_ring", "scaling_torus"):
        out1 = run_cli("analyze", str(FIXTURES / f"{fx}.json")).stdout
        out2 = run_cli("analyze", str(FIXTURES / f"{fx}.json")).stdout
        assert out1 == out2


def test_schema_round_trip():
    rep = run_json("analyze", str(FIXTURES / "example_5_7.json"))
    action1, opts1 = parse_input(rep["input"])
    with open(FIXTURES / "example_5_7.json", "r", encoding="utf-8") as fh:
        action2, _ = parse_input(json.load(fh))
    assert action1 == action2


@pytest.mark.parametrize("command", ["dchi", "free"])
def test_negative_character_in_both_spellings(command):
    # argparse reads "-1,0" as an option unless it is joined to --chi
    fx = str(FIXTURES / "example_5_7.json")
    spaced = run_cli(command, fx, "--chi", "-1,0")
    joined = run_cli(command, fx, "--chi=-1,0")
    assert (spaced.returncode, joined.returncode) == (0, 0), spaced.stderr
    assert spaced.stdout == joined.stdout
    assert json.loads(spaced.stdout)["chi"] == [-1, 0]


def test_dchi_and_free():
    rep = run_json("dchi", str(FIXTURES / "example_5_8.json"), "--chi", "0,1")
    assert rep["coefficients"] == [1, 0, 0]
    assert rep["order"] == 3 and rep["module_order"] == 3
    rep = run_json("free", str(FIXTURES / "example_5_8.json"), "--chi", "0,3")
    assert rep["free"] is True and rep["witness"] is not None
    rep = run_json("free", str(FIXTURES / "example_5_8.json"), "--chi", "0,1")
    assert rep["free"] is False


@pytest.mark.parametrize("fixture,chi", [("example_5_8", "0,1"), ("example_5_7", "1,0")])
def test_dchi_searches_its_point_once(fixture, chi, capsys):
    # both class maps and both orders read the one searched point
    with fiber_queries() as calls:
        assert main(["dchi", str(FIXTURES / f"{fixture}.json"), "--chi", chi]) == 0
    assert repeated_queries(calls) == []
    assert [key[1] for key, _ in calls] == [tuple(map(int, chi.split(",")))]
    assert json.loads(capsys.readouterr().out)["chi"] == list(map(int, chi.split(",")))


@pytest.mark.parametrize("command", ["dchi", "free"])
def test_a_character_with_an_empty_fiber_is_bad_input(command, capsys):
    # no monomial of example 5.8 has weight (1, 0): exit 2, not a failed check
    assert main([command, str(FIXTURES / "example_5_8.json"), "--chi", "1,0"]) == 2
    assert "--chi" in capsys.readouterr().err


def test_obstruction_command():
    rep = run_json("obstruction", str(FIXTURES / "example_5_8.json"))
    assert rep["t"] == 3 and rep["t_tilde"] == 3 and rep["t_reflection"] == 1
    assert rep["obs_restriction"] == [3]


def test_equidim_oracle_only():
    rep = run_json("equidim", str(FIXTURES / "example_5_7.json"), "--oracle-only")
    assert rep["equidimensional"] == "yes"
    assert rep["null_fiber_dimension"] == rep["expected"] == 2


def test_cofree_command():
    rep = run_json("cofree", str(FIXTURES / "example_5_7.json"), "--degree-cap", "10")
    assert rep["cofree"] == "no"
    rep = run_json("cofree", str(FIXTURES / "scaling_torus.json"))
    assert rep["cofree"] == "yes"


def test_sweep_command():
    rep = run_json("sweep", str(FIXTURES / "example_5_7.json"), "--bound", "3")
    assert rep["urcl"] == [3] and rep["cltilde"] == [3]
    assert rep["group_certified"] is True


def test_pretty_mode():
    proc = run_cli("analyze", str(FIXTURES / "polynomial_ring.json"), "--pretty")
    assert proc.returncode == 0
    assert proc.stdout.startswith("{\n")
    json.loads(proc.stdout)


def test_exit_code_invalid_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ambient_dim": 2}')
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 2
    assert "torus_rank" in proc.stderr

    worse = tmp_path / "worse.json"
    worse.write_text("{nope")
    proc = run_cli("analyze", str(worse))
    assert proc.returncode == 2

    missing = tmp_path / "nothere.json"
    proc = run_cli("analyze", str(missing))
    assert proc.returncode == 2


def test_exit_code_missing_chi():
    proc = run_cli("dchi", str(FIXTURES / "example_5_8.json"))
    assert proc.returncode == 2


def test_parse_input_pointered_errors():
    with pytest.raises(InputError, match=r"\$\.weights\[1\]"):
        parse_input(
            {
                "ambient_dim": 2,
                "torus_rank": 1,
                "weights": [[1], [1, 2]],
            }
        )
    with pytest.raises(InputError, match=r"\$\.quotient_congruences\[0\]\.modulus"):
        parse_input(
            {
                "ambient_dim": 1,
                "torus_rank": 1,
                "weights": [[1]],
                "quotient_congruences": [{"coeffs": [1], "modulus": -1}],
            }
        )
    with pytest.raises(InputError, match=r"\$\.options\.degree_cap"):
        parse_input({"ambient_dim": 1, "torus_rank": 1, "weights": [[1]], "options": {"degree_cap": "x"}})


@pytest.mark.parametrize("options", [{"sweep_bound": -1}, {"solver_norm_cap": -5}], ids=str)
def test_negative_option_exits_2(tmp_path, options):
    # a negative sweep bound sweeps nothing and would read 5.7 as cofree
    # with t = 1; a negative depth cap would exit 3 as if a cap were reached
    (name,) = options
    doc = json.loads((FIXTURES / "example_5_7.json").read_text())
    doc["options"] = options
    path = tmp_path / "options.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert f"$.options.{name}: expected an integer >= 0" in proc.stderr


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Options)])
def test_parse_input_rejects_every_negative_option(name):
    doc = {"ambient_dim": 1, "torus_rank": 1, "weights": [[1]], "options": {name: -1}}
    with pytest.raises(InputError, match=rf"\$\.options\.{name}: expected an integer >= 0"):
        parse_input(doc)
    doc["options"] = {name: 0}
    assert getattr(parse_input(doc)[1], name) == 0


@pytest.mark.parametrize("command,flag", [("sweep", "--bound"), ("cofree", "--degree-cap")])
def test_negative_flag_exits_2(command, flag):
    proc = run_cli(command, str(FIXTURES / "example_5_7.json"), flag, "-1")
    assert proc.returncode == 2
    assert f"{flag}: expected an integer >= 0" in proc.stderr


COMMANDS = ["analyze", "invariants", "class-group", "dchi", "free", "obstruction", "equidim", "cofree", "sweep"]


@pytest.mark.parametrize("command", COMMANDS)
def test_negative_flags_exit_2_on_every_command(command, capsys):
    for flag in ("--bound", "--degree-cap"):
        assert main([command, str(FIXTURES / "example_5_8.json"), "--chi", "0,3", f"{flag}=-4"]) == 2
        assert f"{flag}: expected an integer >= 0" in capsys.readouterr().err


def test_free_honours_the_degree_cap():
    # no weight-(0, 3) element has degree 0, so a cap of 0 leaves the oracle
    # without a fiber; the default cap of 12 decides it
    args = ("free", str(FIXTURES / "example_5_8.json"), "--chi", "0,3")
    assert run_json(*args)["oracle"] == "yes"
    assert run_json(*args, "--degree-cap", "0")["oracle"] == "inconclusive"


def test_zero_flags_are_honoured():
    # a flag of 0 is a bound, not "not given" (the defaults are 2 and 12)
    rep = run_json("sweep", str(FIXTURES / "example_5_7.json"), "--bound", "0")
    assert rep["bound"] == 0 and rep["urcl"] == [] and rep["sweep_stable"] is False
    rep = run_json("cofree", str(FIXTURES / "example_5_7.json"), "--degree-cap", "0")
    assert rep["degree_cap"] == 0 and rep["oracle_checked"] == 0


def test_non_equidimensional_report(tmp_path):
    doc = {
        "ambient_dim": 4,
        "torus_rank": 1,
        "torsion_moduli": [],
        "weights": [[1], [1], [-1], [-1]],
        "quotient_congruences": [],
    }
    path = tmp_path / "scaling4.json"
    path.write_text(json.dumps(doc))
    rep = run_json("analyze", str(path))
    assert rep["equidimensional"] == "no"
    assert rep["cofree"] == "no"
    assert rep["t"] is None
    assert rep["cltilde"] == [0]
    assert rep["obs_restriction"] is None
    rep = run_json("obstruction", str(path))
    assert rep["obstruction"] is None


def test_main_in_process(tmp_path, capsys):
    rc = main(["analyze", str(FIXTURES / "scaling_torus.json")])
    out = capsys.readouterr().out
    assert rc == 0
    rep = json.loads(out)
    assert rep["stable"] == "no"
    assert rep["equidimensional"] == "yes"
    assert rep["reductions"]["stability_quotient"] is True


def test_fourier_motzkin_cap_exits_3(monkeypatch, capsys, tmp_path):
    import equitor.lattice

    # orthant pool #32: its coset search eliminates
    doc = tmp_path / "orthant_32.json"
    doc.write_text(json.dumps({"ambient_dim": 4, "torus_rank": 1, "weights": [[3], [3], [-3], [-2]]}))
    monkeypatch.setattr(equitor.lattice, "FM_MAX_ROWS", 0)
    assert main(["analyze", str(doc)]) == 3
    assert "Fourier-Motzkin" in capsys.readouterr().err


@pytest.mark.parametrize("value", [2.9, True, "3"], ids=repr)
def test_options_must_be_integers(value):
    # int() would read these as 2, 1 and 3
    doc = {"ambient_dim": 1, "torus_rank": 1, "weights": [[1]], "options": {"sweep_bound": value}}
    with pytest.raises(InputError, match=r"\$\.options\.sweep_bound: expected an integer$"):
        parse_input(doc)


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"weights": [[True]]}, r"\$\.weights\[0\]\[0\]"),
        ({"weights": [[1.0]]}, r"\$\.weights\[0\]\[0\]"),
        ({"quotient_congruences": [{"coeffs": [True], "modulus": 2}]}, r"\$\.quotient_congruences\[0\]\.coeffs\[0\]"),
        ({"quotient_congruences": [{"coeffs": [1], "modulus": True}]}, r"\$\.quotient_congruences\[0\]\.modulus"),
        ({"torsion_moduli": [True]}, r"\$\.torsion_moduli\[0\]"),
        ({"ambient_dim": "1"}, r"\$\.ambient_dim"),
    ],
    ids=["weight-true", "weight-float", "coeff-true", "modulus-true", "torsion-true", "dim-string"],
)
def test_every_integer_field_rejects_non_integers(tmp_path, doc, where):
    # a JSON true is a Python int: unchecked, it would be stored as True,
    # echoed as true, and a modulus of true would become modulus 1
    doc = {"ambient_dim": 1, "torus_rank": 1, "weights": [[1]], **doc}
    with pytest.raises(InputError, match=where + ": expected an integer$"):
        parse_input(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2 and "expected an integer" in proc.stderr


def test_unknown_option_keys_ignored_and_defaults_from_options():
    from equitor.pipeline import Options

    doc = {"ambient_dim": 1, "torus_rank": 1, "weights": [[1]], "options": {"degree_cap": 7, "x": 1}}
    _, options = parse_input(doc)
    assert options == Options(degree_cap=7)
