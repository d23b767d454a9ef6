import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bunzeta.cli import ConfigError, build_curve, main
from bunzeta.curves import CurveModel, HyperellipticCurve
from bunzeta.zeta import ZetaData, regenerate_counts

BASE_CONFIG = {
    "schema": 1,
    "curves": [
        {"name": "P1/F2", "kind": "projective-line", "p": 2},
        {"name": "E1", "kind": "hyperelliptic", "p": 2, "h": [1],
         "f": [0, 0, 0, 1]},
        {"name": "C2", "kind": "hyperelliptic", "p": 2, "h": [1],
         "f": [0, 0, 0, 0, 0, 1]},
    ],
    "groups": [
        {"family": "Gm", "n": 1},
        {"family": "GL", "n": 2},
    ],
    "tv": {"q": 4, "beta": {"1": "1"}},
    "trunc": 4,
    "output": {"format": "json"},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return str(path)


def run_cli(args):
    return main(args)


def test_zeta_command_json(config_path, tmp_path, capsys):
    out = tmp_path / "zeta.json"
    assert run_cli(["zeta", "--config", config_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    by_name = {c["name"]: c for c in report["curves"]}
    p1 = by_name["P1/F2"]
    assert p1["counts"] == [3, 5, 9, 17]
    assert p1["class_number"] == "1"
    assert p1["quasi_residue"] == "2"
    e1 = by_name["E1"]
    assert e1["class_number"] == "3"
    assert e1["zeta"]["a"] == ["1", "0", "2"]
    assert Fraction(e1["special_values"]["2"]) == 3


def test_zeta_command_csv_with_sidecar(config_path, tmp_path):
    out = tmp_path / "zeta.csv"
    assert run_cli(["zeta", "--config", config_path, "--format", "csv",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "curve,m,N_m,B_m"
    assert lines[1] == "P1/F2,1,3,3"
    sidecar = json.loads((tmp_path / "zeta.csv.zeta.json").read_text())
    assert sidecar["curves"][1]["zeta"]["a"] == ["1", "0", "2"]


def test_mass_command(config_path, tmp_path):
    out = tmp_path / "mass.json"
    assert run_cli(["mass", "--config", config_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = {(r["curve"], r["group"]): r for r in report["masses"]}
    gl2_p1 = rows[("P1/F2", "GL2")]
    assert gl2_p1["mass"] == "1/3"
    ss = {e["d"]: e for e in gl2_p1["semistable"]}
    assert ss[0]["zagier"] == ss[0]["hn"] == "1/6" and ss[0]["agree"]
    assert ss[1]["zagier"] == "0" and ss[1]["agree"]
    assert rows[("P1/F2", "Gm")]["mass"] == "1"


def test_asymptote_command(config_path, tmp_path):
    out = tmp_path / "asym.json"
    assert run_cli(["asymptote", "--config", config_path, "--out",
                    str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["tv_bound"] == "1"
    assert report["tv_feasible"] is True
    by_group = {e["group"]: e for e in report["groups"]}
    assert abs(float(by_group["Gm"]["rhs"]["value"]) - 1.2075187496394219) < 1e-12
    assert by_group["GL2"]["dominance"]["dominant"] is True
    fam = report["family"]
    assert len(fam) == 2 and len(fam[0]["rows"]) == 2  # P1 not in the family


def test_asymptote_zero_densities_give_exact_dim(tmp_path):
    cfg = {
        "schema": 1,
        "groups": [{"family": "GL", "n": 3}],
        "tv": {"q": 4, "beta": {}},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "zero_out.json"
    assert run_cli(["asymptote", "--config", str(path), "--out",
                    str(out)]) == 0
    report = json.loads(out.read_text())
    entry = report["groups"][0]
    assert float(entry["rhs"]["value"]) == 9.0
    assert float(entry["rhs"]["tail"]) == 0.0
    assert report["tv_bound"] == "0"


def test_reports_byte_identical_across_runs(config_path, tmp_path):
    outs = []
    for i in range(3):
        out = tmp_path / f"mass{i}.json"
        assert run_cli(["mass", "--config", config_path,
                        "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_emitted_json_reparses(config_path, tmp_path):
    for cmd in ("zeta", "mass", "asymptote"):
        out = tmp_path / f"{cmd}.json"
        assert run_cli([cmd, "--config", config_path, "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["schema"] == 1
        assert parsed["command"] == cmd


def test_empty_curves_is_usage_error(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, curves=[])
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert "curves" in capsys.readouterr().err


def test_bad_schema_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, schema=99)))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert "schema" in capsys.readouterr().err


@pytest.mark.parametrize("schema,got", [
    (True, "true"), (1.0, "1.0"), (None, "null"), ("1", '"1"'),
    ([1], "array"), ({"v": 1}, "object"),
], ids=["True", "1.0", "null", "string", "array", "object"])
def test_schema_must_be_json_integer(tmp_path, capsys, schema, got):
    # True == 1 and 1.0 == 1 in Python, but neither is the JSON integer 1;
    # a scalar is named by its JSON text, an object or array by its type
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, schema=schema)))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: config {path}: schema must be 1, got {got}\n"


def test_missing_schema_named_as_missing_key(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({k: v for k, v in BASE_CONFIG.items()
                                if k != "schema"}))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: config {path}: missing key 'schema'\n"


def test_missing_config(capsys):
    assert run_cli(["zeta", "--config", "/nonexistent/cfg.json"]) == 1
    assert "config" in capsys.readouterr().err


def test_singular_model_error_names_curve(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["curves"] = [{"name": "nodal", "kind": "hyperelliptic", "p": 2,
                      "h": [0, 1], "f": [0, 0, 0, 1]}]
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "nodal" in err


def test_composite_p_with_large_cofactor_refused_at_once(tmp_path, capsys):
    # the least factor 2 settles it: no trial division up to sqrt(2^61 - 1)
    p = 2 * (2 ** 61 - 1)
    cfg = dict(BASE_CONFIG, curves=[{"name": "E", "kind": "hyperelliptic",
                                     "p": p, "h": [1], "f": [0, 0, 0, 1]}])
    path = tmp_path / "composite.json"
    path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == f"error: curves[E]: {p} is not prime\n"


def test_plane_smoothness_bound_key_is_ignored(tmp_path):
    # the Klein entry of older configs still carries the key the former
    # bounded scan read; unknown keys are ignored
    cfg = {"schema": 1, "trunc": 8, "curves": [
        {"name": "klein-quartic", "kind": "plane", "p": 2, "degree": 4,
         "monomials": [[3, 1, 0, 1], [0, 3, 1, 1], [1, 0, 3, 1]],
         "smoothness_bound": 9}]}
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "klein_out.json"
    assert run_cli(["zeta", "--config", str(path), "--out", str(out)]) == 0
    counts = json.loads(out.read_text())["curves"][0]["counts"]
    assert counts == [3, 5, 24, 17, 33, 38, 129, 257]


def test_singular_plane_quintic_names_curve(tmp_path, capsys):
    # singular only at five conjugate points of degree 5; a bounded scan
    # to degree 4 accepted it and the zeta step hit the Weil bound at N_5
    cfg = {"schema": 1, "trunc": 6, "curves": [
        {"name": "norm-quintic", "kind": "plane", "p": 2, "degree": 5,
         "monomials": [[0, 0, 5, 1], [0, 3, 2, 1], [0, 5, 0, 1],
                       [1, 1, 3, 1], [1, 3, 1, 1], [2, 1, 2, 1],
                       [3, 0, 2, 1], [3, 2, 0, 1], [5, 0, 0, 1]]}]}
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "norm-quintic" in err and "singular" in err


@pytest.mark.parametrize("degree,monomials", [(0, [[0, 0, 0, 1]]),
                                              (-1, [[0, 0, -1, 1]]),
                                              (2, [[3, -1, 0, 1]])],
                         ids=["degree-0", "degree-negative",
                              "negative-exponent"])
def test_bad_plane_form_names_curve(degree, monomials):
    entry = {"name": "bad-form", "kind": "plane", "p": 2, "degree": degree,
             "monomials": monomials}
    with pytest.raises(ConfigError, match="bad-form"):
        build_curve(entry)


KLEIN_MONOMIALS = [[3, 1, 0, 1], [0, 3, 1, 1], [1, 0, 3, 1]]


@pytest.mark.parametrize("key,entry", [
    ("f", {"kind": "hyperelliptic", "p": 2, "h": [1], "f": [0, 0, 0, 1.0]}),
    ("h", {"kind": "hyperelliptic", "p": 2, "h": [True], "f": [0, 0, 0, 1]}),
    ("p", {"kind": "hyperelliptic", "p": 2.9, "h": [1], "f": [0, 0, 0, 1]}),
    ("e", {"kind": "projective-line", "p": 2, "e": "2"}),
    ("degree", {"kind": "plane", "p": 2, "degree": 4.5,
                "monomials": KLEIN_MONOMIALS}),
    ("monomials", {"kind": "plane", "p": 3, "degree": 4,
                   "monomials": [[3, 1, 0, 1.0], [0, 3, 1, 1]]}),
], ids=["float-coefficient", "bool-coefficient", "float-p", "string-e",
        "float-degree", "float-monomial"])
def test_non_integer_curve_field_names_curve(key, entry):
    with pytest.raises(ConfigError, match=rf"curves\[bad-int\]\.{key}: "
                                          "expected an integer"):
        build_curve({"name": "bad-int", **entry})


@pytest.mark.parametrize("kind,got", [(True, "true"), (None, "null"),
                                      ("elliptic", '"elliptic"'),
                                      ([1], "array")],
                         ids=["true", "null", "string", "array"])
def test_unknown_kind_shown_as_json(kind, got):
    with pytest.raises(ConfigError,
                       match=rf"^curves\[X\]: unknown kind {got}$"):
        build_curve({"name": "X", "kind": kind, "p": 2})


@pytest.mark.parametrize("monomials,message", [
    ([[3, 1, 0]], r"monomials\[0\]: expected 4 integers \[i, j, k, c\], got 3"),
    ([[3, 1, 0, 1], [0, 3, 1, 1, 0]],
     r"monomials\[1\]: expected 4 integers \[i, j, k, c\], got 5"),
    (KLEIN_MONOMIALS + [[0, 0, 4, 1], [0, 0, 4, 1]],
     r"monomials\[4\]: repeats the exponents \[0, 0, 4\] of monomials\[3\]"),
    ([[3, 1, 0, 1], [0, 3, 1, 1], [3, 1, 0, 2]],
     r"monomials\[2\]: repeats the exponents \[3, 1, 0\] of monomials\[0\]"),
], ids=["short", "long", "repeat", "repeat-other-coefficient"])
def test_bad_monomial_entry_named(monomials, message):
    # over F_2 the repeated z^4 terms would sum to 0, the Klein quartic;
    # reading the list as a dict kept one of them, a singular curve
    entry = {"name": "X", "kind": "plane", "p": 2, "degree": 4,
             "monomials": monomials}
    with pytest.raises(ConfigError, match=rf"^curves\[X\]\.{message}$"):
        build_curve(entry)


@pytest.mark.parametrize("key,entry,got", [
    ("h", {"kind": "hyperelliptic", "p": 2, "h": 1, "f": [0, 0, 0, 1]},
     "number"),
    ("f", {"kind": "hyperelliptic", "p": 2, "h": [1], "f": 5}, "number"),
    ("f", {"kind": "hyperelliptic", "p": 2, "h": [1], "f": "x^3"}, "string"),
    ("monomials", {"kind": "plane", "p": 2, "degree": 4, "monomials": 3},
     "number"),
    ("monomials", {"kind": "plane", "p": 2, "degree": 4,
                   "monomials": [[3, 1, 0, 1], {"x": 3}]}, "object"),
], ids=["number-h", "number-f", "string-f", "number-monomials",
        "object-monomial"])
def test_non_array_curve_field_names_curve(key, entry, got):
    message = rf"^curves\[bad-array\]\.{key}: expected a JSON array, got {got}$"
    with pytest.raises(ConfigError, match=message):
        build_curve({"name": "bad-array", **entry})


@pytest.mark.parametrize("key,value", [("trunc", 4.5), ("trunc", True),
                                       ("budget", "1024")])
def test_non_integer_run_field_rejected(tmp_path, capsys, key, value):
    cfg = dict(BASE_CONFIG, **{key: value})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert f"{key}: expected an integer" in capsys.readouterr().err


TV_ROW = {"deg": 1, "gamma": "1", "L": "3/4"}
TV_GENERAL = {"q": 4, "beta": {"1": "1"},
              "groups": [{"deg": 1, "gamma": "1", "L": "3/4"}], "d_bound": 2}


NOT_AN_INTEGER = "expected an integer"
NOT_A_RATIONAL = "cannot parse rational from"
NOT_DIGITS = "expected decimal digits"


@pytest.mark.parametrize("groups,tv,where,message", [
    ([{"family": "GL", "n": 2.5}], None, "groups[0].n",
     f"{NOT_AN_INTEGER}, got 2.5\n"),
    ([{"family": "Gm", "n": 1}, {"family": "GL", "n": True}], None,
     "groups[1].n", f"{NOT_AN_INTEGER}, got true\n"),
    ([{"family": "GL", "n": None}], None, "groups[0].n",
     f"{NOT_AN_INTEGER}, got null\n"),
    ([{"family": "GL", "n": "6"}], None, "groups[0].n",
     f'{NOT_AN_INTEGER}, got "6"\n'),
    ([{"family": "GL", "n": [2]}], None, "groups[0].n",
     f"{NOT_AN_INTEGER}, got array\n"),
    ([{"name": "G2", "dim": 14.0, "degrees": [2, 6]}], None, "groups[0].dim",
     NOT_AN_INTEGER),
    ([{"name": "G2", "dim": 14, "degrees": [2, "6"]}], None,
     "groups[0].degrees[1]", f'{NOT_AN_INTEGER}, got "6"\n'),
    ([{"name": "G2", "dim": 14, "degrees": 2}], None, "groups[0].degrees",
     "expected a JSON array, got number"),
    (None, dict(TV_GENERAL, q=4.7), "tv.q", NOT_AN_INTEGER),
    (None, dict(TV_GENERAL, q="4"), "tv.q",
     f'{NOT_AN_INTEGER}, got "4"\n'),
    (None, dict(TV_GENERAL, groups=[{"deg": 1.5, "gamma": "1", "L": "3/4"}]),
     "tv.groups[0].deg", NOT_AN_INTEGER),
    (None, dict(TV_GENERAL, d_bound=1.9), "tv.d_bound", NOT_AN_INTEGER),
    # bool is an int subclass, and int() reads "1_0" as 10
    ([{"family": "GL", "n": 2, "tamagawa": True}], None,
     "groups[0].tamagawa", NOT_A_RATIONAL),
    ([{"family": "Gm", "n": 1},
      {"name": "G2", "dim": 14, "degrees": [2, 6], "tamagawa": True}], None,
     "groups[1].tamagawa", NOT_A_RATIONAL),
    ([{"family": "GL", "n": 2, "tamagawa": "1/0"}], None,
     "groups[0].tamagawa", 'zero denominator in "1/0"\n'),
    (None, dict(TV_GENERAL, beta={"1": True}), "tv.beta.1",
     f"{NOT_A_RATIONAL} true\n"),
    (None, dict(TV_GENERAL, beta={"1": "x"}), "tv.beta.1",
     f'{NOT_A_RATIONAL} "x"\n'),
    (None, dict(TV_GENERAL, beta={"1": 0.5}), "tv.beta.1",
     f"{NOT_A_RATIONAL} 0.5\n"),
    (None, dict(TV_GENERAL, beta={"1": None}), "tv.beta.1",
     f"{NOT_A_RATIONAL} null\n"),
    (None, dict(TV_GENERAL, beta={"1": {"p": 1}}), "tv.beta.1",
     f"{NOT_A_RATIONAL} object\n"),
    (None, dict(TV_GENERAL, groups=[{"deg": 1, "gamma": True, "L": "3/4"}]),
     "tv.groups[0].gamma", NOT_A_RATIONAL),
    (None, dict(TV_GENERAL, groups=[TV_ROW, {"deg": 2, "gamma": "1",
                                             "L": False}]),
     "tv.groups[1].L", NOT_A_RATIONAL),
    (None, dict(TV_GENERAL, beta={"2": "1/0"}), "tv.beta.2",
     'zero denominator in "1/0"\n'),
    (None, dict(TV_GENERAL, beta={"1_0": "1"}), 'tv.beta: key "1_0"',
     NOT_DIGITS),
    (None, dict(TV_GENERAL, beta={" 1": "1"}), 'tv.beta: key " 1"',
     NOT_DIGITS),
    (None, dict(TV_GENERAL, beta={"1.0": "1"}), 'tv.beta: key "1.0"',
     NOT_DIGITS),
], ids=["float-n", "bool-n", "null-n", "string-n", "array-n", "float-dim",
        "string-degree", "number-degrees",
        "float-q", "string-q", "float-deg", "float-d_bound", "bool-tamagawa",
        "bool-raw-tamagawa", "zero-denominator-tamagawa", "bool-beta",
        "string-beta", "float-beta", "null-beta", "object-beta",
        "bool-gamma", "bool-L",
        "zero-denominator-beta", "underscore-key", "space-key",
        "decimal-point-key"])
def test_non_integer_group_or_tv_field_rejected(tmp_path, capsys, groups, tv,
                                                where, message):
    cfg = {"schema": 1, "groups": groups or [{"family": "Gm", "n": 1}],
           "tv": tv or TV_GENERAL}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["asymptote", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: {message}"), err


@pytest.mark.parametrize("command,cfg,message", [
    ("zeta", {"curves": [{"name": "X", "kind": "hyperelliptic", "p": 2,
                          "h": [1]}]}, "curves[X]: missing key 'f'"),
    ("zeta", {"curves": [{"name": "X", "p": 2}]},
     "curves[X]: missing key 'kind'"),
    ("asymptote", {"groups": [{"family": "GL"}]},
     "groups[0]: missing key 'n'"),
    ("asymptote", {"groups": [{"family": "Gm", "n": 1},
                              {"name": "G2", "dim": 14}]},
     "groups[1]: missing key 'degrees'"),
    ("asymptote", {"tv": dict(TV_GENERAL, groups=[{"gamma": "1", "L": "1"}])},
     "tv.groups[0]: missing key 'deg'"),
    ("asymptote", {"tv": dict(TV_GENERAL, groups=[TV_ROW, {"deg": 2,
                                                           "gamma": "1"}])},
     "tv.groups[1]: missing key 'L'"),
    ("asymptote", {"tv": {"beta": {"1": "1"}}}, "tv: missing key 'q'"),
], ids=["curve-f", "curve-kind", "group-n", "group-degrees", "tv-deg",
        "tv-L", "tv-q"])
def test_missing_required_key_named(tmp_path, capsys, command, cfg, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**BASE_CONFIG, "curves": [], **cfg}))
    assert run_cli([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("tv,message", [
    (dict(TV_GENERAL, d_bound=0), "tv.d_bound: must be >= 1"),
    ({"q": 4, "beta": {}, "d_bound": -3}, "tv.d_bound: must be >= 1"),
    (dict(TV_GENERAL, groups=[dict(TV_ROW, L="0")]),
     "tv.groups[0].L: must be > 0, got 0"),
    (dict(TV_GENERAL, groups=[TV_ROW, dict(TV_ROW, deg=2, L="-3/4")]),
     "tv.groups[1].L: must be > 0, got -3/4"),
    (dict(TV_GENERAL, groups=[dict(TV_ROW, deg=0)]),
     "tv.groups[0].deg: must be >= 1, got 0"),
    (dict(TV_GENERAL, groups=[TV_ROW, dict(TV_ROW, deg=-1)]),
     "tv.groups[1].deg: must be >= 1, got -1"),
    (dict(TV_GENERAL, q=6), "tv.q: must be a prime power, got 6"),
    (dict(TV_GENERAL, beta={"1": "-1"}), "tv.beta.1: must be >= 0, got -1"),
    (dict(TV_GENERAL, beta={"0": "1"}), "tv.beta.0: degree must be >= 1"),
    (dict(TV_GENERAL, beta={"1": "1", "01": "2"}),
     "tv.beta.1: duplicate degree"),
], ids=["d_bound-zero", "d_bound-without-groups", "L-zero", "L-negative",
        "deg-zero", "deg-negative", "q-not-prime-power", "beta-negative",
        "beta-degree-zero", "beta-duplicate-degree"])
def test_tv_value_out_of_range_named(tmp_path, capsys, tv, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, curves=[], tv=tv)))
    assert run_cli(["asymptote", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("groups,message", [
    ([{"family": "GL", "n": 0}], "groups[0]: rank parameter must be positive"),
    ([{"family": "Gm", "n": 1}, {"family": "E8", "n": 8}],
     'groups[1]: unsupported family "E8"; known: GL, SL, Sp, SO-odd, '
     "SO-even, Gm"),
    ([{"name": "G2", "dim": 0, "degrees": [2, 6]}],
     "groups[0]: G2: dim must be positive"),
    ([{"family": 7, "n": 1}],
     "groups[0].family: expected a JSON string, got number"),
    ([{"family": None, "n": 1}],
     "groups[0].family: expected a JSON string, got null"),
], ids=["n-zero", "family", "dim-zero", "numeric-family", "null-family"])
def test_group_value_out_of_range_named(tmp_path, capsys, groups, message):
    # an error about the group as a whole names the entry, not a key
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, curves=[], groups=groups)))
    assert run_cli(["asymptote", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_mass_route_mismatch_fails(config_path, monkeypatch, capsys):
    from bunzeta import cli, mass
    from bunzeta.mass import RouteMismatchError

    hn = mass.hn_ss_mass

    def skewed(n, d, z):
        return hn(n, d, z) + (d == 1)

    monkeypatch.setattr(mass, "hn_ss_mass", skewed)
    run = {"trunc": 4, "budget": 1 << 20, "format": "json", "out": None}
    with pytest.raises(RouteMismatchError,
                       match=r"curves\[P1/F2\] x groups\[GL2\]: "
                             r"M\^ss\(2, 1\) is 0 by Zagier but 1 by HN"):
        cli.cmd_mass(BASE_CONFIG, run)
    assert run_cli(["mass", "--config", config_path]) == 1
    err = capsys.readouterr()
    assert "Zagier" in err.err and err.out == ""


@pytest.mark.parametrize("p,h,f", [(3, [0, 0, 1], [1, 0, 1, 0, 2]),
                                   (2, [1], [0, 0, 0, 0, 1])],
                         ids=["conic", "genus-0"])
def test_degenerate_at_infinity_names_curve(tmp_path, capsys, p, h, f):
    cfg = dict(BASE_CONFIG)
    cfg["curves"] = [{"name": "degen", "kind": "hyperelliptic", "p": p,
                      "h": h, "f": f}]
    path = tmp_path / "degen.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "degen" in err and "infinity" in err


def test_enumerated_counts_cross_checked(config_path, monkeypatch, capsys):
    count = HyperellipticCurve._count

    def off_by_one(model, m, budget):
        n = count(model, m, budget)
        return n + 1 if model.name == "C2" and m == model.genus() + 1 else n

    monkeypatch.setattr(HyperellipticCurve, "_count", off_by_one)
    assert run_cli(["zeta", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert "C2" in err and "N_3" in err
    # the model once, then the stage and the quantity
    assert "curves[C2]: guard count N_3 = " in err and err.count("C2") == 1


@pytest.mark.parametrize("trunc, top", [
    (1, {"P1/F2": 1, "E1": 1, "C2": 2}),
    (2, {"P1/F2": 1, "E1": 2, "C2": 2}),
    (4, {"P1/F2": 1, "E1": 2, "C2": 3}),
])
def test_zeta_enumerates_only_to_the_guard(config_path, monkeypatch, trunc,
                                           top):
    # N_1..N_g fix P(T); N_(g+1) is counted only as the guard of trunc > g,
    # and no degree is counted twice
    seen = []
    count_points = CurveModel.count_points

    def record(model, m, budget):
        seen.append((model.name, m))
        return count_points(model, m, budget)

    monkeypatch.setattr(CurveModel, "count_points", record)
    assert run_cli(["zeta", "--config", config_path, "--trunc",
                    str(trunc)]) == 0
    assert seen == [(name, m) for name, k in top.items()
                    for m in range(1, k + 1)]


def test_over_limit_guard_refused_before_any_count(tmp_path, capsys,
                                                   count_log):
    # y^2 = x^25 + 2x + 2 over F_3 has g = 12: N_1..N_12 fit the table limit
    # and the guard N_13 does not, so trunc 13 fails before N_1..N_12 run
    path = tmp_path / "g12.json"
    path.write_text(json.dumps({"schema": 1, "curves": [
        {"name": "g12", "kind": "hyperelliptic", "p": 3,
         "f": [2, 2] + [0] * 23 + [1]}]}))
    assert run_cli(["zeta", "--config", str(path), "--trunc", "13"]) == 1
    assert ("curves[g12]: point count for g12 over GF(3^13) of size 1594323 "
            "exceeds the table limit 1048576") in capsys.readouterr().err
    assert count_log == []


def test_f2_guard_charged_against_the_budget_alone(tmp_path, capsys,
                                                   count_log):
    # y^2 + y = x^41 + x over F_2 (g = 20) builds no tables, so its guard
    # N_21 is charged only its 2^21 elements against the budget
    path = tmp_path / "g20.json"
    path.write_text(json.dumps({"schema": 1, "curves": [
        {"name": "g20", "kind": "hyperelliptic", "p": 2, "h": [1],
         "f": [0, 1] + [0] * 39 + [1]}]}))
    assert run_cli(["zeta", "--config", str(path), "--trunc", "21",
                    "--budget", str((1 << 21) - 1)]) == 1
    assert ("curves[g20]: point count for g20 over GF(2^21) of size 2097152 "
            "exceeds the budget 2097151") in capsys.readouterr().err
    assert count_log == []


@pytest.mark.parametrize("budget, rc, counted", [(8, 0, [1, 2, 3]),
                                                 (7, 1, [])])
def test_guard_gate_charges_the_budget(tmp_path, capsys, count_log,
                                       budget, rc, counted):
    # C2 has g = 2; trunc 3 adds the guard over F_8, which a budget of 8
    # admits and a budget of 7 refuses before F_2 and F_4 are counted
    count_log.real = not rc  # only the admitted run counts
    path = tmp_path / "c2.json"
    path.write_text(json.dumps(dict(BASE_CONFIG,
                                    curves=[BASE_CONFIG["curves"][2]])))
    assert run_cli(["zeta", "--config", str(path), "--trunc", "3",
                    "--budget", str(budget)]) == rc
    assert count_log == counted
    if rc:
        assert ("curves[C2]: point count for C2 over GF(2^3) of size 8 "
                "exceeds the budget 7") in capsys.readouterr().err


def test_mass_builds_one_zeta_per_curve(monkeypatch):
    # the family config pairs 6 curves with 7 groups: 6 zetas, not 42, in
    # mass and in asymptote
    from bunzeta import cli, curves

    family = Path(__file__).resolve().parents[1] / "bench" / "workloads" \
        / "family.json"
    calls = {"counts": 0, "zeta_from_counts": 0, "ZetaData": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(CurveModel, "counts",
                        counted("counts", CurveModel.counts))
    monkeypatch.setattr(curves, "zeta_from_counts",
                        counted("zeta_from_counts", curves.zeta_from_counts))
    monkeypatch.setattr(ZetaData, "__new__",
                        counted("ZetaData", ZetaData.__new__))
    cfg = json.loads(family.read_text())
    run = {"trunc": 4, "budget": 1 << 20, "format": "json", "out": None}
    report = cli.cmd_mass(cfg, run)
    assert len(report["masses"]) == 42
    assert calls == {"counts": 6, "zeta_from_counts": 6, "ZetaData": 6}
    calls.update(dict.fromkeys(calls, 0))
    report = cli.cmd_asymptote(cfg, run)
    assert len(report["family"]) == 7
    assert calls == {"counts": 6, "zeta_from_counts": 6, "ZetaData": 6}


def test_duplicate_curve_name_rejected(tmp_path, capsys):
    cfg = dict(BASE_CONFIG)
    cfg["curves"] = [BASE_CONFIG["curves"][1],
                     dict(BASE_CONFIG["curves"][2], name="E1")]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(cfg))
    for command in ("zeta", "mass", "asymptote"):
        assert run_cli([command, "--config", str(path)]) == 1
        assert "curves[E1]: duplicate name" in capsys.readouterr().err


def test_singular_curve_named_by_every_command(tmp_path, capsys):
    # y^2 + x y = x^3 is singular at (0, 0); E1 before it is fine
    cfg = dict(BASE_CONFIG)
    cfg["curves"] = [BASE_CONFIG["curves"][1],
                     {"name": "sing", "kind": "hyperelliptic", "p": 2,
                      "h": [0, 1], "f": [0, 0, 0, 1]}]
    path = tmp_path / "sing.json"
    path.write_text(json.dumps(cfg))
    for command in ("zeta", "mass", "asymptote"):
        assert run_cli([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: curves[sing]: "), (command, err)
        assert "singular" in err


def test_asymptote_family_leaves_out_large_dominance_table(tmp_path):
    # GL7 is above the composition-table limit: both sections leave it out
    cfg = dict(BASE_CONFIG, groups=[{"family": "GL", "n": 7}])
    path = tmp_path / "gl7.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "gl7_out.json"
    assert run_cli(["asymptote", "--config", str(path), "--out",
                    str(out)]) == 0
    report = json.loads(out.read_text())
    assert "dominance" not in report["groups"][0]
    fam = report["family"][0]
    assert fam["dominance"] is None
    assert [r["genus"] for r in fam["rows"]] == [1, 2]
    assert all("ss_lhs" in r for r in fam["rows"])


def test_budget_error_names_curve(config_path, tmp_path, capsys):
    # E1's guard count N_2 enumerates F_4, over a budget of 3
    assert run_cli(["zeta", "--config", config_path, "--budget", "3"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "E1" in err


def test_counts_beyond_the_guard_come_from_p(config_path, tmp_path):
    # trunc 40 enumerates no field past the guard, so a budget of 1024 holds
    out = tmp_path / "zeta.json"
    assert run_cli(["zeta", "--config", config_path, "--trunc", "40",
                    "--budget", "1024", "--out", str(out)]) == 0
    curves = json.loads(out.read_text())["curves"]
    assert [c["name"] for c in curves] == ["P1/F2", "E1", "C2"]
    for cur in curves:
        z = ZetaData(q=cur["q"], g=cur["g"],
                     a=tuple(int(a) for a in cur["zeta"]["a"]))
        assert cur["counts"] == regenerate_counts(z, 40), cur["name"]
        assert len(cur["spectrum"]) == 40


def test_tight_budget_mass_still_completes(tmp_path):
    # rank-5 masses need no counting beyond the zeta inputs
    cfg = {
        "schema": 1,
        "curves": [{"name": "P1/F2", "kind": "projective-line", "p": 2}],
        "groups": [{"family": "GL", "n": 5}],
        "budget": 8,
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "tight_out.json"
    assert run_cli(["mass", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    row = report["masses"][0]
    assert {e["d"] for e in row["semistable"]} == {0, 1, 2, 3, 4}
    assert all(e["agree"] for e in row["semistable"])
    ss0 = next(e for e in row["semistable"] if e["d"] == 0)
    assert Fraction(ss0["zagier"]) == Fraction(1, 9999360)  # 1/|GL_5(F_2)|


def test_mass_csv(config_path, tmp_path):
    out = tmp_path / "mass.csv"
    assert run_cli(["mass", "--config", config_path, "--format", "csv",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "curve,group,kind,d,mass,log_q_mass,agree"
    assert any(line.startswith("P1/F2,GL2,semistable,0,1/6") for line in lines)


def test_asymptote_csv(config_path, tmp_path):
    out = tmp_path / "asym.csv"
    assert run_cli(["asymptote", "--config", config_path, "--format", "csv",
                    "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("group,index,genus,lhs,gap")
    assert len(lines) > 3


def test_stdout_emission(config_path, capsys):
    assert run_cli(["zeta", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["command"] == "zeta"


def test_unknown_format_rejected(config_path, tmp_path, capsys):
    cfg = json.loads(open(config_path).read())
    cfg["output"] = {"format": "xml"}
    path = tmp_path / "fmt.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert "format" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["zeta", "mass", "asymptote"])
def test_unknown_format_rejected_before_counting(config_path, tmp_path,
                                                 monkeypatch, capsys, command):
    cfg = json.loads(open(config_path).read())
    cfg["output"] = {"format": "xml"}
    path = tmp_path / "fmt.json"
    path.write_text(json.dumps(cfg))
    touched = []
    monkeypatch.setattr(CurveModel, "validate",
                        lambda model, budget=0: touched.append(model.name))
    assert run_cli([command, "--config", str(path)]) == 1
    assert 'output.format: unknown format "xml"' in capsys.readouterr().err
    assert touched == []

def test_asymptote_reports_general_local_values(tmp_path):
    cfg = {
        "schema": 1,
        "groups": [{"family": "Gm", "n": 1}],
        "tv": {"q": 4, "beta": {"1": "1"},
               "groups": [{"deg": 1, "gamma": "1", "L": "3/4"}],
               "d_bound": 2},
    }
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "gen_out.json"
    assert run_cli(["asymptote", "--config", str(path), "--out",
                    str(out)]) == 0
    report = json.loads(out.read_text())
    general = report["general"]
    # the constant-sheaf triple reproduces the summed part of the Picard
    # form: rhs(Gm) - 1
    rhs = float(report["groups"][0]["rhs"]["value"])
    assert abs(float(general["value"]) - (rhs - 1.0)) < 1e-15
    assert general["weight_envelope_ok"] is True
    assert general["d_bound"] == 2


# ---------------------------------------------------------------------------
# the command line itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    [],
    ["frobenius", "--config", "{cfg}"],
    ["zeta", "--config", "{cfg}", "--jobs", "2"],
    ["zeta", "--config", "{cfg}", "--out"],
    ["zeta", "--config", "--out", "x.json"],
    ["zeta", "--config", "{cfg}", "--trunc", "x"],
    ["mass", "--config", "{cfg}", "--budget=1e3"],
    ["zeta", "--config", "{cfg}", "extra"],
    ["asymptote", "--trunc", "4"],
], ids=["no-command", "unknown-command", "unknown-option", "missing-value",
        "option-as-value", "non-integer-trunc", "non-integer-budget",
        "positional", "no-config"])
def test_usage_error_exits_2_before_reading_config(config_path, monkeypatch,
                                                   capsys, args):
    from bunzeta import cli

    read = []
    monkeypatch.setattr(cli, "load_config", read.append)
    assert run_cli([a.format(cfg=config_path) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: bunzeta ")
    assert "\nerror: " in captured.err
    assert captured.out == ""
    assert read == []


@pytest.mark.parametrize("args", [["--help"], ["-h"],
                                  ["zeta", "--config", "x.json", "-h"],
                                  ["mass", "--trunc", "x", "--help"]])
def test_help_prints_usage_to_stdout(monkeypatch, capsys, args):
    from bunzeta import cli

    read = []
    monkeypatch.setattr(cli, "load_config", read.append)
    assert run_cli(args) == 0
    captured = capsys.readouterr()
    assert captured.out == cli.HELP
    assert captured.err == ""
    assert read == []


@pytest.mark.parametrize("command", ["zeta", "mass", "asymptote"])
def test_equals_form_gives_the_same_report(config_path, tmp_path, command):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run_cli([command, "--config", config_path, "--trunc", "5",
                    "--budget", "4096", "--format", "csv",
                    "--out", str(spaced)]) == 0
    assert run_cli([command, f"--config={config_path}", "--trunc=5",
                    "--budget=4096", "--format=csv",
                    f"--out={joined}"]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


def test_repeated_option_keeps_its_last_value(config_path, tmp_path):
    out = tmp_path / "zeta.json"
    assert run_cli(["zeta", "--config", config_path, "--trunc", "3",
                    "--out", str(tmp_path / "unused.json"), "--trunc=6",
                    "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["trunc"] == 6
    assert all(len(c["counts"]) == 6 for c in report["curves"])
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("flag,config_budget,source", [
    (["--budget", "0"], None, "--budget"),
    (["--budget", "-7"], None, "--budget"),
    (["--budget=-7"], 1024, "--budget"), ([], 0, "budget"),
    ([], -3, "budget")],
    ids=["flag-0", "flag-negative", "flag-over-config", "config-0",
         "config-negative"])
def test_nonpositive_budget_refused_before_any_curve(tmp_path, monkeypatch,
                                                     capsys, flag,
                                                     config_budget, source):
    from bunzeta import cli

    cfg = {"schema": 1,
           "curves": [{"name": "P1/F2", "kind": "projective-line", "p": 2}]}
    if config_budget is not None:
        cfg["budget"] = config_budget
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(cfg))
    built = []
    monkeypatch.setattr(cli, "build_curve", built.append)
    assert run_cli(["zeta", "--config", str(path), *flag]) == 1
    assert capsys.readouterr().err == f"error: {source}: must be >= 1\n"
    assert built == []


P1_ONLY = {"schema": 1,
           "curves": [{"name": "P1/F2", "kind": "projective-line", "p": 2}]}


@pytest.mark.parametrize("flag,config,message", [
    (["--trunc", "0"], {}, "--trunc: must be >= 1"),
    (["--trunc=-2"], {"trunc": 4}, "--trunc: must be >= 1"),
    ([], {"trunc": 0}, "trunc: must be >= 1"),
    (["--budget", "0"], {"budget": 1024}, "--budget: must be >= 1"),
    ([], {"budget": 0}, "budget: must be >= 1"),
    (["--format", "xml"], {}, '--format: unknown format "xml"'),
    (["--format=xml"], {"output": {"format": "csv"}},
     '--format: unknown format "xml"'),
    ([], {"output": {"format": "xml"}}, 'output.format: unknown format "xml"'),
    ([], {"output": {"format": None}}, "output.format: unknown format null"),
], ids=["trunc-flag", "trunc-flag-over-config", "trunc-config", "budget-flag",
        "budget-config", "format-flag", "format-flag-over-config",
        "format-config", "null-format-config"])
def test_bad_setting_names_its_source(tmp_path, monkeypatch, capsys, flag,
                                      config, message):
    # a bad value from a flag is named by the flag, one from the config by
    # its key; either way it exits 1 before any curve is built
    from bunzeta import cli

    path = tmp_path / "settings.json"
    path.write_text(json.dumps({**P1_ONLY, **config}))
    built = []
    monkeypatch.setattr(cli, "build_curve", built.append)
    assert run_cli(["zeta", "--config", str(path), *flag]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == []


@pytest.mark.parametrize("flag,config", [
    (["--trunc", "3"], {"trunc": 0}), (["--budget", "64"], {"budget": -1}),
    (["--format", "csv"], {"output": {"format": "xml"}})],
    ids=["trunc", "budget", "format"])
def test_good_flag_overrides_bad_config_value(tmp_path, capsys, flag, config):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({**P1_ONLY, **config}))
    assert run_cli(["zeta", "--config", str(path), *flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out


@pytest.mark.parametrize("cfg,where,expected,got", [
    ([BASE_CONFIG], "top level", "object", "array"),
    (dict(BASE_CONFIG, curves="E1"), "curves", "array", "string"),
    (dict(BASE_CONFIG, curves=[BASE_CONFIG["curves"][0], 7]), "curves[1]",
     "object", "number"),
    (dict(BASE_CONFIG, groups={"family": "GL", "n": 2}), "groups", "array",
     "object"),
    (dict(BASE_CONFIG, groups=[{"family": "Gm", "n": 1}, "GL2"]),
     "groups[1]", "object", "string"),
    (dict(BASE_CONFIG, tv=[4]), "tv", "object", "array"),
    (dict(BASE_CONFIG, tv={"q": 4, "beta": [1]}), "tv.beta", "object",
     "array"),
    (dict(BASE_CONFIG, tv={"q": 4, "beta": {}, "groups": {"deg": 1}}),
     "tv.groups", "array", "object"),
    (dict(BASE_CONFIG, tv={"q": 4, "beta": {}, "groups": [1]}),
     "tv.groups[0]", "object", "number"),
    (dict(BASE_CONFIG, output="csv"), "output", "object", "string"),
    (dict(BASE_CONFIG, output=None, tv={"q": 4, "beta": None}), "tv.beta",
     "object", "null"),
    (dict(BASE_CONFIG, curves=[dict(BASE_CONFIG["curves"][0], name=5)]),
     "curves[0].name", "string", "number"),
    (dict(BASE_CONFIG, groups=[{"family": "Gm", "n": 1},
                               {"name": None, "dim": 14, "degrees": [2, 6]}]),
     "groups[1].name", "string", "null"),
], ids=["top-level", "curves", "curve-entry", "groups", "group-entry", "tv",
        "tv-beta", "tv-groups", "tv-group-entry", "output", "null-beta",
        "curve-name", "group-name"])
def test_section_of_wrong_json_type_named(tmp_path, capsys, cfg, where,
                                          expected, got):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["asymptote", "--config", str(path)]) == 1
    if where == "top level":
        where = f"config {path}: top level"
    assert capsys.readouterr().err == \
        f"error: {where}: expected a JSON {expected}, got {got}\n"


@pytest.mark.parametrize("name", ["missing", None, ""],
                         ids=["missing", "null", "empty"])
def test_curve_without_name_gives_its_position(tmp_path, capsys, name):
    curves = [dict(c) for c in BASE_CONFIG["curves"]]
    if name == "missing":
        del curves[2]["name"]
    else:
        curves[2]["name"] = name
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, curves=curves)))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: curves[2]: every curve needs a name\n"


@pytest.mark.parametrize("value,got", [(True, "boolean"), (7, "number")])
def test_output_path_must_be_json_string(tmp_path, value, got):
    # a child process: open() takes a number (True is 1) as a file
    # descriptor, so a run that accepted one would write the report to a
    # descriptor of the process and close it
    import os
    import subprocess
    import sys

    import bunzeta

    path = tmp_path / "out.json"
    path.write_text(json.dumps(dict(P1_ONLY, output={"path": value})))
    env = dict(os.environ,
               PYTHONPATH=str(Path(bunzeta.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "bunzeta.cli", "zeta",
                           "--config", str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", f"error: output.path: expected a JSON string, got {got}\n")


def test_library_key_error_is_not_a_missing_config_key(config_path,
                                                       monkeypatch, capsys):
    # a KeyError raised inside the library is a failure of the library:
    # only the config reader words a missing key
    def broken(self):
        raise KeyError("modulus")

    monkeypatch.setattr(HyperellipticCurve, "genus", broken)
    assert run_cli(["zeta", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing key" not in err


@pytest.fixture
def int_digit_limit():
    """A setter of Python's limit on the digits of an int <-> str
    conversion (3.10.7 on), restored after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("Python limits int <-> str from 3.10.7 on")
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


def test_exact_values_print_at_any_length(tmp_path, int_digit_limit):
    # a mass with more digits than the default int -> str limit (4300)
    from bunzeta.groups import GroupSpec
    from bunzeta.mass import mass_bun

    quintic = {"name": "g2-quintic", "kind": "hyperelliptic", "p": 2,
               "h": [1], "f": [0, 0, 0, 0, 0, 1]}
    cfg = {"schema": 1, "curves": [quintic],
           "groups": [{"name": "Big", "dim": 20000, "degrees": [2]}]}
    path, out = tmp_path / "big.json", tmp_path / "big_out.json"
    path.write_text(json.dumps(cfg))
    int_digit_limit(4300)
    assert run_cli(["mass", "--config", str(path), "--out", str(out)]) == 0
    assert sys.get_int_max_str_digits() == 4300  # restored on return
    printed = json.loads(out.read_text())["masses"][0]["mass"]
    exact = mass_bun(GroupSpec("Big", 20000, (2,)),
                     build_curve(quintic).zeta(1 << 26))
    int_digit_limit(0)
    assert len(printed) > 4300 and Fraction(printed) == exact


def test_over_long_integer_literal_names_the_config(tmp_path, capsys,
                                                    int_digit_limit):
    path = tmp_path / "long.json"
    path.write_text('{"schema": 1, "trunc": ' + "7" * 5000 + "}")
    int_digit_limit(4300)
    assert run_cli(["zeta", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path}: invalid JSON (Exceeds the "
                          "limit (4300 digits)"), err
