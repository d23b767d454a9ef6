import json
from fractions import Fraction

import pytest

from bunzeta.cli import ConfigError, build_curve, main
from bunzeta.curves import HyperellipticCurve

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


@pytest.mark.parametrize("key,value", [("trunc", 4.5), ("trunc", True),
                                       ("budget", "1024")])
def test_non_integer_run_field_rejected(tmp_path, capsys, key, value):
    cfg = dict(BASE_CONFIG, **{key: value})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["zeta", "--config", str(path)]) == 1
    assert f"{key}: expected an integer" in capsys.readouterr().err


def test_mass_route_mismatch_fails(config_path, monkeypatch, capsys):
    from bunzeta import cli
    from bunzeta.mass import MassValue, RouteMismatchError

    hn = cli.hn_ss_mass

    def skewed(n, d, z):
        return MassValue(hn(n, d, z).value + (d == 1), ((n, d), z))

    monkeypatch.setattr(cli, "hn_ss_mass", skewed)
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


def test_budget_error_names_curve(config_path, tmp_path, capsys):
    assert run_cli(["zeta", "--config", config_path, "--trunc", "40",
                    "--budget", "1024"]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "E1" in err


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
