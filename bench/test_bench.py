"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q bench
"""

import json
import os
import subprocess
import sys

from checks import check_report, counts_from_p, sha256
from spans import SpanTree, layer_metrics
from workloads import WORKLOADS, is_squarefree, make_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["curves.count_points", 0.0, 10.0, -1, 100],  # 0
        ["curves.validate", 1.0, 4.0, 0, None],        # 1, child of 0
        ["arith.build_tables", 2.0, 3.0, 1, None],     # 2, grandchild of 0
        ["arith.extension", 5.0, 6.5, 0, None],        # 3, child of 0
        ["curves.count_points", 11.0, 12.0, -1, 0],    # 4, cache hit
    ]
    t = SpanTree(spans)
    assert t.self_time == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5, 1.0]
    m = layer_metrics(spans)
    assert m["curves.count_s"] == 5.5 + 1.0
    assert m["curves.count_points"] == 100
    assert m["curves.count_us_per_point"] == 1e6 * 6.5 / 100
    assert m["curves.validate_s"] == 3.0
    assert m["arith.table_build_calls"] == 1


def test_nested_spans_of_one_group_count_once_and_ranks_split():
    spans = [
        ["asymptotics.dominance_check", 0.0, 4.0, -1, None],
        ["asymptotics.rhs_group", 1.0, 2.0, 0, None],
        ["asymptotics.rhs_group", 5.0, 7.0, -1, None],
        ["zeta.zeta_from_counts", 8.0, 9.0, -1, None],
        ["zeta.regenerate_counts", 8.2, 8.4, 3, None],  # ZetaData check
        ["zeta.regenerate_counts", 9.0, 9.5, -1, None],
        ["mass.hn_ss_mass", 10.0, 13.0, -1, 5],
        ["mass.hn_ss_mass", 13.0, 14.0, -1, 2],
    ]
    m = layer_metrics(spans)
    assert m["asymptotics.rhs_s"] == 1.0 + 2.0
    assert m["asymptotics.dominance_s"] == 4.0
    assert m["zeta.regenerate_calls"] == 1
    assert m["zeta.regenerate_s"] == 0.5
    assert m["mass.hn_s.n5"] == 3.0 and m["mass.hn_s.n2"] == 1.0
    assert m["mass.hn_s.n3"] == 0 and m["mass.hn_calls"] == 2


HEAVY_1 = {"schema": 1, "command": "zeta", "trunc": 9, "curves": [{
    "name": "heavy-1", "q": 3, "g": 2,
    "counts": [4, 14, 28, 110, 244, 638, 2188, 6494, 19684],
    "zeta": {"q": 3, "g": 2, "a": ["1", "0", "2", "0", "9"]}}]}
HEAVY_CFG = {"curves": [{"name": "heavy-1", "kind": "hyperelliptic", "p": 3,
                         "h": [], "f": [0, 1, 0, 0, 0, 1]}]}


def test_checker_rejects_one_altered_byte():
    data = json.dumps(HEAVY_1).encode()
    pin = sha256(data)
    assert check_report(data, "zeta", HEAVY_CFG, pin) == []
    altered = data.replace(b"19684", b"19685")
    assert len(altered) == len(data)
    assert check_report(altered, "zeta", HEAVY_CFG, pin)
    # without a pin (any other seed) the meaning check still catches it
    problems = check_report(altered, "zeta", HEAVY_CFG)
    assert problems and "N_9" in problems[0]


def test_mass_and_asymptote_meaning_checks():
    cfg = {"curves": [{"name": "c", "kind": "hyperelliptic", "p": 2,
                       "h": [1], "f": [0, 0, 0, 1]}],
           "groups": [{"family": "GL", "n": 2}]}
    row = {"curve": "c", "group": "GL2",
           "semistable": [{"d": 0, "agree": True}, {"d": 1, "agree": False}]}
    mass = json.dumps({"command": "mass", "masses": [row]}).encode()
    assert any("disagree" in p for p in check_report(mass, "mass", cfg))
    fam = {"group": {"name": "GL2"}, "rows": [{}],
           "rhs": {"value": "1.5", "tail": "-1e-9"}}
    asym = json.dumps({"command": "asymptote", "family": [fam]}).encode()
    assert any("tail" in p for p in check_report(asym, "asymptote", cfg))


def test_counts_from_p_matches_known_curve():
    # y^2 + y = x^3 over F_2 is supersingular: P(T) = 1 + 2T^2
    assert counts_from_p(2, [1, 0, 2], 4) == [3, 9, 9, 9]


def test_seed_keeps_shape_and_seed_zero_is_committed():
    for name in WORKLOADS:
        base = make_config(name, 0)[1]
        for seed in (1, 2):
            cfg = make_config(name, seed)[1]
            assert make_config(name, seed)[1] == cfg  # deterministic
            for old, new in zip(base["curves"], cfg["curves"]):
                assert {k: v for k, v in old.items() if k != "f"} == \
                       {k: v for k, v in new.items() if k != "f"}
                if "f" in old:
                    assert len(new["f"]) == len(old["f"])
                    assert new["f"][-1] == old["f"][-1]
                    if new["p"] != 2:
                        assert is_squarefree(new["f"], new["p"])
            assert {k: v for k, v in base.items() if k != "curves"} == \
                   {k: v for k, v in cfg.items() if k != "curves"}
    assert not is_squarefree([1, 2, 1], 3)  # (x + 1)^2
    assert is_squarefree([0, 1, 0, 0, 0, 1], 3)


def test_missing_wrap_target_is_reported_not_raised():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import bunzeta.cli, spans\n"
        "rec = spans.Recorder()\n"
        "targets = spans.TARGETS + [\n"
        "    ('gone.fn', 'bunzeta.cli', '_pmap_removed', None),\n"
        "    ('gone.method', 'bunzeta.arith', 'NoSuchClass.add_c', None),\n"
        "    ('gone.module', 'bunzeta.removed', 'f', None)]\n"
        "print(spans.install(rec, targets))\n"
        "bunzeta.cli.zeta_from_counts(2, 1, [3])\n"
        "print(sorted({s[0] for s in rec.spans}))\n"
    ) % (os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert out[0] == "['gone.fn', 'gone.method', 'gone.module']"
    assert out[1] == "['zeta.regenerate_counts', 'zeta.zeta_from_counts']"
