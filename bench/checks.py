"""Output checks on report bytes.

Every check returns a list of problems; an empty list means the report
passed.  The meaning checks use their own integer arithmetic and import
nothing from the program they check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from workloads import genus

HERE = os.path.dirname(os.path.abspath(__file__))


def load_pins() -> dict:
    """sha256 of the report bytes, keyed by workload (seed 0) and by
    ``demo/<command>`` for the smoke check."""
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def counts_from_p(q: int, a: list[int], M: int) -> list[int]:
    """N_1..N_M from P(T) = sum a_k T^k by Newton's identities:
    N_m = q^m + 1 - s_m with s_m = -(m a_m + sum_(k<m) a_k s_(m-k))."""
    s = [0] * (M + 1)
    for m in range(1, M + 1):
        acc = m * (a[m] if m < len(a) else 0)
        for k in range(1, min(m, len(a))):
            acc += a[k] * s[m - k]
        s[m] = -acc
    return [q ** m + 1 - s[m] for m in range(1, M + 1)]


def _check_zeta(report: dict, cfg: dict) -> list[str]:
    problems = []
    curves = report.get("curves", [])
    if len(curves) != len(cfg["curves"]):
        problems.append(f"{len(curves)} curve rows for "
                        f"{len(cfg['curves'])} curves")
    for cur in curves:
        z = cur["zeta"]
        g, q = z["g"], z["q"]
        counts = cur["counts"]
        want = counts_from_p(q, [int(c) for c in z["a"]], len(counts))
        for m in range(g + 1, len(counts) + 1):
            if counts[m - 1] != want[m - 1]:
                problems.append(f"{cur['name']}: N_{m} = {counts[m - 1]} but "
                                f"P(T) gives {want[m - 1]}")
                break
    return problems


def _check_mass(report: dict, cfg: dict) -> list[str]:
    rows = report.get("masses", [])
    problems = []
    if len(rows) != len(cfg["curves"]) * len(cfg["groups"]):
        problems.append(f"{len(rows)} mass rows for "
                        f"{len(cfg['curves'])} x {len(cfg['groups'])} pairs")
    for row in rows:
        for ss in row.get("semistable", []):
            if ss["agree"] is not True:
                problems.append(f"{row['curve']} x {row['group']} d={ss['d']}: "
                                "Zagier and HN disagree")
    return problems


def _finite_rhs(where: str, rhs: dict) -> list[str]:
    value, tail = float(rhs["value"]), float(rhs["tail"])
    if not (math.isfinite(value) and math.isfinite(tail) and tail >= 0):
        return [f"{where}: rhs value {rhs['value']} tail {rhs['tail']}"]
    return []


def _check_asymptote(report: dict, cfg: dict) -> list[str]:
    members = sum(1 for c in cfg.get("curves", []) if genus(c) >= 1)
    problems = []
    family = report.get("family", [])
    if members and len(family) != len(cfg["groups"]):
        problems.append(f"{len(family)} family sections for "
                        f"{len(cfg['groups'])} groups")
    for fam in family:
        name = fam["group"]["name"]
        if len(fam["rows"]) != members:
            problems.append(f"family x {name}: {len(fam['rows'])} rows for "
                            f"{members} members")
        problems += _finite_rhs(f"family x {name}", fam["rhs"])
    for entry in report.get("groups", []):
        problems += _finite_rhs(f"groups[{entry['group']}]", entry["rhs"])
    return problems


_MEANING = {"zeta": _check_zeta, "mass": _check_mass,
            "asymptote": _check_asymptote}


def check_report(data: bytes, command: str, cfg: dict,
                 pin: str | None = None) -> list[str]:
    """Problems with one report: its pinned hash, if any, and its meaning."""
    if pin is not None and sha256(data) != pin:
        return [f"sha256 {sha256(data)} differs from the pinned {pin}"]
    try:
        report = json.loads(data)
    except ValueError as e:
        return [f"report is not JSON ({e})"]
    if report.get("command") != command:
        return [f"report command {report.get('command')!r}, want {command!r}"]
    try:
        return _MEANING[command](report, cfg)
    except (KeyError, TypeError, ValueError) as e:
        return [f"malformed {command} report ({e!r})"]
