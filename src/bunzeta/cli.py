"""Config-driven command line: ``zeta``, ``mass`` and ``asymptote`` reports.

One JSON config file drives all subcommands; each subcommand reads the
sections it needs.  Exact rationals are serialized as ``"p/q"`` strings
and binary64 logs with 17 significant digits, so reports re-parse without
precision loss and are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .arith import DEFAULT_ENUM_BUDGET, FiniteField, format_rational
from .asymptotics import (
    TVData,
    convergence_report,
    dominance_check,
    rhs_general,
    rhs_group,
    tv_bound,
)
from .curves import (
    CurveModel,
    HyperellipticCurve,
    PlaneCurve,
    ProjectiveLine,
    count_series,
    genus_of,
)
from .groups import GroupSpec, group_spec_from_json
from .mass import RouteMismatchError, hn_ss_mass, mass_bun, zagier_ss_mass
from .zeta import (
    InconsistentCountsError,
    class_number,
    degree_spectrum,
    quasi_residue,
    regenerate_counts,
    special_value,
    zeta_from_counts,
)
from .asymptotics import log_q_fraction

SCHEMA_VERSION = 1
DEFAULT_TRUNC = 8


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the element."""


def _f17(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: invalid JSON ({e})") from e
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"config {path}: schema must be {SCHEMA_VERSION}, "
            f"got {cfg.get('schema')!r}")
    return cfg


def _integer(value, where: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string)."""
    if type(value) is not int:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def build_curve(entry: dict) -> CurveModel:
    name = entry.get("name")
    if not name:
        raise ConfigError("curves[]: every curve needs a name")

    def integer(key, value):
        return _integer(value, f"curves[{name}].{key}")

    try:
        kind = entry["kind"]
        p = integer("p", entry["p"])
        e = integer("e", entry.get("e", 1))
        base = FiniteField.of_order(p, e)
        if kind == "projective-line":
            return ProjectiveLine(base, name=name)
        if kind == "hyperelliptic":
            h = [integer("h", c) for c in entry.get("h", [])]
            f = [integer("f", c) for c in entry["f"]]
            return HyperellipticCurve.from_ints(base, h, f, name=name)
        if kind == "plane":
            monomials = [[integer("monomials", c) for c in mono]
                         for mono in entry["monomials"]]
            degree = integer("degree", entry["degree"])
            return PlaneCurve.from_list(base, monomials, degree, name=name)
        raise ConfigError(f"curves[{name}]: unknown kind {kind!r}")
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"curves[{name}]: {e}") from e


def build_curves(cfg: dict) -> list[CurveModel]:
    entries = cfg.get("curves") or []
    return [build_curve(e) for e in entries]


def build_groups(cfg: dict) -> list[GroupSpec]:
    out = []
    for i, entry in enumerate(cfg.get("groups") or []):
        try:
            out.append(group_spec_from_json(entry))
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"groups[{i}]: {e}") from e
    return out


def build_tv(cfg: dict) -> TVData | None:
    entry = cfg.get("tv")
    if entry is None:
        return None
    try:
        return TVData.from_map(int(entry["q"]), entry.get("beta", {}),
                               entry.get("groups"))
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"tv: {e}") from e


def _run_config(cfg: dict, args) -> dict:
    out_cfg = cfg.get("output") or {}
    return {
        "trunc": args.trunc if args.trunc is not None
        else _integer(cfg.get("trunc", DEFAULT_TRUNC), "trunc"),
        "budget": args.budget if args.budget is not None
        else _integer(cfg.get("budget", DEFAULT_ENUM_BUDGET), "budget"),
        "format": args.format or out_cfg.get("format", "json"),
        "out": args.out or out_cfg.get("path"),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_zeta(cfg: dict, run: dict) -> dict:
    curves = build_curves(cfg)
    if not curves:
        raise ConfigError("curves: the zeta command needs at least one curve")
    trunc, budget = run["trunc"], run["budget"]

    def one(model: CurveModel) -> dict:
        try:
            g = genus_of(model, budget)
            m_top = max(trunc, g)
            counts = count_series(model, m_top, budget)
            z = zeta_from_counts(model.q, g, counts.counts[:g])
            # enumerated counts beyond g are cross-checks of P(T)
            regen = regenerate_counts(z, trunc)
            for m in range(g + 1, trunc + 1):
                if counts.n(m) != regen[m - 1]:
                    raise InconsistentCountsError(
                        f"{model.name}: enumerated N_{m} = {counts.n(m)} but "
                        f"P(T) regenerates {regen[m - 1]}")
            spec = degree_spectrum(counts)
            return {
                "name": model.name,
                "kind": model.kind,
                "q": model.q,
                "g": g,
                "counts": list(counts.counts[:trunc]),
                "spectrum": list(spec.B[:trunc]),
                "zeta": z.to_json_dict(),
                "class_number": str(class_number(z)),
                "quasi_residue": format_rational(quasi_residue(z)),
                "special_values": {
                    str(s): format_rational(special_value(z, s))
                    for s in (2, 3, 4)},
            }
        except Exception as e:
            raise ConfigError(f"curves[{model.name}]: {e}") from e

    rows = [one(model) for model in curves]
    return {"schema": SCHEMA_VERSION, "command": "zeta", "trunc": trunc,
            "curves": rows}


def cmd_mass(cfg: dict, run: dict) -> dict:
    curves = build_curves(cfg)
    groups = build_groups(cfg)
    if not curves:
        raise ConfigError("curves: the mass command needs at least one curve")
    if not groups:
        raise ConfigError("groups: the mass command needs at least one group")
    budget = run["budget"]

    def one(pair) -> dict:
        model, spec = pair
        try:
            g = genus_of(model, budget)
            counts = count_series(model, g, budget) if g else None
            z = zeta_from_counts(model.q, g,
                                 counts.counts[:g] if counts else [])
            total = mass_bun(spec, z)
            row = {
                "curve": model.name,
                "group": spec.name,
                "mass": format_rational(total.value),
                "log_q_mass": _f17(log_q_fraction(total.value, model.q)),
            }
            n = spec.is_gl()
            if n is not None:
                ss = []
                for d in range(n):
                    zg = zagier_ss_mass(n, d, z)
                    hn = hn_ss_mass(n, d, z)
                    if zg.value != hn.value:
                        raise RouteMismatchError(
                            f"curves[{model.name}] x groups[{spec.name}]: "
                            f"M^ss({n}, {d}) is {zg.value} by Zagier but "
                            f"{hn.value} by HN")
                    entry = {
                        "d": d,
                        "zagier": format_rational(zg.value),
                        "hn": format_rational(hn.value),
                        "agree": True,
                    }
                    if zg.value > 0:
                        entry["log_q_mass"] = _f17(
                            log_q_fraction(zg.value, model.q))
                    ss.append(entry)
                row["semistable"] = ss
            return row
        except RouteMismatchError:
            raise
        except Exception as e:
            raise ConfigError(
                f"curves[{model.name}] x groups[{spec.name}]: {e}") from e

    pairs = [(c, s) for c in curves for s in groups]
    rows = [one(pair) for pair in pairs]
    return {"schema": SCHEMA_VERSION, "command": "mass", "masses": rows}


def cmd_asymptote(cfg: dict, run: dict) -> dict:
    groups = build_groups(cfg)
    tv = build_tv(cfg)
    if not groups:
        raise ConfigError("groups: the asymptote command needs at least one group")
    trunc, budget = run["trunc"], run["budget"]
    # the family path only concerns positive-genus members; genus-0 curves
    # in a shared config are simply not part of this section
    curves = [c for c in build_curves(cfg) if genus_of(c, run["budget"]) >= 1]
    if tv is None and len(curves) < 1:
        raise ConfigError("tv/curves: the asymptote command needs tv data "
                          "or a curve family of positive genus")
    report: dict = {"schema": SCHEMA_VERSION, "command": "asymptote",
                    "trunc": trunc}
    if tv is not None:
        bound = tv_bound(tv)
        entries = []
        for spec in groups:
            r = rhs_group(tv, spec, trunc)
            entry = {"group": spec.name,
                     "rhs": {"value": _f17(r.value), "tail": _f17(r.tail)}}
            n = spec.is_gl()
            if n is not None and n <= 6:
                entry["dominance"] = dominance_check(tv, n, trunc).to_json_dict()
            entries.append(entry)
        report["tv"] = tv.to_json_dict()
        report["tv_bound"] = format_rational(bound)
        report["tv_feasible"] = bound <= 1
        report["groups"] = entries
        if tv.groups:
            d_bound = int((cfg.get("tv") or {}).get("d_bound", 1))
            general = rhs_general(tv.groups, tv.q, d_bound)
            report["general"] = {"value": _f17(general.value),
                                 "weight_envelope_ok": general.envelope_ok,
                                 "d_bound": d_bound}
    if curves:
        fam_reports = []
        for spec in groups:
            try:
                rep = convergence_report(curves, spec, trunc, budget)
            except Exception as e:
                raise ConfigError(f"family x groups[{spec.name}]: {e}") from e
            fam_reports.append(rep.to_json_dict())
        report["family"] = fam_reports
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    cmd = report["command"]
    if cmd == "zeta":
        w.writerow(["curve", "m", "N_m", "B_m"])
        for cur in report["curves"]:
            for i, (n_m, b_m) in enumerate(zip(cur["counts"],
                                               cur["spectrum"]), start=1):
                w.writerow([cur["name"], i, n_m, b_m])
    elif cmd == "mass":
        w.writerow(["curve", "group", "kind", "d", "mass", "log_q_mass",
                    "agree"])
        for row in report["masses"]:
            w.writerow([row["curve"], row["group"], "total", "",
                        row["mass"], row["log_q_mass"], ""])
            for ss in row.get("semistable", []):
                w.writerow([row["curve"], row["group"], "semistable",
                            ss["d"], ss["zagier"], ss.get("log_q_mass", ""),
                            ss["agree"]])
    elif cmd == "asymptote":
        w.writerow(["group", "index", "genus", "lhs", "gap", "ss_lhs",
                    "ss_gap", "rhs", "rhs_tail"])
        for fam in report.get("family", []):
            for row in fam["rows"]:
                w.writerow([fam["group"]["name"], row["index"], row["genus"],
                            row["lhs"], row["gap"], row.get("ss_lhs", ""),
                            row.get("ss_gap", ""), fam["rhs"]["value"],
                            fam["rhs"]["tail"]])
        for entry in report.get("groups", []):
            w.writerow([entry["group"], "", "", "", "", "", "",
                        entry["rhs"]["value"], entry["rhs"]["tail"]])
    else:  # pragma: no cover - commands are fixed above
        raise ValueError(f"unknown command {cmd}")
    return buf.getvalue()


def _zeta_sidecar(report: dict) -> str:
    side = {"schema": SCHEMA_VERSION, "command": "zeta-sidecar",
            "curves": [{k: cur[k] for k in
                        ("name", "q", "g", "zeta", "class_number",
                         "quasi_residue", "special_values")}
                       for cur in report["curves"]]}
    return json.dumps(side, indent=2, sort_keys=True) + "\n"


def emit(report: dict, run: dict) -> None:
    fmt, out = run["format"], run["out"]
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ConfigError(f"output.format: unknown format {fmt!r}")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if fmt == "csv" and report["command"] == "zeta":
            with open(out + ".zeta.json", "w", encoding="utf-8") as fh:
                fh.write(_zeta_sidecar(report))
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bunzeta",
        description="Exact zeta functions of curves over finite fields and "
                    "masses of bundle moduli stacks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("zeta", "point counts, degree spectra and zeta invariants"),
            ("mass", "exact stack masses (totals and semistable)"),
            ("asymptote", "limit-formula evaluation and convergence report")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (default from config, else json)")
        p.add_argument("--trunc", type=int, help="series truncation depth M")
        p.add_argument("--budget", type=int, help="enumeration budget")
    return ap


_COMMANDS = {"zeta": cmd_zeta, "mass": cmd_mass, "asymptote": cmd_asymptote}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        run = _run_config(cfg, args)
        if run["trunc"] < 1:
            raise ConfigError("trunc: must be >= 1")
        report = _COMMANDS[args.command](cfg, run)
        emit(report, run)
    except Exception as e:  # config and library errors keep their message
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
