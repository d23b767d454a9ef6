"""Config-driven command line: ``zeta``, ``mass`` and ``asymptote`` reports.

One JSON config file drives all subcommands; each subcommand reads the
sections it needs.  Exact rationals are serialized as ``"p/q"`` strings
and binary64 logs with 17 significant digits, so reports re-parse without
precision loss and are byte-identical across runs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .arith import (
    DEFAULT_ENUM_BUDGET,
    FiniteField,
    format_float,
    format_rational,
)
from .asymptotics import (
    DOMINANCE_MAX_RANK,
    TVData,
    convergence_report,
    dominance_check,
    log_q_fraction,
    rhs_general,
    rhs_group,
    tv_bound,
)
from .curves import (
    CurveModel,
    HyperellipticCurve,
    PlaneCurve,
    ProjectiveLine,
)
from .groups import GroupSpec, builtin_group
from .mass import RouteMismatchError, mass_bun, semistable_mass
from .zeta import (
    ZetaData,
    class_number,
    degree_spectrum,
    quasi_residue,
    regenerate_counts,
    special_value,
    # not used here: bench/test_bench.py calls it through this module
    zeta_from_counts,  # noqa: F401
)

SCHEMA_VERSION = 1
DEFAULT_TRUNC = 8


class ConfigError(ValueError):
    """Invalid or missing configuration; the message names the element."""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def _typed(value, kind: type, where: str):
    """``value`` if it is a JSON object (``kind`` dict), array (list) or
    string (str), else a ConfigError naming ``where`` and the JSON type it
    has."""
    if type(value) is not kind:
        raise ConfigError(f"{where}: expected a JSON {_JSON_TYPES[kind]}, "
                          f"got {_JSON_TYPES[type(value)]}")
    return value


def _json_text(value) -> str:
    """A scalar as its JSON text (``true``, ``"6"``), else its JSON type."""
    if type(value) in (dict, list):
        return _JSON_TYPES[type(value)]
    return json.dumps(value)


def _key(entry: dict, key: str, where: str):
    """``entry[key]``, else a ConfigError naming ``where`` and the key."""
    if key not in entry:
        raise ConfigError(f"{where}: missing key {key!r}")
    return entry[key]


def _integer(value, where: str) -> int:
    """``value`` if it is a JSON integer (not a bool, float or string),
    else a ConfigError naming ``where``."""
    if type(value) is not int:
        raise ConfigError(f"{where}: expected an integer, got {_json_text(value)}")
    return value


def _rational(value, where: str) -> Fraction:
    """``value`` as a Fraction if it is a JSON integer or a ``"p"`` or
    ``"p/q"`` string, else a ConfigError naming ``where``."""
    if type(value) is int:
        return Fraction(value)
    problem = "cannot parse rational from"
    if type(value) is str:
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            problem = "zero denominator in"
        except ValueError:
            pass
    raise ConfigError(f"{where}: {problem} {_json_text(value)}")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"config {path}: {e}") from e
    except ValueError as e:  # a JSON error, or an integer over the digit limit
        raise ConfigError(f"config {path}: invalid JSON ({e})") from e
    _typed(cfg, dict, f"config {path}: top level")
    schema = _key(cfg, "schema", f"config {path}")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise ConfigError(
            f"config {path}: schema must be {SCHEMA_VERSION}, got {_json_text(schema)}")
    return cfg


def build_curve(entry: dict) -> CurveModel:
    """The model of a ``curves`` entry; ``build_curves`` checks its name."""
    name = entry["name"]
    where = f"curves[{name}]"

    def integer(key, value):
        return _integer(value, f"{where}.{key}")

    def integers(key, value):
        return [integer(key, c) for c in _typed(value, list, f"{where}.{key}")]

    kind = _key(entry, "kind", where)
    p = integer("p", _key(entry, "p", where))
    e = integer("e", entry.get("e", 1))
    if kind == "projective-line":
        make, args = ProjectiveLine, ()
    elif kind == "hyperelliptic":
        make, args = HyperellipticCurve.from_ints, (
            integers("h", entry.get("h", [])),
            integers("f", _key(entry, "f", where)))
    elif kind == "plane":
        monomials = [integers("monomials", mono) for mono in _typed(
            _key(entry, "monomials", where), list, f"{where}.monomials")]
        seen = {}
        for i, mono in enumerate(monomials):
            if len(mono) != 4:
                raise ConfigError(f"{where}.monomials[{i}]: expected 4 "
                                  f"integers [i, j, k, c], got {len(mono)}")
            if (first := seen.setdefault(tuple(mono[:3]), i)) != i:
                raise ConfigError(f"{where}.monomials[{i}]: repeats the "
                                  f"exponents {mono[:3]} of monomials[{first}]")
        make, args = PlaneCurve.from_list, (
            monomials, integer("degree", _key(entry, "degree", where)))
    else:
        raise ConfigError(f"{where}: unknown kind {_json_text(kind)}")
    try:  # every key is read: an error now is about the model as a whole
        return make(FiniteField.of_order(p, e), *args, name=name)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _entries(entries, where: str):
    """``(path, object)`` for each entry of the JSON array ``entries`` at
    the path ``where``, none when ``entries`` is None (absent or null); a
    wrong JSON type is a ConfigError naming the array or the entry, raised
    when the iteration reaches it."""
    if entries is None:
        return
    for i, entry in enumerate(_typed(entries, list, where)):
        yield f"{where}[{i}]", _typed(entry, dict, f"{where}[{i}]")


def build_curves(cfg: dict) -> list[CurveModel]:
    curves = []
    for where, entry in _entries(cfg.get("curves"), "curves"):
        if (name := entry.get("name")) is not None:
            _typed(name, str, f"{where}.name")
        if not name:
            raise ConfigError(f"{where}: every curve needs a name")
        curves.append(build_curve(entry))
    for i, model in enumerate(curves):
        if any(c.name == model.name for c in curves[:i]):
            raise ConfigError(f"curves[{model.name}]: duplicate name")
    return curves


def build_groups(cfg: dict) -> list[GroupSpec]:
    """The specs of the ``groups`` entries: a ``family`` with ``n``, or a
    raw ``name``, ``dim`` and ``degrees``, either with a ``tamagawa``."""
    out = []
    for where, entry in _entries(cfg.get("groups"), "groups"):
        if "family" in entry:
            family = _typed(entry["family"], str, f"{where}.family")
            n = _integer(_key(entry, "n", where), f"{where}.n")
        else:
            degrees = _typed(_key(entry, "degrees", where), list,
                             f"{where}.degrees")
            name = _typed(_key(entry, "name", where), str, f"{where}.name")
            dim = _integer(_key(entry, "dim", where), f"{where}.dim")
            degrees = tuple(_integer(d, f"{where}.degrees[{k}]")
                            for k, d in enumerate(degrees))
        tamagawa = _rational(entry.get("tamagawa", 1), f"{where}.tamagawa")
        try:  # about the group as a whole
            out.append(builtin_group(family, n, tamagawa)
                       if "family" in entry else
                       GroupSpec(name, dim, degrees, tamagawa))
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from e
    return out


def build_tv(cfg: dict) -> tuple[TVData, int] | None:
    """The ``tv`` section as TVData with its ``d_bound``, or None when it
    is absent."""
    entry = cfg.get("tv")
    if entry is None:
        return None
    q = _integer(_key(_typed(entry, dict, "tv"), "q", "tv"), "tv.q")
    beta = _typed(entry.get("beta", {}), dict, "tv.beta")
    if (d_bound := _integer(entry.get("d_bound", 1), "tv.d_bound")) < 1:
        raise ConfigError("tv.d_bound: must be >= 1")
    for m in beta:  # a degree is plain digits: int() reads "1_0" as 10
        if not (m.isascii() and m.isdigit()):
            raise ConfigError(
                f"tv.beta: key {_json_text(m)}: expected decimal digits")
    beta = tuple((int(m), _rational(v, f"tv.beta.{m}"))
                 for m, v in beta.items())
    groups = entry.get("groups")
    rows = None if groups is None else []
    for where, row in _entries(groups, "tv.groups"):
        deg, gamma, L = (_key(row, key, where) for key in ("deg", "gamma", "L"))
        rows.append((_integer(deg, f"{where}.deg"),
                     _rational(gamma, f"{where}.gamma"),
                     _rational(L, f"{where}.L")))
    try:  # TVData's messages start with the path inside the section
        return TVData(q, beta, rows), d_bound
    except ValueError as e:
        raise ConfigError(f"tv.{e}") from e


def _run_config(cfg: dict, opts: dict) -> dict:
    """The run settings, checked before any curve is built; ``opts`` are
    the command-line options of ``parse_args``, which override the config.
    An error names where its value came from: ``--flag`` or config key."""
    out_cfg = cfg.get("output")
    out_cfg = {} if out_cfg is None else _typed(out_cfg, dict, "output")
    run = {"out": opts["out"] or out_cfg.get("path")}
    if run["out"] is not None:  # open() takes a number as a descriptor
        _typed(run["out"], str, "output.path")
    for key, name, value in (
            ("trunc", "trunc", cfg.get("trunc", DEFAULT_TRUNC)),
            ("budget", "budget", cfg.get("budget", DEFAULT_ENUM_BUDGET)),
            ("format", "output.format", out_cfg.get("format", "json"))):
        if opts[key] is not None:
            name, value = f"--{key}", opts[key]
        if key != "format":
            if (value := _integer(value, name)) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        elif value not in ("csv", "json"):
            raise ConfigError(f"{name}: unknown format {_json_text(value)}")
        run[key] = value
    return run


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def curve_zeta(model: CurveModel, budget: int, trunc: int = 0) -> ZetaData:
    """``model.zeta``, with the guard N_(g+1) when ``trunc > g``; every
    error names the curve."""
    try:
        return model.zeta(budget, trunc > model.genus())
    except Exception as e:
        raise ConfigError(f"curves[{model.name}]: {e}") from e


def cmd_zeta(cfg: dict, run: dict) -> dict:
    """Counts, spectrum and zeta invariants of every curve, to ``trunc``.

    P(T) is fixed by N_1..N_g and fixes every N_m with m > g, so only
    N_1..N_g are enumerated, plus the guard N_(g+1) when trunc > g, which
    ``zeta_from_counts`` checks against P(T); the report's counts and
    spectrum come from P(T).  A count-kernel bug that shows only at
    m > g + 1 is therefore not caught here; the count oracles of the test
    suite cover those degrees.
    """
    curves = build_curves(cfg)
    if not curves:
        raise ConfigError("curves: the zeta command needs at least one curve")
    trunc, budget = run["trunc"], run["budget"]

    def one(model: CurveModel) -> dict:
        z = curve_zeta(model, budget, trunc)
        try:
            counts = regenerate_counts(z, trunc)
            return {
                "name": model.name,
                "kind": model.kind,
                "q": model.q,
                "g": z.g,
                "counts": counts,
                "spectrum": degree_spectrum(counts),
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

    def one(model: CurveModel, spec: GroupSpec, z: ZetaData) -> dict:
        where = f"curves[{model.name}] x groups[{spec.name}]"
        try:
            total = mass_bun(spec, z)
            row = {
                "curve": model.name,
                "group": spec.name,
                "mass": format_rational(total),
                "log_q_mass": format_float(log_q_fraction(total, model.q)),
            }
            n = spec.is_gl()
            if n is not None:
                ss = []
                for d in range(n):
                    value = semistable_mass(n, d, z)
                    entry = {
                        "d": d,
                        "zagier": format_rational(value),
                        "hn": format_rational(value),
                        "agree": True,
                    }
                    if value > 0:
                        entry["log_q_mass"] = format_float(
                            log_q_fraction(value, model.q))
                    ss.append(entry)
                row["semistable"] = ss
            return row
        except RouteMismatchError as e:
            raise RouteMismatchError(f"{where}: {e}") from e
        except Exception as e:
            raise ConfigError(f"{where}: {e}") from e

    rows = []
    for model in curves:  # one zeta per curve, shared by its groups
        z = curve_zeta(model, run["budget"])
        rows.extend(one(model, spec, z) for spec in groups)
    return {"schema": SCHEMA_VERSION, "command": "mass", "masses": rows}


def cmd_asymptote(cfg: dict, run: dict) -> dict:
    groups = build_groups(cfg)
    tv, d_bound = build_tv(cfg) or (None, None)
    if not groups:
        raise ConfigError("groups: the asymptote command needs at least one group")
    trunc = run["trunc"]
    # the family path only concerns positive-genus members; genus-0 curves
    # in a shared config are simply not part of this section
    family = [z for z in (curve_zeta(c, run["budget"])
                          for c in build_curves(cfg)) if z.g >= 1]
    if tv is None and not family:
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
                     "rhs": {"value": format_float(r.value),
                             "tail": format_float(r.tail)}}
            n = spec.is_gl()
            if n is not None and n <= DOMINANCE_MAX_RANK:
                entry["dominance"] = dominance_check(tv, n, trunc)
            entries.append(entry)
        report["tv"] = tv.to_json_dict()
        report["tv_bound"] = format_rational(bound)
        report["tv_feasible"] = bound <= 1
        report["groups"] = entries
        if tv.groups:
            general = rhs_general(tv.groups, tv.q, d_bound)
            report["general"] = {"value": format_float(general.value),
                                 "weight_envelope_ok": general.envelope_ok,
                                 "d_bound": d_bound}
    if family:
        fam_reports = []
        for spec in groups:
            try:
                fam_reports.append(convergence_report(family, spec, trunc))
            except Exception as e:
                raise ConfigError(f"family x groups[{spec.name}]: {e}") from e
        report["family"] = fam_reports
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_to_csv(report: dict) -> str:
    import csv  # only here: the JSON path, the default, never loads it
    import io

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
    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
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


USAGE = """\
usage: bunzeta {zeta,mass,asymptote} --config PATH [--out PATH]
               [--format csv|json] [--trunc N] [--budget N]
"""

HELP = USAGE + """
Exact zeta functions of curves over finite fields and masses of bundle
moduli stacks.

commands:
  zeta        point counts, degree spectra and zeta invariants
  mass        exact stack masses (totals and semistable)
  asymptote   limit-formula evaluation and convergence report

options (--opt VALUE or --opt=VALUE; a repeated option keeps its last value):
  --config PATH   JSON config path (required)
  --out PATH      output path (default: stdout)
  --format F      csv or json (default from config, else json)
  --trunc N       series truncation depth M
  --budget N      enumeration budget
  -h, --help      print this help and exit

exit status: 0 on success, 1 on a config or computation error, 2 on a
usage error.
"""

_COMMANDS = {"zeta": cmd_zeta, "mass": cmd_mass, "asymptote": cmd_asymptote}
_OPTIONS = {"--config": str, "--out": str, "--format": str,
            "--trunc": int, "--budget": int}


class UsageError(ValueError):
    """A command line outside the grammar of ``USAGE``."""


def parse_args(argv: list[str]) -> tuple[str, dict]:
    """``(command, options)`` from ``COMMAND [options]``; options maps each
    name without its dashes to its value, or None when it is not given."""
    if not argv or argv[0] not in _COMMANDS:
        got = repr(argv[0]) if argv else "none"
        raise UsageError(f"expected a command from {', '.join(_COMMANDS)}, "
                         f"got {got}")
    opts = dict.fromkeys(name[2:] for name in _OPTIONS)
    rest = iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS:
            raise UsageError(f"unrecognized argument {arg!r}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"argument {name}: expected a value")
        try:
            opts[name[2:]] = _OPTIONS[name](value)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value "
                             f"{value!r}") from None
    if opts["config"] is None:
        raise UsageError("the argument --config is required")
    return argv[0], opts


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(HELP)
        return 0
    try:
        command, opts = parse_args(argv)
    except UsageError as e:
        sys.stderr.write(f"{USAGE}error: {e}\n")
        return 2
    # the config is parsed under the caller's limit on the digits of an int
    # (Python 3.10.7 on), and exact values are then printed at any length
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        cfg = load_config(opts["config"])
        if limit:
            sys.set_int_max_str_digits(0)
        run = _run_config(cfg, opts)
        report = _COMMANDS[command](cfg, run)
        emit(report, run)
    except Exception as e:  # config and library errors keep their message
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
