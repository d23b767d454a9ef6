"""Span recording around the program's layer boundaries, and the per-layer
metrics computed from the recorded spans.

The child process calls :func:`install` after importing ``bunzeta`` and
before running the command.  Each target in :data:`TARGETS` is replaced, in
its class or in every ``bunzeta`` module namespace that holds it, by a
wrapper that appends one span ``[name, start, end, parent, attr]`` to an
in-memory list.  A target that no longer exists is reported as missing
instead of failing the run, so deleting a function does not break the
benchmark.  The parent process turns the spans into metrics with
:func:`layer_metrics`; that part imports nothing from ``bunzeta``.
"""

from __future__ import annotations

import functools
import sys
import time


def _rank(args, kw):
    return args[0] if args else kw.get("n")


def _domain_points(args, kw):
    """Domain points the count enumerates, or 0 when the per-model cache
    already holds the count."""
    model = args[0]
    m = args[1] if len(args) > 1 else kw["m"]
    cache = getattr(model, "_count_cache", None)
    if cache is not None and m in cache:
        return 0
    q = model.q
    if model.kind == "hyperelliptic":
        return q ** m
    if model.kind == "plane":
        return q ** (2 * m) + q ** m + 1
    return 0


# (span name, module, attribute path, function computing the span attribute)
TARGETS = [
    ("arith.build_tables", "bunzeta.arith", "FiniteField.build_tables", None),
    ("arith.extension", "bunzeta.arith", "FiniteField.extension", None),
    ("curves.validate", "bunzeta.curves", "CurveModel.validate", None),
    ("curves.count_points", "bunzeta.curves", "CurveModel.count_points",
     _domain_points),
    ("zeta.zeta_from_counts", "bunzeta.zeta", "zeta_from_counts", None),
    ("zeta.regenerate_counts", "bunzeta.zeta", "regenerate_counts", None),
    ("zeta.degree_spectrum", "bunzeta.zeta", "degree_spectrum", None),
    ("groups.mass_ratio", "bunzeta.groups", "mass_ratio", None),
    ("mass.mass_bun", "bunzeta.mass", "mass_bun", None),
    ("mass.hn_ss_mass", "bunzeta.mass", "hn_ss_mass", _rank),
    ("mass.zagier_ss_mass", "bunzeta.mass", "zagier_ss_mass", _rank),
    ("asymptotics.convergence_report", "bunzeta.asymptotics",
     "convergence_report", None),
    ("asymptotics.rhs_group", "bunzeta.asymptotics", "rhs_group", None),
    ("asymptotics.rhs_general", "bunzeta.asymptotics", "rhs_general", None),
    ("asymptotics.tv_bound", "bunzeta.asymptotics", "tv_bound", None),
    ("asymptotics.dominance_check", "bunzeta.asymptotics", "dominance_check",
     None),
    ("cli.build_curves", "bunzeta.cli", "build_curves", None),
    ("cli.build_groups", "bunzeta.cli", "build_groups", None),
    ("cli.build_tv", "bunzeta.cli", "build_tv", None),
    ("cli.emit", "bunzeta.cli", "emit", None),
]


class Recorder:
    """Spans of one process, kept in memory until the process ends.

    The program runs its command on one thread (no ``--jobs``), so one
    stack of open spans is enough.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, attr_fn=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                   attr_fn(args, kw) if attr_fn else None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kw)
            finally:
                rec[2] = clock()
                open_.pop()

        return wrapper


def install(recorder: Recorder, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the names of the missing ones."""
    missing = []
    modules = [m for n, m in sys.modules.items()
               if n == "bunzeta" or n.startswith("bunzeta.")]
    for name, modname, path, attr_fn in targets:
        mod = sys.modules.get(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(name)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr,
                    type(raw)(recorder.wrap(name, raw.__func__, attr_fn)))
        elif owner_name:
            setattr(owner, attr, recorder.wrap(name, raw, attr_fn))
        else:
            # module-level function: rebind it wherever it was imported
            wrapped = recorder.wrap(name, raw, attr_fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapped)
    return missing


# ---------------------------------------------------------------------------
# metrics from spans (parent side)
# ---------------------------------------------------------------------------


class SpanTree:
    """Durations, self times and ancestry of a list of recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [end - start for _, start, end, _, _ in spans]
        self.self_time = list(self.dur)
        for i, (_, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                self.self_time[parent] -= self.dur[i]

    def _has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def select(self, names, where=None):
        """Indices of spans named in ``names`` that pass ``where(i)``."""
        names = {names} if isinstance(names, str) else set(names)
        return [i for i, s in enumerate(self.spans)
                if s[0] in names and (where is None or where(i))]

    def total(self, names, where=None) -> float:
        """Wall time under spans in ``names``, counting nested ones once."""
        names = {names} if isinstance(names, str) else set(names)
        return sum(self.dur[i] for i in self.select(names, where)
                   if not self._has_ancestor(i, names))

    def self_total(self, names, where=None) -> float:
        return sum(self.self_time[i] for i in self.select(names, where))

    def parent_name(self, i: int):
        p = self.spans[i][3]
        return self.spans[p][0] if p >= 0 else None


RANKS = (2, 3, 4, 5)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced sample (seconds, counts)."""
    t = SpanTree(spans)
    count_pts = sum(t.spans[i][4] or 0 for i in t.select("curves.count_points"))
    count_s = t.self_total("curves.count_points")

    def explicit_regen(i):
        # zeta_from_counts builds a ZetaData, whose check regenerates counts
        return t.parent_name(i) != "zeta.zeta_from_counts"

    def of_rank(n):
        return lambda i: t.spans[i][4] == n

    out = {
        "arith.table_build_s": t.total("arith.build_tables"),
        "arith.table_build_calls": len(t.select("arith.build_tables")),
        "arith.field_ext_s": t.total("arith.extension"),
        "arith.field_ext_calls": len(t.select("arith.extension")),
        "curves.validate_s": t.total("curves.validate"),
        "curves.count_s": count_s,
        "curves.count_points": count_pts,
        "curves.count_us_per_point": 1e6 * count_s / count_pts if count_pts else 0.0,
        "zeta.reconstruct_s": t.total("zeta.zeta_from_counts"),
        "zeta.regenerate_s": t.total("zeta.regenerate_counts", explicit_regen),
        "zeta.regenerate_calls": len(t.select("zeta.regenerate_counts",
                                              explicit_regen)),
        "zeta.spectrum_s": t.total("zeta.degree_spectrum"),
        "groups.mass_ratio_s": t.total("groups.mass_ratio"),
        "mass.total_s": t.total("mass.mass_bun"),
        "mass.hn_calls": len(t.select("mass.hn_ss_mass")),
        "mass.zagier_calls": len(t.select("mass.zagier_ss_mass")),
        "asymptotics.convergence_s": t.self_total("asymptotics.convergence_report"),
        "asymptotics.rhs_s": t.total(("asymptotics.rhs_group",
                                      "asymptotics.rhs_general",
                                      "asymptotics.tv_bound")),
        "asymptotics.dominance_s": t.total("asymptotics.dominance_check"),
        "cli.build_s": t.total(("cli.build_curves", "cli.build_groups",
                                "cli.build_tv")),
        "cli.emit_s": t.total("cli.emit"),
    }
    for n in RANKS:
        out[f"mass.hn_s.n{n}"] = t.total("mass.hn_ss_mass", of_rank(n))
        out[f"mass.zagier_s.n{n}"] = t.total("mass.zagier_ss_mass", of_rank(n))
    return out
