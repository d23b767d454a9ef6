"""The four workloads and the configs they run, generated from a seed.

Seed 0 gives the committed configs under ``bench/workloads/`` unchanged.
Any other seed redraws the curve coefficients below the leading one and
keeps the shape: the same ``p``, genus, degrees, groups and ``trunc``.
"""

from __future__ import annotations

import copy
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (subcommand, committed config, why it was chosen)
WORKLOADS = {
    "zeta-heavy": (
        "zeta", "zeta-heavy.json",
        "four genus-2 curves over F_3 to trunc 9: the count kernel in "
        "odd-characteristic table arithmetic does nearly all the work"),
    "zeta-validate": (
        "zeta", "zeta-validate.json",
        "g=8 curve over F_2 plus the Klein quartic to bound 9: field and "
        "table builds and the plane smoothness scan, little counting"),
    "mass-family": (
        "mass", "family.json",
        "y^2+y=x^(2g+1), g=1..6, with Gm, GL2-GL5, SL3, Sp2: the HN "
        "semistable route at every degree dominates, curves do little"),
    "asymptote-family": (
        "asymptote", "family.json",
        "same family config: HN at d=0 only, zeta regeneration to trunc 40, "
        "the rhs evaluators and the dominance table"),
}


def _poly_mod(a, b, p):
    """Remainder of a by b over F_p (coefficient lists, constant first)."""
    a = [c % p for c in a]
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def is_squarefree(f, p) -> bool:
    """gcd(f, f') = 1 over F_p."""
    a = list(f)
    b = [(k * c) % p for k, c in enumerate(f)][1:]
    while b and b[-1] == 0:
        b.pop()
    if not b:
        return False
    while b:
        a, b = b, _poly_mod(a, b, p)
    return len(a) == 1


def _redraw_f(rng, curve, need_squarefree):
    f = curve["f"]
    p = curve["p"]
    while True:
        new = [rng.randrange(p) for _ in f[:-1]] + [f[-1]]
        if not need_squarefree or is_squarefree(new, p):
            return new


def make_config(workload: str, seed: int) -> tuple[str, dict]:
    """(subcommand, config) of a workload for a seed."""
    command, filename, _ = WORKLOADS[workload]
    with open(os.path.join(HERE, "workloads", filename), encoding="utf-8") as fh:
        cfg = json.load(fh)
    if seed == 0:
        return command, cfg
    cfg = copy.deepcopy(cfg)
    rng = random.Random(f"{workload}/{seed}")
    for curve in cfg["curves"]:
        if curve["kind"] != "hyperelliptic":
            continue  # the Klein quartic stays fixed
        # odd characteristic with h = 0: y^2 = f is smooth iff f is
        # squarefree (deg f is odd, so infinity is one smooth point);
        # in characteristic 2 with h = 1, every f gives a smooth model
        curve["f"] = _redraw_f(rng, curve, need_squarefree=curve["p"] != 2)
    return command, cfg


def genus(curve: dict) -> int:
    if curve["kind"] == "hyperelliptic":
        return (len(curve["f"]) - 2) // 2
    if curve["kind"] == "plane":
        d = curve["degree"]
        return (d - 1) * (d - 2) // 2
    return 0
