"""Cold-process benchmark of the bunzeta CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample runs one CLI subcommand with
default flags in a fresh Python process (``bench/child.py``), one process
at a time (a closed loop with one client), because the program keeps
process-global field and mass caches that a user pays for cold on every
run.  Samples repeat until the next one would end after ``--seconds``.

``--trace 0`` prints the end-to-end metrics: medians of ``run_s`` (the
time of ``cli.main``), ``setup_s`` (spawn until ``bunzeta.cli`` is imported
and the config loaded) and ``peak_rss_mib``.  The speed of a shared machine
drifts by up to 2x over minutes, so both times are given in reference
seconds: the wall time times ``CAL_REF_S`` over the time of a fixed
calibration loop that the child runs just before and after the command.
The raw wall-time medians are printed alongside.  ``--trace 1`` alternates
untraced samples with traced ones, whose layer boundaries are wrapped
(``bench/spans.py``), runs the field-arithmetic probe (``bench/probe.py``)
once, and prints the per-layer metrics.

Every report is checked (``bench/checks.py``): its sha256 for seed 0, its
meaning for every seed, and that all samples of a run give the same bytes.
A sample that exits non-zero or fails a check counts as failed.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from checks import check_report, load_pins
from spans import layer_metrics
from workloads import WORKLOADS, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEMO = os.path.join(ROOT, "configs", "demo.json")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")

RUN_LIMIT_S = 170  # a whole run must exit within 180 s
# time of child.calibrate() on an unloaded 2-core x86-64 VM, Python 3.11
CAL_REF_S = 0.06
MIN_SAMPLES = {0: 3, 1: 2}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
LAYER_UNITS = (("_ns.", "ns"), ("_per_point", "us"), ("_bytes", "B"),
               ("_s.", "s"))


def _unit(name: str) -> str:
    for key, unit in LAYER_UNITS:
        if key in name:
            return unit
    return "s" if name.endswith("_s") else "count"


class Runner:
    def __init__(self, start: float):
        self.start = start

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def child(self, command: str, config: str, spans_path: str | None = None):
        """Run one sample; return its record (``error`` set if it failed)."""
        argv = [sys.executable, CHILD, SRC, spans_path or "-", command, config]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return {"error": "timed out", "wall_s": time.monotonic() - t_spawn}
        wall = time.monotonic() - t_spawn
        lines = proc.stderr.decode(errors="replace").strip().splitlines()
        if proc.returncode != 0 or not lines or \
                not lines[-1].startswith("BENCH-CHILD "):
            tail = " | ".join(lines[-3:])
            return {"error": f"exit {proc.returncode}: {tail}", "wall_s": wall}
        info = json.loads(lines[-1][len("BENCH-CHILD "):])
        if info["rc"] != 0:
            return {"error": f"cli exit {info['rc']}: "
                             f"{' | '.join(lines[-3:-1])}", "wall_s": wall}
        setup = info["t_loaded"] - t_spawn
        run = info["t_run1"] - info["t_run0"]
        scale = CAL_REF_S / math.sqrt(info["cal_before"] * info["cal_after"])
        return {"report": proc.stdout, "wall_s": wall,
                "setup_wall_s": setup, "run_wall_s": run,
                "setup_s": setup * scale, "run_s": run * scale,
                "peak_rss_mib": info["peak_rss_kib"] / 1024}

    def probe(self, seed: int) -> dict:
        proc = subprocess.run([sys.executable, PROBE, SRC, str(seed)],
                              capture_output=True, check=True,
                              timeout=max(1.0, self.remaining()))
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "src_sha256": _src_digest()}


def smoke(runner: Runner, pins: dict) -> list[str]:
    """Untimed: the three subcommands on configs/demo.json, pinned bytes."""
    with open(DEMO, encoding="utf-8") as fh:
        cfg = json.load(fh)
    problems = []
    for command in ("zeta", "mass", "asymptote"):
        s = runner.child(command, DEMO)
        if "error" in s:
            problems.append(f"demo {command}: {s['error']}")
            continue
        problems += [f"demo {command}: {p}" for p in
                     check_report(s["report"], command, cfg,
                                  pins.get(f"demo/{command}"))]
    return problems


def run_workload(runner: Runner, name: str, seed: int, seconds: float,
                 trace: int, pins: dict) -> dict:
    command, cfg = make_config(name, seed)
    os.makedirs(WORK, exist_ok=True)
    config = os.path.join(WORK, f"{name}-seed{seed}.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    spans_path = os.path.join(WORK, f"{name}-seed{seed}.spans.json")
    pin = pins.get(name) if seed == 0 else None
    load_before = os.getloadavg()
    t0 = time.monotonic()
    probe = runner.probe(seed) if trace else {}

    samples, problems, first = [], [], None
    while True:
        traced = bool(trace) and len(samples) % 2 == 1
        s = runner.child(command, config, spans_path if traced else None)
        s["traced"] = traced
        if "error" not in s:
            found = check_report(s["report"], command, cfg, pin)
            if first is None:
                first = s["report"]
            elif s["report"] != first:
                found.append("report bytes differ from the run's first sample")
            if found:
                s["error"] = "; ".join(found)
        if traced and "error" not in s:
            with open(spans_path, encoding="utf-8") as fh:
                recorded = json.load(fh)
            s["layers"] = layer_metrics(recorded["spans"])
            s["missing"] = recorded["missing"]
        if "error" in s:
            problems.append(s["error"])
        samples.append(s)
        elapsed = time.monotonic() - t0
        typical = statistics.median(x["wall_s"] for x in samples)
        if len(samples) >= MIN_SAMPLES[trace] and (
                elapsed + typical > seconds or runner.remaining() < 2 * typical):
            break
    ok = [s for s in samples if "error" not in s]
    result = {"attempted": len(samples), "failed": len(samples) - len(ok),
              "problems": problems, "load_before": load_before,
              "load_after": os.getloadavg()}
    plain = [s for s in ok if not s["traced"]]
    if not trace:
        result["samples"] = len(plain)
        result["wall"] = {key: statistics.median(s[key] for s in plain)
                          for key in ("run_wall_s", "setup_wall_s")} \
            if plain else {}
        result["metrics"] = {
            key: statistics.median(s[key] for s in plain) if plain else 0.0
            for key in END_TO_END}
        return result
    traced = [s for s in ok if s["traced"]]
    metrics = dict(probe)
    missing = sorted({m for s in traced for m in s["missing"]})
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(s["layers"][key] for s in traced)
        metrics["cli.report_bytes"] = len(traced[0]["report"])
    if traced and plain:
        metrics["trace.overhead_s"] = (
            statistics.median(s["run_s"] for s in traced)
            - statistics.median(s["run_s"] for s in plain))
    metrics["trace.missing"] = len(missing)
    result["samples"] = len(traced)
    result["missing"] = missing
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bunzeta", "cli.py")) or \
            not os.path.isfile(DEMO):
        print(f"error: run from the repository root; {SRC}/bunzeta and "
              f"{DEMO} are needed", file=sys.stderr)
        return 2
    runner = Runner(time.monotonic())
    pins = load_pins()
    print("env " + json.dumps(environment()))
    problems = smoke(runner, pins)
    for p in problems:
        print(f"smoke FAILED {p}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        if args.workload == "all":  # the time limit holds per workload
            runner.start = time.monotonic()
        res = run_workload(runner, name, args.seed, args.seconds, args.trace,
                           pins)
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"workload {name} seed {args.seed}: {res['samples']} samples, "
              f"error_rate {res['failed'] / res['attempted']:.4g} "
              f"({res['failed']}/{res['attempted']}), load "
              f"{res['load_before'][0]:.2f} -> {res['load_after'][0]:.2f}")
        for p in res["problems"]:
            print(f"  FAILED {p}")
        for key, value in res.get("wall", {}).items():
            print(f"  ({key} = {value:.6g} s, unscaled)")
        if res.get("missing"):
            print(f"  missing trace targets: {', '.join(res['missing'])}")
        for key, value in res["metrics"].items():
            unit = END_TO_END.get(key) or _unit(key)
            print(f"  {key} = {value:.6g} {unit}")
            prefix = f"{name}." if args.workload == "all" else ""
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
