"""One benchmark sample: a fresh process that runs one CLI subcommand.

    python3 bench/child.py SRC_DIR SPANS_PATH|- COMMAND CONFIG

Imports ``bunzeta.cli`` from SRC_DIR, loads CONFIG, and runs
``cli.main([COMMAND, "--config", CONFIG])``, which writes the report to
stdout.  With a SPANS_PATH other than ``-``, the layer boundaries listed in
``spans.TARGETS`` are wrapped before the command runs and the recorded spans
are written to SPANS_PATH when it ends.  The last line on stderr is
``BENCH-CHILD <json>`` with the monotonic clock readings (comparable with
the parent's ``time.monotonic()``), the exit code, the peak RSS and the
times of a fixed calibration loop run just before and just after the
command, which tell how fast the machine ran during the sample.
"""

import json
import resource
import sys
import time
from fractions import Fraction


def calibrate() -> float:
    """Seconds taken by a fixed loop of the kinds of work the program does:
    small-int arithmetic through function calls and table lookups, then
    Fraction sums with growing denominators."""
    t0 = time.monotonic()
    table = list(range(4096))

    def step(a, b):
        return (a * b + table[a & 4095]) % 65521

    acc = 0
    for i in range(240000):
        acc = step(acc, i) ^ (i & 7)
    total = Fraction(0)
    for k in range(1, 800):
        total += Fraction(k * k + 1, 3 ** (k % 40) + k)
    return time.monotonic() - t0


def main() -> int:
    src, spans_path, command, config = sys.argv[1:5]
    sys.path.insert(0, src)
    import bunzeta.cli as cli

    cli.load_config(config)
    t_loaded = time.monotonic()
    recorder = missing = None
    if spans_path != "-":
        import spans  # the script's own directory is on sys.path

        recorder = spans.Recorder()
        missing = spans.install(recorder)
    cal_before = calibrate()
    t_run0 = time.monotonic()
    try:
        rc = cli.main([command, "--config", config])
        sys.stdout.flush()
        t_run1 = time.monotonic()
    finally:
        if recorder is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": recorder.spans, "missing": missing}, fh)
    cal_after = calibrate()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("BENCH-CHILD " + json.dumps({
        "t_loaded": t_loaded, "t_run0": t_run0, "t_run1": t_run1,
        "cal_before": cal_before, "cal_after": cal_after,
        "rc": rc, "peak_rss_kib": peak_kib}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
