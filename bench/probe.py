"""Field-arithmetic probe: ns per ``add_c`` / ``mul_c`` in each regime.

    python3 bench/probe.py SRC_DIR SEED

Runs in a process of its own, so the fields it builds do not warm the
caches of a timed sample.  Prints one JSON object: for each metric name,
the median over REPEATS passes of the time per operation in ns, plus the
number of operations in one pass.
"""

import json
import random
import statistics
import sys
import time

OPS = 2000
REPEATS = 5

# metric suffix -> (p, m, operation); F_2^16 and F_3^10 lie at or under
# the 2^16-element table limit, F_2^18 and F_3^11 above it.  Addition in
# characteristic 2 is XOR in both regimes, so it is not probed.
CASES = {
    "add_ns.odd_table": (3, 10, "add_c"),
    "add_ns.odd_fallback": (3, 11, "add_c"),
    "mul_ns.char2_table": (2, 16, "mul_c"),
    "mul_ns.char2_fallback": (2, 18, "mul_c"),
    "mul_ns.odd_table": (3, 10, "mul_c"),
    "mul_ns.odd_fallback": (3, 11, "mul_c"),
}


def main() -> int:
    src, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, src)
    from bunzeta.arith import FiniteField

    out = {"arith.probe_ops": OPS}
    for name, (p, m, op) in CASES.items():
        field = FiniteField.of_order(p, m)
        field.build_tables()  # a no-op above the table limit
        rng = random.Random(f"{name}/{seed}")
        pairs = [(rng.randrange(1, field.order), rng.randrange(1, field.order))
                 for _ in range(OPS)]
        fn = getattr(field, op)
        per_op = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            per_op.append((time.perf_counter() - t0) * 1e9 / OPS)
        out["arith." + name] = statistics.median(per_op)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
