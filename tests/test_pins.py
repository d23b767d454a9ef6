"""Report bytes of the pinned configs: each sha256 equals ``bench/pins.json``.

The pins are the byte-identity contract of the benchmark; checking them
here as well means a change to the report bytes fails the suite, not only
a benchmark run.  The pins file is only read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bunzeta.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "bench" / "pins.json"
WORKLOADS = ROOT / "bench" / "workloads"

# pin key -> (subcommand, config)
PINNED = {
    "zeta-heavy": ("zeta", WORKLOADS / "zeta-heavy.json"),
    "zeta-validate": ("zeta", WORKLOADS / "zeta-validate.json"),
    "mass-family": ("mass", WORKLOADS / "family.json"),
    "asymptote-family": ("asymptote", WORKLOADS / "family.json"),
    "demo/zeta": ("zeta", ROOT / "configs" / "demo.json"),
    "demo/mass": ("mass", ROOT / "configs" / "demo.json"),
    "demo/asymptote": ("asymptote", ROOT / "configs" / "demo.json"),
}


def test_every_pin_is_covered():
    pins = json.loads(PINS.read_text())
    assert set(pins) == set(PINNED)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_report_bytes_match_pin(key, tmp_path):
    pins = json.loads(PINS.read_text())
    command, config = PINNED[key]
    out = tmp_path / "report"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pins[key]
