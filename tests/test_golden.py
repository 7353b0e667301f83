"""Golden regression: the CSV data rows of every shipped config.

``tests/golden/<name>.csv`` holds the header and data rows (no ``#``
metadata) written for ``configs/<name>.yaml``, or for the small
``tests/golden/<name>.yaml`` protocol runs.  Label columns must match
exactly; numeric columns may drift only within the tolerance listed for
that column below, so a numeric refactor shows either no change or a
declared, bounded one.  A column missing from both tables fails the test.
``tests/golden/teleported-cnot.outcomes.log`` is the outcome log of that
config: every field must match exactly except the branch probabilities
``p=``, which get the ``fidelity`` tolerance.
"""

import csv
import math
import re
from pathlib import Path

import pytest

from dfsqc.config import ScenarioConfig
from dfsqc.scenarios import run_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

LABEL_COLUMNS = {"trial", "xi_branch", "bell_a", "bell_b", "prepared",
                 "identified", "branch", "input", "verdict"}

# column -> (rtol, atol); |got - want| <= atol + rtol * |want|
TIGHT = (1e-12, 1e-14)
TOLERANCES = {
    "nbar": TIGHT,
    "fidelity": TIGHT,
    "g_ratio": TIGHT,
    "g_mhz": TIGHT,
    "eta_one_atom": TIGHT,
    "dt": TIGHT,
    "var_echo_mc": TIGHT,
    "stderr_echo": TIGHT,
    "var_echo_analytic": TIGHT,
    "var_free_mc": TIGHT,
    "stderr_free": TIGHT,
    "var_free_analytic": TIGHT,
    "suppression_analytic": TIGHT,
    "omega0_tau": TIGHT,
    "suppression": TIGHT,
    "predicted": TIGHT,
    "ratio": TIGHT,
    "restoration_fidelity": TIGHT,
}


def _config_path(name: str) -> Path:
    shipped = ROOT / "configs" / f"{name}.yaml"
    return shipped if shipped.exists() else GOLDEN / f"{name}.yaml"


def _rows(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.reader(lines))


def _close(got: str, want: str, rtol: float, atol: float) -> bool:
    g, w = float(got), float(want)
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= atol + rtol * abs(w)


def test_every_shipped_config_has_a_golden_file():
    shipped = {p.stem for p in (ROOT / "configs").glob("*.yaml")}
    golden = {p.stem for p in GOLDEN.glob("*.csv")}
    assert shipped <= golden


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.csv")))
def test_csv_matches_golden(name, tmp_path):
    cfg = ScenarioConfig.from_file(_config_path(name))
    _, paths = run_scenario(cfg, tmp_path)
    got, want = _rows(paths["csv"]), _rows(GOLDEN / f"{name}.csv")
    assert got[0] == want[0], "column header changed"
    assert len(got) == len(want), "row count changed"
    for column, head in enumerate(want[0]):
        assert head in LABEL_COLUMNS or head in TOLERANCES, f"no rule for {head!r}"
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:])):
            g, w = g_row[column], w_row[column]
            if head in LABEL_COLUMNS:
                assert g == w, f"{head} row {i}: {g} != {w}"
            else:
                assert _close(g, w, *TOLERANCES[head]), f"{head} row {i}: {g} vs {w}"


def _log_fields(path: Path):
    # fields are "key=value"; a value may hold spaces, as in "((0, 1),(6, 7))"
    return [dict(field.split("=", 1) for field in re.split(r" (?=\w+=)", line))
            for line in path.read_text().splitlines()]


def test_outcome_log_matches_golden(tmp_path):
    cfg = ScenarioConfig.from_file(_config_path("teleported-cnot"))
    _, paths = run_scenario(cfg, tmp_path)
    got = _log_fields(paths["outcomes.log"])
    want = _log_fields(GOLDEN / "teleported-cnot.outcomes.log")
    assert len(got) == len(want), "event count changed"
    for i, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w), f"line {i}: fields changed"
        for key in w:
            if key == "p":
                assert _close(g[key], w[key], *TOLERANCES["fidelity"]), f"line {i}"
            else:
                assert g[key] == w[key], f"line {i} {key}: {g[key]} != {w[key]}"
