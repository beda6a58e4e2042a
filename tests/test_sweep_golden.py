"""A golden grid of batched sweeps.

Every theorem id runs ``cli._sweep_case`` at seed 0 with 8 members, in
its default mode and, where the readings differ, in the other mode too.
tests/data/sweep_golden.json holds the reprs of each member's report as
the grid gave them when it was recorded, or the error a sweep raised;
`python tests/test_sweep_golden.py OUT.json` records it afresh.
"""

import json
import sys
from pathlib import Path

import pytest

from hopial import cli
from hopial import constants as ct
from hopial.errors import HopialError

GOLDEN = Path(__file__).with_name("data") / "sweep_golden.json"
SEED = 0
COUNT = 8


def sweep_cases(ident):
    """(label, mode) per sweep case of the theorem."""
    modes = ["default"]
    if ct.theorem_info(ident).modes_differ:
        default = ct.DEFAULT_MODES[ident]
        modes.append("as_derived" if default == "as_printed" else "as_printed")
    return [(f"{ident} {mode}", mode) for mode in modes]


def sweep_record(ident, mode):
    try:
        sw = cli._sweep_case(ident, SEED, COUNT, mode=mode)
    except HopialError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return [{"lhs": repr(rep.lhs), "rhs_core": repr(rep.rhs_core),
             "constant": repr(rep.constant), "ratio": repr(rep.ratio),
             "status": rep.status, "budget": repr(rep.error_budget),
             "detail": repr(rep.detail)} for rep in sw.reports]


@pytest.mark.parametrize("ident", ct.THEOREM_IDS)
def test_sweep_matches_recording(ident):
    golden = json.loads(GOLDEN.read_text())
    cases = sweep_cases(ident)
    assert {label for label, _ in cases} == {
        label for label in golden if label.split()[0] == ident}
    for label, mode in cases:
        assert sweep_record(ident, mode) == golden[label], label


if __name__ == "__main__":
    recorded = {label: sweep_record(ident, mode)
                for ident in ct.THEOREM_IDS for label, mode in sweep_cases(ident)}
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
