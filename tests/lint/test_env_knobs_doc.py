"""The "Environment knobs" table in docs/PERFORMANCE.md is the list of
``REPRO_*`` variables the code under ``src/`` names -- no more, no
fewer -- so a knob cannot be added, or survive its own removal, without
the table saying so."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

KNOB = re.compile(r"REPRO_[A-Z][A-Z_]*[A-Z]")


def documented_knobs() -> set:
    text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    section = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {KNOB.search(row.split("|")[1]).group(0) for row in rows}


def knobs_named_in_source() -> set:
    found: set = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        found.update(KNOB.findall(path.read_text()))
    return found


def test_environment_knobs_table_matches_source():
    assert documented_knobs() == knobs_named_in_source()
