"""The README's parameter tables match the tables the code reads."""

from __future__ import annotations

import re

from conftest import REPO

from sortweaver.cli import _MINE_FLAGS
from sortweaver.mining import TECHNIQUES, MiningConfig
from sortweaver.queries import SORT_PARAMS, SortKind

README = (REPO / "README.md").read_text(encoding="utf-8")


def _table_rows(header: str) -> list[list[str]]:
    """The cells of each row of the README table under ``header``."""
    lines = README.split(header + "\n", 1)[1].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _quoted(text: str) -> list[str]:
    return re.findall(r"`([^`]*)`", text)


def test_readme_sort_parameter_table_matches_sort_params():
    rows = _table_rows("| Sort | Required | Optional (default) |")
    assert [_quoted(sort)[0] for sort, _, _ in rows] == [s.value for s in SortKind]
    for sort, required, optional in rows:
        params = SORT_PARAMS[SortKind(_quoted(sort)[0])]
        assert _quoted(required) == [p.name for p in params if p.required]
        documented = re.findall(r"`(\w+)` \(([^)]*)\)", optional)
        assert [name for name, _ in documented] == [p.name for p in params if not p.required]
        for (name, default), param in zip(documented, (p for p in params if not p.required)):
            if default.startswith("planner only: "):
                assert param.plan_only and param.default is None
                assert tuple(_quoted(default)) == param.choices
            else:
                assert not param.plan_only and not param.choices
                assert param.default == (None if default == "none" else _quoted(default)[0])


def test_readme_mining_table_matches_techniques():
    defaults = MiningConfig._field_defaults
    flags = {options["dest"]: flag for flag, options in _MINE_FLAGS.items()}
    rows = _table_rows("| Technique | `--threshold` sets | Other flags |")
    assert [_quoted(technique)[0] for technique, _, _ in rows] == list(TECHNIQUES)
    for technique, threshold, others in rows:
        _, fields = TECHNIQUES[_quoted(technique)[0]]
        assert threshold == f"`{fields[0]}` ({defaults[fields[0]]})"
        assert _quoted(others) == [flags[field] for field in flags if field in fields]
    described = re.findall(r"`(--[\w-]+)` sets\s+`(\w+)` \(([^)]*)\)", README)
    assert described
    for flag, field, default in described:
        assert _MINE_FLAGS[flag]["dest"] == field
        assert str(defaults[field]) == default
