"""``docs/API.md`` prints the operations table; this keeps it true.

The table between the two markers is emitted from
:data:`repro.core.operations.OPERATIONS` by :func:`render`.  When a row
changes, ``python tests/core/test_operations_doc.py`` rewrites it.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.model import ObjectType
from repro.core.operations import OPERATIONS

API = Path(__file__).parents[2] / "docs" / "API.md"
BEGIN, END = "<!-- operations:begin -->\n", "<!-- operations:end -->\n"


def render() -> str:
    lines = [
        "| operation | permission | checked on | destination | audit | read |",
        "|---|---|---|---|---|---|",
    ]
    for row in OPERATIONS:
        if row.permission is None:
            permission = checked_on = "—"
        else:
            permission = row.permission.name
            if row.on is ObjectType.SERVICE:
                checked_on = "service"
            elif isinstance(row.on, ObjectType):
                checked_on = f"{row.on.value} `{row.name_arg}`"
            else:
                checked_on = f"the `{row.on}` named by `{row.name_arg}`"
            if row.per_version:
                checked_on += ", each version"
            if row.each is not None:
                checked_on += f"; each of `{row.each[0]}` as `{row.each[1]}`"
        destination = f"`{row.destination}`" if row.destination else ""
        audit = f"{row.audit[0]} ({row.audit[1].value})" if row.audit else ""
        read = "yes" if row.read else ""
        lines.append(
            f"| `{row.name}` | {permission} | {checked_on} | {destination} | {audit} | {read} |"
        )
    return "\n".join(lines) + "\n"


def test_api_md_prints_the_table_as_declared():
    text = API.read_text(encoding="utf-8")
    printed = text[text.index(BEGIN) + len(BEGIN):text.index(END)]
    assert printed == render(), "run: python tests/core/test_operations_doc.py"


if __name__ == "__main__":
    text = API.read_text(encoding="utf-8")
    head, tail = text[:text.index(BEGIN) + len(BEGIN)], text[text.index(END):]
    API.write_text(head + render() + tail, encoding="utf-8")
