"""Report objects shared by the checkers and the CLI.

Reports are deterministic for a fixed configuration and seed: they carry no
timestamps or timings (the CLI prints wall-clock times to stdout only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"


@dataclass
class CheckItem:
    id: str
    status: str
    witness: Optional[str] = None

    def to_json(self):
        out = {"id": self.id, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    items: list[CheckItem] = field(default_factory=list)

    def add(self, id: str, ok: bool, witness=None) -> CheckItem:
        item = CheckItem(id, PASS if ok else FAIL, None if ok else _render(witness))
        self.items.append(item)
        return item

    def add_equal(self, id: str, got, want) -> CheckItem:
        """One item for got == want, witnessed by got - want, which is built
        only when the two differ."""
        ok = got == want
        return self.add(id, ok, None if ok else got - want)

    def add_status(self, id: str, status: str, witness=None) -> CheckItem:
        item = CheckItem(id, status, _render(witness))
        self.items.append(item)
        return item

    def extend(self, other: "CheckReport") -> None:
        self.items.extend(other.items)

    @property
    def passed(self) -> bool:
        return all(i.status == PASS for i in self.items)


def _render(witness) -> Optional[str]:
    if witness is None:
        return None
    return str(witness)
