"""Simulated-time accounting: component breakdowns and ledgers.

The paper's SpMSpV figures plot *per-component* times ("SPA", "Sorting",
"Output" in Fig 7; "Gather Input", "Local Multiply", "Scatter output" in
Figs 8-9).  :class:`Breakdown` is the value all simulated operations return
alongside their real result: a mapping from component name to simulated
seconds, supporting the sequential (`+`) and parallel (`|` = per-component
max) compositions the simulator needs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

__all__ = ["Breakdown", "CostLedger"]


class Breakdown(dict):
    """Component-name → simulated-seconds mapping.

    A tiny algebra over dicts:

    * ``a + b``  — sequential composition (component-wise sum);
    * ``a | b``  — parallel composition (component-wise max), used when
      composing concurrent locales;
    * ``a.scaled(k)`` — multiply every component;
    * ``a.total`` — end-to-end simulated seconds.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)

    @property
    def total(self) -> float:
        """Sum of all component times."""
        return float(sum(self.values()))

    def charge(self, component: str, seconds: float) -> "Breakdown":
        """Add ``seconds`` to ``component`` (in place); returns self."""
        if seconds < 0:
            raise ValueError(f"negative charge for {component!r}: {seconds}")
        self[component] = self.get(component, 0.0) + float(seconds)
        return self

    def __add__(self, other: Mapping[str, float]) -> "Breakdown":
        out = Breakdown(self)
        for k, v in other.items():
            out[k] = out.get(k, 0.0) + v
        return out

    def __or__(self, other: Mapping[str, float]) -> "Breakdown":
        out = Breakdown(self)
        for k, v in other.items():
            out[k] = max(out.get(k, 0.0), v)
        return out

    def scaled(self, k: float) -> "Breakdown":
        """Every component multiplied by ``k``."""
        return Breakdown({name: v * k for name, v in self.items()})

    def restricted(self, components: Iterable[str]) -> "Breakdown":
        """Keep only the named components (missing ones read as 0)."""
        comps = list(components)
        return Breakdown({c: self.get(c, 0.0) for c in comps})

    @staticmethod
    def parallel(parts: Iterable["Breakdown"]) -> "Breakdown":
        """Per-component max over concurrent parts (empty → zero time)."""
        out = Breakdown()
        for p in parts:
            out = out | p
        return out

    @staticmethod
    def sequential(parts: Iterable["Breakdown"]) -> "Breakdown":
        """Component-wise sum over sequential parts."""
        out = Breakdown()
        for p in parts:
            out = out + p
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v:.3g}s" for k, v in sorted(self.items()))
        return f"Breakdown({inner}, total={self.total:.3g}s)"


class CostLedger:
    """An accumulating log of operation breakdowns.

    Benchmarks attach a ledger to a :class:`~repro.runtime.locale.Machine`
    to collect the per-operation simulated times of a whole algorithm run
    (e.g. every SpMSpV iteration of a BFS).
    """

    def __init__(self) -> None:
        self.entries: list[tuple[str, Breakdown]] = []
        self._summed = (0, 0.0)  # (entries summed so far, their sum)

    def record(self, label: str, breakdown: Breakdown) -> None:
        """Append one operation's breakdown under ``label``."""
        self.entries.append((label, Breakdown(breakdown)))

    @property
    def total(self) -> float:
        """End-to-end simulated time across all recorded operations: the
        entries summed in order, extended from the previous call's sum."""
        n, total = self._summed
        if n > len(self.entries):
            n, total = 0, 0.0
        for _, b in self.entries[n:]:
            total += b.total
        self._summed = (len(self.entries), total)
        return total

    def by_label(self) -> dict[str, Breakdown]:
        """Aggregate breakdowns of entries sharing a label."""
        out: dict[str, Breakdown] = {}
        for label, b in self.entries:
            out[label] = out.get(label, Breakdown()) + b
        return out

    def by_component(self) -> Breakdown:
        """One flat breakdown summing every entry."""
        return Breakdown.sequential(b for _, b in self.entries)

    def reset(self) -> None:
        """Discard all recorded entries."""
        self.entries.clear()
        self._summed = (0, 0.0)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CostLedger(entries={len(self.entries)}, total={self.total:.3g}s)"
