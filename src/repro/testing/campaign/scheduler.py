"""Coverage-guided step-budget scheduling.

The merged coverage map is the campaign's novelty signal: a worker whose
last batch reached new oracle classes (or lines, or interleaving
windows) is probably exploring a fresh region of the state machine, so
its next batch gets a longer budget; a worker that contributed nothing
decays back toward the base budget. The same
mechanism the paper leans on when it uses coverage to judge whether the
random tester is still finding new behaviour (§5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Budgets never exceed ``base_steps * MAX_FACTOR``.
MAX_FACTOR = 4


@dataclass
class BudgetScheduler:
    """Per-worker step budgets driven by merged-coverage novelty."""

    base_steps: int
    budgets: dict[int, int] = field(default_factory=dict)

    def budget(self, worker_id: int) -> int:
        return self.budgets.get(worker_id, self.base_steps)

    def feedback(self, worker_id: int, new_lines: int) -> int:
        """Update a worker's budget from its batch's coverage novelty;
        returns the budget its *next* batch will get."""
        current = self.budget(worker_id)
        if new_lines > 0:
            updated = min(current * 2, self.base_steps * MAX_FACTOR)
        else:
            updated = max(self.base_steps, current // 2)
        self.budgets[worker_id] = updated
        return updated

    def to_jsonable(self) -> dict:
        return {
            "base_steps": self.base_steps,
            "budgets": {str(k): v for k, v in self.budgets.items()},
        }

    @staticmethod
    def from_jsonable(data: dict) -> "BudgetScheduler":
        return BudgetScheduler(
            base_steps=data["base_steps"],
            budgets={int(k): v for k, v in data["budgets"].items()},
        )
