"""Machine construction and a small test runner.

The handwritten suite and the bug-detection scenarios of the
differential matrix (``repro.analysis.differential``) share one loop,
:func:`run_one`: boot a machine, run a test body against a proxy,
classify what happened (passed / spec violation / hypervisor panic /
host crash), and carry timing for the overhead measurements.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.arch.exceptions import HostCrash, HypervisorPanic
from repro.ghost.checker import SpecViolation
from repro.machine import Machine
from repro.obs import Observability
from repro.pkvm.bugs import Bugs
from repro.testing.proxy import HypProxy


class TestOutcome(enum.Enum):
    __test__ = False  # not a pytest class, despite the name

    PASSED = "passed"
    FAILED = "failed"            # the test's own assertion failed
    SPEC_VIOLATION = "spec-violation"
    HYP_PANIC = "hyp-panic"
    HOST_CRASH = "host-crash"
    ERROR = "error"              # unexpected infrastructure error


#: Finding class -> its outcome. The outcome's value names the verdict,
#: suffixed with the violation kind for a spec violation.
FINDING_OUTCOMES = {
    SpecViolation: TestOutcome.SPEC_VIOLATION,
    HypervisorPanic: TestOutcome.HYP_PANIC,
    HostCrash: TestOutcome.HOST_CRASH,
}

#: The exceptions every campaign, replay and differential site treats as
#: findings (§5: spec disagreements, hypervisor panics, and host crashes
#: the model failed to predict).
FINDING_EXCEPTIONS = tuple(FINDING_OUTCOMES)


def _verdict(outcome: TestOutcome, kind: str) -> str:
    if outcome is TestOutcome.PASSED:
        return "clean"
    return f"{outcome.value}:{kind}" if kind else outcome.value


@dataclass
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    name: str
    outcome: TestOutcome
    seconds: float
    detail: str = ""
    #: The violation kind of a spec-violation outcome.
    kind: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome is TestOutcome.PASSED

    @property
    def verdict(self) -> str:
        """``clean``, ``hyp-panic``, ``host-crash``,
        ``spec-violation:<kind>``, ``failed`` or ``error``."""
        return _verdict(self.outcome, self.kind)


@dataclass
class TestCase:
    """One handwritten test: a name, a category, and a body."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    body: Callable[[HypProxy], None]
    #: "ok" (error-free path), "error" (error path), "concurrent".
    category: str = "ok"
    #: Machine keyword overrides (e.g. more CPUs for concurrent tests,
    #: or ``ghost=False`` for a scenario judged without the oracle).
    machine_kwargs: dict = field(default_factory=dict)


def _classify(run: Callable[[], Machine]) -> tuple[TestOutcome, str, str]:
    """(outcome, violation kind, detail) of ``run``, which builds a
    machine, drives it and returns it."""
    try:
        machine = run()
    except FINDING_EXCEPTIONS as exc:
        return FINDING_OUTCOMES[type(exc)], getattr(exc, "kind", ""), str(exc)
    except AssertionError as exc:
        return TestOutcome.FAILED, "", str(exc)
    except Exception as exc:  # noqa: BLE001 - classified for the report
        return TestOutcome.ERROR, "", f"{type(exc).__name__}: {exc}"
    # A fail-fast checker raises; a collecting one needs a final look.
    violations = machine.checker.violations if machine.checker is not None else []
    if violations:
        detail = "; ".join(str(v) for v in violations[:3])
        return TestOutcome.SPEC_VIOLATION, violations[0].kind, detail
    return TestOutcome.PASSED, "", ""


def oracle_verdict(run: Callable[[], Machine]) -> str:
    """The verdict on ``run``, which builds its own machine (a trace's
    ``replay``), drives it and returns it."""
    outcome, kind, _detail = _classify(run)
    return _verdict(outcome, kind)


def run_one(
    test: TestCase,
    *,
    ghost: bool = True,
    bugs: Bugs | None = None,
    oracle_cache: bool = True,
    paranoid: bool = False,
    obs: Observability | None = None,
) -> TestResult:
    """Run one test on a fresh machine and classify the outcome.

    ``obs`` is shared across tests when a suite runs under one bundle:
    metrics accumulate, while spans/flight events interleave with a
    per-machine pid staying constant (the bundle owns the track ids).
    """
    options = dict(
        ghost=ghost, bugs=bugs, oracle_cache=oracle_cache, paranoid=paranoid, obs=obs
    )

    def run() -> Machine:
        machine = Machine(**{**options, **test.machine_kwargs})
        test.body(HypProxy(machine))
        return machine

    started = time.perf_counter()
    outcome, kind, detail = _classify(run)
    return TestResult(test.name, outcome, time.perf_counter() - started, detail, kind)


def run_tests(
    tests: list[TestCase],
    *,
    ghost: bool = True,
    bugs: Bugs | None = None,
    oracle_cache: bool = True,
    paranoid: bool = False,
    obs: Observability | None = None,
) -> list[TestResult]:
    """Run a suite; one fresh machine per test."""
    return [
        run_one(
            t,
            ghost=ghost,
            bugs=bugs,
            oracle_cache=oracle_cache,
            paranoid=paranoid,
            obs=obs,
        )
        for t in tests
    ]


def summarise(results: list[TestResult]) -> dict[str, int]:
    summary: dict[str, int] = {}
    for result in results:
        summary[result.outcome.value] = summary.get(result.outcome.value, 0) + 1
    return summary
