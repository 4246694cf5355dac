"""Machine construction and a small test runner.

The handwritten suite and the synthetic-bug harness both need the same
loop: boot a machine, run a test body against a proxy, classify what
happened (passed / spec violation / hypervisor panic / host crash), and
carry timing for the overhead measurements.
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


@dataclass
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    name: str
    outcome: TestOutcome
    seconds: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome is TestOutcome.PASSED


@dataclass
class TestCase:
    """One handwritten test: a name, a category, and a body."""

    __test__ = False  # not a pytest class, despite the name

    name: str
    body: Callable[[HypProxy], None]
    #: "ok" (error-free path), "error" (error path), "concurrent".
    category: str = "ok"
    #: Machine keyword overrides (e.g. more CPUs for concurrent tests).
    machine_kwargs: dict = field(default_factory=dict)


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
    started = time.perf_counter()
    try:
        machine = Machine(
            ghost=ghost,
            bugs=bugs,
            oracle_cache=oracle_cache,
            paranoid=paranoid,
            obs=obs,
            **test.machine_kwargs,
        )
        proxy = HypProxy(machine)
        test.body(proxy)
    except SpecViolation as exc:
        return _result(test, TestOutcome.SPEC_VIOLATION, started, str(exc))
    except HypervisorPanic as exc:
        return _result(test, TestOutcome.HYP_PANIC, started, str(exc))
    except HostCrash as exc:
        return _result(test, TestOutcome.HOST_CRASH, started, str(exc))
    except AssertionError as exc:
        return _result(test, TestOutcome.FAILED, started, str(exc))
    except Exception as exc:  # noqa: BLE001 - classified for the report
        return _result(test, TestOutcome.ERROR, started, f"{type(exc).__name__}: {exc}")
    # A fail-fast checker raises; a collecting one needs a final look.
    if ghost and machine.checker is not None and machine.checker.violations:
        return _result(
            test,
            TestOutcome.SPEC_VIOLATION,
            started,
            "; ".join(str(v) for v in machine.checker.violations[:3]),
        )
    return _result(test, TestOutcome.PASSED, started)


def _result(
    test: TestCase, outcome: TestOutcome, started: float, detail: str = ""
) -> TestResult:
    return TestResult(
        name=test.name,
        outcome=outcome,
        seconds=time.perf_counter() - started,
        detail=detail,
    )


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
