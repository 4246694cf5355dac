"""Test infrastructure for exercising the executable specification.

The paper's §5, reproduced:

- :mod:`repro.testing.proxy` — the "hyp-proxy": a user-space-style API for
  allocating kernel memory and invoking pKVM hypercalls, both well-behaved
  and arbitrary;
- :mod:`repro.testing.harness` — machine construction and the one test
  runner, ``run_one``, with crash/violation accounting and verdicts;
- :mod:`repro.testing.handwritten` — the handwritten suite (19 error-free,
  22 error-path, plus concurrent tests: 41 single-CPU tests as the paper
  counts them);
- :mod:`repro.testing.random_tester` — model-guided random hypercall
  generation, with the abstract model that keeps randomness from crashing
  the host on every step;
- :mod:`repro.testing.coverage` — line and function coverage of the
  hypervisor and the specification, standing in for the paper's custom
  EL2 GCOV replacement;
- :mod:`repro.testing.synthetic` — each registry bug's detection
  scenario, run by the differential matrix
  (:mod:`repro.analysis.differential`).
"""

from repro.testing.proxy import HypProxy
from repro.testing.harness import TestOutcome, TestResult, run_tests

__all__ = ["HypProxy", "TestOutcome", "TestResult", "run_tests"]
