"""Property-based tests of the schedule-replay determinism contract.

The concurrency campaign rests on one guarantee: a decision script fully
determines a run. Whatever policy *found* a schedule — PCT, random, round
robin — replaying its recorded script under the ``"script"`` policy
through ``run_schedule`` must produce an identical
:meth:`ScheduleOutcome.comparable` projection, every time. Without this,
findings would not replay and schedule shrinking would be unsound.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.explore import run_schedule
from repro.sim.sched import Scheduler, current_scheduler, yield_point

SETTINGS = settings(max_examples=25, deadline=None)

#: Per-thread programs: each op is (tag, increment). Threads read the
#: shared counter, yield at a tagged point, then write the incremented
#: value back — a lost-update race whose final total depends purely on
#: the interleaving, so distinct schedules are observably distinct.
programs_strategy = st.lists(
    st.lists(
        st.tuples(st.sampled_from(["load", "store", "check"]), st.integers(1, 3)),
        min_size=1,
        max_size=6,
    ),
    min_size=2,
    max_size=4,
)


def make_build(programs, expect_total):
    """A fresh racy-counter scenario; raises iff updates were lost."""

    def build(scheduler):
        state = {"counter": 0}

        def make_body(index, program):
            def body():
                for tag, inc in program:
                    seen = state["counter"]
                    yield_point(f"{tag}:{index}")
                    state["counter"] = seen + inc
                if index == 0:
                    # Thread 0 finishes with a consistency check: any
                    # lost update surfaces as an exception, making the
                    # outcome error schedule-dependent.
                    current_scheduler().block_until(
                        lambda: all(
                            t.done
                            for t in current_scheduler()._threads
                            if t.name != "cpu0"
                        ),
                        "join",
                    )
                    if state["counter"] != expect_total:
                        raise RuntimeError(
                            f"lost updates: {state['counter']}"
                        )

            return body

        for i, program in enumerate(programs):
            scheduler.spawn(make_body(i, program), f"cpu{i}")

    return build


def find(build, policy, seed):
    """One schedule of ``build`` under ``policy``."""
    return run_schedule(build, Scheduler(policy=policy, seed=seed, pct_steps=40))


def replay(build, script):
    return run_schedule(build, Scheduler(policy="script", script=list(script)))


@given(programs=programs_strategy, seed=st.integers(0, 2**32 - 1))
@SETTINGS
def test_identical_scripts_identical_outcomes(programs, seed):
    expect = sum(inc for program in programs for _tag, inc in program)
    build = make_build(programs, expect)
    # Find a schedule with PCT, then replay its script twice.
    found = find(build, "pct", seed)
    first = replay(build, found.script)
    second = replay(build, found.script)
    assert first.comparable() == second.comparable()
    # The replay also reproduces the original run exactly.
    assert first.comparable() == found.comparable()


@given(
    programs=programs_strategy,
    seed=st.integers(0, 2**32 - 1),
    policy=st.sampled_from(["pct", "random", "rr"]),
)
@SETTINGS
def test_contract_holds_for_every_policy(programs, seed, policy):
    expect = sum(inc for program in programs for _tag, inc in program)
    build = make_build(programs, expect)
    found = find(build, policy, seed)
    assert replay(build, found.script).comparable() == found.comparable()


@given(
    programs=programs_strategy,
    seed=st.integers(0, 2**32 - 1),
    cut=st.integers(0, 30),
)
@SETTINGS
def test_truncated_scripts_still_deterministic(programs, seed, cut):
    # Shrinking probes prefixes of a script; those runs must be just as
    # reproducible as full-script replays (rr fallback past the end).
    expect = sum(inc for program in programs for _tag, inc in program)
    build = make_build(programs, expect)
    prefix = find(build, "pct", seed).script[:cut]
    first = replay(build, prefix)
    second = replay(build, prefix)
    assert first.comparable() == second.comparable()
