"""Parallel campaign engine for the model-guided random tester.

The paper's random testing runs as long campaigns against QEMU (§5); this
package is the reproduction's campaign layer: multiprocess fan-out with
deterministic per-batch seeding, incremental coverage merging,
finding deduplication, delta-debugging trace shrinking, and JSON
checkpoint/resume. See ``docs/TESTING.md`` for the workflow.
"""

from repro.testing.campaign.engine import (
    CampaignConfig,
    CampaignEngine,
    CampaignReport,
    run_campaign,
)
from repro.testing.campaign.concurrency import CONCURRENCY_SCENARIOS
from repro.testing.campaign.findings import DedupIndex, RawFinding, make_finding
from repro.testing.campaign.shrink import (
    reproduces_finding,
    reproduces_schedule,
    shrink_schedule,
    shrink_trace,
)
from repro.testing.campaign.worker import BatchTask, batch_seed, run_batch

__all__ = [
    "CampaignConfig",
    "CampaignEngine",
    "CampaignReport",
    "run_campaign",
    "CONCURRENCY_SCENARIOS",
    "DedupIndex",
    "RawFinding",
    "make_finding",
    "reproduces_finding",
    "reproduces_schedule",
    "shrink_schedule",
    "shrink_trace",
    "BatchTask",
    "batch_seed",
    "run_batch",
]
