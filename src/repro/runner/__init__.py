"""Campaign runner: drives oracles against adapters and collects the
paper's evaluation metrics (tests, successful/unsuccessful queries, QPT,
unique query plans, branch coverage, unique bugs).

Determinism guarantee: a campaign is a pure function of ``(seed,
budget)`` -- :meth:`CampaignStats.signature` captures exactly the
fields two equal-seed runs must agree on (everything but wall-clock
measurements)."""

from repro.runner.campaign import Campaign, CampaignStats, run_campaign
from repro.runner.detection import detects_fault, detection_matrix
from repro.runner.reducer import reduce_statements

__all__ = [
    "Campaign",
    "CampaignStats",
    "run_campaign",
    "detects_fault",
    "detection_matrix",
    "reduce_statements",
]
