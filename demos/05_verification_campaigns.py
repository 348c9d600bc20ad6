"""Verification campaigns: every structural claim re-checked by machine.

Four campaigns: worst-case equality (canonical instances meet the formula,
random ones stay below, K_4 checked exhaustively), merge monotonicity,
the cut-edge edge-count bound on every small connected graph (only the
graphs with at least C(n-1,2)+1 edges can break it, so only those are
walked), and the constructive algorithm's contracts.  Reports serialize to text and JSON and
their witnesses re-validate from the serialized form.

Run: python demos/05_verification_campaigns.py
"""

from rainbowtrees import (
    VerificationReport,
    campaign_constructive,
    campaign_cutedge,
    campaign_monotonicity,
    campaign_worstcase,
)

print("=" * 64)
print("worst-case equality campaign (n <= 5, 40 samples per cell)")
report = campaign_worstcase(max_n=5, samples_per_cell=40, seed=42)
print(report.to_text(), end="")

print("=" * 64)
print("merge monotonicity campaign (300 trials)")
report = campaign_monotonicity(trials=300, seed=42)
print(report.to_text(), end="")

print("=" * 64)
print("cut-edge bound campaign (graphs with at least C(n-1,2)+1 edges, n <= 6)")
report = campaign_cutedge(max_n=6)
print(report.to_text(), end="")

print("=" * 64)
print("constructive algorithm campaign (n <= 8, 60 samples per n)")
report = campaign_constructive(max_n=8, samples=60, seed=42)
print(report.to_text(), end="")

print("=" * 64)
round_tripped = VerificationReport.from_json(report.to_json())
print(f"JSON round trip intact: {round_tripped.cells == report.cells}")
print(f"witnesses re-validate after reload: {round_tripped.revalidate()}")
