"""Walk through the first half of the pipeline on the bundled demo panel.

The demo panels are synthetic; they exist so every stage can be run end
to end without any external data.
"""

from importlib import resources

import numpy as np

from foi import (
    compute_pillar_scores,
    default_manifest,
    load_panel,
    rescale_panel,
    rescale_rule,
    validate_panel,
)
from foi.report import render_scores

data = resources.files("foi.data")
manifest = default_manifest()

print(f"manifest: {len(manifest)} indicators "
      f"({len(manifest.pillar_ids('F'))} F, {len(manifest.pillar_ids('O'))} O, "
      f"{len(manifest.pillar_ids('I'))} I)")

panel = load_panel(str(data / "demo_panel_2020.csv"), manifest, epoch=2020)
report = validate_panel(panel)
print(f"\nloaded {panel.shape[0]} countries x {panel.shape[1]} indicators, "
      f"coverage {report.coverage:.3f}")
for warning in report.warnings:
    print("warning:", warning)

# every column lands on [1, 7] with both endpoints attained
rescaled = rescale_panel(panel, rescale_rule(panel, manifest))
print("\nrescaled value range (ignoring missing cells):",
      np.nanmin(rescaled.values), "to", np.nanmax(rescaled.values))

scores = compute_pillar_scores(rescaled, manifest)
print("\npillar indices (index value with rank in parentheses):\n")
print(render_scores(scores, "table"))
