"""Classify countries into the eight development clusters and track moves.

Runs both bundled demo epochs through the full pipeline, prints the
cluster table for the later epoch, then diffs the two epochs: who moved
up (gained high pillars), who moved down, and the 8x8 transition matrix.
"""

from importlib import resources

from foi import (
    classify_epoch,
    compute_pillar_scores,
    default_manifest,
    load_panel,
    rank_countries,
    rescale_panel,
    rescale_rule,
    shift_report,
)
from foi.report import render_assignments, render_shift

data = resources.files("foi.data")
manifest = default_manifest()


def assignments_for(name, epoch):
    panel = load_panel(str(data / name), manifest, epoch=epoch)
    scores = rank_countries(compute_pillar_scores(rescale_panel(panel, rescale_rule(panel, manifest)), manifest))
    return classify_epoch(scores)


early = assignments_for("demo_panel_2010.csv", 2010)
late = assignments_for("demo_panel_2020.csv", 2020)

print("cluster assignments, epoch 2020:\n")
print(render_assignments(late, "table"))

rep = shift_report(early, late, epoch_from=2010, epoch_to=2020)
print("\nshift analysis 2010 -> 2020:\n")
print(render_shift(rep, "table"))
