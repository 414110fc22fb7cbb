"""
Characteristics distributions and citation-bias breakdowns
==========================================================

Given (existing generated reference, ground-truth counterpart) pairs,
the bias tables compare per-bin medians of citation counts across
subperiods, title lengths, author counts, and venues. Here the pairs are
planted with a constant +500 citation gap so the machinery is easy to
check by eye.
"""

import random

from citebias import bias_breakdown, characteristics
from citebias.stats import CharacteristicsRow, PairedRefs, format_median

rng = random.Random(7)

# Forty planted pairs spread over five decades; the generated side of
# each pair has exactly 500 more citations than its counterpart.
pairs = []
cohorts = {"ground_truth": [], "generated_existing": []}
for slot in range(40):
    year = rng.choice([1985, 1995, 2005, 2014, 2021])
    base = rng.choice([50, 120, 400, 900])
    gt = CharacteristicsRow(
        title_chars=rng.randint(30, 90), year=year,
        author_count=rng.randint(1, 6), venue=rng.choice(["NeurIPS", "ICML", "Others"]),
        citation_count=base,
    )
    gen = CharacteristicsRow(
        title_chars=rng.randint(25, 80), year=year,
        author_count=rng.randint(1, 4), venue=gt.venue, citation_count=base + 500,
    )
    cohorts["ground_truth"].append(gt)
    cohorts["generated_existing"].append(gen)
    pairs.append(PairedRefs(paper_id="demo", citation_number=slot, generated=gen, ground_truth=gt))

# -- per-cohort medians -------------------------------------------------------
tables = characteristics(cohorts)
for cohort in cohorts:
    hist = tables[cohort]["citation_count"]
    print(f"{cohort}: median citations {format_median(hist.median)} over {hist.n_known} refs")

# -- subperiod breakdown ------------------------------------------------------
table = bias_breakdown(pairs, "subperiod")
print("\nsubperiod bins (generated vs ground truth medians):")
print(f"{'bin':>12} {'generated':>10} {'ground':>8} {'diff':>6} {'n':>4}")
for b in table.bins:
    if not b.n_generated:
        continue
    print(
        f"{b.bin_label:>12} {format_median(b.generated_median):>10} "
        f"{format_median(b.ground_truth_median):>8} {format_median(b.difference):>6} "
        f"{b.n_generated:>4}"
    )

# The same machinery runs over title length, author count, and venue.
venue_table = bias_breakdown(pairs, "venue")
print("\nvenue bins with data:", [b.bin_label for b in venue_table.bins if b.n_generated])
