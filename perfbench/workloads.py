"""The benchmark's workloads: corpus specs, report arguments and reference checks.

Every corpus comes from the program's own simulator, seeded by the
benchmark's ``--seed``. Sizes are chosen so that one run, with three
set-ups, one reference check and a measuring window, stays well under a
minute on a 2-core host; each workload still puts its time in the layers
named in ``why``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from collabmetrics import simgen

# Preset audiences are scaled up from 400 so comment ingest and discourse
# dominate; at these sizes the report runs for about 1.5 s per process.
COMMENTS_HEAVY_AUDIENCE = 12_500
PAPER_TRIO_AUDIENCE = 4_000

# 1000 channels in 40 equal regions: 1600 dyad types, a near-spanning
# component, and a generator whose host-by-guest eligibility scan stays
# affordable (it grows as channels cubed over attribute values squared).
CHANNELS_WIDE_CHANNELS = 1_000
CHANNELS_WIDE_REGIONS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: Callable[[int], list[simgen.CommunitySpec]]
    corpus_format: str  # "jsonl" or "csv"
    attribute_key: str
    report_formats: tuple[str, ...]
    # "oracle": simgen.oracle_check on every generated community.
    # "networkx-closeness": report.json closeness against networkx.
    reference: str


def _comments_heavy(seed: int) -> list[simgen.CommunitySpec]:
    spec = simgen.preset("valorant", seed=seed)
    return [dataclasses.replace(spec, audience_size=COMMENTS_HEAVY_AUDIENCE)]


def _channels_wide(seed: int) -> list[simgen.CommunitySpec]:
    regions = {f"R{i:02d}": 1.0 for i in range(CHANNELS_WIDE_REGIONS)}
    return [
        simgen.CommunitySpec(
            community="channels-wide",
            n_channels=CHANNELS_WIDE_CHANNELS,
            attribute_ratios=regions,
            seed=seed,
            attribute_key="region",
            videos_per_channel=20,
            collab_rate=0.15,
            two_way_share=0.9,
            videos_per_dyad=1,
            pair_rank_affinity=0.0,
            audience_size=1000,
        )
    ]


def _paper_trio(seed: int) -> list[simgen.CommunitySpec]:
    return [
        dataclasses.replace(simgen.preset(name, seed=seed), audience_size=PAPER_TRIO_AUDIENCE)
        for name in simgen.PRESET_NAMES
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="comments-heavy",
            why="valorant preset, audience 12.5k: ~50k JSONL comments on 2.5k videos; "
            "comment ingest and discourse do most of the work",
            specs=_comments_heavy,
            corpus_format="jsonl",
            attribute_key="gender",
            report_formats=("csv",),
            reference="oracle",
        ),
        Workload(
            name="channels-wide",
            why="1000 channels in 40 regions, 20k videos, ~2.7k dyads, 1600 dyad types (JSONL); "
            "closeness does about half the work, then video load, mention scanning and synergy",
            specs=_channels_wide,
            corpus_format="jsonl",
            attribute_key="region",
            report_formats=("csv", "json"),
            reference="networkx-closeness",
        ),
        Workload(
            name="paper-trio-csv",
            why="the three paper presets, audience 4k each (~48k comments), as CSV, in one report "
            "with csv, json and table output: CSV ingest, three communities, every renderer",
            specs=_paper_trio,
            corpus_format="csv",
            attribute_key="gender",
            report_formats=("csv", "json", "table"),
            reference="oracle",
        ),
    )
}
