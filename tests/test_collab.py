"""Mention extraction, dyad detection, and dyad typing."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmetrics.collab import (
    HandleIndex,
    classify_dyad,
    detect_collaborations,
    partition_videos,
)
from collabmetrics.corpus import build_corpus, write_corpus
from collabmetrics.errors import ValidationError
from collabmetrics.report import RunConfig, run_report
from collabmetrics.simgen import _naive_bounded_find

from .conftest import make_channel, make_comment, make_video


def detect(corpus):
    return detect_collaborations(corpus, "gender", partition_videos(corpus))


def by_id(registry):
    return {rec.channel_id: rec for rec in registry}


@pytest.fixture
def registry():
    return [
        make_channel("OWNER", "ownerchan", gender="M"),
        make_channel("GUEST", "guestchan", gender="W"),
        make_channel("OTHER", "otherchan", gender="W"),
    ]


class TestExtractMentions:
    """Mention extraction: :meth:`HandleIndex.scan` gives the mentioned channel ids."""

    def test_at_prefixed_match(self, registry):
        video = make_video("v1", "OWNER", description="duo with @GuestChan!")
        assert HandleIndex(registry).scan(video) == {"GUEST"}

    def test_word_boundary_blocks_substring(self, registry):
        video = make_video("v1", "OWNER", description="visit guestchannel.example")
        assert HandleIndex(registry).scan(video) == set()

    def test_self_mention_excluded(self, registry):
        video = make_video("v1", "OWNER", description="follow @ownerchan for more")
        assert HandleIndex(registry).scan(video) == set()

    def test_empty_description(self, registry):
        assert HandleIndex(registry).scan(make_video("v1", "OWNER")) == set()

    def test_bare_handle_matches(self, registry):
        video = make_video("v1", "OWNER", description="shoutout to guestchan.")
        assert HandleIndex(registry).scan(video) == {"GUEST"}

    @pytest.mark.parametrize(
        "description, mentioned",
        [
            ("éalpha", set()),
            ("ßalpha", set()),
            ("x@alpha", set()),
            ("email me@alpha.com", set()),
            ("İkit", {"KIT"}),
            ("@alpha!", {"ALPHA"}),
        ],
    )
    def test_oracle_boundaries(self, description, mentioned):
        """The lowercased description holds the handle with no ``str.isalnum`` neighbour, as in the oracle."""
        registry = [make_channel("ALPHA", "alpha"), make_channel("KIT", "kit")]
        assert HandleIndex(registry).scan(make_video("v1", "OWNER", description=description)) == mentioned
        assert {c.channel_id for c in registry if _naive_bounded_find(description, c.handles[0])} == mentioned

    def test_case_variant_does_not_abort_report(self, tmp_path):
        """``ſ`` lowercases to itself, so ``ſs`` is no mention of ``ss`` and no failed lookup."""
        registry = [make_channel("A", "hosta"), make_channel("S", "ss", gender="W")]
        videos = [make_video("a1", "A", description="with ſs today"), make_video("s1", "S", offset_hours=1)]
        write_corpus(build_corpus(registry, videos, [make_comment("c1", "a1", "u1", "hi")]), tmp_path / "in")
        bundle = run_report(RunConfig(community_dirs=(str(tmp_path / "in"),), out_dir=str(tmp_path / "out")))
        assert json.loads(bundle.manifest_path.read_text())["stages"]["collabs"] == "ok"

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_scan_matches_oracle(self, data):
        """On any text, a channel is mentioned exactly when the oracle finds one of its handles."""
        handle_char = st.one_of(
            st.sampled_from("abkis0ßé"), st.characters().filter(lambda c: c.isalnum() and c.lower() == c)
        )
        handles = data.draw(st.lists(st.text(handle_char, min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
        piece = st.one_of(st.sampled_from(handles), st.sampled_from(["ſ", "K", "İ", "ß", "é", "@", "_", "\u0307", " "]),
                          st.text(max_size=3))
        description = "".join(data.draw(st.lists(piece, max_size=12)))
        registry = [make_channel(f"C{i}", h) for i, h in enumerate(handles)]
        expected = {c.channel_id for c in registry if _naive_bounded_find(description, c.handles[0])}
        assert HandleIndex(registry).scan(make_video("v1", "OWNER", description=description)) == expected


class TestClassifyDyad:
    def test_host_attribute_first(self, registry):
        assert classify_dyad("GUEST", "OWNER", by_id(registry), "gender") == "W-M"
        assert classify_dyad("OWNER", "GUEST", by_id(registry), "gender") == "M-W"

    def test_single_label_registry(self):
        registry = [make_channel("A", "a", gender="X"), make_channel("B", "b", gender="X")]
        assert classify_dyad("A", "B", by_id(registry), "gender") == "X-X"

    def test_missing_attribute_names_channel(self):
        from collabmetrics.corpus import ChannelRecord

        registry = [
            make_channel("A", "a", gender="M"),
            ChannelRecord("B", ("b",), "B", {}, "testgame"),
        ]
        with pytest.raises(ValidationError, match="B"):
            classify_dyad("A", "B", by_id(registry), "gender")


class TestDetectCollaborations:
    def test_two_way_and_multi_way_split(self, registry):
        videos = [
            make_video("v1", "OWNER", description="with @guestchan", offset_hours=0),
            make_video("v2", "OWNER", description="again with @guestchan", offset_hours=1),
            make_video("v3", "OWNER", description="@guestchan and @otherchan", offset_hours=2),
        ] + [make_video(f"s{i}", "OWNER", offset_hours=3 + i) for i in range(7)]
        corpus = build_corpus(registry, videos, [])
        dyads, stats = detect(corpus)
        assert len(dyads) == 1
        (dyad,) = dyads
        assert (dyad.host, dyad.guest) == ("OWNER", "GUEST")
        assert dyad.videos == ("v1", "v2")
        assert dyad.dyad_type == "M-W"
        assert stats.total_videos == 10
        assert stats.two_way_videos == 2
        assert stats.multi_way_videos == 1
        assert stats.share_by_dyad_type == {"M-W": Fraction(2, 10)}

    def test_no_collaborations(self, registry):
        videos = [make_video(f"v{i}", "OWNER", offset_hours=i) for i in range(3)]
        corpus = build_corpus(registry, videos, [])
        dyads, stats = detect(corpus)
        assert dyads == []
        assert stats.two_way_videos == 0 and stats.share_by_dyad_type == {}

    def test_reciprocal_dyads_stay_distinct(self, registry):
        videos = [
            make_video("v1", "OWNER", description="with @guestchan"),
            make_video("v2", "GUEST", description="with @ownerchan", offset_hours=1),
        ]
        corpus = build_corpus(registry, videos, [])
        dyads, _ = detect(corpus)
        assert {(d.host, d.guest) for d in dyads} == {("OWNER", "GUEST"), ("GUEST", "OWNER")}

    def test_non_registry_mentions_stay_two_way(self, registry):
        videos = [
            make_video("v1", "OWNER", description="with @guestchan and @not_registered_person"),
        ]
        corpus = build_corpus(registry, videos, [])
        dyads, stats = detect(corpus)
        assert len(dyads) == 1 and stats.two_way_videos == 1 and stats.multi_way_videos == 0

    def test_duplicate_mentions_count_once(self, registry):
        videos = [make_video("v1", "OWNER", description="@guestchan @guestchan @guestchan")]
        corpus = build_corpus(registry, videos, [])
        dyads, stats = detect(corpus)
        assert len(dyads) == 1 and stats.two_way_videos == 1

    def test_share_sum_matches_two_way_share(self, registry):
        videos = [
            make_video("v1", "OWNER", description="with @guestchan"),
            make_video("v2", "GUEST", description="with @otherchan", offset_hours=1),
            make_video("v3", "OTHER", offset_hours=2),
            make_video("v4", "OTHER", description="@ownerchan @guestchan", offset_hours=3),
        ]
        corpus = build_corpus(registry, videos, [])
        _, stats = detect(corpus)
        assert sum(stats.share_by_dyad_type.values()) == stats.two_way_share

    def test_partition_is_exhaustive(self, registry):
        videos = [
            make_video("v1", "OWNER", description="with @guestchan"),
            make_video("v2", "OWNER", description="@guestchan @otherchan", offset_hours=1),
            make_video("v3", "OWNER", offset_hours=2),
        ]
        corpus = build_corpus(registry, videos, [])
        partition = partition_videos(corpus)
        assert set(partition.two_way) == {"v1"}
        assert partition.multi_way == {"v2"}
        assert partition.collaboration_videos() == {"v1", "v2"}  # the plain v3 is in neither


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rename_bijection_preserves_structure(data):
    """Consistently renaming channel ids leaves dyad structure and stats invariant."""
    n = data.draw(st.integers(min_value=2, max_value=5))
    genders = data.draw(st.lists(st.sampled_from(["M", "W"]), min_size=n, max_size=n))
    registry = [make_channel(f"C{i}", f"handle{i}", gender=genders[i]) for i in range(n)]
    descriptions = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2),
            ),
            max_size=10,
        )
    )
    videos = [
        make_video(
            f"v{i}",
            f"C{owner}",
            description=" ".join(f"@handle{g}" for g in guests),
            offset_hours=i,
        )
        for i, (owner, guests) in enumerate(descriptions)
    ]
    corpus = build_corpus(registry, videos, [])
    dyads, stats = detect(corpus)

    rename = {f"C{i}": f"Z{n - i:02d}" for i in range(n)}
    registry2 = [
        make_channel(rename[f"C{i}"], f"handle{i}", gender=genders[i]) for i in range(n)
    ]
    videos2 = [
        make_video(
            f"v{i}",
            rename[f"C{owner}"],
            description=" ".join(f"@handle{g}" for g in guests),
            offset_hours=i,
        )
        for i, (owner, guests) in enumerate(descriptions)
    ]
    corpus2 = build_corpus(registry2, videos2, [])
    dyads2, stats2 = detect(corpus2)

    mapped = {(rename[d.host], rename[d.guest], d.videos, d.dyad_type) for d in dyads}
    assert mapped == {(d.host, d.guest, d.videos, d.dyad_type) for d in dyads2}
    assert stats.share_by_dyad_type == stats2.share_by_dyad_type
    assert (stats.two_way_videos, stats.multi_way_videos) == (
        stats2.two_way_videos,
        stats2.multi_way_videos,
    )


def test_video_in_exactly_one_dyad(registry):
    videos = [
        make_video("v1", "OWNER", description="with @guestchan"),
        make_video("v2", "OWNER", description="with @otherchan", offset_hours=1),
        make_video("v3", "OWNER", description="with @guestchan", offset_hours=2),
    ]
    corpus = build_corpus(registry, videos, [])
    dyads, _ = detect(corpus)
    assigned = [vid for d in dyads for vid in d.videos]
    assert sorted(assigned) == ["v1", "v2", "v3"]
    assert len(set(assigned)) == len(assigned)
