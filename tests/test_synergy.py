"""Contribution arithmetic, aggregation, and reciprocity (exact rationals)."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from collabmetrics.collab import CollaborationDyad, detect_collaborations, partition_videos
from collabmetrics.corpus import CommentTable, VideoTable, build_corpus
from collabmetrics.synergy import (
    aggregate_by_dyad_type,
    channel_baselines,
    compute_synergies,
    dyad_synergy,
    dyad_type_order,
    reciprocity,
)

from .conftest import make_channel, make_video


def dyad(host="A", guest="B", videos=("v1",), dyad_type="M-W"):
    return CollaborationDyad(host=host, guest=guest, videos=tuple(videos), dyad_type=dyad_type)


class TestDyadSynergy:
    def test_worked_example(self):
        videos = {"v1": 100, "v2": 200}
        baselines = {"A": Fraction(300), "B": Fraction(100)}
        syn = dyad_synergy(dyad(videos=("v1", "v2")), videos, baselines)
        assert syn.mean_collab_views == 150
        assert syn.shap2_host == 50
        assert syn.shapn_host == Fraction(-1, 2)
        assert syn.shap2_guest == -150
        assert syn.shapn_guest == Fraction(-3, 2)

    def test_views_at_guest_baseline(self):
        videos = {"v1": 100}
        baselines = {"A": Fraction(250), "B": Fraction(100)}
        syn = dyad_synergy(dyad(), videos, baselines)
        assert syn.shap2_host == 0
        assert syn.shapn_host == -1

    def test_zero_baseline_guarded(self):
        videos = {"v1": 100}
        baselines = {"A": Fraction(250), "B": Fraction(0)}
        syn = dyad_synergy(dyad(), videos, baselines)
        assert (syn.shap2_host, syn.shap2_guest) == (100, -150)
        assert syn.shapn_host is None and syn.lift_host is None
        assert syn.shapn_guest == Fraction(-150, 250) - 1

    def test_lift_is_mean_over_baseline_minus_one(self):
        videos = {"v1": 100, "v2": 200}
        baselines = {"A": Fraction(300), "B": Fraction(100)}
        syn = dyad_synergy(dyad(videos=("v1", "v2")), videos, baselines)
        assert syn.lift_host == Fraction(150, 100) - 1
        assert syn.lift_guest == Fraction(150, 300) - 1

    def test_invariants_hold_exactly(self):
        videos = {"v1": 123, "v2": 456, "v3": 789}
        baselines = {"A": Fraction(1000, 3), "B": Fraction(77)}
        syn = dyad_synergy(dyad(videos=("v1", "v2", "v3")), videos, baselines)
        assert syn.shap2_host == syn.mean_collab_views - syn.baseline_guest
        assert syn.shap2_guest == syn.mean_collab_views - syn.baseline_host
        assert syn.shapn_host == syn.shap2_host / syn.baseline_guest - 1
        assert syn.shapn_guest == syn.shap2_guest / syn.baseline_host - 1


class TestComputeSynergies:
    def _corpus(self):
        registry = [
            make_channel("A", "hosta", gender="W"),
            make_channel("B", "guestb", gender="M"),
            make_channel("C", "thirdc", gender="M"),
        ]
        videos = [
            make_video("a1", "A", views=100),
            make_video("a2", "A", views=300, offset_hours=1),
            make_video("ab", "A", views=240, description="with @guestb", offset_hours=2),
            make_video("b1", "B", views=50),
            make_video("b2", "B", views=70, offset_hours=1),
            make_video("c1", "C", views=0),
            make_video("ca", "C", views=10, description="with @hosta", offset_hours=1),
        ]
        return build_corpus(registry, VideoTable.from_records(videos), CommentTable.from_rows([]))

    def test_pipeline_and_solo_exclusion(self):
        corpus = self._corpus()
        partition = partition_videos(corpus)
        dyads, _ = detect_collaborations(corpus, "gender", partition)
        baselines = channel_baselines(corpus, partition, mode="solo")
        assert baselines["A"] == 200  # collab video ab excluded
        synergies, diagnostics = compute_synergies(dyads, corpus, baselines)
        by_pair = {(s.dyad.host, s.dyad.guest): s for s in synergies}
        assert by_pair[("A", "B")].shap2_host == 240 - 60
        assert diagnostics.skipped_no_baseline == ()
        # dyad (C, A): baseline C is 0 after excluding its collab video
        zero = by_pair[("C", "A")]
        assert zero.shapn_guest is None and zero.shap2_guest == 10 - 0
        assert diagnostics.zero_baseline == (("C", "A"),)

    def test_all_mode_keeps_collab_videos(self):
        corpus = self._corpus()
        baselines = channel_baselines(corpus, partition_videos(corpus), mode="all")
        assert baselines["A"] == 240  # median of 100, 240, 300

    def test_missing_baseline_skips_dyad(self):
        registry = [make_channel("A", "hosta"), make_channel("B", "guestb")]
        videos = [
            make_video("ab", "A", views=100, description="with @guestb"),
            make_video("b1", "B", views=10),
        ]
        corpus = build_corpus(registry, VideoTable.from_records(videos), CommentTable.from_rows([]))
        partition = partition_videos(corpus)
        dyads, _ = detect_collaborations(corpus, "gender", partition)
        baselines = channel_baselines(corpus, partition, mode="solo")
        assert "A" not in baselines  # only video was the collaboration
        synergies, diagnostics = compute_synergies(dyads, corpus, baselines)
        assert synergies == []
        assert len(diagnostics.skipped_no_baseline) == 1


class TestChannelBaselines:
    def test_exclusion_empties_leaves_channel_absent(self):
        """A channel whose every video is a collaboration has no solo baseline, never a zero one."""
        registry = [make_channel("A", "hosta"), make_channel("B", "guestb")]
        videos = [
            make_video("v1", "A", views=100, description="with @guestb"),
            make_video("v2", "A", views=200, description="again @guestb", offset_hours=1),
            make_video("b1", "B", views=10),
        ]
        corpus = build_corpus(registry, VideoTable.from_records(videos), CommentTable.from_rows([]))
        partition = partition_videos(corpus)
        assert channel_baselines(corpus, partition) == {"B": 10}
        assert channel_baselines(corpus, partition, mode="all") == {"A": 150, "B": 10}


class TestAggregate:
    def _synergy(self, dyad_type, host_value, guest_value=Fraction(0), n=1):
        from collabmetrics.synergy import DyadSynergy

        d = dyad(dyad_type=dyad_type, videos=tuple(f"v{i}" for i in range(n)))
        return DyadSynergy(
            dyad=d,
            n_videos=n,
            mean_collab_views=Fraction(100),
            baseline_host=Fraction(1),
            baseline_guest=Fraction(1),
            shap2_host=Fraction(99),
            shap2_guest=Fraction(99),
            shapn_host=None if host_value is None else Fraction(host_value),
            shapn_guest=None if guest_value is None else Fraction(guest_value),
        )

    def test_empty_input(self):
        report = aggregate_by_dyad_type([])
        assert report.rows == {}

    def test_median_of_three(self):
        synergies = [
            self._synergy("M-M", Fraction(-1, 2)),
            self._synergy("M-M", Fraction(0)),
            self._synergy("M-M", Fraction(5, 2)),
        ]
        report = aggregate_by_dyad_type(synergies)
        assert report.rows["M-M"].shapn_host == 0
        assert report.rows["M-M"].dyad_count == 3

    def test_absent_type_absent(self):
        report = aggregate_by_dyad_type([self._synergy("M-M", 1)])
        assert "W-W" not in report.rows

    def test_aggregation_identity_single_dyad(self):
        videos = {"v1": 100, "v2": 200}
        baselines = {"A": Fraction(300), "B": Fraction(100)}
        syn = dyad_synergy(dyad(videos=("v1", "v2")), videos, baselines)
        for statistic in ("median", "mean"):
            report = aggregate_by_dyad_type([syn], statistic=statistic)
            assert report.rows["M-W"].shapn_host == syn.shapn_host
            assert report.rows["M-W"].shapn_guest == syn.shapn_guest

    def test_median_of_two_is_rational_midpoint(self):
        synergies = [self._synergy("M-M", Fraction(1, 3)), self._synergy("M-M", Fraction(1, 2))]
        median = aggregate_by_dyad_type(synergies).rows["M-M"].shapn_host
        assert type(median) is Fraction and median == Fraction(5, 12)

    def test_mean_statistic(self):
        synergies = [self._synergy("M-M", 0), self._synergy("M-M", 1)]
        report = aggregate_by_dyad_type(synergies, statistic="mean")
        assert report.rows["M-M"].shapn_host == Fraction(1, 2)

    def test_zero_baseline_dyads_excluded_but_counted(self):
        # compute_synergies' diagnostics are the one record of such dyads
        registry = [make_channel("A"), make_channel("B")]
        corpus = build_corpus(registry, VideoTable.from_records([make_video("v1", "A", views=100)]), CommentTable.from_rows([]))
        synergies, diagnostics = compute_synergies([dyad()], corpus, {"A": Fraction(50), "B": Fraction(0)})
        assert diagnostics.zero_baseline == (("A", "B"),)
        assert aggregate_by_dyad_type(synergies).rows == {}


class TestReciprocity:
    def test_degenerate_ordering(self):
        dyads = [dyad(videos=("v1", "v2")), dyad("C", "D", videos=("v3",))]
        baselines = {"A": Fraction(1), "B": Fraction(9), "C": Fraction(2), "D": Fraction(5)}
        stats = reciprocity(dyads, baselines)
        assert stats.host_greater == 0 and stats.guest_greater == 1

    def test_hand_count_with_tie(self):
        dyads = [
            dyad("A", "B", videos=("v1",)),  # host greater
            dyad("C", "D", videos=("v2", "v3")),  # guest greater, two videos
            dyad("E", "F", videos=("v4",)),  # tie
        ]
        baselines = {
            "A": Fraction(9), "B": Fraction(1),
            "C": Fraction(1), "D": Fraction(9),
            "E": Fraction(4), "F": Fraction(4),
        }
        stats = reciprocity(dyads, baselines)
        assert stats.videos_counted == 4
        assert (stats.host_greater, stats.guest_greater, stats.tied) == (
            Fraction(1, 4), Fraction(1, 2), Fraction(1, 4),
        )
        assert stats.host_greater + stats.guest_greater + stats.tied == 1

    def test_missing_baselines_counted_as_skipped(self):
        dyads = [dyad("A", "B", videos=("v1", "v2"))]
        stats = reciprocity(dyads, {"A": Fraction(1)})
        assert stats.videos_counted == 0 and stats.skipped_videos == 2


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        views=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8),
        ha=st.integers(min_value=1, max_value=10**6),
        hb=st.integers(min_value=1, max_value=10**6),
        c=st.integers(min_value=1, max_value=100),
    )
    def test_scale_equivariance(self, views, ha, hb, c):
        ids = tuple(f"v{i}" for i in range(len(views)))
        videos = {f"v{i}": v for i, v in enumerate(views)}
        scaled = {f"v{i}": v * c for i, v in enumerate(views)}
        base = {"A": Fraction(ha), "B": Fraction(hb)}
        base_scaled = {"A": Fraction(ha * c), "B": Fraction(hb * c)}
        syn = dyad_synergy(dyad(videos=ids), videos, base)
        syn_c = dyad_synergy(dyad(videos=ids), scaled, base_scaled)
        assert syn_c.shap2_host == c * syn.shap2_host
        assert syn_c.shap2_guest == c * syn.shap2_guest
        assert syn_c.shapn_host == syn.shapn_host
        assert syn_c.shapn_guest == syn.shapn_guest

    @settings(max_examples=40, deadline=None)
    @given(
        views=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
        ha=st.integers(min_value=1, max_value=10**6),
        hb=st.integers(min_value=1, max_value=10**6),
    )
    def test_swap_antisymmetry(self, views, ha, hb):
        ids = tuple(f"v{i}" for i in range(len(views)))
        videos = {f"v{i}": v for i, v in enumerate(views)}
        baselines = {"A": Fraction(ha), "B": Fraction(hb)}
        syn = dyad_synergy(dyad("A", "B", ids), videos, baselines)
        swapped = dyad_synergy(dyad("B", "A", ids, dyad_type="W-M"), videos, baselines)
        assert (syn.shap2_host, syn.shap2_guest) == (swapped.shap2_guest, swapped.shap2_host)
        assert (syn.shapn_host, syn.shapn_guest) == (swapped.shapn_guest, swapped.shapn_host)

    def test_views_equal_guest_baseline_gives_zero_shap2(self):
        videos = {"v1": 60, "v2": 60}
        baselines = {"A": Fraction(10), "B": Fraction(60)}
        syn = dyad_synergy(dyad(videos=("v1", "v2")), videos, baselines)
        assert syn.shap2_host == 0


# A channel baseline is a median of view counts: 0, a whole number, or a half-integer midpoint.
_baselines = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=0, max_value=10**9).map(Fraction),
    st.integers(min_value=0, max_value=10**9).map(lambda k: Fraction(2 * k + 1, 2)),
)


class TestOneFractionEach:
    """``dyad_synergy`` builds each value as one ``Fraction`` of integers; it equals the operator form."""

    @settings(max_examples=300, deadline=None)
    @given(
        views=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8),
        baseline_host=_baselines,
        baseline_guest=_baselines,
    )
    def test_equals_the_operator_form(self, views, baseline_host, baseline_guest):
        ids = tuple(f"v{i}" for i in range(len(views)))
        syn = dyad_synergy(dyad(videos=ids), dict(zip(ids, views)), {"A": baseline_host, "B": baseline_guest})
        mean = Fraction(sum(views), len(views))
        shap2_host, shap2_guest = mean - baseline_guest, mean - baseline_host
        assert (syn.mean_collab_views, syn.shap2_host, syn.shap2_guest) == (mean, shap2_host, shap2_guest)
        assert syn.shapn_host == (None if baseline_guest == 0 else shap2_host / baseline_guest - 1)
        assert syn.shapn_guest == (None if baseline_host == 0 else shap2_guest / baseline_host - 1)
        values = (syn.mean_collab_views, syn.shap2_host, syn.shap2_guest, syn.shapn_host, syn.shapn_guest)
        assert all(type(value) is Fraction for value in values if value is not None)


def test_dyad_type_order_binary_gender():
    assert dyad_type_order(["M", "W"]) == ["W-W", "W-M", "M-W", "M-M"]
