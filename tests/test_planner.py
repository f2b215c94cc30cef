"""The adaptive query planner: validity lemmas, fallback, cost model.

The centrepiece is the regression suite for the latent
out-of-constraint-q exactness hole (ROADMAP, reproduced on 567d385):
under edit similarity, the prefix-style signature schemes can silently
miss related sets whenever a pair with ``phi_alpha > 0`` can share no
q-gram.  Each regression case below is a concrete dataset where the
pre-planner pipeline (signature stage forced on) returns the wrong
answer; the planner must instead route the pass through the exact
full-scan fallback and report that decision.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baselines.brute_force import brute_force_search
from repro.core.config import Relatedness, SilkMothConfig
from repro.core.engine import SilkMoth
from repro.core.records import SetCollection
from repro.pipeline.stages import (
    CandidateSelectStage,
    CheckFilterStage,
    NNFilterStage,
    SignatureStage,
    VerifyStage,
)
from repro.planner import (
    BOUND_SCHEMES,
    PREFIX_SCHEMES,
    IndexProfile,
    max_prefix_valid_q,
    no_share_similarity_cap,
    plan_query,
    prefix_scheme_valid,
    q_constraint_satisfied,
    scheme_family,
    signature_scheme_valid,
)
from repro.service import SilkMothService
from repro.sim.functions import SimilarityKind
from repro.workloads.applications import schema_matching, string_matching
from strategies.kernels import KERNEL_MODES, kernel_mode


# ----------------------------------------------------------------------
# Validity lemmas
# ----------------------------------------------------------------------
class TestValidityLemmas:
    def test_token_kinds_have_no_cap(self):
        for kind in (SimilarityKind.JACCARD, SimilarityKind.OVERLAP):
            assert no_share_similarity_cap(kind, 1) == 0.0

    def test_q1_caps_are_tight(self):
        # No shared character forces LD >= max(|x|, |y|).
        assert no_share_similarity_cap(SimilarityKind.NEDS, 1) == 0.0
        assert no_share_similarity_cap(SimilarityKind.EDS, 1) == pytest.approx(
            1.0 / 3.0
        )

    def test_large_q_cap_is_section_71(self):
        for kind in (SimilarityKind.EDS, SimilarityKind.NEDS):
            assert no_share_similarity_cap(kind, 3) == pytest.approx(0.75)

    def test_cap_achievable(self):
        # eds("cdcd", "abab") = 1/3 with no shared 1-gram: the q=1 Eds
        # cap is attained, so alpha = 1/3 must still count as invalid.
        from repro.sim.functions import eds

        assert eds("cdcd", "abab") == pytest.approx(1.0 / 3.0)
        assert not prefix_scheme_valid(SimilarityKind.EDS, 1.0 / 3.0, 1)
        assert prefix_scheme_valid(SimilarityKind.EDS, 0.35, 1)

    def test_paper_constraint(self):
        assert q_constraint_satisfied(0.85, 5)
        assert not q_constraint_satisfied(0.8, 4)  # limit is exactly 4
        assert not q_constraint_satisfied(0.5, 2)
        assert not q_constraint_satisfied(0.5, 1)  # limit is exactly 1

    def test_bound_family_always_valid(self):
        for scheme in BOUND_SCHEMES:
            assert scheme_family(scheme) == "bound"
            assert signature_scheme_valid(
                scheme, SimilarityKind.EDS, alpha=0.0, q=5
            )

    def test_prefix_family_gated(self):
        for scheme in PREFIX_SCHEMES:
            assert scheme_family(scheme) == "prefix"
            assert not signature_scheme_valid(
                scheme, SimilarityKind.EDS, alpha=0.5, q=2
            )
            assert signature_scheme_valid(
                scheme, SimilarityKind.EDS, alpha=0.85, q=5
            )

    def test_neds_q1_valid_for_any_alpha(self):
        assert prefix_scheme_valid(SimilarityKind.NEDS, 0.0, 1)

    def test_max_prefix_valid_q(self):
        assert max_prefix_valid_q(SimilarityKind.EDS, 0.85) == 5
        assert max_prefix_valid_q(SimilarityKind.EDS, 0.5) == 1
        assert max_prefix_valid_q(SimilarityKind.EDS, 0.2) is None
        assert max_prefix_valid_q(SimilarityKind.NEDS, 0.0) == 1
        assert max_prefix_valid_q(SimilarityKind.JACCARD, 0.0) == 1

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown signature scheme"):
            scheme_family("prefix_tree")


# ----------------------------------------------------------------------
# Regression: the out-of-constraint exactness hole
# ----------------------------------------------------------------------
#: (sets, metric, kind, scheme, delta, alpha, q) tuples on which the
#: pre-planner pipeline provably returns the wrong answer (verified by
#: forcing the signature stage back on in
#: ``test_old_signature_path_was_wrong``).
REGRESSIONS = [
    pytest.param(
        [["c", "ab"], ["ca", "cbcbc", "abac"], [], [], ["ca", "cb", ""]],
        Relatedness.CONTAINMENT,
        SimilarityKind.EDS,
        "unweighted",
        0.4,
        0.5,
        2,
        id="alpha05-q2-containment",
    ),
    pytest.param(
        [["cc", "baa", "b"], [], ["cb", "b"], ["aacb"], ["babac"]],
        Relatedness.SIMILARITY,
        SimilarityKind.EDS,
        "unweighted",
        0.4,
        0.5,
        2,
        id="alpha05-q2-similarity",
    ),
    pytest.param(
        [["cdcd"], ["c"], ["abab"], ["cdcd", "cd"], ["cdcd", "c"]],
        Relatedness.CONTAINMENT,
        SimilarityKind.EDS,
        "comb_unweighted",
        0.3,
        0.0,
        1,
        id="eds-q1-alpha0",
    ),
]


def _build(sets, metric, kind, scheme, delta, alpha, q):
    config = SilkMothConfig(
        metric=metric,
        similarity=kind,
        delta=delta,
        alpha=alpha,
        q=q,
        scheme=scheme,
    )
    collection = SetCollection.from_strings(sets, kind=kind, q=q)
    return SilkMoth(collection, config), config


class TestRegression:
    @pytest.mark.parametrize("kernels", KERNEL_MODES)
    @pytest.mark.parametrize(
        "sets,metric,kind,scheme,delta,alpha,q", REGRESSIONS
    )
    def test_out_of_constraint_q_matches_brute_force(
        self, kernels, sets, metric, kind, scheme, delta, alpha, q
    ):
        with kernel_mode(kernels):
            engine, config = _build(sets, metric, kind, scheme, delta, alpha, q)
            reference = engine.collection[0]
            got, stats = engine.search_with_stats(reference, skip_set=0)
            expected = brute_force_search(
                reference, engine.collection, config, skip_set=0
            )
            assert sorted(r.set_id for r in got) == sorted(
                r.set_id for r in expected
            )
            # ... and the fallback decision is visible everywhere.
            assert engine.decision.full_scan
            assert not engine.decision.signature_valid
            assert stats.full_scan
            assert "full-scan fallback" in stats.fallback_reason
            assert engine.stats.planner_fallbacks == 1
            report = engine.plan(reference, skip_set=0).describe()
            assert "FULL SCAN" in report
            assert "NOT provable" in report

    @pytest.mark.parametrize(
        "sets,metric,kind,scheme,delta,alpha,q", REGRESSIONS
    )
    def test_old_signature_path_was_wrong(
        self, sets, metric, kind, scheme, delta, alpha, q
    ):
        """The pinned datasets really do trigger the pre-planner bug."""
        engine, config = _build(sets, metric, kind, scheme, delta, alpha, q)
        reference = engine.collection[0]
        plan = engine.plan(reference, skip_set=0)
        forced = dataclasses.replace(
            plan,
            stages=(
                SignatureStage(enabled=True),
                CandidateSelectStage(),
                CheckFilterStage(enabled=config.check_filter),
                NNFilterStage(enabled=config.nn_filter),
                VerifyStage(),
            ),
        )
        got, _ = forced.execute()
        expected = brute_force_search(
            reference, engine.collection, config, skip_set=0
        )
        assert sorted(r.set_id for r in got) != sorted(
            r.set_id for r in expected
        ), "dataset no longer reproduces the pre-planner bug"

    @pytest.mark.parametrize(
        "scheme", sorted(BOUND_SCHEMES - {"sim_thresh", "random"})
    )
    def test_bound_schemes_stay_signature_based(self, scheme):
        """alpha=0.5, q=2 under a bound-family scheme: no fallback, exact."""
        sets, metric, kind, _, delta, alpha, q = (
            [["cc", "baa", "b"], [], ["cb", "b"], ["aacb"], ["babac"]],
            Relatedness.SIMILARITY,
            SimilarityKind.EDS,
            None,
            0.4,
            0.5,
            2,
        )
        engine, config = _build(sets, metric, kind, scheme, delta, alpha, q)
        assert engine.decision.signature_valid
        assert not engine.decision.full_scan
        reference = engine.collection[0]
        got = engine.search(reference, skip_set=0)
        expected = brute_force_search(
            reference, engine.collection, config, skip_set=0
        )
        assert sorted(r.set_id for r in got) == sorted(
            r.set_id for r in expected
        )

    def test_fallback_returns_what_valid_signatures_return(self):
        """alpha=0.5, q=2: unweighted falls back, dichotomy signs; same pairs."""
        workload = string_matching(n_sets=30, alpha=0.5).with_config(
            delta=0.5, q=2
        )
        collection = SetCollection.from_strings(
            list(workload.sets), kind=SimilarityKind.EDS, q=2
        )
        found = {}
        for scheme in ("unweighted", "dichotomy"):
            engine = SilkMoth(
                collection, dataclasses.replace(workload.config, scheme=scheme)
            )
            assert engine.decision.full_scan == (scheme == "unweighted")
            found[scheme] = [
                (r.reference_id, r.set_id, r.score) for r in engine.discover()
            ]
        assert found["unweighted"], "fixture produced no related pairs"
        assert found["unweighted"] == found["dichotomy"]

    def test_caller_supplied_scheme_is_gated_by_its_own_name(self):
        """QueryPlan.build judges the scheme that will actually run.

        A caller handing build() a prefix-family scheme instance while
        config.scheme names a bound-family scheme must still get the
        fallback -- otherwise the exactness gate could be bypassed.
        """
        from repro.pipeline.plan import QueryPlan
        from repro.signatures import get_scheme

        sets, metric, kind, _, delta, alpha, q = REGRESSIONS[1].values[:7]
        engine, config = _build(sets, metric, kind, "dichotomy", delta, alpha, q)
        reference = engine.collection[0]
        plan = QueryPlan.build(
            reference=reference,
            config=config,
            collection=engine.collection,
            index=engine.index,
            scheme=get_scheme("unweighted"),
            skip_set=0,
        )
        assert plan.decision.scheme == "unweighted"
        assert plan.decision.scheme_source == "caller"
        assert plan.decision.full_scan
        got, stats = plan.execute()
        expected = brute_force_search(
            reference, engine.collection, config, skip_set=0
        )
        assert sorted(r.set_id for r in got) == sorted(
            r.set_id for r in expected
        )
        assert stats.full_scan
        # ... and a mismatched (scheme, decision) pair is rejected.
        with pytest.raises(ValueError, match="does not match"):
            QueryPlan.build(
                reference=reference,
                config=config,
                collection=engine.collection,
                index=engine.index,
                scheme=get_scheme("unweighted"),
                decision=engine.decision,
            )

    def test_discovery_uses_fallback_too(self):
        """The shared driver (discovery mode) inherits the fallback."""
        sets = [["cdcd"], ["c"], ["abab"], ["cdcd", "cd"], ["cdcd", "c"]]
        engine, config = _build(
            sets,
            Relatedness.CONTAINMENT,
            SimilarityKind.EDS,
            "comb_unweighted",
            0.3,
            0.0,
            1,
        )
        got = sorted((r.reference_id, r.set_id) for r in engine.discover())
        from repro.baselines.brute_force import brute_force_discover

        expected = sorted(
            (r.reference_id, r.set_id)
            for r in brute_force_discover(engine.collection, config)
        )
        assert got == expected
        assert engine.stats.planner_fallbacks == engine.stats.passes


# ----------------------------------------------------------------------
# Decisions and the cost model
# ----------------------------------------------------------------------
class TestPlannerDecision:
    def test_valid_config_keeps_signatures(self):
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS, alpha=0.85, q=5, scheme="dichotomy"
        )
        decision = plan_query(config)
        assert decision.q == 5
        assert decision.q_source == "pinned"
        assert decision.q_constraint_ok
        assert decision.signature_valid
        assert not decision.full_scan

    def test_auto_q_follows_section_81(self):
        config = SilkMothConfig(similarity=SimilarityKind.EDS, alpha=0.85)
        decision = plan_query(config)
        assert decision.q == 5
        assert decision.q_source == "auto"

    def test_token_kind_q_source(self):
        decision = plan_query(SilkMothConfig())
        assert decision.q == 1
        assert decision.q_source == "token"
        assert decision.q_constraint_ok

    def test_auto_scheme_is_always_valid(self):
        # The cost model only picks bound-family schemes, so "auto"
        # never needs the fallback -- even for hostile (alpha, q).
        for alpha, q in ((0.0, 5), (0.5, 2), (0.2, 1)):
            config = SilkMothConfig(
                similarity=SimilarityKind.EDS, alpha=alpha, q=q, scheme="auto"
            )
            decision = plan_query(config)
            assert decision.scheme_source == "auto"
            assert decision.signature_valid
            assert not decision.full_scan

    def test_auto_scheme_exhaustive_for_tiny_collections(self):
        collection = SetCollection.from_strings([["a b"], ["a c"]])
        engine = SilkMoth(collection, SilkMothConfig(scheme="auto"))
        assert engine.decision.scheme == "exhaustive"
        assert engine.scheme.name == "exhaustive"

    def test_to_dict_roundtrips_key_fields(self):
        collection = SetCollection.from_strings([["a b"], ["a c"]])
        engine = SilkMoth(collection, SilkMothConfig(scheme="auto"))
        payload = engine.decision.to_dict()
        for key in ("scheme", "q", "full_scan", "reasons", "profile"):
            assert key in payload
        assert payload["profile"]["live_sets"] == 2
        # The compute backend is no planner decision.
        assert not any("backend" in key for key in payload)
        assert not any("backend" in reason for reason in payload["reasons"])

    def test_invalid_scheme_name_rejected_by_config(self):
        with pytest.raises(ValueError, match="scheme"):
            SilkMothConfig(scheme="prefix_tree")

    def test_index_profile_statistics(self):
        collection = SetCollection.from_strings([["a b", "a"], ["a c"]])
        engine = SilkMoth(collection, SilkMothConfig())
        profile = IndexProfile.from_index(engine.index)
        assert profile.live_sets == 2
        assert profile.total_elements == 3
        assert profile.distinct_tokens == 3  # a, b, c
        assert profile.total_postings == 5
        assert profile.max_list_length == 3  # "a" appears in 3 elements
        assert profile.skew == pytest.approx(3 / (5 / 3))

    def test_replan_tracks_mutations(self):
        collection = SetCollection.from_strings([["a b"]] * 2)
        engine = SilkMoth(collection, SilkMothConfig(scheme="auto"))
        assert engine.decision.scheme == "exhaustive"
        for i in range(40):
            engine.add_set([f"tok{i} tok{i + 1}"])
        decision = engine.replan()
        assert decision.profile.live_sets == 42
        assert decision.scheme == "dichotomy"
        assert engine.scheme.name == "dichotomy"

    def test_workload_decisions_are_signature_based(self):
        """Table 3 default workloads never need the fallback."""
        for workload in (
            string_matching(n_sets=40),
            schema_matching(n_sets=40),
        ):
            decision = workload.planner_decision()
            assert decision.signature_valid, workload.name
            assert not decision.full_scan, workload.name


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------
class TestServicePlanner:
    def test_plan_report_and_metadata(self, tmp_path):
        service = SilkMothService(SilkMothConfig(delta=0.5))
        service.add_set(["77 Mass Ave Boston MA"])
        report = service.plan_report()
        assert "query plan" in report
        assert service.decision.signature_valid
        path = tmp_path / "svc.json"
        service.save(path)
        from repro.io.persistence import load_service_snapshot

        _, metadata = load_service_snapshot(path)
        assert metadata["planner"]["scheme"] == service.decision.scheme
        assert metadata["planner"]["full_scan"] is False

    def test_insert_only_growth_triggers_replan(self):
        # An insert-only service never compacts; growth alone must
        # refresh the cost model's choices.
        service = SilkMothService(SilkMothConfig(scheme="auto"))
        service.add_set(["a b"])
        assert service.decision.scheme == "exhaustive"
        for i in range(80):
            service.add_set([f"tok{i} tok{i + 1}"])
        assert service.decision.profile.live_sets > 32
        assert service.decision.scheme == "dichotomy"
        assert service.engine.scheme.name == "dichotomy"

    def test_fallback_config_serves_exactly(self):
        config = SilkMothConfig(
            similarity=SimilarityKind.EDS,
            metric=Relatedness.CONTAINMENT,
            delta=0.3,
            alpha=0.0,
            q=1,
            scheme="comb_unweighted",
        )
        service = SilkMothService(config)
        for elements in (["cdcd"], ["c"], ["abab"], ["cdcd", "cd"]):
            service.add_set(elements)
        assert service.decision.full_scan
        hits = service.search(["cdcd"])
        expected = brute_force_search(
            service.collection.query_set(["cdcd"]),
            service.collection,
            config,
        )
        assert sorted(r.set_id for r in hits) == sorted(
            r.set_id for r in expected
        )
