"""Tests for the transcribed paper values and the shape-claim checker."""

import numpy as np

from repro.experiments.reference import (
    PAPER_INNER_AVPR,
    PAPER_KS,
    PAPER_OUTER_AVPR,
    PAPER_PAVG,
    PAPER_PMIN,
    PAPER_TABLE2,
    PAPER_TIME_MS,
    shape_claims,
)


class TestTranscriptionConsistency:
    def test_grids_are_complete(self):
        expected_cells = sum(len(ks) for ks in PAPER_KS.values()) * 4
        for grid in (PAPER_PMIN, PAPER_PAVG, PAPER_INNER_AVPR, PAPER_OUTER_AVPR, PAPER_TIME_MS):
            assert len(grid) == expected_cells

    def test_probabilities_in_unit_interval(self):
        for grid in (PAPER_PMIN, PAPER_PAVG, PAPER_INNER_AVPR, PAPER_OUTER_AVPR):
            assert all(0.0 <= v <= 1.0 for v in grid.values())

    def test_pmin_never_exceeds_pavg(self):
        # Internal consistency of the paper's own numbers.
        for key, pmin in PAPER_PMIN.items():
            assert pmin <= PAPER_PAVG[key] + 1e-9, key

    def test_table2_rates_valid(self):
        for (algorithm, _depth), (tpr, fpr) in PAPER_TABLE2.items():
            assert 0.0 <= tpr <= 1.0
            assert 0.0 <= fpr <= 1.0
            assert algorithm in ("mcp", "acp", "mcl", "kpt")

    def test_table2_fpr_monotone_in_depth(self):
        # The paper's own numbers: deeper paths -> more false positives.
        for algorithm in ("mcp", "acp"):
            fprs = [PAPER_TABLE2[(algorithm, d)][1] for d in (2, 3, 4, 6, 8)]
            assert fprs == sorted(fprs)

    def test_kpt_has_lowest_tpr(self):
        kpt_tpr = PAPER_TABLE2[("kpt", None)][0]
        others = [v[0] for k, v in PAPER_TABLE2.items() if k[0] != "kpt"]
        assert all(kpt_tpr < t for t in others)


class TestShapeClaims:
    def test_paper_numbers_satisfy_their_own_claims(self):
        for claim, holds in shape_claims():
            assert holds, f"paper's own numbers violate: {claim}"

    def test_checker_detects_violations(self):
        broken = dict(PAPER_PMIN)
        graph, k = "gavin", PAPER_KS["gavin"][0]
        broken[(graph, k, "mcp")] = 0.0  # sabotage
        results = dict(shape_claims(pmin=broken))
        assert not results["mcp has the best pmin of {gmm, mcl} on every (graph, k)"]

    def test_measured_suite_satisfies_claims(self):
        # Run a tiny measured grid through the same checker.
        from repro.experiments import run_quality_suite

        suite = run_quality_suite("tiny", seed=0, datasets=("gavin",))
        pmin = {}
        outer = {}
        for record in suite.records:
            if np.isnan(record.pmin):
                continue
            pmin[(record.graph, record.k, record.algorithm)] = record.pmin
            if np.isfinite(record.outer_avpr):
                outer[(record.graph, record.k, record.algorithm)] = record.outer_avpr
        # Tiny scale evaluates metrics on 120 sampled worlds, so the
        # estimates carry the +-0.02-0.03 Monte Carlo band the checker
        # documents; claims are checked up to that noise.
        for claim, holds in shape_claims(pmin=pmin, outer=outer, tolerance=0.05):
            assert holds, f"measured run violates: {claim}"
