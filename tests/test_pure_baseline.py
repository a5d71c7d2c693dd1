"""Regression tests pinning the batched E1-E4/E6 pipeline to the frozen
sequential baseline, plus batching/chunking/resume invariance.

``tests/data/pure_seed_baseline.json`` was generated by the sequential
per-game Section 3 pipeline before the batched pure-strategy engine
existed (``benchmarks/pure_seed_baseline.py`` vendors that code verbatim
and regenerates the file). The batched chunk kernels must reproduce it
*bit for bit* — every solved count, every census verdict, every sampled
four-cycle gap — for every ``jobs``/``batch_size`` setting and across a
checkpoint/resume round trip, because each replication's seed is a pure
function of (label, n, m, rep).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.algorithms import e1_specs, e2_specs, e3_specs, e4_specs
from repro.experiments.campaign import e6_specs
from repro.runtime import run_sweep

BASELINE = json.loads(
    (Path(__file__).parent / "data" / "pure_seed_baseline.json").read_text()
)

CORRECTNESS_SPECS = {"E1": e1_specs, "E2": e2_specs, "E3": e3_specs}


def _correctness_fingerprint(label, *, quick, **options):
    spec = CORRECTNESS_SPECS[label](quick=quick)[0]
    sweep = run_sweep(spec, **options)
    return [
        [cell.num_users, cell.num_links, cell.replications, sum(payloads)]
        for cell, payloads in zip(spec.cells, sweep.payloads_by_cell)
    ]


def _e4_fingerprint(*, quick, **options):
    (spec,) = e4_specs(quick=quick)
    sweep = run_sweep(spec, **options)
    return [
        [cell.num_users, cell.num_links, cell.replications,
         sum(p[0] for p in payloads), sum(p[1] for p in payloads)]
        for cell, payloads in zip(spec.cells, sweep.payloads_by_cell)
    ]


def _e6_fingerprint(*, quick, **options):
    gap_spec, kp_spec, sym_spec = e6_specs(quick=quick)[:3]
    gaps = [
        g
        for payload in run_sweep(gap_spec, **options).chunk_payloads
        for g in payload
    ]
    return {
        "gaps": gaps,
        "kp_ok": all(run_sweep(kp_spec, **options).chunk_payloads),
        "sym_ok": all(run_sweep(sym_spec, **options).chunk_payloads),
    }


class TestFrozenSequentialBaseline:
    """Floats compared with ``==``, never ``allclose``."""

    @pytest.mark.parametrize("label", ["E1", "E2", "E3"])
    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_correctness_sweeps_bit_identical(self, label, mode):
        got = _correctness_fingerprint(label, quick=mode == "quick")
        assert got == BASELINE[mode][label]

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_e4_census_bit_identical(self, mode):
        assert _e4_fingerprint(quick=mode == "quick") == BASELINE[mode]["E4"]

    @pytest.mark.parametrize("mode", ["quick", "full"])
    def test_e6_potentials_bit_identical(self, mode):
        assert _e6_fingerprint(quick=mode == "quick") == BASELINE[mode]["E6"]

    def test_baseline_covers_both_modes(self):
        for mode in ("quick", "full"):
            assert set(BASELINE[mode]) == {"E1", "E2", "E3", "E4", "E6"}
            for fingerprint in BASELINE[mode].values():
                assert fingerprint  # non-empty

    def test_every_instance_solved(self):
        """The paper's claims at baseline strength: every sampled game is
        solved to a NE (E1-E3), every 3-user game has a pure NE with an
        acyclic best-response graph (E4), and the potential identities
        hold (E6)."""
        for mode in ("quick", "full"):
            for label in ("E1", "E2", "E3"):
                for n, m, reps, ok in BASELINE[mode][label]:
                    assert ok == reps, (mode, label, n, m)
            for n, m, reps, with_pne, cycles in BASELINE[mode]["E4"]:
                assert with_pne == reps and cycles == 0
            assert BASELINE[mode]["E6"]["kp_ok"]
            assert BASELINE[mode]["E6"]["sym_ok"]
            assert max(BASELINE[mode]["E6"]["gaps"]) > 1e-9


class TestExecutionInvariance:
    @pytest.mark.parametrize("options", [
        {"batch_size": 3},
        {"batch_size": 7},
        {"jobs": 2, "batch_size": 4},
    ])
    def test_chunking_and_jobs_never_change_results(self, options):
        assert (
            _e4_fingerprint(quick=True, **options)
            == BASELINE["quick"]["E4"]
        )
        assert (
            _e6_fingerprint(quick=True, **options)
            == BASELINE["quick"]["E6"]
        )

    def test_fresh_and_resumed_stores_byte_identical(self, tmp_path):
        """The PR 3 guarantee on the rewired kernels: an interrupted E4
        sweep resumes to a byte-identical store and identical payloads."""
        (spec,) = e4_specs(quick=True)
        full_store = tmp_path / "full.jsonl"
        full = run_sweep(spec, batch_size=10, store=full_store)
        full_bytes = full_store.read_bytes()

        lines = full_bytes.splitlines(keepends=True)
        partial_store = tmp_path / "partial.jsonl"
        partial_store.write_bytes(b"".join(lines[: len(lines) // 2]))
        resumed = run_sweep(
            spec, batch_size=10, store=partial_store, resume=True
        )
        assert partial_store.read_bytes() == full_bytes
        assert resumed.chunk_payloads == full.chunk_payloads
        assert resumed.resumed_chunks == len(lines) // 2
