"""Tests for the sharded campaign runtime: plan, merge, digest, CLI.

The sharding contract under test is the one ``docs/STORE_FORMAT.md``
specifies: for a fixed spec, *any* shard count, *any* shard completion
order, and kill-resume inside a shard all merge to the same
canonical-record digest as the single-host store — and a ``K = 1``
merge is byte-identical to it. File-byte equality of the merged store
is deliberately **not** the cross-shard contract (canonical-record
equality is), but the round-robin interleave makes it hold anyway for
complete single-spec campaigns, which the suite pins as a stronger
bonus where it applies.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreMergeError
from repro.generators.suites import GridCell
from repro.runtime import (
    ResultStore,
    ShardPlan,
    SweepSpec,
    canonical_record_digest,
    discover_shard_stores,
    merge_shard_stores,
    run_sweep,
    shard_store_path,
)
from repro.util.parallel import ReplicationChunk


def _echo_kernel(chunk: ReplicationChunk) -> dict:
    seeds = chunk.seeds()
    return {
        "label": chunk.label,
        "n": chunk.num_users,
        "m": chunk.num_links,
        "lo": chunk.rep_lo,
        "hi": chunk.rep_hi,
        "seed_sum": sum(seeds),
    }


def _spec(label: str = "shard-test") -> SweepSpec:
    return SweepSpec(
        experiment="RT",
        label=label,
        cells=(GridCell(2, 2, 5), GridCell(3, 2, 4), GridCell(3, 3, 3)),
        kernel=_echo_kernel,
    )


def _record(key_label: str, lo: int, payload) -> dict:
    return {
        "experiment": "RT", "label": key_label, "n": 2, "m": 2,
        "rep_lo": lo, "rep_hi": lo + 1, "payload": payload,
    }


def _run_shards(spec, base, order, count, batch_size=1, seed=None):
    """Run every shard of a count-way plan in the given completion order."""
    for k in order:
        run_sweep(
            spec,
            batch_size=batch_size,
            seed=seed,
            store=shard_store_path(base, k),
            shard=ShardPlan(k, count),
        )


class TestShardPlan:
    def test_parse_round_trip(self):
        plan = ShardPlan.parse("1/3")
        assert (plan.index, plan.count) == (1, 3)
        assert str(plan) == "1/3"
        assert ShardPlan.parse(str(plan)) == plan

    @pytest.mark.parametrize("text", ["", "3", "a/b", "1/", "/3", "1/3/5"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError, match="k/K"):
            ShardPlan.parse(text)

    @pytest.mark.parametrize("index,count", [(0, 0), (-1, 2), (2, 2), (3, 2)])
    def test_validation(self, index, count):
        with pytest.raises(ValueError):
            ShardPlan(index, count)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 12, 17])
    def test_shards_partition_the_chunk_list(self, count):
        """Every chunk is owned by exactly one shard, and concatenating
        the shards' slices is a permutation of the full list."""
        items = list(range(12))
        slices = [ShardPlan(k, count).select(items) for k in range(count)]
        flat = [x for s in slices for x in s]
        assert sorted(flat) == items
        for k, part in enumerate(slices):
            assert all(ShardPlan(k, count).owns(i) for i in part)

    def test_spec_chunks_shard_union(self):
        spec = _spec()
        full, full_cells = spec.chunks(batch_size=2)
        seen = []
        seen_cells = []
        for k in range(3):
            chunks, cells = spec.chunks(batch_size=2, shard=ShardPlan(k, 3))
            seen.extend(chunks)
            seen_cells.extend(cells)
        assert sorted(map(repr, seen)) == sorted(map(repr, full))
        assert sorted(seen_cells) == sorted(full_cells)


class TestShardInvariance:
    """The tentpole contract: any K, any completion order, kill-resume
    inside a shard — all merge to the single-host canonical digest."""

    @pytest.fixture()
    def single_host(self, tmp_path):
        path = tmp_path / "single.jsonl"
        run_sweep(_spec(), batch_size=1, store=path)
        return ResultStore(path)

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 20])
    def test_any_shard_count_merges_to_single_host_digest(
        self, tmp_path, single_host, count
    ):
        base = tmp_path / f"sharded-{count}.jsonl"
        _run_shards(_spec(), base, range(count), count)
        result = merge_shard_stores(discover_shard_stores(base), base)
        assert result.digest == single_host.canonical_digest()
        assert result.duplicates == 0

    def test_completion_order_is_irrelevant(self, tmp_path, single_host):
        reference = single_host.canonical_digest()
        for i, order in enumerate(itertools.permutations(range(3))):
            base = tmp_path / f"order-{i}.jsonl"
            _run_shards(_spec(), base, order, 3)
            result = merge_shard_stores(discover_shard_stores(base), base)
            assert result.digest == reference

    def test_k1_merge_is_byte_identical_to_single_host(
        self, tmp_path, single_host
    ):
        base = tmp_path / "k1.jsonl"
        _run_shards(_spec(), base, [0], 1)
        merge_shard_stores(discover_shard_stores(base), base)
        assert base.read_bytes() == single_host.path.read_bytes()

    def test_complete_single_spec_merge_is_byte_identical(
        self, tmp_path, single_host
    ):
        """Stronger than the contract: for a complete single-spec
        campaign the round-robin interleave reconstructs canonical
        chunk order exactly, so even the bytes agree."""
        base = tmp_path / "k3.jsonl"
        _run_shards(_spec(), base, [2, 0, 1], 3)
        merge_shard_stores(discover_shard_stores(base), base)
        assert base.read_bytes() == single_host.path.read_bytes()

    def test_oversharded_campaign_with_empty_shards(self, tmp_path, single_host):
        """K larger than the chunk count: trailing shards own nothing
        and never create a file; the merge still reproduces the store."""
        count = 40  # > 12 chunks
        base = tmp_path / "over.jsonl"
        _run_shards(_spec(), base, range(count), count)
        found = discover_shard_stores(base)
        assert len(found) == 12  # one non-empty shard per chunk
        result = merge_shard_stores(found, base)
        assert result.digest == single_host.canonical_digest()

    @settings(max_examples=15, deadline=None)
    @given(
        count=st.integers(1, 5),
        victim=st.integers(0, 4),
        cut_fraction=st.floats(0.05, 0.95),
    )
    def test_kill_resume_inside_a_shard(
        self, tmp_path_factory, count, victim, cut_fraction
    ):
        """Tear a shard store at an arbitrary byte, resume that shard,
        merge: canonical digest and shard bytes both converge."""
        victim %= count
        tmp_path = tmp_path_factory.mktemp("shard-kill")
        spec = _spec()
        single = tmp_path / "single.jsonl"
        run_sweep(spec, batch_size=1, store=single)

        base = tmp_path / "sharded.jsonl"
        _run_shards(spec, base, range(count), count)
        victim_path = shard_store_path(base, victim)
        healthy = victim_path.read_bytes()
        victim_path.write_bytes(healthy[: int(len(healthy) * cut_fraction)])

        resumed = run_sweep(
            spec,
            batch_size=1,
            store=victim_path,
            shard=ShardPlan(victim, count),
            resume=True,
        )
        assert resumed.computed_chunks + resumed.resumed_chunks == len(
            resumed.chunk_payloads
        )
        assert victim_path.read_bytes() == healthy
        result = merge_shard_stores(discover_shard_stores(base), base)
        assert result.digest == ResultStore(single).canonical_digest()

    def test_multi_spec_campaign_digest(self, tmp_path):
        """Two specs sharing one store (the E6 shape): shard each spec
        independently into the same shard files, merge, compare the
        canonical digest against the single-host two-spec store."""
        specs = [_spec("shard-a"), _spec("shard-b")]
        single = tmp_path / "single.jsonl"
        for spec in specs:
            run_sweep(spec, batch_size=2, store=single)

        base = tmp_path / "sharded.jsonl"
        for k in (1, 0, 2):
            for spec in specs:
                run_sweep(
                    spec,
                    batch_size=2,
                    store=shard_store_path(base, k),
                    shard=ShardPlan(k, 3),
                )
        result = merge_shard_stores(discover_shard_stores(base), base)
        assert result.digest == ResultStore(single).canonical_digest()

    def test_seed_override_changes_digest(self, tmp_path, single_host):
        base = tmp_path / "seeded.jsonl"
        _run_shards(_spec(), base, range(2), 2, seed=7)
        result = merge_shard_stores(discover_shard_stores(base), base)
        assert result.digest != single_host.canonical_digest()


class TestMerge:
    def test_conflicting_records_raise(self, tmp_path):
        a = ResultStore(tmp_path / "s.shard-0.jsonl")
        b = ResultStore(tmp_path / "s.shard-1.jsonl")
        a.append(_record("x", 0, [1.0]))
        b.append(_record("x", 0, [2.0]))
        with pytest.raises(StoreMergeError, match="disagree"):
            merge_shard_stores([a, b], tmp_path / "s.jsonl")
        assert not (tmp_path / "s.jsonl").exists()

    def test_equal_duplicates_collapse(self, tmp_path):
        a = ResultStore(tmp_path / "s.shard-0.jsonl")
        b = ResultStore(tmp_path / "s.shard-1.jsonl")
        a.append(_record("x", 0, [1.0]))
        b.append(_record("x", 0, [1.0]))
        b.append(_record("x", 1, [2.0]))
        result = merge_shard_stores([a, b], tmp_path / "s.jsonl")
        assert result.records == 2
        assert result.duplicates == 1

    def test_existing_destination_requires_force(self, tmp_path):
        shard = ResultStore(tmp_path / "s.shard-0.jsonl")
        shard.append(_record("x", 0, 1))
        dest = tmp_path / "s.jsonl"
        dest.write_text("precious\n")
        with pytest.raises(StoreMergeError, match="force"):
            merge_shard_stores([shard], dest)
        assert dest.read_text() == "precious\n"
        result = merge_shard_stores([shard], dest, force=True)
        assert result.records == 1

    def test_destination_must_not_be_an_input(self, tmp_path):
        shard = ResultStore(tmp_path / "s.shard-0.jsonl")
        shard.append(_record("x", 0, 1))
        with pytest.raises(StoreMergeError, match="itself a shard input"):
            merge_shard_stores([shard], shard.path)

    def test_empty_shard_list_raises(self, tmp_path):
        with pytest.raises(StoreMergeError, match="no shard stores"):
            merge_shard_stores([], tmp_path / "s.jsonl")

    def test_merge_repairs_shard_tails(self, tmp_path):
        """A shard killed between its final record and the newline must
        contribute that record to the merge (the load_records fix)."""
        shard_path = tmp_path / "s.shard-0.jsonl"
        shard = ResultStore(shard_path)
        shard.append(_record("x", 0, 1))
        shard.append(_record("x", 1, 2))
        shard_path.write_bytes(shard_path.read_bytes().rstrip(b"\n"))
        result = merge_shard_stores([shard], tmp_path / "s.jsonl")
        assert result.records == 2

    def test_discovery_sorts_numerically(self, tmp_path):
        base = tmp_path / "s.jsonl"
        for k in (10, 2, 0):
            store = ResultStore(shard_store_path(base, k))
            store.append(_record("x", k, k))
        found = discover_shard_stores(base)
        assert [s.path.name for s in found] == [
            "s.shard-0.jsonl", "s.shard-2.jsonl", "s.shard-10.jsonl",
        ]

    def test_discovery_ignores_unrelated_files(self, tmp_path):
        base = tmp_path / "s.jsonl"
        (tmp_path / "s.shard-x.jsonl").write_text("")
        (tmp_path / "other.shard-0.jsonl").write_text("")
        (tmp_path / "s.shard-0.jsonl.bak").write_text("")
        assert discover_shard_stores(base) == []

    def test_shard_store_path_spelling(self, tmp_path):
        assert shard_store_path("store.jsonl", 3).name == "store.shard-3.jsonl"
        assert shard_store_path(tmp_path / "a.b.jsonl", 0).name == (
            "a.b.shard-0.jsonl"
        )
        with pytest.raises(ValueError, match=">= 0"):
            shard_store_path("store.jsonl", -1)


class TestCanonicalDigest:
    def test_order_and_formatting_independent(self):
        a = _record("x", 0, [1.5])
        b = _record("x", 1, [2.5])
        scrambled_b = dict(reversed(list(b.items())))
        assert canonical_record_digest([a, b]) == canonical_record_digest(
            [scrambled_b, a]
        )
        assert canonical_record_digest([a]) != canonical_record_digest([b])

    def test_payload_changes_digest(self):
        assert canonical_record_digest(
            [_record("x", 0, [1.0])]
        ) != canonical_record_digest([_record("x", 0, [1.0 + 1e-15])])

    def test_store_digest_ignores_append_order(self, tmp_path):
        a, b = _record("x", 0, 1), _record("x", 1, 2)
        first = ResultStore(tmp_path / "ab.jsonl")
        first.append(a), first.append(b)
        second = ResultStore(tmp_path / "ba.jsonl")
        second.append(b), second.append(a)
        assert first.canonical_digest() == second.canonical_digest()
        assert first.path.read_bytes() != second.path.read_bytes()


class TestShardCli:
    def test_run_shard_requires_store(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "E8", "--quick", "--shard", "0/2"])
        assert "--shard requires --store" in capsys.readouterr().err

    def test_malformed_shard_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "E8", "--quick", "--shard", "2", "--store", "s.jsonl"])
        assert "k/K" in capsys.readouterr().err

    def test_sharded_campaign_end_to_end(self, tmp_path, capsys):
        """run --shard x2, merge, digest gate against single host, then
        replay the verdict from the merged store with --resume."""
        from repro.cli import main

        single = tmp_path / "single.jsonl"
        assert main(["run", "E8", "--quick", "--store", str(single)]) == 0
        capsys.readouterr()  # drain the single-host verdict output

        base = tmp_path / "sharded.jsonl"
        for k in (1, 0):
            assert main([
                "run", "E8", "--quick",
                "--shard", f"{k}/2", "--store", str(base),
            ]) == 0
        out = capsys.readouterr().out
        assert "shard 1/2 complete" in out and "shard 0/2 complete" in out
        assert "PASS" not in out  # shards compute stores, not verdicts

        assert main(["merge", "--store", str(base)]) == 0
        merged_out = capsys.readouterr().out
        assert "canonical digest:" in merged_out

        assert main(["digest", str(base)]) == 0
        digest_a = capsys.readouterr().out.strip()
        assert main(["digest", str(single)]) == 0
        digest_b = capsys.readouterr().out.strip()
        assert digest_a == digest_b

        before = base.read_bytes()
        assert main([
            "run", "E8", "--quick", "--store", str(base), "--resume",
        ]) == 0
        assert "PASS" in capsys.readouterr().out
        assert base.read_bytes() == before  # replay computed nothing new

    def test_stored_searches_shard_and_merge(self, tmp_path, capsys):
        """The full-mode E1 counts and the E6/E12 searches are chunks
        like any other: two shards merge to the single-host digest, and
        a replay from the merged store appends nothing."""
        from repro.cli import main

        ids = ["E1", "E6", "E12"]
        single = tmp_path / "single.jsonl"
        assert main(["run", *ids, "--store", str(single)]) == 0
        base = tmp_path / "sharded.jsonl"
        for k in (0, 1):
            assert main(["run", *ids, "--shard", f"{k}/2", "--store", str(base)]) == 0
        assert main(["merge", "--store", str(base)]) == 0
        capsys.readouterr()
        assert main(["digest", str(base)]) == 0
        digest_merged = capsys.readouterr().out.strip()
        assert main(["digest", str(single)]) == 0
        assert capsys.readouterr().out.strip() == digest_merged

        before = base.read_bytes()
        assert main(["run", *ids, "--store", str(base), "--resume"]) == 0
        assert "all experiments passed" in capsys.readouterr().out
        assert base.read_bytes() == before

    def test_merge_without_shards_fails(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["merge", "--store", str(tmp_path / "none.jsonl")]) == 1
        assert "no shard stores found" in capsys.readouterr().err

    def test_merge_conflict_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        ResultStore(tmp_path / "s.shard-0.jsonl").append(_record("x", 0, 1))
        ResultStore(tmp_path / "s.shard-1.jsonl").append(_record("x", 0, 2))
        assert main(["merge", "--store", str(tmp_path / "s.jsonl")]) == 1
        assert "merge failed" in capsys.readouterr().err

    def test_merge_explicit_shard_paths(self, tmp_path, capsys):
        from repro.cli import main

        shard = tmp_path / "elsewhere.jsonl"
        ResultStore(shard).append(_record("x", 0, 1))
        assert main([
            "merge", "--store", str(tmp_path / "s.jsonl"),
            "--shards", str(shard),
        ]) == 0
        assert "1 record(s)" in capsys.readouterr().out
