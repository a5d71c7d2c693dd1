"""A ``--resume`` replay recomputes nothing.

The E1-E3 operation counts, E6's cycle search and E12's witness search
are ordinary sweep specs, so a full-mode replay reads them back from the
store instead of running them again, and reproduces the fresh run's
tables, details and store bytes exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import StoreFormatError
from repro.experiments import algorithms, anarchy, campaign
from repro.experiments.registry import run_experiment

STORED = ("E1", "E2", "E3", "E6", "E12")

#: The labels whose records hold the once-recomputed work.
SEARCH_LABELS = ("E1-ops", "E2-ops", "E3-ops", "E6-cycles6", "E12-search")


def _snapshot(result):
    return (
        result.passed,
        [table.render() for table in result.tables],
        result.details,
    )


def _forbid_recomputation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a replay must not recompute this")

    monkeypatch.setattr(algorithms, "measure_scaling", refuse)
    monkeypatch.setattr(campaign, "search_improvement_cycle_instance", refuse)
    monkeypatch.setattr(anarchy, "search_no_pne_instance", refuse)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A full-mode store of the five experiments and their results."""
    store = tmp_path_factory.mktemp("replay") / "store.jsonl"
    results = {eid: _snapshot(run_experiment(eid, store=store)) for eid in STORED}
    return store, results


class TestReplay:
    def test_replay_reproduces_everything_without_recomputing(
        self, fresh, tmp_path, monkeypatch
    ):
        source, results = fresh
        store = tmp_path / "store.jsonl"
        store.write_bytes(source.read_bytes())
        _forbid_recomputation(monkeypatch)
        for eid in STORED:
            replayed = run_experiment(eid, store=store, resume=True)
            assert _snapshot(replayed) == results[eid], eid
        assert store.read_bytes() == source.read_bytes()

    def test_store_holds_one_record_per_search_chunk(self, fresh):
        source, results = fresh
        labels = [json.loads(line)["label"] for line in source.read_text().splitlines()]
        assert {label: labels.count(label) for label in SEARCH_LABELS} == {
            "E1-ops": 6, "E2-ops": 5, "E3-ops": 6, "E6-cycles6": 1, "E12-search": 1,
        }
        assert all(results[eid][0] for eid in STORED)

    def test_quick_cycle_record_is_not_replayed_in_full_mode(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store.jsonl"
        run_experiment("E6", quick=True, store=store)
        searched = []
        search = campaign.search_improvement_cycle_instance

        def recording(*args, **kwargs):
            searched.append(kwargs["max_cycle_length"])
            return search(*args, **kwargs)

        monkeypatch.setattr(campaign, "search_improvement_cycle_instance", recording)
        result = run_experiment("E6", store=store, resume=True)
        assert searched == [6]
        assert result.details["cycles_tested"] == 2889
        labels = [json.loads(line)["label"] for line in store.read_text().splitlines()]
        assert labels.count("E6-cycles4") == 1 and labels.count("E6-cycles6") == 1

    @pytest.mark.parametrize("label", SEARCH_LABELS)
    def test_wrong_payload_length_is_refused(self, fresh, tmp_path, label):
        source, _ = fresh
        store = tmp_path / "store.jsonl"
        lines = []
        for line in source.read_text().splitlines():
            record = json.loads(line)
            if record["label"] == label:
                record["payload"] = record["payload"] + [0]
            lines.append(json.dumps(record))
        store.write_text("\n".join(lines) + "\n")
        stale = store.read_bytes()
        with pytest.raises(StoreFormatError, match="start a fresh store"):
            run_experiment(label.split("-")[0], store=store, resume=True)
        assert store.read_bytes() == stale
