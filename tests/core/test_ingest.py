"""Units of the durable ingest pipeline: jobs, journal, queue, staging.

The contract under test is durability-first: every state transition is
journaled before it takes effect, replay reconstructs exactly the
unfinished work, and corrupt persistence degrades (quarantine + metric)
instead of failing recovery.
"""

from __future__ import annotations

import pytest

from repro.clock import FakeClock
from repro.core.ingest import (DEAD, DONE, EXTRACT, GENERATE, PENDING,
                               RUNNING, STAGES,
                               DeadLetterLedger, DurableJobQueue, IngestJob,
                               IngestJournal, StagingArea, job_id_for,
                               next_stage, read_jsonl, shard_of)
from repro.core.resilience import RetryPolicy
from repro.obs import MetricsRegistry


def make_job(source_id="db_0", job_id=None, **overrides):
    attributes = frozenset({"product.brand", "product.price"})
    return IngestJob(
        job_id or job_id_for("product", attributes, source_id),
        source_id, "product", attributes, **overrides)


class TestJobIdentity:
    def test_job_id_is_deterministic(self):
        attributes = frozenset({"product.brand", "product.price"})
        first = job_id_for("product", attributes, "db_0")
        second = job_id_for("product", frozenset(sorted(attributes)), "db_0")
        assert first == second
        assert first.startswith("product:")
        assert first.endswith(":db_0")

    def test_different_attribute_sets_get_different_ids(self):
        one = job_id_for("product", frozenset({"product.brand"}), "db_0")
        two = job_id_for("product", frozenset({"product.price"}), "db_0")
        assert one != two

    def test_shard_routing_is_stable_and_in_range(self):
        for n_shards in (1, 2, 5):
            for source in ("db_0", "xml_1", "webpage_2"):
                shard = shard_of(source, n_shards)
                assert 0 <= shard < n_shards
                assert shard == shard_of(source, n_shards)

    def test_shard_of_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            shard_of("db_0", 0)

    def test_next_stage_walks_the_waterfall(self):
        assert STAGES == (EXTRACT, GENERATE)
        assert next_stage(EXTRACT) == GENERATE
        assert next_stage(GENERATE) is None

    def test_job_dict_round_trip(self):
        job = make_job(stage=GENERATE, status=RUNNING, attempts=2,
                       error="boom", fingerprint="abc")
        clone = IngestJob.from_dict(job.to_dict())
        assert clone.job_id == job.job_id
        assert clone.attribute_ids == job.attribute_ids
        assert clone.stage == GENERATE
        assert clone.status == RUNNING
        assert clone.attempts == 2
        assert clone.error == "boom"
        assert clone.fingerprint == "abc"

    def test_eligibility_respects_backoff(self):
        job = make_job(next_eligible_at=5.0)
        assert not job.eligible(4.9)
        assert job.eligible(5.0)
        job.status = RUNNING
        assert not job.eligible(10.0)


class TestJournal:
    def test_replay_folds_transitions_into_latest_state(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            job = make_job()
            journal.record_job("enqueue", job, 0.0)
            job.status = RUNNING
            journal.record_job("claim", job, 1.0, worker=0)
            journal.record_job("stage", job, 2.0, stage=EXTRACT)
            job.status = DONE
            journal.record_job("done", job, 3.0)
        state = IngestJournal(tmp_path).replay()
        assert state.counts() == {DONE: 1}
        assert state.unfinished() == []
        assert state.jobs[job.job_id].completed_stages == [EXTRACT]

    def test_unfinished_resurrects_running_jobs_as_pending(self, tmp_path):
        with IngestJournal(tmp_path) as journal:
            job = make_job(status=RUNNING, worker=1)
            journal.record_job("claim", job, 1.0, worker=1)
        unfinished = IngestJournal(tmp_path).replay().unfinished()
        assert [j.status for j in unfinished] == [PENDING]
        assert unfinished[0].worker is None

    def test_torn_final_line_is_quarantined_not_fatal(self, tmp_path):
        metrics = MetricsRegistry()
        with IngestJournal(tmp_path) as journal:
            journal.record_job("enqueue", make_job(), 0.0)
            journal.record_job("enqueue", make_job("xml_1"), 1.0)
        path = tmp_path / "journal.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "job", "event": "cl')  # torn write
        journal = IngestJournal(tmp_path, metrics=metrics)
        records = journal.records()
        assert len(records) == 2  # the good prefix survives
        assert (tmp_path / "journal.jsonl.corrupt").exists()
        assert metrics.value("ingest_journal_corrupt_total",
                             kind="journal") == 1
        # the rewritten file is clean: a second read sees no damage
        assert len(journal.records()) == 2
        assert metrics.value("ingest_journal_corrupt_total",
                             kind="journal") == 1

    def test_non_object_json_line_counts_as_corruption(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"type": "run", "event": "started"}\n42\n')
        records = read_jsonl(path)
        assert len(records) == 1
        assert (tmp_path / "journal.jsonl.corrupt").exists()

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "journal.jsonl") == []


class TestDeadLetterLedger:
    def test_append_and_remove_round_trip(self, tmp_path):
        ledger = DeadLetterLedger(tmp_path)
        job = make_job(status=DEAD, error="poison")
        other = make_job("xml_1", status=DEAD, error="timeout")
        ledger.append(job, 1.0)
        ledger.append(other, 2.0)
        assert {entry["error"] for entry in ledger.entries()} == {
            "poison", "timeout"}
        removed = ledger.remove({job.job_id})
        assert [j.job_id for j in removed] == [job.job_id]
        assert [j.job_id for j in ledger.jobs()] == [other.job_id]


class TestDurableJobQueue:
    def make_queue(self, tmp_path, *, clock=None, retry=None, metrics=None):
        journal = IngestJournal(tmp_path, metrics=metrics)
        return DurableJobQueue(
            journal, clock=clock or FakeClock(),
            retry_policy=retry or RetryPolicy(max_attempts=3, base_delay=1.0,
                                              jitter="none", seed=3),
            metrics=metrics)

    def test_lifecycle_enqueue_claim_advance_complete(self, tmp_path):
        metrics = MetricsRegistry()
        queue = self.make_queue(tmp_path, metrics=metrics)
        job = queue.enqueue(make_job())
        assert queue.eligible() == [job]
        queue.claim(job, 0)
        assert queue.pending == [] and queue.running == [job]
        for stage in (EXTRACT, GENERATE):
            queue.advance(job, stage)
        assert job.completed_stages == list(STAGES)
        queue.complete(job)
        assert queue.drained
        assert queue.finished[job.job_id].status == DONE
        assert metrics.value("ingest_jobs_total", state="enqueued") == 1
        assert metrics.value("ingest_jobs_total", state="done") == 1

    def test_retryable_failure_backs_off_on_the_clock(self, tmp_path):
        clock = FakeClock()
        queue = self.make_queue(tmp_path, clock=clock)
        job = queue.enqueue(make_job())
        queue.claim(job, 0)
        queue.fail(job, "transient", retryable=True)
        assert job.status == PENDING and job.attempts == 1
        assert queue.eligible() == []  # still backing off
        clock.advance(job.next_eligible_at)
        assert queue.eligible() == [job]

    def test_exhausted_budget_goes_to_dead_letter(self, tmp_path):
        metrics = MetricsRegistry()
        clock = FakeClock()
        queue = self.make_queue(tmp_path, clock=clock, metrics=metrics)
        job = queue.enqueue(make_job())
        for _ in range(3):
            clock.advance(60.0)
            queue.claim(job, 0)
            queue.fail(job, "transient", retryable=True)
        assert job.status == DEAD
        assert [j.job_id for j in queue.dead_letter.jobs()] == [job.job_id]
        assert metrics.value("ingest_jobs_total", state="dead") == 1

    def test_non_retryable_failure_dies_immediately(self, tmp_path):
        queue = self.make_queue(tmp_path)
        job = queue.enqueue(make_job())
        queue.claim(job, 0)
        queue.fail(job, "poison", retryable=False)
        assert job.status == DEAD and job.attempts == 1
        assert queue.dead_letter.entries()[0]["error"] == "poison"

    def test_release_does_not_consume_an_attempt(self, tmp_path):
        queue = self.make_queue(tmp_path)
        job = queue.enqueue(make_job())
        queue.claim(job, 0)
        queue.release(job)
        assert job.status == PENDING
        assert job.attempts == 0
        assert job.worker is None
        assert queue.eligible() == [job]  # immediately redispatchable

    def test_requeue_dead_restores_a_fresh_budget(self, tmp_path):
        queue = self.make_queue(tmp_path)
        job = queue.enqueue(make_job())
        queue.claim(job, 0)
        queue.fail(job, "poison", retryable=False)
        revived = queue.requeue_dead()
        assert [j.job_id for j in revived] == [job.job_id]
        revived_job = queue.get(job.job_id)
        assert revived_job.status == PENDING
        assert revived_job.attempts == 0 and revived_job.error is None
        assert queue.dead_letter.entries() == []

    def test_recover_resurrects_exactly_the_unfinished_jobs(self, tmp_path):
        metrics = MetricsRegistry()
        queue = self.make_queue(tmp_path)
        done_job = queue.enqueue(make_job("db_0"))
        queue.claim(done_job, 0)
        queue.complete(done_job)
        running = queue.enqueue(make_job("xml_1"))
        queue.claim(running, 1)
        queue.enqueue(make_job("webpage_2"))
        queue.journal.close()

        journal = IngestJournal(tmp_path, metrics=metrics)
        recovered = DurableJobQueue(journal, clock=FakeClock(),
                                    metrics=metrics).recover()
        assert recovered.replayed == 2
        assert {j.source_id for j in recovered.pending} == {
            "xml_1", "webpage_2"}
        # in-flight work restarts immediately: the crash was ours
        assert all(j.next_eligible_at == 0.0 for j in recovered.pending)
        assert recovered.finished[done_job.job_id].status == DONE
        assert metrics.value("ingest_replayed_total") == 2

    def test_record_skip_journals_the_planner_decision(self, tmp_path):
        queue = self.make_queue(tmp_path)
        job = make_job()
        queue.record_skip(job, "unchanged")
        assert queue.finished[job.job_id].status == DONE
        events = [record["event"] for record in queue.journal.records()
                  if record.get("type") == "job"]
        assert events == ["skip"]


class TestStagingArea:
    def test_checkpoint_load_round_trip(self, tmp_path):
        staging = StagingArea(tmp_path)
        staging.checkpoint("product:abc:db_0", {"rows": [1, 2]})
        assert staging.load("product:abc:db_0") == {"rows": [1, 2]}
        assert staging.load("product:abc:db_1") is None

    def test_latest_scans_backwards_from_the_cursor(self, tmp_path):
        """One checkpoint per job: a job past EXTRACT — or at a stage
        this release does not know — resumes from it."""
        staging = StagingArea(tmp_path)
        staging.checkpoint("j", "raw")
        assert staging.latest("j", GENERATE) == "raw"
        assert staging.latest("j", "STAGE") == "raw"  # a 2.22 journal
        assert staging.latest("j", "BOGUS") == "raw"
        assert staging.latest("j", EXTRACT) is None
        assert staging.latest("other", GENERATE) is None

    def test_corrupt_checkpoint_quarantined_and_reported_absent(
            self, tmp_path):
        metrics = MetricsRegistry()
        staging = StagingArea(tmp_path, metrics=metrics)
        staging.checkpoint("j", "raw")
        path = staging._path("j")
        path.write_bytes(b"\x80\x04 not a pickle")
        assert staging.load("j") is None
        assert path.with_name(path.name + ".corrupt").exists()
        assert metrics.value("ingest_journal_corrupt_total",
                             kind="staging") == 1
        # and latest() reports it absent: the job re-runs EXTRACT
        assert staging.latest("j", GENERATE) is None

    def test_discard_drops_every_stage_file(self, tmp_path):
        staging = StagingArea(tmp_path)
        staging.checkpoint("j", "raw")
        staging.discard("j")
        assert staging.latest("j", GENERATE) is None
        assert list(staging.directory.iterdir()) == []
        staging.discard("j")  # a job without a checkpoint
