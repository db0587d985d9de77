"""Crash recovery integration: the durable ingest pipeline end to end.

The acceptance criteria of the ingest subsystem, asserted directly:

* a coordinator killed mid-run resumes *exactly* the unfinished jobs
  (journal claim counts prove which jobs re-ran), and the recovered
  store is byte-equivalent to a run that never failed;
* a worker killed mid-GENERATE is detected by heartbeat, restarted, its
  job re-enqueued and resumed from its EXTRACT checkpoint without
  reading its source again, and the store still converges to the
  fault-free answer;
* a journal written by 2.22 (jobs at STAGE, CLEAN or MATERIALIZE, with
  a ``merge_key``) or naming a stage nobody knows resumes to the same
  store;
* poison jobs land in the dead-letter ledger with their error and come
  back through the requeue path;
* corrupt persistence (torn journal tail, garbled snapshot manifest)
  degrades to quarantine + metric, never a failed recovery.

Everything runs on a FakeClock: heartbeat timeouts, retry backoffs and
restart delays advance deterministically in the coordinator's idle
loop, so there are no sleeps and no flakes.
"""

from __future__ import annotations

import json

import pytest

from repro.clock import FakeClock
from repro.config import ResilienceConfig
from repro.core.ingest import (EXTRACT, GENERATE, IngestJob, IngestJournal,
                               IngestTarget, ShardCoordinator, StagingArea,
                               WorkerContext, WorkItem, execute_stage,
                               job_id_for)
from repro.core.query.parser import parse_s2sql
from repro.core.resilience import BreakerPolicy, RetryPolicy
from repro.obs import MetricsRegistry
from repro.sources.flaky import FlakySource, KillableWorker, WorkerFault
from repro.workloads import B2BScenario


class World:
    """One middleware + coordinator factory over a fixed scenario."""

    def __init__(self, journal_dir, *, n_sources=6, n_products=10, seed=7,
                 resilience=None):
        self.journal_dir = str(journal_dir)
        self.metrics = MetricsRegistry()
        self.clock = FakeClock()
        self.scenario = B2BScenario(n_sources=n_sources,
                                    n_products=n_products, seed=seed)
        kwargs = {"resilience": resilience} if resilience else {}
        self.s2s = self.scenario.build_middleware(store=True,
                                                  metrics=self.metrics,
                                                  **kwargs)
        plan = self.s2s.query_handler.planner.plan(
            parse_s2sql("SELECT product"))
        self.target = IngestTarget(plan.class_name,
                                   list(plan.required_attributes))

    def coordinator(self, **kwargs) -> ShardCoordinator:
        kwargs.setdefault("clock", self.clock)
        kwargs.setdefault("metrics", self.metrics)
        kwargs.setdefault("n_workers", 2)
        return ShardCoordinator(self.s2s.store, self.s2s.manager,
                                self.s2s.query_handler.generator,
                                self.journal_dir, **kwargs)

    def export(self) -> list[str]:
        return sorted(self.s2s.store.export("ntriples").splitlines())

    def counting(self, source_id: str) -> FlakySource:
        """Wrap ``source_id`` in a fault-free FlakySource, whose
        ``attempts`` counts the rule reads it served."""
        repository = self.s2s.source_repository
        wrapped = FlakySource(repository.get(source_id), failure_rate=0.0)
        repository.register(wrapped, replace=True)
        return wrapped

    def job_events(self, job_id: str) -> list[tuple[str, str]]:
        """(event, the job's stage) of every journal record of ``job_id``."""
        return [(record["event"], record.get("stage") or
                 record["job"]["stage"])
                for record in IngestJournal(self.journal_dir).records()
                if record.get("type") == "job"
                and record["job"]["job_id"] == job_id]

    def claim_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in IngestJournal(self.journal_dir).records():
            if record.get("type") == "job" and record.get("event") == "claim":
                job_id = record["job"]["job_id"]
                counts[job_id] = counts.get(job_id, 0) + 1
        return counts


@pytest.fixture
def reference(tmp_path):
    """The fault-free answer every recovery scenario must converge to."""
    world = World(tmp_path / "reference")
    report = world.coordinator().run([world.target])
    assert not report.aborted and report.dead == 0
    return world.export()


class TestCrashAndResume:
    def test_resume_runs_exactly_the_unfinished_jobs(self, tmp_path,
                                                     reference):
        world = World(tmp_path / "journal")
        crashed = world.coordinator(stop_after=3)
        report = crashed.run([world.target])
        crashed.close()
        assert report.aborted
        assert report.completed == 3
        state = IngestJournal(world.journal_dir).replay()
        done_ids = {job_id for job_id, job in state.jobs.items()
                    if job.status == "done"}
        running_ids = {job_id for job_id, job in state.jobs.items()
                       if job.status == "running"}
        assert len(done_ids) == 3

        # a fresh coordinator sees the journal truth before running
        resumed = world.coordinator()
        status = resumed.status()
        unfinished = status["jobs"].get("pending", 0) + \
            status["jobs"].get("running", 0)
        assert status["jobs"]["done"] == 3
        assert unfinished == 3
        assert len(status["unfinished"]) == unfinished

        second = resumed.run([world.target])
        resumed.close()
        assert not second.aborted
        # replay resurrected every unfinished job, and only those ran:
        assert second.replayed == unfinished
        assert second.completed == unfinished
        assert second.skipped_unchanged == 3
        assert world.metrics.value("ingest_replayed_total") == unfinished
        # jobs finished before the crash were claimed exactly once (the
        # resume never re-extracted them); in-flight jobs were claimed
        # once per delivery (at-least-once)
        counts = world.claim_counts()
        assert all(counts[job_id] == 1 for job_id in done_ids)
        assert all(counts[job_id] == 2 for job_id in running_ids)
        assert sum(counts.values()) == 6 + len(running_ids)
        assert world.export() == reference

    def test_resume_cost_is_proportional_to_unfinished_work(self, tmp_path):
        """Crashing later leaves less to redo: claims after the crash
        shrink as the crash point moves toward the end."""
        claims_after_crash = []
        for index, stop_after in enumerate((1, 4)):
            world = World(tmp_path / f"j{index}")
            crashed = world.coordinator(stop_after=stop_after)
            crashed.run([world.target])
            crashed.close()
            before = sum(world.claim_counts().values())
            resumed = world.coordinator()
            resumed.run([world.target])
            resumed.close()
            claims_after_crash.append(
                sum(world.claim_counts().values()) - before)
        assert claims_after_crash[0] > claims_after_crash[1]


class TestWorkerDeathChaos:
    def test_kill_mid_stage_restarts_worker_and_converges(self, tmp_path,
                                                          reference):
        world = World(tmp_path / "journal")
        source_id = sorted(world.s2s.manager.sources.ids())[0]
        killable = KillableWorker([WorkerFault("kill", source_id=source_id,
                                               stage=GENERATE)])
        coordinator = world.coordinator(killable=killable,
                                        heartbeat_timeout=2.0)
        report = coordinator.run([world.target])
        coordinator.close()
        assert not report.aborted
        assert report.worker_restarts == 1
        assert report.released == 1
        assert report.completed == 6
        assert report.dead == 0
        assert [fault.action for fault in killable.fired] == ["kill"]
        # only the killed job was redelivered
        counts = world.claim_counts()
        killed = [job_id for job_id in counts if source_id in job_id]
        assert len(killed) == 1
        assert counts[killed[0]] == 2
        assert all(count == 1 for job_id, count in counts.items()
                   if job_id != killed[0])
        assert world.metrics.counter("worker_restarts_total").total() == 1
        # at-least-once + idempotent upsert: the store is still exact
        assert world.export() == reference

    def test_worker_death_does_not_consume_the_retry_budget(self, tmp_path):
        """Two scripted kills on the same source survive a retry policy
        that would allow only one job *failure*."""
        world = World(tmp_path / "journal")
        source_id = sorted(world.s2s.manager.sources.ids())[0]
        killable = KillableWorker([
            WorkerFault("kill", source_id=source_id, stage=GENERATE),
            WorkerFault("kill", source_id=source_id, stage=GENERATE)])
        coordinator = world.coordinator(killable=killable,
                                        heartbeat_timeout=2.0,
                                        max_worker_restarts=3)
        report = coordinator.run([world.target])
        coordinator.close()
        assert not report.aborted
        assert report.worker_restarts == 2
        assert report.dead == 0
        assert report.completed == 6


class TestCheckpointResume:
    def test_kill_mid_generate_resumes_without_reading_the_source(
            self, tmp_path, reference):
        reads = []
        for index, faults in enumerate((False, True)):
            world = World(tmp_path / f"j{index}")
            source_id = sorted(world.s2s.manager.sources.ids())[0]
            counting = world.counting(source_id)
            killable = KillableWorker(
                [WorkerFault("kill", source_id=source_id, stage=GENERATE)]
                if faults else [])
            coordinator = world.coordinator(killable=killable,
                                            heartbeat_timeout=2.0)
            report = coordinator.run([world.target])
            coordinator.close()
            assert report.completed == 6 and report.dead == 0
            assert report.worker_restarts == (1 if faults else 0)
            assert world.export() == reference
            reads.append(counting.attempts)
        assert reads[0] > 0
        assert reads[1] == reads[0]  # the re-delivery read nothing
        job_id, = [job_id for job_id in world.claim_counts()
                   if job_id.endswith(f":{source_id}")]
        # claimed at EXTRACT, checkpointed, killed; claimed again at
        # GENERATE, which committed
        assert world.job_events(job_id) == [
            ("enqueue", EXTRACT), ("claim", EXTRACT), ("stage", EXTRACT),
            ("released", GENERATE), ("claim", GENERATE), ("done", GENERATE)]


def legacy_journal(world: World, stages: dict[int, str], *,
                   checkpointed: set[int], merge_key: int) -> None:
    """Hand-write a journal as an earlier release left it after a crash:
    the jobs of the ``stages`` sources (by index in sorted order) are
    running, each at its stage; ``checkpointed`` ones have an intact
    EXTRACT checkpoint, and ``merge_key`` carries a merge key."""
    sources = sorted(world.s2s.manager.sources.ids())
    attributes = frozenset(str(path) for path in world.target.required)
    schema = world.s2s.manager.obtain_extraction_schema(
        list(world.target.required))
    staging = StagingArea(world.journal_dir, fsync=False)
    context = WorkerContext(world.s2s.manager.sources,
                            world.s2s.query_handler.generator)
    records = [{"type": "run", "event": "started", "run_id": "old", "t": 0.0,
                "jobs": len(stages)}]
    for index, stage in stages.items():
        job = IngestJob(job_id_for(world.target.class_name, attributes,
                                   sources[index]),
                        sources[index], world.target.class_name, attributes)
        data = {**job.to_dict(), "stage": stage, "status": "running",
                "merge_key": ["brand"] if index == merge_key else None}
        records += [{"type": "job", "event": "claim", "t": 1.0,
                     "job": data, "worker": 0},
                    {"type": "job", "event": "stage", "t": 2.0,
                     "job": data, "stage": EXTRACT}]
        if index in checkpointed:
            item = WorkItem(job.to_dict(),
                            list(schema.by_source[sources[index]]))
            staging.checkpoint(job.job_id, execute_stage(
                EXTRACT, job, item, None, context))
            # what a later stage left beside it is never read
            staging.directory.joinpath(
                job.job_id.replace(":", "_") + f".{stage}.pkl").write_bytes(
                    b"not a pickle")
    with open(f"{world.journal_dir}/journal.jsonl", "w",
              encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


class TestEarlierJournals:
    """A journal this release did not write resumes to the store an
    uninterrupted run builds: a job at a stage 2.23 does not have
    restarts from its EXTRACT checkpoint if intact, else from EXTRACT."""

    def resume(self, world: World, checkpointed: set[int]) -> None:
        counting = [world.counting(source_id)
                    for source_id in sorted(world.s2s.manager.sources.ids())]
        coordinator = world.coordinator()
        report = coordinator.run([world.target])
        coordinator.close()
        assert not report.aborted
        assert report.replayed == 3
        assert report.completed == 6 and report.dead == 0
        for index, source in enumerate(counting):
            assert (source.attempts == 0) == (index in checkpointed)

    def test_a_2_22_journal_resumes(self, tmp_path, reference):
        world = World(tmp_path / "journal")
        legacy_journal(world, {0: "STAGE", 1: "CLEAN", 2: "MATERIALIZE"},
                       checkpointed={0, 1}, merge_key=1)
        staging = StagingArea(world.journal_dir, fsync=False).directory
        assert [path.name for path in staging.glob("*.STAGE.pkl")]
        self.resume(world, checkpointed={0, 1})
        assert world.export() == reference
        # a finished job leaves no checkpoint, whichever release wrote it
        assert list(staging.glob("*.pkl")) == []

    def test_an_unknown_stage_resumes(self, tmp_path, reference):
        world = World(tmp_path / "journal")
        legacy_journal(world, {0: "BOGUS", 1: "BOGUS", 2: "BOGUS"},
                       checkpointed={1}, merge_key=0)
        self.resume(world, checkpointed={1})
        assert world.export() == reference


class TestDeadLetter:
    def test_poison_quarantines_with_error_and_requeue_revives(
            self, tmp_path, reference):
        world = World(tmp_path / "journal")
        source_id = sorted(world.s2s.manager.sources.ids())[0]
        killable = KillableWorker([WorkerFault("poison",
                                               source_id=source_id)])
        coordinator = world.coordinator(killable=killable)
        report = coordinator.run([world.target])
        assert report.dead == 1
        assert report.completed == 5
        assert any("poison" in error for error in report.errors)
        letters = coordinator.dead_letters()
        assert len(letters) == 1
        assert letters[0]["job"]["source_id"] == source_id
        assert "poison" in letters[0]["error"]
        # the poisoned slice is absent, the rest of the run landed
        assert world.export() != reference
        coordinator.close()

        # a plain re-run must NOT resurrect quarantined work
        rerun = world.coordinator(killable=KillableWorker())
        report = rerun.run([world.target])
        assert report.completed == 0 and report.dead == 0
        rerun.close()

        # ... but an operator requeue does, with a fresh budget
        requeuer = world.coordinator()
        revived = requeuer.requeue()
        assert [job.source_id for job in revived] == [source_id]
        report = requeuer.run([world.target])
        requeuer.close()
        assert report.completed == 1
        assert report.skipped_unchanged == 5
        assert world.export() == reference


class TestCorruptPersistence:
    def test_torn_journal_tail_quarantined_and_recovery_continues(
            self, tmp_path, reference):
        world = World(tmp_path / "journal")
        crashed = world.coordinator(stop_after=2)
        crashed.run([world.target])
        crashed.close()
        journal_path = tmp_path / "journal" / "journal.jsonl"
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "job", "event"')  # torn final record

        resumed = world.coordinator()
        report = resumed.run([world.target])
        resumed.close()
        assert not report.aborted
        assert (tmp_path / "journal" / "journal.jsonl.corrupt").exists()
        assert world.metrics.value("ingest_journal_corrupt_total",
                                   kind="journal") >= 1
        assert world.export() == reference

    def test_corrupt_snapshot_manifest_degrades_to_cold_start(
            self, tmp_path):
        world = World(tmp_path / "journal")
        coordinator = world.coordinator()
        coordinator.run([world.target])
        coordinator.close()
        store_dir = tmp_path / "store"
        world.s2s.store.save(str(store_dir))
        (store_dir / "manifest.json").write_text("{ torn json",
                                                 encoding="utf-8")
        loaded = world.s2s.store.load(str(store_dir))
        assert loaded == 0
        assert (store_dir / "manifest.json.corrupt").exists()
        assert not (store_dir / "manifest.json").exists()
        assert world.metrics.value("ingest_journal_corrupt_total",
                                   kind="manifest") == 1

    def test_missing_manifest_is_still_an_error(self, tmp_path):
        world = World(tmp_path / "journal")
        from repro.errors import S2SError
        with pytest.raises(S2SError):
            world.s2s.store.load(str(tmp_path / "nowhere"))


class TestBreakerIntegration:
    def test_open_breaker_keeps_serving_the_stale_slice(self, tmp_path):
        from repro.config import ResilienceConfig
        from repro.core.resilience import BreakerPolicy, RetryPolicy
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                              jitter="none"),
            breaker=BreakerPolicy(failure_threshold=3,
                                  cooldown_seconds=600.0))
        world = World(tmp_path / "journal", resilience=config)
        first = world.coordinator()
        report = first.run([world.target])
        first.close()
        assert report.completed == 6

        source_id = sorted(world.s2s.manager.sources.ids())[0]
        breaker = world.s2s.manager.breakers.get(source_id)
        while breaker.allow():
            breaker.record_failure()

        second = world.coordinator()
        report = second.run([world.target], force=True)
        second.close()
        assert not report.aborted
        assert report.kept_stale >= 1
        assert report.dead == 0
        status = {row["class"]: row for row in world.s2s.store.status()}
        stale = status[world.target.class_name]["stale_sources"]
        assert source_id in stale

    #: three attempts, and a breaker that opens on the first failure
    GATED = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter="none"),
        breaker=BreakerPolicy(failure_threshold=1, cooldown_seconds=600.0))

    def gated_world(self, tmp_path, *, healthy_first: bool):
        """A world whose first source fails every read: planned while its
        breaker is closed, the source's job meets it open at its retry's
        dispatch.  One attribute has no mapping entry, so the error
        channel holds a source-less ``mapping:`` entry."""
        world = World(tmp_path / "journal", resilience=self.GATED)
        world.s2s.attribute_repository.remove("thing.provider.country")
        if healthy_first:
            first = world.coordinator()
            assert first.run([world.target]).completed == 6
            first.close()
        source_id = sorted(world.s2s.manager.sources.ids())[0]
        repository = world.s2s.source_repository
        repository.register(FlakySource(repository.get(source_id),
                                        failure_rate=1.0), replace=True)
        return world, source_id

    def test_the_dispatch_gate_keeps_a_stored_slice(self, tmp_path):
        world, source_id = self.gated_world(tmp_path, healthy_first=True)
        mat, = world.s2s.store.materializations()
        entities = mat.slices[source_id].entities
        errors = list(mat.errors)
        assert [entry.phase for entry in errors] == ["mapping"]
        coordinator = world.coordinator()
        report = coordinator.run([world.target], force=True)
        coordinator.close()
        assert not report.aborted
        assert report.kept_stale == 1 and report.dead == 0
        assert world.s2s.manager.breakers.open_sources() == [source_id]
        kept = mat.slices[source_id]
        assert kept.stale and kept.entities == entities
        assert mat.errors == errors

    def test_the_dispatch_gate_dead_letters_with_nothing_stored(
            self, tmp_path):
        world, source_id = self.gated_world(tmp_path, healthy_first=False)
        coordinator = world.coordinator()
        report = coordinator.run([world.target], force=True)
        assert not report.aborted
        assert report.kept_stale == 0 and report.dead == 1
        letter, = coordinator.dead_letters()
        coordinator.close()
        assert letter["job"]["source_id"] == source_id
        assert letter["job"]["attempts"] == 3
        assert "circuit breaker open" in letter["error"]
        mat, = world.s2s.store.materializations()
        assert source_id not in mat.slices

    def test_the_dispatch_gate_fails_a_replayed_job_with_no_store(
            self, tmp_path):
        """A job replayed from a crashed run that this run does not plan
        has no materialization to commit to: it fails retryably, as
        one with nothing stored, and never reaches the store."""
        crashed = World(tmp_path / "journal")
        coordinator = crashed.coordinator(stop_after=3)
        assert coordinator.run([crashed.target]).aborted
        coordinator.close()
        source_id = min(job.source_id for job in IngestJournal(
            crashed.journal_dir).replay().unfinished())
        world = World(tmp_path / "journal", resilience=self.GATED)
        world.s2s.manager.breakers.get(source_id).record_failure()
        coordinator = world.coordinator()
        report = coordinator.run([])
        letters = {letter["job"]["source_id"]: letter["error"]
                   for letter in coordinator.dead_letters()}
        coordinator.close()
        assert not report.aborted and report.replayed == 3
        assert report.kept_stale == 0 and report.dead == 3
        assert "circuit breaker open" in letters[source_id]
        assert len(world.s2s.store) == 0


class TestMiddlewareSurface:
    def test_ingest_feeds_the_store_and_queries_hit_it(self, tmp_path):
        scenario = B2BScenario(n_sources=4, n_products=8, seed=7)
        s2s = scenario.build_middleware(store=True)
        journal_dir = str(tmp_path / "journal")
        report = s2s.ingest("SELECT product", journal_dir=journal_dir)
        assert report.completed == 4
        result = s2s.query("SELECT product")
        assert result.store_hit
        assert len(result) == 8
        live = scenario.build_middleware()
        assert result.serialize("json") == live.query(
            "SELECT product").serialize("json")
        live.close()
        # the second run's cheap probe skips everything
        report = s2s.ingest("SELECT product", journal_dir=journal_dir)
        assert report.completed == 0
        assert report.skipped_unchanged == 4
        status = s2s.ingest_status(journal_dir)
        assert status["jobs"] == {"done": 4}
        assert status["dead_letter"] == 0
        assert s2s.ingest_dead_letter(journal_dir) == []
        assert s2s.ingest_requeue(journal_dir) == []

    def test_the_process_pool_is_spelled_spawn(self, tmp_path):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(store=True)
        with pytest.raises(ValueError, match="'spawn'"):
            s2s.ingest("SELECT product",
                       journal_dir=str(tmp_path / "journal"),
                       pool="subprocess")
        assert not (tmp_path / "journal").exists()
        s2s.close()

    def test_ingest_requires_a_store(self, tmp_path):
        from repro.errors import S2SError
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware()
        with pytest.raises(S2SError):
            s2s.ingest("SELECT product",
                       journal_dir=str(tmp_path / "journal"))
