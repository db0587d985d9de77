"""Journal fuzzing: a damaged ingest journal never escapes untyped.

Replaying ``journal.jsonl`` (and reading its sibling
``dead_letter.jsonl``) has three outcomes and no fourth: every line
parses and the replay returns a state; a line does not parse (torn, not
UTF-8, not a JSON object, nested or numbered past the decoder's
limits), so the file is quarantined to ``.corrupt``, the valid prefix is
kept and ``ingest_journal_corrupt_total`` counts it; or an ``S2SError``
is raised.  A journal torn at *every* offset must replay to the state of
exactly the records it still holds whole.  Byte-, line- and
record-mutated journals are drawn from a seed (``S2S_DIFF_SEED``; CI
runs a second value).
"""

from __future__ import annotations

import copy
import json
import os
import random

import pytest

from repro.clock import FakeClock
from repro.core.ingest import (EXTRACT, DeadLetterLedger, DurableJobQueue,
                               IngestJob, IngestJournal, job_id_for)
from repro.core.ingest.journal import JournalState
from repro.core.resilience import RetryPolicy
from repro.errors import S2SError
from repro.obs import MetricsRegistry

SEED = int(os.environ.get("S2S_DIFF_SEED", "29"))

#: Lines no decoder accepts as a record (the first four escaped replay as
#: bare exceptions at 2.12).
UNPARSEABLE = {
    "deep nesting": b"[" * 100_000,
    "long integer": b'{"t": ' + b"7" * 5000 + b"}",
    "not utf-8": b'{"type": "run", "event": "\xff\xfe"}',
    "latin-1 text": b'{"type": "run", "run_id": "caf\xe9"}',
    "torn": b'{"type": "job", "event": "cl',
    "a scalar": b"42",
}
HOSTILE_VALUES = [None, True, 0, -1, 1.5, 10**400, float("inf"), "", "x",
                  "done", "EXTRACT", [], [1], ["x"], {}, {"job_id": []},
                  [[[]]]]


def make_job(source_id: str) -> IngestJob:
    attributes = frozenset({"brand", "price"})
    return IngestJob(job_id_for("product", attributes, source_id),
                     source_id, "product", attributes)


@pytest.fixture(scope="module")
def written(tmp_path_factory) -> dict[str, bytes]:
    """A journal and a dead-letter ledger that saw every event kind."""
    directory = tmp_path_factory.mktemp("written")
    clock = FakeClock()
    queue = DurableJobQueue(
        IngestJournal(directory, fsync=False), clock=clock,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0,
                                 jitter="none", seed=3))
    queue.journal.record_run("started", "r1", clock.monotonic())
    done, dead = (queue.enqueue(make_job(source)) for source in ("d", "x"))
    queue.record_skip(make_job("s"), "unchanged")
    queue.claim(done, 0)
    queue.fail(done, "transient", retryable=True)
    clock.advance(5.0)
    queue.claim(done, 1)
    queue.advance(done, EXTRACT)
    queue.release(done)
    queue.claim(done, 0)
    queue.complete(done)
    queue.claim(dead, 1)  # still running when the run aborts
    queue.journal.record_run("aborted", "r1", clock.monotonic())
    queue.fail(dead, "poison", retryable=False)
    queue.journal.close()
    return {name: (directory / name).read_bytes()
            for name in ("journal.jsonl", "dead_letter.jsonl")}


def lines_of(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def state_of(records: list[dict]) -> JournalState:
    state = JournalState()
    for record in records:
        state.apply(record)
    return state


def summary(state: JournalState) -> tuple:
    """Everything a replay tells its caller, and each job journaled
    and described again, as a resumed run does."""
    return (state.jobs, state.events, state.runs, state.last_run_id,
            state.unfinished(), state.finished(), state.counts(),
            [(job.to_dict(), job.describe()) for job in state.jobs.values()])


def replay(data: bytes, directory) -> tuple[str, tuple | None]:
    """Replay ``data`` as a journal and check the outcome's promises;
    returns the outcome and, unless refused, the state's summary."""
    os.makedirs(directory)
    (directory / "journal.jsonl").write_bytes(data)
    metrics = MetricsRegistry()
    journal = IngestJournal(directory, fsync=False, metrics=metrics)
    try:
        seen = summary(journal.replay())
    except S2SError:
        return "refused", None
    quarantined = (directory / "journal.jsonl.corrupt").exists()
    assert metrics.value("ingest_journal_corrupt_total",
                         kind="journal") == (1 if quarantined else 0)
    if quarantined:
        assert (directory / "journal.jsonl.corrupt").read_bytes() == data
        # The rewritten prefix is clean and replays to the same state.
        assert summary(journal.replay()) == seen
        assert metrics.value("ingest_journal_corrupt_total",
                             kind="journal") == 1
    return ("quarantined" if quarantined else "replayed"), seen


def read_ledger(data: bytes, directory) -> str:
    """Read ``data`` as a dead-letter ledger through every reader."""
    os.makedirs(directory)
    (directory / "dead_letter.jsonl").write_bytes(data)
    metrics = MetricsRegistry()
    ledger = DeadLetterLedger(directory, fsync=False, metrics=metrics)
    try:
        ledger.entries()
        jobs = list(ledger.jobs())
        ledger.remove({job.job_id for job in jobs[:1]})
    except S2SError:
        return "refused"
    quarantined = (directory / "dead_letter.jsonl.corrupt").exists()
    assert metrics.value("ingest_journal_corrupt_total",
                         kind="dead_letter") == (1 if quarantined else 0)
    return "quarantined" if quarantined else "read"


def test_the_written_journal_replays(written, tmp_path):
    outcome, seen = replay(written["journal.jsonl"], tmp_path / "case")
    assert outcome == "replayed"
    records = [json.loads(line) for line in lines_of(written["journal.jsonl"])]
    assert seen == summary(state_of(records))
    assert {record["event"] for record in records} >= {
        "started", "aborted", "enqueue", "skip", "claim", "retry", "stage",
        "released", "done", "dead"}
    assert read_ledger(written["dead_letter.jsonl"], tmp_path / "dl") == \
        "read"


@pytest.mark.parametrize("name", sorted(UNPARSEABLE))
def test_a_line_that_does_not_parse_ends_the_valid_prefix(name, written,
                                                          tmp_path):
    lines = lines_of(written["journal.jsonl"])
    at = len(lines) // 2
    data = b"".join(lines[:at] + [UNPARSEABLE[name] + b"\n"] + lines[at:])
    outcome, seen = replay(data, tmp_path / "journal")
    assert outcome == "quarantined"
    assert seen == summary(state_of([json.loads(line)
                                     for line in lines[:at]]))
    ledger = written["dead_letter.jsonl"] + UNPARSEABLE[name] + b"\n"
    assert read_ledger(ledger, tmp_path / "ledger") == "quarantined"


@pytest.mark.parametrize("field, value", [
    ("job_id", []), ("job_id", 5), ("source_id", None), ("status", []),
    ("stage", {}), ("attributes", [1]),
    ("attempts", float("inf")), ("next_eligible_at", 10**400)])
def test_a_job_field_of_the_wrong_type_skips_its_record(field, value, written,
                                                        tmp_path):
    lines = lines_of(written["journal.jsonl"])
    records = [json.loads(line) for line in lines]
    at = next(index for index, record in enumerate(records)
              if record["type"] == "job")
    bad = copy.deepcopy(records[at])
    bad["job"][field] = value
    data = b"".join(lines[:at] + [json.dumps(bad).encode("utf-8") + b"\n"]
                    + lines[at + 1:])
    outcome, seen = replay(data, tmp_path / "journal")
    assert outcome == "replayed"
    assert seen == summary(state_of(records[:at] + records[at + 1:]))
    ledger = json.loads(written["dead_letter.jsonl"])
    ledger["job"][field] = value
    assert read_ledger(json.dumps(ledger).encode("utf-8") + b"\n",
                       tmp_path / "ledger") == "read"


@pytest.mark.parametrize("value", [["brand", "model"], [[]], 5])
def test_a_journaled_merge_key_is_ignored(value, written, tmp_path):
    """Jobs journaled by 2.22 carry a ``merge_key``; whatever it holds,
    they replay as if it were absent."""
    records = [json.loads(line) for line in lines_of(written["journal.jsonl"])]
    for record in records:
        if "job" in record:
            record["job"]["merge_key"] = value
    data = b"".join(json.dumps(record).encode("utf-8") + b"\n"
                    for record in records)
    outcome, seen = replay(data, tmp_path / "journal")
    assert outcome == "replayed"
    assert seen == summary(state_of(
        [json.loads(line) for line in lines_of(written["journal.jsonl"])]))


def test_a_journal_torn_at_every_offset_keeps_its_whole_records(
        written, tmp_path, monkeypatch):
    # Durability is not under test, and an fsync per quarantine would
    # make these thousands of tears half as slow again.
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    data = written["journal.jsonl"]
    lines = lines_of(data)
    states = [state_of([json.loads(line) for line in lines[:count]])
              for count in range(len(lines) + 1)]
    path, corrupt = tmp_path / "journal.jsonl", tmp_path / "journal.jsonl.corrupt"
    for offset in range(len(data) + 1):
        torn = data[:offset]
        whole = torn.count(b"\n")
        tail = torn[len(b"".join(lines[:whole])):]
        complete = whole < len(lines) and tail == lines[whole].rstrip(b"\n")
        path.write_bytes(torn)
        state = IngestJournal(tmp_path, fsync=False).replay()
        assert corrupt.exists() == bool(tail and not complete), offset
        expected = states[whole + complete]
        assert (state.jobs, state.events, state.runs) == \
            (expected.jobs, expected.events, expected.runs), offset
        corrupt.unlink(missing_ok=True)


def byte_mutated(rng: random.Random, data: bytes) -> bytes:
    """``data`` after one to three byte flips, insertions or deletions."""
    data = bytearray(data)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(data))
        change = rng.random()
        if change < 0.4:
            data[at] ^= 1 << rng.randrange(8)
        elif change < 0.7:
            data[at:at] = bytes([rng.randrange(256)])
        else:
            del data[at:at + rng.randrange(1, 4)]
    return bytes(data)


def line_mutated(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one line dropped, repeated, swapped or replaced."""
    lines = lines_of(data)
    at = rng.randrange(len(lines))
    change = rng.random()
    if change < 0.2:
        del lines[at]
    elif change < 0.4:
        lines.insert(at, lines[at])
    elif change < 0.6:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    else:
        lines[at] = rng.choice(sorted(UNPARSEABLE.values())) + b"\n"
    return b"".join(lines)


def record_mutated(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one record's field (or its job's) replaced, deleted
    or added: every line still parses."""
    lines = lines_of(data)
    at = rng.randrange(len(lines))
    record = json.loads(lines[at])
    target = (record["job"] if "job" in record and rng.random() < 0.7
              else record)
    key = rng.choice(sorted(target) + ["x"])
    if key in target and rng.random() < 0.25:
        del target[key]
    else:
        target[key] = copy.deepcopy(rng.choice(HOSTILE_VALUES))
    lines[at] = json.dumps(record).encode("utf-8") + b"\n"
    return b"".join(lines)


def test_mutated_journals_and_ledgers(written, tmp_path):
    seen: dict[str, set[str]] = {}
    for index in range(200):
        rng = random.Random(f"journals:{SEED}:{index}")
        kind = rng.choice(["bytes", "lines", "records"])
        name = rng.choice(["journal.jsonl", "dead_letter.jsonl"])
        mutate = {"bytes": byte_mutated, "lines": line_mutated,
                  "records": record_mutated}[kind]
        data = mutate(rng, written[name])
        if name == "journal.jsonl":
            outcome, _ = replay(data, tmp_path / str(index))
        else:
            outcome = read_ledger(data, tmp_path / str(index))
        if kind == "records":
            assert outcome != "quarantined"
        seen.setdefault(kind, set()).add(outcome)
    assert "quarantined" in seen["bytes"] and "quarantined" in seen["lines"]
