"""Smoke test of the performance ledger (outside tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest
benchmarks/ledger/test_ledger_smoke.py`` (or with the package installed):
pytest loads ``benchmarks/conftest.py``, which imports ``repro``, before
this directory's ``_bootstrap`` can put ``src/`` on the path.
Holds ``BENCHMARK.json`` and the harness output together name for name,
checks the trace file is a well-formed span forest, and checks that a
run leaves nothing behind: no child process, no non-daemon thread, no
temp journal directory.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import run  # noqa: E402
from harness import OUT_DIR  # noqa: E402
from record import OPERATOR  # noqa: E402
from worlds import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _child_pids() -> set[int]:
    """Direct children of this process, from /proc."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we were looking
        if int(fields[1]) == os.getpid():
            children.add(int(entry))
    return children


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    """One ``--smoke`` ledger run, in this process so that leftovers
    would be ours to see."""
    out = tmp_path_factory.mktemp("ledger") / "BENCH.json"
    threads_before = set(threading.enumerate())
    children_before = _child_pids()
    assert run.main(["--smoke", "--seed", "5", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as f:
        record = json.load(f)
    record["_leftover_threads"] = [
        t.name for t in threading.enumerate()
        if t not in threads_before and not t.daemon]
    record["_leftover_children"] = sorted(_child_pids() - children_before)
    return record


def test_manifest_names_are_well_formed():
    manifest = _manifest()
    assert manifest["paths"] == ["benchmarks/ledger"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < e["bound"] <= 0.25 for e in manifest["end_to_end"])


def test_record_names_match_the_manifest(smoke_record):
    manifest = _manifest()
    end_to_end = {e["name"] for e in manifest["end_to_end"]}
    per_layer = {e["name"] for e in manifest["per_layer"]}
    assert set(smoke_record["workloads"]) == set(WORKLOADS)
    for name, entry in smoke_record["workloads"].items():
        assert set(entry["per_layer"]) == per_layer, name
        measured = set(entry["end_to_end"])
        assert end_to_end <= measured, name
        # beyond the manifest's, only the operator's metrics and the
        # failed share — which the manifest carries as per-layer names
        assert measured - end_to_end <= set(OPERATOR) | {"failed_share"}
        assert measured - end_to_end <= per_layer
        for metric in list(entry["end_to_end"]) + list(entry["diagnostics"]):
            assert NAME.fullmatch(metric), metric
        assert entry["end_to_end"]["failed_share"]["value"] == 0.0
    churn = smoke_record["workloads"]["wire_store_churn"]
    assert set(OPERATOR) <= set(churn["end_to_end"])


def test_run_stamp_and_noise_evidence(smoke_record):
    stamp = smoke_record["stamp"]
    for key in ("git_sha", "repro_version", "python", "nproc", "seed",
                "slices", "slice_seconds"):
        assert key in stamp
    for entry in smoke_record["workloads"].values():
        assert len(entry["calibration_ms"]) == stamp["slices"]
        assert all(value > 0 for value in entry["calibration_ms"])


def test_predictions_hold_on_the_baseline(smoke_record):
    layers = {name: {metric: cell["value"]
                     for metric, cell in entry["per_layer"].items()}
              for name, entry in smoke_record["workloads"].items()}
    for name in WORKLOADS:
        fallback = layers[name]["sql.row_fallback_share"]
        assert (fallback > 0) == (name == "local_sql_join"), name
    assert layers["wire_store_churn"]["store.hit_share"] == 1.0
    assert layers["wire_live_mixed"]["store.hit_share"] == 0.0
    assert layers["wire_store_churn"][
        "store.sources_reextracted_per_refresh"] == 1.0
    assert 0 < layers["wire_fleet_slow"]["fleet.efficiency"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_file_is_a_span_forest(smoke_record, workload):
    with open(os.path.join(OUT_DIR, f"trace_{workload}.json"),
              encoding="utf-8") as f:
        trace = json.load(f)
    spans = trace["spans"]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans) > 0
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
        assert span["request"]
    assert any(span["parent"] is None for span in spans)


def test_nothing_is_left_behind(smoke_record):
    assert smoke_record["_leftover_threads"] == []
    assert smoke_record["_leftover_children"] == []
    leftovers = [name for name in os.listdir(OUT_DIR)
                 if name.startswith(("scratch-", "journal-"))]
    assert leftovers == []


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_result_line_matches_the_manifest(trace):
    manifest = _manifest()
    expected = {e["name"]: e["unit"]
                for e in manifest["per_layer" if trace else "end_to_end"]}
    done = subprocess.run(
        [*manifest["command"], "--workload", "wire_store_churn", "--seed",
         "3", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {name: cell["unit"]
            for name, cell in result["metrics"].items()} == expected
