"""Metric catalogue, statistics, the BENCH record and ``compare``.

The names here are the names every later issue cites.  ``END_TO_END``
and ``PER_LAYER`` must list exactly what ``BENCHMARK.json`` lists (the
smoke test holds the two together); ``OPERATOR`` metrics are end-to-end
for the hub operator but exist on ``wire_store_churn`` only, so the
ledger's own record bounds them while ``BENCHMARK.json`` — whose
contract wants every end-to-end metric from every workload — carries
them as per-layer diagnostics.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess

import repro

#: name -> (unit, better, bound as a share of the base median).  The
#: issue proposed 10 % / 20 % / 10 % / 15 % for the timed metrics; ten-seed
#: runs of one commit on this box spread by up to 16 % even when carried
#: to the undisturbed box's speed (README, "Noise"), so every CPU-bound
#: timing takes the widest bound the contract allows.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "query_p50_ms": ("ms", "lower", 0.25),
    "query_p95_ms": ("ms", "lower", 0.25),
    "throughput_qps": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: hub-operator end-to-end metrics, measured on wire_store_churn only
OPERATOR = {
    "ingest_p50_ms": ("ms", "lower", 0.25),
    "refresh_p50_ms": ("ms", "lower", 0.25),
}

#: failed + refused + wrong answers over attempted; an absolute bound
FAILED_SHARE_LIMIT = 0.005

#: name -> (unit, better)
PER_LAYER = {
    "failed_share": ("share", "lower"),
    "ingest_p50_ms": ("ms", "lower"),
    "refresh_p50_ms": ("ms", "lower"),
    "protocol.encode_us": ("us", "lower"),
    "protocol.decode_us": ("us", "lower"),
    "protocol.response_bytes": ("bytes", "lower"),
    "codec.to_wire_ms": ("ms", "lower"),
    "codec.from_wire_ms": ("ms", "lower"),
    "codec.bytes_per_entity": ("bytes", "lower"),
    "server.wire_overhead_ms": ("ms", "lower"),
    "server.rejected": ("count", "lower"),
    "parser.parse_us": ("us", "lower"),
    "planner.plan_us": ("us", "lower"),
    "extractor.extract_ms": ("ms", "lower"),
    "extractor.policy_overhead_ms": ("ms", "lower"),
    "extractor.rules_executed": ("count", "lower"),
    "extractor.retries": ("count", "lower"),
    "xmlstore.rule_ms": ("ms", "lower"),
    "web.rule_ms": ("ms", "lower"),
    "textfiles.rule_ms": ("ms", "lower"),
    "relational.rule_ms": ("ms", "lower"),
    "sql.scan_ms": ("ms", "lower"),
    "sql.join_ms": ("ms", "lower"),
    "sql.update_ms": ("ms", "lower"),
    "sql.row_fallback_share": ("share", "lower"),
    "sql.rows_scanned_per_row_returned": ("x", "lower"),
    "instances.generate_ms": ("ms", "lower"),
    "instances.us_per_entity": ("us", "lower"),
    "instances.serialize_owl_ms": ("ms", "lower"),
    "executor.filter_ms": ("ms", "lower"),
    "store.serve_ms": ("ms", "lower"),
    "store.hit_share": ("share", "higher"),
    "store.stale_share": ("share", "lower"),
    "store.refresh_ms": ("ms", "lower"),
    "store.sources_reextracted_per_refresh": ("count", "lower"),
    "store.graph_triples": ("count", "lower"),
    "store.sparql_ms": ("ms", "lower"),
    "ingest.run_ms": ("ms", "lower"),
    "ingest.jobs_per_s": ("1/s", "higher"),
    "ingest.journal_records": ("count", "lower"),
    "ingest.journal_bytes": ("bytes", "lower"),
    "fleet.dispatch_overhead_ms": ("ms", "lower"),
    "fleet.efficiency": ("share", "higher"),
    "fleet.dispatches": ("count", "lower"),
    "fleet.worker_restarts": ("count", "lower"),
    "obs.trace_overhead_share": ("share", "lower"),
    "obs.spans_per_query": ("count", "lower"),
    "harness.e2e_single_client_ms": ("ms", "lower"),
    "harness.unattributed_share": ("share", "lower"),
    "harness.calibration_ms": ("ms", "lower"),
    "harness.loadgen_lag_ms": ("ms", "lower"),
}

#: a slice is flagged as noisy when its calibration loop took longer
#: than this multiple of the run's median calibration
NOISY_CALIBRATION = 1.25


# -- statistics ------------------------------------------------------------

def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = share * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives
    them — the driver's definition of spread."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values: list[float], unit: str, **extra) -> dict:
    """Median and quartiles of per-slice (or per-sample) values."""
    q1, q3 = quartiles(values)
    return {"value": median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), **extra}


def spread_share(entry: dict) -> float:
    """Inter-quartile distance of the slices as a share of their median."""
    return ((entry["q3"] - entry["q1"]) / entry["value"]
            if entry["value"] else 0.0)


# -- run stamp -------------------------------------------------------------

def run_stamp(seed: int, slices: int, slice_seconds: float) -> dict:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "..")
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {"git_sha": sha, "repro_version": repro.__version__,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "slices": slices, "slice_seconds": slice_seconds}


# -- printing --------------------------------------------------------------

def _format(value: float) -> str:
    if value == 0 or abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:.4g}"


def print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(f"\n{title}")
    for name, entry in metrics.items():
        line = f"  {name:<40} {_format(entry['value']):>12} {entry['unit']}"
        if "q1" in entry:
            line += (f"   [q1 {_format(entry['q1'])}, q3 "
                     f"{_format(entry['q3'])}, n={entry['n']}]")
        if "raw" in entry:
            line += f" as-read={_format(entry['raw'])}"
        for key in ("samples", "beyond"):
            if key in entry:
                line += f" {key}={entry[key]}"
        print(line)


# -- compare ---------------------------------------------------------------

def _bounds() -> dict[str, tuple[str, float]]:
    return {name: (better, bound) for name, (_unit, better, bound)
            in {**END_TO_END, **OPERATOR}.items()}


def verdict(name: str, base: dict, other: dict) -> tuple[float, str]:
    """Ratio of values (``other / base``) and one of ``better``,
    ``worse``, ``unchanged`` or ``unresolved``.  A change counts only
    when it exceeds the metric's bound *and* the spread between slices
    (``spread_share``) of both sides; when either side's spread is wider
    than the bound and the change does not clear it, the pair is
    unresolved — a difference inside the bound cannot be told from
    noise."""
    better, bound = _bounds()[name]
    ratio = other["value"] / base["value"] if base["value"] else float("inf")
    change = ratio - 1.0 if better == "lower" else 1.0 - ratio
    noise = max(spread_share(base), spread_share(other))
    if abs(change) > max(bound, noise):
        return ratio, "worse" if change > 0 else "better"
    if noise > bound:
        return ratio, "unresolved"
    return ratio, "unchanged"


def compare(path_a: str, path_b: str) -> int:
    """Print one row per workload x end-to-end metric — each side's
    reported value with the quartiles of its slices, and the ratio of
    the values with A as the base; exit status 1 on any ``worse``
    (including a failed share past its absolute limit)."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    print(f"base A = {path_a} (sha {a['stamp']['git_sha'][:12]}, seed "
          f"{a['stamp']['seed']})")
    print(f"     B = {path_b} (sha {b['stamp']['git_sha'][:12]}, seed "
          f"{b['stamp']['seed']})")
    header = (f"{'workload':<18}{'metric':<17}{'A value [q1, q3]':>30}"
              f"{'B value [q1, q3]':>30}  {'B/A':>7}  verdict")
    print(header)
    worse = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            print(f"{workload:<18}missing from B")
            worse += 1
            continue
        for name in _bounds():
            base = entry_a["end_to_end"].get(name)
            other = entry_b["end_to_end"].get(name)
            if base is None or other is None:
                continue
            ratio, outcome = verdict(name, base, other)
            worse += outcome == "worse"
            cells = [f"{_format(side['value'])} [{_format(side['q1'])}, "
                     f"{_format(side['q3'])}]" for side in (base, other)]
            print(f"{workload:<18}{name:<17}{cells[0]:>30}{cells[1]:>30}  "
                  f"{ratio:>6.3f}x  {outcome}  (base A, {base['unit']})")
        share_a = entry_a["end_to_end"]["failed_share"]["value"]
        share_b = entry_b["end_to_end"]["failed_share"]["value"]
        outcome = ("worse" if share_b > share_a + FAILED_SHARE_LIMIT
                   else "unchanged")
        worse += outcome == "worse"
        print(f"{workload:<18}{'failed_share':<17}{share_a:>30.4f}"
              f"{share_b:>30.4f}  {'abs':>7}  {outcome}  "
              f"(limit +{FAILED_SHARE_LIMIT})")
    return 1 if worse else 0
