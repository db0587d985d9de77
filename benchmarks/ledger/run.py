"""The S2S performance ledger.

Three ways in:

* ``run.py [--seed N] [--smoke] [--out FILE]`` — the whole ledger: the
  four workloads from one seed, slices round-robin across workloads
  (``A1 B1 C1 D1 A2 ...``) against servers kept alive between slices,
  then one traced pass per workload; prints every metric by name and
  writes the machine-readable record.
* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one
  workload, as the benchmark driver runs it (see ``BENCHMARK.json``);
  the last stdout line is the result object.
* ``run.py compare A.json B.json`` — verdict per workload x metric.

See README.md in this directory for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import _bootstrap  # noqa: F401  (puts this checkout's src/ on sys.path)

from harness import (INGESTS_PER_SLICE, OUT_DIR, SliceResult, Workload,
                     calibration_ms, diagnostics, end_to_end)
from layers import traced_pass
from record import (END_TO_END, FAILED_SHARE_LIMIT, NOISY_CALIBRATION,
                    compare, median, print_metrics, run_stamp)
from worlds import WORKLOADS

#: how many times a run sets its workload up; the median is reported
SETUP_ROUNDS = 3
#: every run is cut into slices of this length: short, so that one of the
#: box's slow bursts spoils a slice and not the run (README, "Noise")
SLICE_SECONDS = 1.0
MIN_SLICES = 5
#: the whole ledger measures this many slices per workload ...
LEDGER_SLICES = 40
#: ... and then traces each workload for this long
TRACE_SECONDS = 10.0
#: the operator's ingest phase comes before every this-many-th slice
INGEST_EVERY = 5


# -- untraced measurement ----------------------------------------------------

def measure(workloads: list[Workload], slices: int, slice_seconds: float,
            setup_rounds: int, ingests: int) -> dict[str, dict]:
    """Set every workload up, run the slices round-robin across them,
    tear everything down.  Tracing is off throughout.  ``ingests`` is
    the number of durable ingests the hub operator runs, with no
    readers, before every ``INGEST_EVERY``-th slice (on the workload
    that has an operator)."""
    setups: dict[str, list[tuple]] = {w.name: [] for w in workloads}
    pieces: dict[str, list[SliceResult]] = {w.name: [] for w in workloads}
    closing: dict[str, dict] = {}
    try:
        for workload in workloads:
            for round_ in range(setup_rounds):
                if round_:
                    workload.teardown()
                before = calibration_ms()
                seconds = workload.setup()
                setups[workload.name].append(
                    (seconds, (before + calibration_ms()) / 2))
        for index in range(slices):
            for workload in workloads:
                pieces[workload.name].append(workload.run_slice(
                    slice_seconds,
                    ingests if index % INGEST_EVERY == 0 else 0))
        for workload in workloads:
            closing[workload.name] = workload.stats()
    finally:
        for workload in workloads:
            workload.teardown()
    results = {}
    for workload in workloads:
        name = workload.name
        calibrations = [piece.calibration_ms for piece in pieces[name]]
        limit = NOISY_CALIBRATION * median(calibrations)
        worst = [max(piece.calibration_ms, piece.calibration_after_ms)
                 for piece in pieces[name]]
        results[name] = {
            "clients": workload.n_clients,
            "end_to_end": end_to_end(
                pieces[name], setups[name], closing[name]["rss_mb"],
                refresh_block=len(workload.spec.get("mutation_order", [])) or 1,
                cpu_bound=workload.spec["cpu_bound"]),
            "diagnostics": diagnostics(pieces[name]),
            "calibration_ms": calibrations,
            "noisy_slices": [index for index, value in enumerate(worst)
                             if value > limit],
        }
    return results


# -- entry points ------------------------------------------------------------

def print_end_to_end(name: str, seed: int, entry: dict, slices: int,
                     slice_seconds: float) -> None:
    print_metrics(
        f"== {name}: end-to-end, tracing off (seed {seed}, "
        f"{entry['clients']} closed-loop clients, {slices} slices x "
        f"{slice_seconds:g} s)",
        {**entry["end_to_end"], **entry["diagnostics"]})
    print(f"  calibration_ms per slice: "
          f"{[round(v, 1) for v in entry['calibration_ms']]}")
    if entry["noisy_slices"]:
        print(f"  NOISY slices (calibration > {NOISY_CALIBRATION}x the run "
              f"median; kept, not dropped): {entry['noisy_slices']}")


def run_driver(args) -> int:
    """One workload, one result object on the last stdout line."""
    workload = Workload(args.workload, args.seed)
    if args.trace:
        traced = traced_pass(workload, args.seconds)
        print_metrics(f"-- {args.workload}: per-layer, traced pass (seed "
                      f"{args.seed})", traced["metrics"])
        metrics, attempted, failed = (traced["metrics"], traced["attempted"],
                                      traced["failed"])
    else:
        slices = max(MIN_SLICES, round(args.seconds / SLICE_SECONDS))
        result = measure([workload], slices, args.seconds / slices,
                         SETUP_ROUNDS, ingests=0)[args.workload]
        print_end_to_end(args.workload, args.seed, result, slices,
                         args.seconds / slices)
        share = result["end_to_end"]["failed_share"]
        attempted, failed = share["attempted"], share["failed"]
        metrics = {name: result["end_to_end"][name] for name in END_TO_END}
    correct = attempted > 0 and failed / attempted <= FAILED_SHARE_LIMIT
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()}}))
    return 0 if correct else 1


def run_ledger(args) -> int:
    """All four workloads from one seed, then the traced passes."""
    slices, setup_rounds, trace_seconds, ingests = (
        (2, 1, 1.0, 1) if args.smoke
        else (LEDGER_SLICES, SETUP_ROUNDS, TRACE_SECONDS, INGESTS_PER_SLICE))
    workloads = [Workload(name, args.seed) for name in WORKLOADS]
    record = {"stamp": run_stamp(args.seed, slices, SLICE_SECONDS),
              "workloads": measure(workloads, slices, SLICE_SECONDS,
                                   setup_rounds, ingests)}
    status = 0
    for workload in workloads:
        name, entry = workload.name, record["workloads"][workload.name]
        entry["per_layer"] = traced_pass(workload, trace_seconds)["metrics"]
        print_end_to_end(name, args.seed, entry, slices, SLICE_SECONDS)
        print_metrics(f"-- {name}: per-layer, traced pass",
                      entry["per_layer"])
        if entry["end_to_end"]["failed_share"]["value"] > FAILED_SHARE_LIMIT:
            print(f"FAILED: {name} failed_share exceeds "
                  f"{FAILED_SHARE_LIMIT}")
            status = 1
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nrecord written to {args.out}")
    return status


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload the way the driver does")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured seconds of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="--workload only: 1 runs the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="2 slices x 1 s and a 1 s traced pass")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "BENCH.json"))
    args = parser.parse_args(argv)
    if args.workload:
        return run_driver(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
