#!/usr/bin/env python3
"""Sanity-check a BENCH_kernels.json emitted by bench_microbench.

Fails (exit 1) when the file is malformed: missing top-level fields,
rows without the required keys or with the wrong types, unknown units,
speedup values that do not match scalar/vector, or missing required
rows (the sched_* balanced-scheduling acceptance rows added in PR 5).
CI runs this against the sweep's freshly emitted JSON and against the
committed copy at the repo root, so a refactor that silently drops or
garbles a row breaks the build instead of the perf trajectory.

Usage: check_bench_json.py BENCH_kernels.json [more.json ...]
"""

import json
import sys

REQUIRED_TOP = {"tier": str, "block_elems": int, "host_threads": int,
                "benchmarks": list}
REQUIRED_ROW = {"name": str, "size": int, "unit": str,
                "scalar_ns": (int, float), "vector_ns": (int, float),
                "speedup": (int, float)}
VALID_UNITS = {"ns", "bytes", "cycles", "queries"}
REQUIRED_ROWS = (
    # The multi-tenant serving tail-latency rows (PR 9): FCFS vs
    # Credit per-query virtual completion percentiles on the mixed
    # straggler scenario (bench_serving merges them into the sweep's
    # file after bench_microbench writes it).
    "serve_tail_rmat9_p50_cycles",
    "serve_tail_rmat9_p99_cycles",
    # The overload / query-lifecycle rows (PR 10): deadline-bearing
    # open-loop arrivals at 0.5x-4x of vault capacity, no shedding
    # (scalar) vs shed=edf (vector).
    "serve_overload_rmat9_goodput_2x",
    "serve_overload_rmat9_shed_rate_0p5x",
    "serve_overload_rmat9_shed_rate_1x",
    "serve_overload_rmat9_shed_rate_2x",
    "serve_overload_rmat9_shed_rate_4x",
    "serve_overload_rmat9_p99_cycles_2x",
    # The async-dispatch barrier-retirement rows (PR 8): barriered vs
    # in-flight-window makespan of the same bit-identical kernels.
    "async_tc_rmat9_cycles",
    "async_mc_rmat9_cycles",
    # The balanced-scheduling acceptance rows (PR 5).
    "sched_tc_rmat9_xvault_bytes",
    "sched_tc_rmat9_cycles",
    # Algorithm-layer host time (ns): one whole run in set-based
    # mode (scalar) vs SISA mode (vector). Required, not gated: host
    # speedup is too noisy for a CI threshold.
    "algo_mc_authorship_host_ns",
    "algo_kcc5_antcol5_host_ns",
    # Earlier PRs' trajectory rows a regression must not drop.
    "placement_tc_rmat9_xvault_bytes",
    "intersect_kernel_64k",
    "union_kernel_64k",
    "batched_dispatch_1vault_512x64",
)


def check(path: str) -> list[str]:
    errors: list[str] = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: cannot parse: {exc}"]

    for key, typ in REQUIRED_TOP.items():
        if key not in doc:
            errors.append(f"{path}: missing top-level key '{key}'")
        elif not isinstance(doc[key], typ):
            errors.append(f"{path}: '{key}' is not {typ.__name__}")
    rows = doc.get("benchmarks", [])

    seen = set()
    for idx, row in enumerate(rows):
        where = f"{path}: benchmarks[{idx}]"
        if not isinstance(row, dict):
            errors.append(f"{where}: not an object")
            continue
        for key, typ in REQUIRED_ROW.items():
            if key not in row:
                errors.append(f"{where}: missing '{key}'")
            elif not isinstance(row[key], typ) or isinstance(
                    row[key], bool):
                errors.append(f"{where}: '{key}' has wrong type")
        name = row.get("name")
        if isinstance(name, str):
            if name in seen:
                errors.append(f"{where}: duplicate row '{name}'")
            seen.add(name)
        if row.get("unit") not in VALID_UNITS:
            errors.append(
                f"{where}: unit {row.get('unit')!r} not in "
                f"{sorted(VALID_UNITS)}")
        scalar, vector, speedup = (row.get("scalar_ns"),
                                   row.get("vector_ns"),
                                   row.get("speedup"))
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in (scalar, vector, speedup)):
            if scalar <= 0 or vector <= 0:
                errors.append(f"{where}: non-positive measurement")
            elif abs(speedup - scalar / vector) > max(
                    0.01, 0.01 * speedup):
                errors.append(
                    f"{where}: speedup {speedup} != scalar/vector "
                    f"{scalar / vector:.3f}")

    for name in REQUIRED_ROWS:
        if name not in seen:
            errors.append(f"{path}: required row '{name}' missing")

    # Serving-row semantics: percentiles must be ordered (p50 <= p99
    # in both the FCFS and Credit columns) and the Credit scheduler
    # must beat FCFS at the tail (speedup > 1) -- the acceptance
    # criterion of the multi-tenant serving PR.
    by_name = {row.get("name"): row for row in rows
               if isinstance(row, dict)}
    p50 = by_name.get("serve_tail_rmat9_p50_cycles")
    p99 = by_name.get("serve_tail_rmat9_p99_cycles")
    if p50 and p99:
        for col in ("scalar_ns", "vector_ns"):
            lo, hi = p50.get(col), p99.get(col)
            if (isinstance(lo, (int, float)) and
                    isinstance(hi, (int, float)) and lo > hi):
                errors.append(
                    f"{path}: serve {col} p50 {lo} > p99 {hi}")
    if p99:
        speedup = p99.get("speedup")
        if isinstance(speedup, (int, float)) and speedup <= 1.0:
            errors.append(
                f"{path}: serve_tail_rmat9_p99_cycles speedup "
                f"{speedup} <= 1 (credit must beat FCFS at the tail)")

    # Overload-row semantics (PR 10). Goodput at 2x load: the row's
    # scalar column is no-shedding goodput and the vector column is
    # shed=edf goodput, so EDF winning (or tying) means speedup <= 1.
    goodput = by_name.get("serve_overload_rmat9_goodput_2x")
    if goodput:
        speedup = goodput.get("speedup")
        if isinstance(speedup, (int, float)) and speedup > 1.0:
            errors.append(
                f"{path}: serve_overload_rmat9_goodput_2x speedup "
                f"{speedup} > 1 (edf goodput must not trail "
                f"no-shedding at 2x load)")
    # Shed rate (offered / edf survivors) must be monotone
    # non-decreasing in the offered load: shedding MORE under LESS
    # load means the admission queue is misbehaving.
    prev_rate, prev_tag = None, None
    for tag in ("0p5x", "1x", "2x", "4x"):
        row = by_name.get(f"serve_overload_rmat9_shed_rate_{tag}")
        rate = row.get("speedup") if row else None
        if not isinstance(rate, (int, float)):
            continue
        if prev_rate is not None and rate < prev_rate - 1e-9:
            errors.append(
                f"{path}: shed rate not monotone in load: "
                f"{prev_tag} -> {prev_rate} but {tag} -> {rate}")
        prev_rate, prev_tag = rate, tag
    return errors


def main(argv: list[str]) -> int:
    paths = argv[1:]
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    failures: list[str] = []
    for path in paths:
        failures.extend(check(path))
    for message in failures:
        print(f"error: {message}", file=sys.stderr)
    if not failures:
        print(f"ok: {len(paths)} file(s) well-formed, all "
              f"{len(REQUIRED_ROWS)} required rows present")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
