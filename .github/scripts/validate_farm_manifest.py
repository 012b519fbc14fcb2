#!/usr/bin/env python3
"""Validates a craft-farm-v1 manifest (see DESIGN.md section 14).

Usage: validate_farm_manifest.py FARM_MANIFEST.json

Checks the schema shape, that the trial list matches the declared matrix,
that the summary tallies agree with the per-trial records, and that the
run is not gated (any unwaived failure fails this script, mirroring
craft farm's own exit code).
"""
import json
import sys

TRIAL_STATUSES = {"ok", "failed", "timeout", "cancelled"}


def fail(msg):
    print(f"validate_farm_manifest: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} FARM_MANIFEST.json")
    with open(sys.argv[1]) as f:
        doc = json.load(f)

    if doc.get("schema") != "craft-farm-v1":
        fail(f"bad schema: {doc.get('schema')!r}")

    matrix = doc["matrix"]
    for axis in ("instruments", "designs", "seeds", "parallelism", "chaos"):
        if not isinstance(matrix[axis], list) or not matrix[axis]:
            fail(f"matrix.{axis} must be a non-empty list")

    policy = doc["policy"]
    for key in ("timeout_s", "retries", "backoff_s", "fail_fast"):
        if key not in policy:
            fail(f"policy.{key} missing")
    # Determinism contract: nothing scheduling-dependent in the manifest
    # proper. --jobs must not appear outside the n-variant timing section.
    if "jobs" in policy:
        fail("policy.jobs leaked into the manifest (breaks --jobs identity)")

    trials = doc["trials"]
    expected = 0
    if "cover" in matrix["instruments"]:
        expected += (len(matrix["designs"]) * len(matrix["seeds"])
                     * len(matrix["parallelism"]) * len(matrix["chaos"]))
    if "chaos" in matrix["instruments"]:
        expected += len(matrix["seeds"])
    if len(trials) != expected:
        fail(f"expected {expected} trials from the matrix, got {len(trials)}")

    ids = set()
    tallies = {s: 0 for s in TRIAL_STATUSES}
    attempts = waived = 0
    for t in trials:
        for key in ("id", "kind", "status", "exit_code", "attempts",
                    "timed_out", "waived", "artifact"):
            if key not in t:
                fail(f"trial {t.get('id', '?')}: {key} missing")
        if t["status"] not in TRIAL_STATUSES:
            fail(f"trial {t['id']}: bad status {t['status']!r}")
        if t["id"] in ids:
            fail(f"duplicate trial id {t['id']}")
        ids.add(t["id"])
        tallies[t["status"]] += 1
        attempts += t["attempts"]
        waived += t["waived"]
        if t["status"] == "ok" and t["exit_code"] != 0:
            fail(f"trial {t['id']}: ok with exit code {t['exit_code']}")

    summary = doc["summary"]
    for key, got in (("trials", len(trials)), ("ok", tallies["ok"]),
                     ("failed", tallies["failed"]),
                     ("timeout", tallies["timeout"]),
                     ("cancelled", tallies["cancelled"]),
                     ("waived", waived), ("attempts", attempts)):
        if summary[key] != got:
            fail(f"summary.{key} is {summary[key]}, trials say {got}")

    if "cover" in doc:
        cover = doc["cover"]
        if cover["shards_merged"] != sum(
                1 for t in trials if t["kind"] == "cover"
                and t["status"] == "ok"):
            fail("cover.shards_merged disagrees with ok cover trials")
        if cover["bins_hit"] > cover["bins"]:
            fail("cover.bins_hit exceeds cover.bins")

    if doc["gated"]:
        bad = [t["id"] for t in trials
               if t["status"] != "ok" and not t["waived"]]
        fail(f"campaign gated; unwaived failures: {bad or 'chaos oracle'}")

    print(f"validated {len(trials)} trials: {tallies['ok']} ok, "
          f"{waived} waived, {attempts} attempts; not gated")


if __name__ == "__main__":
    main()
