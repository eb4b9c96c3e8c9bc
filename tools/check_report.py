#!/usr/bin/env python3
"""Checks one twpp-report-v1 document (docs/FORMATS.md).

    twpp races --format=json out.twpp > report.json; rc=$?
    python3 tools/check_report.py report.json --verb races --exit "$rc"

REPORT is a file, or - for standard input. The document must be the
whole of REPORT: one envelope

    {"schema": "twpp-report-v1", "verb": ..., "exit": N,
     "diagnostics": [...], "body": {...}}

whose verb is --verb and whose exit is --exit, the exit code of the
process that printed it. Each diagnostic carries check, severity,
location and message, and byteOffset only when it has one. The body must
have the fields docs/FORMATS.md lists for the verb. When the exit code is
0 or 1, the body must also agree with it the way the verb table says:

    verify   exit 1 <=> an error diagnostic; with --list-checks, exit 0,
             no diagnostics and a non-empty catalog
    recover  exit 1 <=> not salvaged
    races    exit 1 <=> some archive is racy; a racy archive lists a race
    memstat  exit 1 <=> some archive is not reconciled
    ingest   exit 0 <=> clean; a producer that said bye accounts for
             every event it declared (applied + dropped + lost)

Exit 2 (usage or fatal IO) promises only the envelope. Prints one line
and exits 0 when the report holds, 1 when it does not.
"""

import argparse
import json
import sys

SCHEMA = "twpp-report-v1"
SEVERITIES = ("note", "warning", "error")

# The fields a body carries once its verb got far enough to report them.
RECOVER_KEYS = ("salvaged", "input_bytes", "output_bytes", "functions_total",
                "functions_kept", "functions_dropped", "dropped_function_ids",
                "calls_lost", "dcg_recovered")
RACES_ARCHIVE_KEYS = ("path", "threads", "edges", "verdict", "races", "stats")
RACE_KEYS = ("addr", "threadA", "threadB", "timeA", "timeB", "kindA", "kindB",
             "pairs")
RACES_STATS_KEYS = ("pairsCovered", "segments", "segmentPairs", "racyPairs")
MEMSTAT_ARCHIVE_KEYS = ("path", "file_bytes", "header_index_bytes", "dcg",
                        "audit", "functions")
SELFPROF_KEYS = ("archive", "stats", "stages", "functions")
INGEST_KEYS = ("clean", "aborted", "frames", "frame_bytes", "events",
               "corrupt_frames", "resync_bytes", "read_retries",
               "idle_timeouts", "backpressure_waits", "queue_depth_peak",
               "elapsed_us", "producers")
PRODUCER_KEYS = ("id", "lossless", "saw_hello", "saw_bye", "resumed",
                 "disconnected", "events_applied", "events_declared",
                 "events_dropped", "events_lost", "frames_replayed")
PRODUCE_KEYS = ("producer", "frames", "bytes", "events")
CHECK_KEYS = ("id", "severity", "summary")


class Invalid(Exception):
    pass


def require(cond, what):
    if not cond:
        raise Invalid(what)


def has_keys(obj, keys, where):
    require(isinstance(obj, dict), f"{where} is not an object")
    missing = [k for k in keys if k not in obj]
    require(not missing, f"{where} lacks {', '.join(missing)}")


def check_diagnostics(diags):
    require(isinstance(diags, list), "diagnostics is not a list")
    for i, d in enumerate(diags):
        where = f"diagnostics[{i}]"
        has_keys(d, ("check", "severity", "location", "message"), where)
        extra = set(d) - {"check", "severity", "location", "message",
                          "byteOffset"}
        require(not extra, f"{where} has unknown fields {sorted(extra)}")
        require(d["severity"] in SEVERITIES,
                f"{where} has severity {d['severity']!r}")
        if "byteOffset" in d:
            off = d["byteOffset"]
            require(isinstance(off, int) and 0 <= off < 2**64 - 1,
                    f"{where} has byteOffset {off!r}")


# One check per verb, run on exit 0 and exit 1 only.
def check_verify(body, diags, code):
    if "checks" in body:  # verify --list-checks
        require(code == 0 and not diags,
                f"check catalog with exit {code} and {len(diags)} "
                "diagnostic(s)")
        require(isinstance(body["checks"], list) and body["checks"],
                "checks is not a non-empty list")
        for i, c in enumerate(body["checks"]):
            has_keys(c, CHECK_KEYS, f"checks[{i}]")
            require(c["severity"] in SEVERITIES,
                    f"checks[{i}] has severity {c['severity']!r}")
        return
    errors = sum(d["severity"] == "error" for d in diags)
    require((code == 1) == (errors > 0),
            f"exit {code} with {errors} error diagnostic(s)")


def check_recover(body, diags, code):
    has_keys(body, RECOVER_KEYS, "body")
    require((code == 1) == (not body["salvaged"]),
            f"exit {code} with salvaged={body['salvaged']}")


def check_races(body, diags, code):
    has_keys(body, ("archives",), "body")
    racy = False
    for i, a in enumerate(body["archives"]):
        where = f"archives[{i}]"
        has_keys(a, RACES_ARCHIVE_KEYS, where)
        has_keys(a["stats"], RACES_STATS_KEYS, f"{where}.stats")
        require(a["verdict"] in ("racy", "race-free"),
                f"{where} has verdict {a['verdict']!r}")
        for j, r in enumerate(a["races"]):
            has_keys(r, RACE_KEYS, f"{where}.races[{j}]")
        if a["verdict"] == "racy":
            racy = True
            require(a["races"], f"{where} is racy but lists no race")
    require((code == 1) == racy, f"exit {code} with racy={racy}")


def check_memstat(body, diags, code):
    has_keys(body, ("archives",), "body")
    reconciled = True
    for i, a in enumerate(body["archives"]):
        where = f"archives[{i}]"
        has_keys(a, MEMSTAT_ARCHIVE_KEYS, where)
        has_keys(a["audit"], ("tracked_bytes", "deep_bytes", "model_bytes",
                              "reconciled"), f"{where}.audit")
        reconciled = reconciled and a["audit"]["reconciled"]
    require((code == 1) == (not reconciled),
            f"exit {code} with every archive reconciled={reconciled}")


def check_selfprof(body, diags, code):
    if code == 0:  # exit 1: the sidecar does not match, nothing to report
        has_keys(body, SELFPROF_KEYS, "body")


def check_ingest(body, diags, code):
    if "producer" in body:  # ingest produce
        has_keys(body, PRODUCE_KEYS, "body")
        return
    if not body:  # ingest produce could not send
        require(code == 1, "exit 0 with an empty body")
        return
    has_keys(body, INGEST_KEYS, "body")
    for i, p in enumerate(body["producers"]):
        where = f"producers[{i}]"
        has_keys(p, PRODUCER_KEYS, where)
        if p["saw_bye"]:
            total = (p["events_applied"] + p["events_dropped"]
                     + p["events_lost"])
            require(total == p["events_declared"],
                    f"{where} accounts for {total} of "
                    f"{p['events_declared']} declared events")
    require((code == 0) == body["clean"],
            f"exit {code} with clean={body['clean']}")


CHECKS = {
    "verify": check_verify,
    "recover": check_recover,
    "races": check_races,
    "memstat": check_memstat,
    "selfprof": check_selfprof,
    "ingest": check_ingest,
}


def check(text, verb, code):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise Invalid(f"not one JSON document: {e}")
    has_keys(doc, ("schema", "verb", "exit", "diagnostics", "body"),
             "the envelope")
    extra = set(doc) - {"schema", "verb", "exit", "diagnostics", "body"}
    require(not extra, f"the envelope has unknown fields {sorted(extra)}")
    require(doc["schema"] == SCHEMA, f"schema is {doc['schema']!r}")
    require(doc["verb"] == verb, f"verb is {doc['verb']!r}, not {verb!r}")
    require(doc["exit"] == code,
            f"exit is {doc['exit']!r} but the process exited {code}")
    check_diagnostics(doc["diagnostics"])
    require(isinstance(doc["body"], dict), "body is not an object")
    if code in (0, 1):
        CHECKS[verb](doc["body"], doc["diagnostics"], code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="report file, or - for stdin")
    parser.add_argument("--verb", required=True, choices=sorted(CHECKS))
    parser.add_argument("--exit", required=True, type=int, dest="code",
                        help="exit code of the process that printed it")
    args = parser.parse_args()
    if args.report == "-":
        text = sys.stdin.read()
    else:
        with open(args.report) as f:
            text = f.read()
    try:
        check(text, args.verb, args.code)
    except Invalid as e:
        print(f"check_report: {args.report}: {e}", file=sys.stderr)
        return 1
    print(f"check_report: {args.verb} report ok (exit {args.code})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
