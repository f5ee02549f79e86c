#!/usr/bin/env python3
"""Compare BENCH_*.json baseline/candidate pairs and fail on wall-time regressions.

Usage:
    bench_check.py BASELINE.json CANDIDATE.json [BASELINE2.json CANDIDATE2.json ...]
                   [--threshold 0.15]
    bench_check.py --internal FILE.json [FILE2.json ...]
    bench_check.py --append-history FILE.json [FILE2.json ...]
                   [--history-dir DIR] [--threshold 0.15]
    bench_check.py --self-test

Files are consumed in (baseline, candidate) pairs, so one invocation can
gate several benchmark suites at once (e.g. BENCH_parallel.json and
BENCH_admm.json). For each pair, walks both JSON trees and compares every
numeric leaf at the same path whose key ends in "wall_ms" (lower is better)
or "*_per_s" (runs_per_s, requests_per_s, ...) / "gb_s" (higher is better). The check fails (exit 1) when
any candidate wall time exceeds its baseline by more than the threshold, or
any candidate throughput falls below its baseline by more than the threshold
(default 15%, sized for wall-clock noise on shared CI boxes). Ratio-style
keys ("wall_ratio", "speedup") and counters are reported but never gate.

--internal checks a single file against ITSELF: every numeric leaf "X_min"
declares a floor for its sibling leaf "X" (e.g. BENCH_sweep.json writes
"thread_scaling_ratio" next to "thread_scaling_ratio_min", BENCH_admm.json
"spmv.vector_speedup" next to "spmv.vector_speedup_min"), and every leaf
"X_max" declares a ceiling (e.g. BENCH_scale.json gates its QP growth
exponent with "qp_growth_exponent_max"). This is how machine-dependent
gates travel inside the artifact — the bench decides the bound (0.0 = not
gated on this box), the checker enforces it anywhere. A file whose
top-level "ok" is false fails too: that is the bench binary's own verdict
(bench/harness.hpp), which covers conditions without a bound leaf such as
bit-identity. A file without "ok" is judged by its bounds alone.

--append-history accumulates a perf trajectory: for each BENCH_X.json it
appends one JSONL line — the file's manifest (provenance: git sha, build,
host, ...) plus the bench tree itself — to BENCH_X_history.jsonl next to
the bench (or under --history-dir). Before appending, the new results are
gated against the MOST RECENT history line with the ordinary pair rules
(--threshold/--floor-ms); a regression exits 1 and does NOT append, so a
red run can never poison the trajectory baseline. The first entry seeds
the history and always passes.

Times below --floor-ms (default 5 ms) are skipped: at that scale the
scheduler jitter exceeds any real regression.
"""

import argparse
import json
import os
import sys


def strip_manifest(tree, label=""):
    """Removes the flight-recorder "manifest" provenance object from a BENCH
    tree so its fields (threads, capture timings, ...) never participate in
    gating. Validates the header on the way out: a manifest without tool and
    git_sha is malformed and gets a warning (but never fails the check —
    provenance is advisory here)."""
    if not isinstance(tree, dict) or "manifest" not in tree:
        return tree
    manifest = tree["manifest"]
    if not (isinstance(manifest, dict)
            and "tool" in manifest and "git_sha" in manifest):
        print(f"bench_check{label}: malformed manifest (no tool/git_sha)",
              file=sys.stderr)
    return {key: value for key, value in tree.items() if key != "manifest"}


def walk(tree, path=()):
    """Yields (dotted_path, value) for every numeric leaf."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from walk(value, path + (str(key),))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from walk(value, path + (str(index),))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield ".".join(path), float(tree)


def leaf_kind(path):
    """Gate direction for a leaf: "time" (lower wins), "throughput" (higher
    wins), or None (not gated). "_min"/"_max" leaves are internal-mode
    floors/ceilings, never pair-compared (a moved bound would otherwise read
    as a regression)."""
    leaf = path.split(".")[-1]
    if leaf.endswith("_min") or leaf.endswith("_max"):
        return None
    if leaf.endswith("wall_ms"):
        return "time"
    if leaf.endswith("_per_s") or leaf.endswith("gb_s"):
        return "throughput"
    return None


def compare(baseline, candidate, threshold, floor_ms):
    """Returns (regressions, rows); rows are (path, base, cand, ratio, gating)."""
    base_leaves = dict(walk(baseline))
    cand_leaves = dict(walk(candidate))
    rows = []
    regressions = []
    for path in sorted(base_leaves.keys() & cand_leaves.keys()):
        kind = leaf_kind(path)
        if kind is None:
            continue
        base, cand = base_leaves[path], cand_leaves[path]
        ratio = cand / base if base > 0 else float("inf")
        # The jitter floor only makes sense for times; throughputs always gate.
        gating = kind == "throughput" or base >= floor_ms or cand >= floor_ms
        rows.append((path, base, cand, ratio, gating))
        if not gating:
            continue
        worse = (cand > base * (1.0 + threshold) if kind == "time"
                 else cand < base * (1.0 - threshold))
        if worse:
            regressions.append((path, base, cand, ratio))
    return regressions, rows


def check_internal(tree):
    """Enforces every "X_min" floor and "X_max" ceiling against its sibling
    leaf "X" within one tree. A 0.0 bound disables that gate (the bench's
    way of saying "not gated on this box"). Returns (violations, rows); rows
    are (path, value, bound, op, ok) with op in (">=", "<=")."""
    leaves = dict(walk(tree))
    rows = []
    violations = []
    for path in sorted(leaves):
        if path.endswith("_min"):
            op = ">="
        elif path.endswith("_max"):
            op = "<="
        else:
            continue
        target = path[:-4]  # strip the "_min"/"_max" suffix
        if target not in leaves:
            continue
        value, bound = leaves[target], leaves[path]
        ok = bound == 0.0 or (value >= bound if op == ">=" else value <= bound)
        rows.append((target, value, bound, op, ok))
        if not ok:
            violations.append((target, value, bound))
    return violations, rows


def run_internal_files(paths):
    """Checks each file's X >= X_min / X <= X_max bounds and its "ok"
    verdict; worst exit code wins."""
    worst = 0
    for path in paths:
        try:
            with open(path) as f:
                tree = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_check: {err}", file=sys.stderr)
            return 2
        label = f" [{os.path.basename(path)}]"
        violations, rows = check_internal(strip_manifest(tree, label))
        for target, value, bound, op, ok in rows:
            print(f"  {target}  {value:.3f} {op} {bound:.3f}  "
                  f"{'ok' if ok else 'VIOLATION'}")
        if violations:
            print(f"bench_check{label}: {len(violations)} internal bound "
                  f"violation(s)", file=sys.stderr)
            worst = max(worst, 1)
        elif isinstance(tree, dict) and tree.get("ok") is False:
            print(f"bench_check{label}: the bench's own verdict is "
                  f"\"ok\": false", file=sys.stderr)
            worst = max(worst, 1)
        else:
            print(f"bench_check{label}: OK ({len(rows)} internal bound(s) held)")
    return worst


def run_check(baseline, candidate, threshold, floor_ms, label=""):
    baseline = strip_manifest(baseline, label)
    candidate = strip_manifest(candidate, label)
    regressions, rows = compare(baseline, candidate, threshold, floor_ms)
    if not rows:
        print(f"bench_check{label}: no comparable wall_ms/runs_per_s keys found",
              file=sys.stderr)
        return 1
    width = max(len(r[0]) for r in rows)
    for path, base, cand, ratio, gating in rows:
        if leaf_kind(path) == "time":
            unit = "ms"
        else:
            unit = "GB/s" if path.split(".")[-1].endswith("gb_s") else "runs/s"
        flag = "REGRESSION" if any(path == r[0] for r in regressions) else (
            "ok" if gating else "skipped (< floor)")
        print(f"  {path:<{width}}  {base:10.3f} -> {cand:10.3f} {unit}  "
              f"x{ratio:5.2f}  {flag}")
    if regressions:
        print(f"bench_check{label}: {len(regressions)} regression(s) "
              f"beyond {threshold:.0%}", file=sys.stderr)
        return 1
    print(f"bench_check{label}: OK ({len(rows)} gated keys within "
          f"{threshold:.0%})")
    return 0


def last_history_entry(history_path):
    """Returns the most recent parseable entry of a history JSONL file, or
    None when the file is absent/empty. Corrupt lines are skipped with a
    warning — a truncated tail (e.g. a killed CI run) must not wedge the
    trajectory forever."""
    if not os.path.exists(history_path):
        return None
    entry = None
    with open(history_path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                print(f"bench_check: {history_path}:{lineno}: skipping "
                      f"corrupt history line", file=sys.stderr)
    return entry


def append_history(paths, threshold, floor_ms, history_dir=None):
    """Gates each bench file against the tail of its history and, when
    clean, appends it as a new manifest-headed JSONL line. Worst exit code
    wins; a regressed bench is reported and NOT appended."""
    worst = 0
    for path in paths:
        try:
            with open(path) as f:
                tree = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_check: {err}", file=sys.stderr)
            return 2
        label = f" [{os.path.basename(path)}]"
        manifest = tree.get("manifest") if isinstance(tree, dict) else None
        bench = strip_manifest(tree, label)
        stem = os.path.splitext(os.path.basename(path))[0]
        directory = history_dir or os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        history_path = os.path.join(directory, stem + "_history.jsonl")

        prior = last_history_entry(history_path)
        code = 0
        if prior is None:
            print(f"bench_check{label}: no prior history, seeding "
                  f"{history_path}")
        else:
            code = run_check(prior.get("bench", {}), bench, threshold,
                             floor_ms, label + " vs history")
        if code != 0:
            print(f"bench_check{label}: regression vs history tail, "
                  f"NOT appended to {history_path}", file=sys.stderr)
            worst = max(worst, code)
            continue
        entry = {"manifest": manifest, "bench": bench}
        with open(history_path, "a") as f:
            f.write(json.dumps(entry, sort_keys=True,
                               separators=(",", ":")) + "\n")
        print(f"bench_check{label}: appended to {history_path}")
    return worst


def run_file_pairs(paths, threshold, floor_ms):
    """Checks each (baseline, candidate) file pair; worst exit code wins."""
    worst = 0
    for baseline_path, candidate_path in zip(paths[0::2], paths[1::2]):
        try:
            with open(baseline_path) as f:
                baseline = json.load(f)
            with open(candidate_path) as f:
                candidate = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_check: {err}", file=sys.stderr)
            return 2
        label = f" [{os.path.basename(candidate_path)}]"
        worst = max(worst, run_check(baseline, candidate, threshold, floor_ms, label))
    return worst


def self_test():
    import tempfile

    baseline = {
        "cpus": 8,
        "game": {"runs": [{"threads": 1, "wall_ms": 120.0, "speedup": 1.0},
                          {"threads": 2, "wall_ms": 70.0, "speedup": 1.71}]},
        "mpc": {"cold": {"wall_ms": 900.0}, "cached": {"wall_ms": 300.0},
                "wall_ratio": 0.33, "tiny": {"wall_ms": 0.5}},
        "sweep": {"runs_per_s": 40.0},
    }
    improved = json.loads(json.dumps(baseline))
    improved["mpc"]["cached"]["wall_ms"] = 250.0
    regressed = json.loads(json.dumps(baseline))
    regressed["game"]["runs"][1]["wall_ms"] = 95.0  # +36%
    noisy_tiny = json.loads(json.dumps(baseline))
    noisy_tiny["mpc"]["tiny"]["wall_ms"] = 4.0  # 8x, but below the 5 ms floor
    slow_sweep = json.loads(json.dumps(baseline))
    slow_sweep["sweep"]["runs_per_s"] = 25.0  # -37.5% throughput
    fast_sweep = json.loads(json.dumps(baseline))
    fast_sweep["sweep"]["runs_per_s"] = 80.0  # throughput gain must pass

    failures = 0

    def expect(code, want, what):
        nonlocal failures
        if code != want:
            print(f"self-test FAILED: {what} (exit {code}, want {want})",
                  file=sys.stderr)
            failures += 1

    expect(run_check(baseline, improved, 0.15, 5.0, " [improved]"), 0,
           "an improvement must pass")
    expect(run_check(baseline, regressed, 0.15, 5.0, " [regressed]"), 1,
           "a 36% regression must fail")
    expect(run_check(baseline, regressed, 0.50, 5.0, " [lenient]"), 0,
           "the same diff passes at a 50% threshold")
    expect(run_check(baseline, noisy_tiny, 0.15, 5.0, " [tiny]"), 0,
           "sub-floor timings must not gate")
    expect(run_check(baseline, slow_sweep, 0.15, 5.0, " [slow-sweep]"), 1,
           "a 37% throughput drop must fail")
    expect(run_check(baseline, fast_sweep, 0.15, 5.0, " [fast-sweep]"), 0,
           "a throughput gain must pass")
    expect(run_check({"a": 1}, {"a": 2}, 0.15, 5.0, " [no-keys]"), 1,
           "no wall_ms keys is an error")

    # Manifest-bearing files: the provenance header travels inside the
    # artifact but must never gate — here the capture timing it carries
    # regresses 100x while the real keys are clean.
    with_manifest = json.loads(json.dumps(baseline))
    with_manifest["manifest"] = {"tool": "bench", "git_sha": "abc123def456",
                                 "threads": 4, "capture_wall_ms": 10.0}
    manifest_candidate = json.loads(json.dumps(with_manifest))
    manifest_candidate["manifest"]["capture_wall_ms"] = 1000.0
    manifest_candidate["manifest"]["threads"] = 32
    expect(run_check(with_manifest, manifest_candidate, 0.15, 5.0,
                     " [manifest]"), 0,
           "manifest fields must be skipped, not gated")
    bad_manifest = {"sweep": {"runs_per_s": 40.0}, "manifest": {"threads": 4}}
    expect(run_check(bad_manifest, bad_manifest, 0.15, 5.0, " [bad-manifest]"),
           0, "a malformed manifest warns but does not fail")
    internal_manifest = {"manifest": {"tool": "bench", "git_sha": "abc",
                                      "threads": 2, "threads_min": 16},
                         "thread_scaling_ratio": 2.6,
                         "thread_scaling_ratio_min": 2.0}
    expect(1 if check_internal(strip_manifest(internal_manifest))[0] else 0, 0,
           "manifest fields must not create internal floors")

    # gb_s leaves gate as throughputs in pair mode (the BENCH_admm.json spmv
    # shape), and "*_min" floors never pair-compare: raising a floor in the
    # candidate must not read as a regression.
    spmv = {"spmv": {"mirror_ax": {"wall_ms": 4.0, "gb_s": 15.0},
                     "sell": {"avx2": {"ax": {"wall_ms": 2.0, "gb_s": 30.0}}},
                     "vector_speedup": 2.0, "vector_speedup_min": 1.25}}
    slow_spmv = json.loads(json.dumps(spmv))
    slow_spmv["spmv"]["sell"]["avx2"]["ax"]["gb_s"] = 18.0  # -40%
    raised_floor = json.loads(json.dumps(spmv))
    raised_floor["spmv"]["vector_speedup_min"] = 10.0
    expect(run_check(spmv, slow_spmv, 0.15, 5.0, " [slow-spmv]"), 1,
           "a 40% bandwidth drop must fail")
    expect(run_check(spmv, raised_floor, 0.15, 5.0, " [raised-floor]"), 0,
           "raising an internal floor must not pair-gate")

    # Any "*_per_s" leaf gates as a throughput (the BENCH_requests.json
    # shape), and its "_min" sibling is an internal absolute floor.
    requests = {"lanes1": {"wall_ms": 800.0, "requests_per_s": 2.0e7},
                "requests_per_s": 2.0e7, "requests_per_s_min": 1.0e7}
    slow_requests = json.loads(json.dumps(requests))
    slow_requests["lanes1"]["requests_per_s"] = 1.1e7  # -45%
    slow_requests["requests_per_s"] = 1.1e7
    expect(run_check(requests, slow_requests, 0.15, 5.0, " [slow-requests]"),
           1, "a 45% requests/s drop must fail")
    expect(1 if check_internal(requests)[0] else 0, 0,
           "requests/s above its absolute floor must pass")
    under_floor = json.loads(json.dumps(requests))
    under_floor["requests_per_s"] = 0.5e7
    expect(1 if check_internal(under_floor)[0] else 0, 1,
           "requests/s below its absolute floor must fail")

    # Internal X <= X_max ceilings, the BENCH_scale.json shape, and "_max"
    # leaves never pair-compare (a lowered ceiling is not a regression).
    scale = {"assign_speedup": 25.0, "assign_speedup_min": 10.0,
             "qp_growth_exponent": 1.2, "qp_growth_exponent_max": 2.0,
             "solve": {"wall_ms": 100.0, "wall_ms_max": 500.0}}
    expect(1 if check_internal(scale)[0] else 0, 0,
           "a growth exponent below its ceiling must pass")
    over_ceiling = json.loads(json.dumps(scale))
    over_ceiling["qp_growth_exponent"] = 2.5
    expect(1 if check_internal(over_ceiling)[0] else 0, 1,
           "a growth exponent above its ceiling must fail")
    ceiling_off = json.loads(json.dumps(over_ceiling))
    ceiling_off["qp_growth_exponent_max"] = 0.0
    expect(1 if check_internal(ceiling_off)[0] else 0, 0,
           "a 0.0 ceiling disables the internal gate")
    lowered_ceiling = json.loads(json.dumps(scale))
    lowered_ceiling["solve"]["wall_ms_max"] = 90.0  # ceiling only: no pair gate
    lowered_ceiling["qp_growth_exponent_max"] = 1.5
    expect(run_check(scale, lowered_ceiling, 0.15, 5.0, " [lowered-ceiling]"), 0,
           "tightening a ceiling must not pair-gate")

    # Internal X >= X_min floors, the BENCH_sweep.json shape.
    sweep_ok = {"bit": True, "thread_scaling_ratio": 2.6,
                "thread_scaling_ratio_min": 2.0}
    sweep_bad = {"thread_scaling_ratio": 1.4, "thread_scaling_ratio_min": 2.0}
    sweep_ungated = {"thread_scaling_ratio": 0.9,
                     "thread_scaling_ratio_min": 0.0}  # small box: floor off
    expect(1 if check_internal(sweep_ok)[0] else 0, 0,
           "a ratio above its floor must pass the internal check")
    expect(1 if check_internal(sweep_bad)[0] else 0, 1,
           "a ratio below its floor must fail the internal check")
    expect(1 if check_internal(sweep_ungated)[0] else 0, 0,
           "a 0.0 floor disables the internal gate")

    # Multi-pair: one good pair plus one regressed pair must fail as a whole,
    # and two good pairs must pass.
    with tempfile.TemporaryDirectory() as tmp:
        def dump(name, tree):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(tree, f)
            return path

        base_a = dump("base_a.json", baseline)
        good_a = dump("good_a.json", improved)
        base_b = dump("base_b.json", baseline)
        bad_b = dump("bad_b.json", regressed)
        expect(run_file_pairs([base_a, good_a, base_b, bad_b], 0.15, 5.0), 1,
               "a regression in the second pair must fail the invocation")
        expect(run_file_pairs([base_a, good_a, base_b, good_a], 0.15, 5.0), 0,
               "two clean pairs must pass")
        expect(run_file_pairs([base_a, os.path.join(tmp, "missing.json")],
                              0.15, 5.0), 2,
               "an unreadable file is a usage error")
        ok_file = dump("sweep_ok.json", sweep_ok)
        bad_file = dump("sweep_bad.json", sweep_bad)
        expect(run_internal_files([ok_file]), 0,
               "--internal passes a file whose floors hold")
        expect(run_internal_files([ok_file, bad_file]), 1,
               "--internal fails when any file violates a floor")
        expect(run_internal_files([os.path.join(tmp, "missing.json")]), 2,
               "--internal on an unreadable file is a usage error")
        # The bench's own verdict: bounds that hold do not pass a file
        # whose "ok" is false (e.g. "bit_identical": false, which has no
        # bound leaf).
        verdict_false = dict(sweep_ok, bit_identical=False, ok=False)
        expect(run_internal_files([dump("verdict_false.json", verdict_false)]),
               1, "--internal fails a file whose \"ok\" is false")
        expect(run_internal_files([dump("verdict_true.json",
                                        dict(sweep_ok, ok=True))]),
               0, "--internal passes a file whose \"ok\" is true")

        # --append-history: seed, accumulate, and refuse to append a
        # regression (so the trajectory baseline cannot be poisoned).
        hist_dir = os.path.join(tmp, "history")
        bench_file = dump("BENCH_fake.json", with_manifest)
        expect(append_history([bench_file], 0.15, 5.0, hist_dir), 0,
               "the first history entry seeds and passes")
        expect(append_history([bench_file], 0.15, 5.0, hist_dir), 0,
               "an identical re-run passes against the history tail")
        hist_path = os.path.join(hist_dir, "BENCH_fake_history.jsonl")
        with open(hist_path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        expect(len(lines), 2, "two clean runs produce two history lines")
        if len(lines) == 2:
            expect(0 if lines[0]["manifest"].get("tool") == "bench" else 1, 0,
                   "history lines carry the bench manifest inline")
            expect(0 if "manifest" not in lines[0]["bench"] else 1, 0,
                   "the gated bench subtree excludes the manifest")
        regressed_file = dump("BENCH_fake2.json", regressed)
        os.replace(regressed_file, os.path.join(tmp, "BENCH_fake.json"))
        expect(append_history([os.path.join(tmp, "BENCH_fake.json")],
                              0.15, 5.0, hist_dir), 1,
               "a regressed bench fails the history gate")
        with open(hist_path) as f:
            kept = [line for line in f if line.strip()]
        expect(len(kept), 2, "a regressed bench is not appended")
        expect(append_history([os.path.join(tmp, "missing.json")],
                              0.15, 5.0, hist_dir), 2,
               "--append-history on an unreadable file is a usage error")
        # A corrupt tail line is skipped: gating falls back to the last
        # parseable entry instead of wedging.
        with open(hist_path, "a") as f:
            f.write("{truncated\n")
        good_again = dump("BENCH_fake3.json", with_manifest)
        os.replace(good_again, os.path.join(tmp, "BENCH_fake.json"))
        expect(append_history([os.path.join(tmp, "BENCH_fake.json")],
                              0.15, 5.0, hist_dir), 0,
               "a corrupt history tail is skipped, not fatal")
    if failures == 0:
        print("bench_check self-test OK")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", metavar="BASELINE CANDIDATE",
                        help="one or more baseline/candidate BENCH_*.json pairs")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative slowdown (default 0.15 = 15%%)")
    parser.add_argument("--floor-ms", type=float, default=5.0,
                        help="ignore timings below this many ms (default 5)")
    parser.add_argument("--internal", action="store_true",
                        help="check each file's own X_min/X_max bounds and "
                             "\"ok\" verdict instead of comparing "
                             "baseline/candidate pairs")
    parser.add_argument("--append-history", action="store_true",
                        help="gate each file against its BENCH_*_history.jsonl "
                             "tail and append it as a new entry when clean")
    parser.add_argument("--history-dir", metavar="DIR",
                        help="directory for history files (default: next to "
                             "each bench file)")
    parser.add_argument("--self-test", action="store_true",
                        help="run built-in fixtures instead of reading files")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.internal and args.append_history:
        parser.error("--internal and --append-history are separate modes")
    if args.append_history:
        if not args.files:
            parser.error("--append-history requires at least one file")
        return append_history(args.files, args.threshold, args.floor_ms,
                              args.history_dir)
    if args.internal:
        if not args.files:
            parser.error("--internal requires at least one file")
        return run_internal_files(args.files)
    if len(args.files) < 2 or len(args.files) % 2 != 0:
        parser.error("an even number (>= 2) of files is required: "
                     "BASELINE CANDIDATE [BASELINE2 CANDIDATE2 ...] "
                     "(or use --self-test)")
    return run_file_pairs(args.files, args.threshold, args.floor_ms)


if __name__ == "__main__":
    sys.exit(main())
