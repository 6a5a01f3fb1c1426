#!/usr/bin/env python3
"""Diff two Google-Benchmark JSON files and fail on hot-path regressions.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--threshold 0.10]
                   [--filter REGEX]

Compares real_time per benchmark name (aggregates such as *_BigO/*_RMS
are skipped, and benchmarks that are new in the current file are
reported informationally, so adding benchmarks never breaks the gate).
A benchmark regresses when

    current / baseline > 1 + threshold.

A GATED benchmark that exists in the baseline but is missing from the
current file fails the comparison: a silently dropped bench would
otherwise be un-regressable. Removing an ungated benchmark is only
reported.

With --normalize NAME, every time in each file is first converted to
nanoseconds from its time_unit (ns, us, ms, s) and divided by that
file's time for NAME before comparing. Pinning NAME to a frozen
reference kernel measured in the same run (e.g.
BM_RfftRadix2Scalar/65536) cancels uniform machine-speed differences,
so a baseline generated on one machine can gate runs on another: only
changes relative to the reference kernel count.

With --history PATH, a rolling per-run history JSON
({"runs": [{"label": ..., "times": {name: time}}]}, times stored in the
same normalized space the comparison runs in) feeds --auto-threshold:
once a benchmark has --min-history recorded runs, its gate window is
tightened from the --threshold ceiling down to

    clamp(1.5 * (max - min) / median, --threshold-floor, --threshold)

so stable benchmarks get a much tighter gate than the worst-case window
chosen for the noisiest one, while noisy benchmarks keep the full
ceiling. --append-history records the current run (on a passing gate
only, trimmed to --history-limit entries) so the window keeps tracking
the observed variance.

With --max-history-gaps N, a gated benchmark whose rolling history shows
more than N missing runs *after its first recorded appearance* fails the
gate: a bench that keeps dropping out of the history is either flaky or
silently skipped in CI, and both make its auto-threshold window
meaningless. Runs before a benchmark first appears never count (adding
a benchmark never breaks the gate retroactively).

Exit status 1 if any benchmark matching --filter regressed, 0 otherwise
(2 on malformed input). New/removed benchmarks and improvements are
reported informationally.
"""

import argparse
import json
import os
import re
import statistics
import sys


def load_times(path):
    """name -> (real_time, time_unit) for every plain benchmark entry."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        # Aggregate rows (BigO, RMS, mean/median/stddev) either lack
        # real_time or repeat a name; keep the first plain iteration row.
        if bench.get("run_type", "iteration") != "iteration":
            continue
        if "real_time" not in bench:
            continue
        name = bench["name"]
        if name not in times:
            times[name] = (bench["real_time"], bench.get("time_unit", "ns"))
    return times


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(time, unit):
    """A Google Benchmark real_time in nanoseconds, from its time_unit."""
    return time * NS_PER_UNIT[unit]


def load_history(path):
    """Rolling history file; absent or empty files start a fresh history."""
    if path is None or not os.path.exists(path):
        return {"runs": []}
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict) or not isinstance(data.get("runs"), list):
        raise ValueError(f"{path}: expected an object with a 'runs' list")
    return data


def history_values(history, name):
    out = []
    for run in history["runs"]:
        value = run.get("times", {}).get(name)
        if isinstance(value, (int, float)) and value > 0:
            out.append(float(value))
    return out


def history_gaps(history, name):
    """Runs missing `name` after its first recorded appearance."""
    present = [name in run.get("times", {}) for run in history["runs"]]
    if True not in present:
        return 0
    first = present.index(True)
    return sum(1 for p in present[first:] if not p)


def auto_threshold(values, ceiling, floor):
    """Per-benchmark gate window from the observed spread of past runs.

    1.5x the relative spread ((max - min) / median) comfortably covers
    run-to-run noise already seen in practice, clamped to [floor,
    ceiling] so a freak-stable history cannot produce an impossible
    gate and a noisy one never loosens past the ceiling.
    """
    spread = (max(values) - min(values)) / statistics.median(values)
    return min(ceiling, max(floor, 1.5 * spread))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional slowdown that counts as a regression "
        "(default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--filter",
        default=".*",
        help="regex of benchmark names the gate applies to "
        "(others are reported but never fail)",
    )
    parser.add_argument(
        "--normalize",
        metavar="NAME",
        default=None,
        help="divide every time by this benchmark's time from the same "
        "file before comparing (machine-independent gating against a "
        "frozen reference kernel)",
    )
    parser.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="rolling per-run history JSON used by --auto-threshold and "
        "updated by --append-history",
    )
    parser.add_argument(
        "--append-history",
        action="store_true",
        help="record the current run into --history when the gate passes "
        "(trimmed to --history-limit entries)",
    )
    parser.add_argument(
        "--history-label",
        default="",
        help="label stored with the appended run (e.g. a commit sha)",
    )
    parser.add_argument(
        "--history-limit",
        type=int,
        default=20,
        help="keep at most this many runs in the history (default 20)",
    )
    parser.add_argument(
        "--auto-threshold",
        action="store_true",
        help="tighten the gate per benchmark from the spread observed in "
        "--history; --threshold then acts as the ceiling",
    )
    parser.add_argument(
        "--threshold-floor",
        type=float,
        default=0.08,
        help="tightest window --auto-threshold may derive (default 0.08)",
    )
    parser.add_argument(
        "--min-history",
        type=int,
        default=5,
        help="runs a benchmark needs in the history before its window is "
        "tightened (default 5)",
    )
    parser.add_argument(
        "--max-history-gaps",
        type=int,
        default=None,
        metavar="N",
        help="fail when a gated benchmark's history is missing it from "
        "more than N runs after its first appearance (flaky or silently "
        "skipped benches poison --auto-threshold); default: disabled",
    )
    args = parser.parse_args()

    base = load_times(args.baseline)
    cur = load_times(args.current)
    gate = re.compile(args.filter)

    try:
        history = load_history(args.history)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad history file: {exc}")
        return 2

    def gate_window(name):
        """Per-benchmark regression window, tightened from history."""
        if args.auto_threshold:
            values = history_values(history, name)
            if len(values) >= args.min_history:
                return auto_threshold(values, args.threshold,
                                      args.threshold_floor)
        return args.threshold

    if args.normalize is not None:
        for label, times, path in (("baseline", base, args.baseline),
                                   ("current", cur, args.current)):
            if args.normalize not in times:
                print(f"error: --normalize benchmark '{args.normalize}' "
                      f"not found in {label} file {path}")
                return 2
            unknown = sorted({u for _, u in times.values()} - set(NS_PER_UNIT))
            if unknown:
                print(f"error: unknown time_unit {unknown} in {path}")
                return 2
            pivot = to_ns(*times[args.normalize])
            if pivot <= 0:
                print(f"error: --normalize pivot is non-positive in {path}")
                return 2
            for name in times:
                times[name] = (to_ns(*times[name]) / pivot, "x-ref")
            del times[args.normalize]  # the pivot is 1.0 by construction

    regressions = []
    missing = []
    rows = []
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            rows.append((name, None, cur[name][0], cur[name][1], "new"))
            continue
        if name not in cur:
            if gate.search(name):
                missing.append(name)
                rows.append((name, base[name][0], None, base[name][1],
                             "MISSING (gated)"))
            else:
                rows.append((name, base[name][0], None, base[name][1],
                             "removed"))
            continue
        b, unit = base[name]
        c, _ = cur[name]
        ratio = c / b if b > 0 else float("inf")
        window = gate_window(name)
        status = "ok"
        if ratio > 1.0 + window:
            if gate.search(name):
                status = "REGRESSION"
                regressions.append((name, ratio, window))
            else:
                status = "slower (ungated)"
        elif ratio < 1.0 - window:
            status = "faster"
        note = f"{status}  ({ratio:.2f}x"
        if window != args.threshold:
            note += f", window {100 * window:.0f}%"
        note += ")"
        rows.append((name, b, c, unit, note))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>14}  {'current':>14}  note")
    for name, b, c, unit, note in rows:
        fmt = ".3f" if unit == "x-ref" else ".0f"
        bs = f"{b:{fmt}} {unit}" if b is not None else "-"
        cs = f"{c:{fmt}} {unit}" if c is not None else "-"
        print(f"{name:<{width}}  {bs:>14}  {cs:>14}  {note}")

    gappy = []
    if args.max_history_gaps is not None:
        names = {n for run in history["runs"] for n in run.get("times", {})}
        for name in sorted(names):
            if not gate.search(name):
                continue
            gaps = history_gaps(history, name)
            if gaps > args.max_history_gaps:
                gappy.append((name, gaps))

    failed = False
    if missing:
        print(
            f"\nFAIL: {len(missing)} gated benchmark(s) present in the "
            f"baseline are missing from the current file — a dropped bench "
            f"cannot be checked for regressions:"
        )
        for name in missing:
            print(f"  {name}")
        failed = True
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed past "
            f"their gate window:"
        )
        for name, ratio, window in regressions:
            print(f"  {name}: {ratio:.2f}x (window {100 * window:.0f}%)")
        failed = True
    if gappy:
        print(
            f"\nFAIL: {len(gappy)} gated benchmark(s) have more than "
            f"{args.max_history_gaps} missing run(s) in the history since "
            f"they first appeared (flaky or silently skipped):"
        )
        for name, gaps in gappy:
            print(f"  {name}: missing from {gaps} run(s)")
        failed = True
    if failed:
        return 1
    print(f"\nOK: no gated benchmark regressed past its window "
          f"(ceiling {100 * args.threshold:.0f}%, and none went missing)")

    if args.history and args.append_history:
        history["runs"].append({
            "label": args.history_label,
            "times": {name: cur[name][0] for name in sorted(cur)},
        })
        if args.history_limit > 0:
            history["runs"] = history["runs"][-args.history_limit:]
        with open(args.history, "w") as f:
            json.dump(history, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"history: recorded run "
              f"({len(history['runs'])} run(s) in {args.history})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
