#!/usr/bin/env python3
"""Condor-G campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench_campaign from ../src into .bench_build (CMake, first run
only; later runs are a no-op ninja/make check), then runs campaigns of one
workload, each in a process of its own on the default single-threaded
kernel, for --seconds of host time (at least MIN_CAMPAIGNS), plus one
untimed DetSan-armed witness campaign. With --trace 1 it adds a Profiler pass
and a Tracer + CriticalPath pass, each in its own process. Host-time
end-to-end metrics are scaled by a reference kernel timed in every campaign
process (see REFERENCE_S).

Every campaign of a run uses the same seed, so the gate also requires every
campaign to end with the same kernel and outcome digest. The last stdout
line is the result object; the lines before it carry the machine
fingerprint, the workload size and the failure share with its numerator and
denominator. Exits 1 on a build failure or a usage error, without a result.

Workloads (why each is here):
  grid_burst   GRAM/GASS/GridManager/Schedd submission path, no matching
  portal_storm Portal, Collector, delta PoolNegotiator; no GRAM or GASS
  glidein_pool GlideIns, personal Negotiator and shadows (Fig. 2)
  grid_faults  the grid_burst path under F1-F4 faults. Runnable and covered
               by --self-test, but not listed in BENCHMARK.json: with the
               fewest campaigns per run, its throughput spread across seeds
               on a shared host came close to the bound.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench_campaign"

# Jobs per campaign. The grid and GlideIn testbeds are 8 sites x 16 CPUs and
# the portal pool 16 groups x 4 slots: a quarter of the S1/U1/Fig. 2 shapes
# in both jobs and CPUs, so queueing depth per CPU (and with it simulated
# latency) keeps the full-size shape while a campaign takes 1-4 host
# seconds, which leaves room for several campaigns per run.
JOBS = {
    "grid_burst": 2500,
    "grid_faults": 1000,
    "portal_storm": 2500,
    "glidein_pool": 2000,
}
GRID_WORKLOADS = ("grid_burst", "grid_faults")
# Host-time end-to-end metrics are reported in reference-host seconds: host
# seconds times REFERENCE_S over the run's median reference-kernel time (see
# reference_kernel_s in campaign.cpp). A quiet 4-vCPU Xeon host runs the
# kernel in about this long, so there the two kinds of second nearly agree;
# raw host figures are printed beside them on the "# run" line.
REFERENCE_S = 0.3
MIN_CAMPAIGNS = 3
MAX_CAMPAIGNS = 40
CAMPAIGN_TIMEOUT_S = 60

# Daemon families that receive messages. The negotiators run on timers, so
# their cost shows in timers.central_s (pool) and timers.submit_s (personal).
FAMILIES = [
    "gram.client", "gram.jm", "gram.gatekeeper", "core.gridmanager", "gass",
    "condor.collector", "condor.startd", "condor.shadow", "core.glidein",
    "core.portal", "core.portal_client", "core.pool_runner", "other",
]
ROLES = ["submit", "site", "central", "user", "worker", "other"]
PHASES = [
    "schedd_queue", "gram_submit_rtt", "gatekeeper_auth", "jobmanager_spawn",
    "stage_in", "poll_wait", "recovery", "execution", "stage_out",
    "unattributed",
]
COUNTERS = [
    ("sim.events", "count"), ("sim.deliveries", "count"),
    ("sim.msgs_lost", "count"), ("gram.probes_sent", "count"),
    ("gram.jm_restarts", "count"), ("gass.gets", "count"),
    ("gass.bytes_served", "bytes"), ("gass.staging_hit_ratio", "ratio"),
    ("condor.collector.noop_ratio", "ratio"),
    ("condor.pool_negotiator.cycles", "count"),
    ("condor.pool_negotiator.skipped_ratio", "ratio"),
    ("condor.pool_negotiator.matches_per_cycle", "matches/cycle"),
    ("condor.negotiator.cycles", "count"),
    ("condor.negotiator.matches", "count"),
    ("core.portal.busy_reject_ratio", "ratio"),
    ("core.pool_runner.busy_reject_ratio", "ratio"),
    ("faults.crashes", "count"), ("faults.partitions", "count"),
    ("cp.jobs_reached_active", "count"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not (HERE / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: simulator sources not found next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    rc = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                        stdout=sys.stderr, stderr=sys.stderr).returncode
    return rc == 0 and BINARY.is_file()


def campaign(workload, seed, jobs, pass_name="plain", defect="none"):
    """One campaign in its own process; returns its record (dict)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--jobs", str(jobs), "--pass", pass_name, "--defect", defect]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CAMPAIGN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        raise RuntimeError(f"{pass_name} campaign exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["pass"] = pass_name
    return record


def fingerprint():
    """Where and from what a result was measured."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler, build_type = "unknown", "unknown"
    try:
        cache = (BUILD / "CMakeCache.txt").read_text()
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        build_type = m.group(1) if m else build_type
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
        if m:
            out = subprocess.run([m.group(1), "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
            compiler = out[0] if out else m.group(1)
    except OSError:
        pass
    commit = "not a git checkout"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except OSError:
        pass
    # Content hash of the simulator sources: identifies the code measured
    # even where the checkout carries no git metadata.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
        "build_type": build_type, "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16], "python": platform.python_version(),
    }


def percentile(values, p):
    """Nearest-rank percentile, the rule the campaign binary uses."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[min(len(xs) - 1, int(p / 100.0 * (len(xs) - 1) + 0.5))]


def quartile(values):
    """Lower quartile of campaign drive times.

    Contention on a shared host only ever slows a campaign, and it comes and
    goes between consecutive campaigns: timings are bimodal, and the median
    of a run flips between the modes with the mix of quiet and busy moments.
    On a shared 4-vCPU Xeon host the run-to-run spread of the median was
    about 0.24 of its value in 12 s windows, against about 0.10 for the
    lower quartile, which tracks the uncontended speed of the code.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def gate(workload, records, trace):
    """Checks over a whole run; returns a list of failures (empty = pass)."""
    failures = []
    for r in records:
        for line in r["gate_failures"]:
            failures.append(f"{r['pass']} campaign: {line}")
    first = records[0]
    for r in records[1:]:
        # The outcome digest folds every job's status and lifecycle times.
        for key in ("kernel_digest", "outcome_digest", "fairness_jain"):
            if r[key] != first[key]:
                failures.append(f"{r['pass']} campaign differs from the first "
                                f"same-seed campaign in {key}")
    if trace:
        prof = next(r for r in records if r["pass"] == "profile")
        lines = sum(v for k, v in prof["layers"].items()
                    if k.endswith(".handler_s") or k.startswith("timers."))
        residual = prof["layers"]["sim.kernel_residual_s"]
        if residual < 0:
            failures.append(f"ledger lines exceed the drive wall by {-residual:.6f} s")
        if abs(lines + residual - prof["drive_s"]) > 1e-6 * max(1.0, prof["drive_s"]):
            failures.append("ledger lines and residual do not sum to the drive wall")
        tr = next(r for r in records if r["pass"] == "trace")
        share = tr["layers"]["cp.attributed_share"]
        if workload in GRID_WORKLOADS and share < 0.95:
            failures.append(f"critical path attributes {share:.4f} < 0.95 of "
                            "time-to-ACTIVE")
    return failures


def host_scale(plain):
    """Reference-host seconds per host second over this run."""
    return REFERENCE_S / statistics.median(r["reference_s"] for r in plain)


def jobs_per_host_s(plain):
    return plain[0]["completed"] / quartile(r["drive_s"] for r in plain)


def end_to_end(plain):
    first = plain[0]
    tta = first["tta_sim_s"]
    scale = host_scale(plain)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in plain) * scale, "s"),
        "jobs_per_s": (jobs_per_host_s(plain) / scale, "jobs/ref_s"),
        "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in plain),
                         "MiB"),
        "tta_p50_s": (percentile(tta, 50), "sim_s"),
        "tta_p99_s": (percentile(tta, 99), "sim_s"),
        "makespan_sim_s": (first["makespan_sim_s"], "sim_s"),
        "fairness_jain": (first["fairness_jain"], "ratio"),
    }


def per_layer(plain, records):
    prof = next(r for r in records if r["pass"] == "profile")
    tr = next(r for r in records if r["pass"] == "trace")
    untraced = statistics.median(r["drive_s"] for r in plain)
    counts = dict(prof["counters"])
    counts.update({k: v for k, v in tr["counters"].items() if k.startswith("cp.")})
    out = {}
    for name, unit in COUNTERS:
        out[name] = (counts.get(name, 0.0), unit)
    for fam in FAMILIES:
        out[f"{fam}.handler_s"] = (prof["layers"].get(f"{fam}.handler_s", 0.0), "s")
        out[f"{fam}.msgs"] = (counts.get(f"{fam}.msgs", 0.0), "count")
    for role in ROLES:
        out[f"timers.{role}_s"] = (prof["layers"].get(f"timers.{role}_s", 0.0), "s")
    out["sim.kernel_residual_s"] = (prof["layers"]["sim.kernel_residual_s"], "s")
    out["sim.ledger_drive_s"] = (prof["drive_s"], "s")
    out["sim.events_per_s"] = (
        plain[0]["counters"]["sim.events"] / quartile(r["drive_s"] for r in plain)
        / host_scale(plain), "events/ref_s")
    out["sim.reference_kernel_s"] = (
        statistics.median(r["reference_s"] for r in plain), "s")
    out["condor.pool_negotiator.delta_cycle_ms_p50"] = (
        prof["layers"].get("condor.pool_negotiator.delta_cycle_ms_p50", 0.0), "ms")
    out["condor.pool_negotiator.sweep_s"] = (
        prof["layers"].get("condor.pool_negotiator.sweep_s", 0.0), "s")
    for phase in PHASES:
        out[f"cp.{phase}_p99_s"] = (tr["layers"].get(f"cp.{phase}_p99_s", 0.0),
                                    "sim_s")
    out["cp.attributed_share"] = (tr["layers"]["cp.attributed_share"], "ratio")
    out["sim.profiler.overhead_ratio"] = (prof["drive_s"] / untraced, "ratio")
    out["sim.tracer.overhead_ratio"] = (tr["drive_s"] / untraced, "ratio")
    return out


def run(args):
    if args.workload not in JOBS:
        log(f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(JOBS)}")
        return 1
    if not build():
        log("perfbench: build failed")
        return 1
    jobs = JOBS[args.workload]
    plain = []
    start = time.monotonic()
    while len(plain) < MAX_CAMPAIGNS and (
            len(plain) < MIN_CAMPAIGNS or time.monotonic() - start < args.seconds):
        plain.append(campaign(args.workload, args.seed, jobs))
    records = plain + [campaign(args.workload, args.seed, jobs, "detsan")]
    if args.trace:
        records += [campaign(args.workload, args.seed, jobs, "profile"),
                    campaign(args.workload, args.seed, jobs, "trace")]

    failures = gate(args.workload, records, args.trace)
    metrics = per_layer(plain, records) if args.trace else end_to_end(plain)
    attempted = sum(r["submitted"] for r in records)
    failed = sum(r["submitted"] - r["completed"] for r in records)

    first = plain[0]
    print("# fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print("# run " + json.dumps({
        "workload": args.workload, "seed": args.seed, "jobs": jobs,
        "campaigns": {p: sum(r["pass"] == p for r in records)
                      for p in ("plain", "detsan", "profile", "trace")},
        "kernel_digest": first["kernel_digest"],
        "outcome_digest": first["outcome_digest"],
        "tta_samples": len(first["tta_sim_s"]),
        "failed_frac": f"{failed}/{attempted} = {failed / attempted:g}",
        "drive_s": [round(r["drive_s"], 6) for r in plain],
        "host_setup_s": statistics.median(r["setup_s"] for r in plain),
        "host_jobs_per_s": jobs_per_host_s(plain),
        "reference_s": statistics.median(r["reference_s"] for r in plain),
    }, sort_keys=True))
    for line in failures:
        print("# GATE FAILED: " + line.replace("\n", " | "))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def self_test():
    """Reduced-size smoke of every workload, plus two planted defects."""
    if not build():
        log("perfbench: build failed")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    smoke = {"grid_burst": 160, "grid_faults": 96, "portal_storm": 200,
             "glidein_pool": 120}
    for workload, jobs in smoke.items():
        records = [campaign(workload, 7, jobs) for _ in range(2)]
        records += [campaign(workload, 7, jobs, p)
                    for p in ("detsan", "profile", "trace")]
        plain = records[:2]
        failures = gate(workload, records, True)
        # The smoke runs too few jobs for a meaningful critical path share.
        failures = [f for f in failures if "critical path attributes" not in f]
        problems += [f"{workload}: {f}" for f in failures]
        for trace, metrics in ((0, end_to_end(plain)),
                               (1, per_layer(plain, records))):
            got = {k: u for k, (_, u) in metrics.items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metric names/units "
                                f"differ from BENCHMARK.json: "
                                f"missing {sorted(set(want[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(want[trace]))}")
        for defect in ("lost", "duplicate"):
            caught = gate(workload, [campaign(workload, 7, jobs, defect=defect)],
                          False)
            if caught:
                log(f"self-test {workload}: planted {defect} job caught: "
                    + caught[0].splitlines()[0])
            else:
                problems.append(f"{workload}: gate missed a planted {defect} job")
        log(f"self-test {workload}: {len(records) + 2} campaigns")
    for line in problems:
        log("SELF-TEST FAILED: " + line)
    if not problems:
        log("self-test passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
