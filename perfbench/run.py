#!/usr/bin/env python3
"""zkmech benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload gates-h16 --seed 1 --seconds 35 --trace 0

Runs whole rounds of seeded sessions (see sessions.py) until `--seconds`
have passed, checks every verdict against the oracle, and prints the
end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced run
(`--trace 1`).  The last line of standard output is the JSON result; the
lines before it are a readable summary, and `.perfbench/` at the repository
root receives the per-kind table and, for traced runs, every span.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

if not (SRC / "zkmech" / "__init__.py").is_file():
    sys.exit(f"perfbench: no zkmech sources at {SRC}")
sys.path.insert(0, str(SRC))

from zkmech import codec  # noqa: E402

import sessions  # noqa: E402
from sessions import WORKLOADS, clock  # noqa: E402
from tracer import BUYER_STEPS, GADGETS, MPC_STEPS, SELLER_STEPS, Tracer  # noqa: E402

TAG_NAMES = {
    getattr(codec, name): name[4:].lower()
    for name in dir(codec)
    if name.startswith("TAG_") and name != "TAG_SEED"
}

# Set-up is sampled every SETUP_EVERY_S during an untraced run, not in one
# burst, so that its median spans the machine's slow and fast spells.
SETUP_EVERY_S = 2.0
SETUP_MIN_SAMPLES = 7
SETUP_CODE = (
    "import sys, zkmech\n"
    "zkmech.derive_generators(zkmech.params_from_modulus(int(sys.argv[1])), bytes.fromhex(sys.argv[2]))\n"
)


def setup_seconds(modulus: int) -> float:
    """Wall time for a fresh interpreter to import zkmech, load the group
    and derive the generators."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_CODE, str(modulus), sessions.CRS_SEED.hex()]
    t = clock()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return clock() - t


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


CALIBRATE_EVERY_S = 0.1
TRACE_CHANGED = "traced run changed the transcript or a verdict"
MAX_SPANS = 1_000_000  # a traced run stops at the round that passes this, to bound memory
SPEED_SAMPLES = 9  # kernel samples around a session that set its speed factor


@dataclass
class Run:
    results: list = field(default_factory=list)
    elapsed: float = 0.0  # wall time of the run, calibration and set-up included
    speed: float = 1.0  # median of the sessions' speed factors
    setup: list = field(default_factory=list)  # setup_seconds samples
    setup_at: list = field(default_factory=list)  # when each was taken
    rss_mb: float = 0.0  # peak resident memory after min_rounds rounds
    walls: list = field(default_factory=lambda: [0.0, 0.0])  # untraced, traced session time


def run_rounds(workload, seed: int, seconds: float, tracer: Tracer | None) -> Run:
    """Whole rounds until `seconds` pass (and at least `min_rounds` when
    untraced), sampling the calibration kernel between sessions.  A traced
    run repeats each session under the tracer, insists on identical
    transcripts and verdicts, and may stop early at MAX_SPANS."""
    ref = sessions.load_ref(workload.modulus)
    run = Run()
    kernel: list[tuple[float, float]] = []
    kernel_at: list[float] = []
    started: list[float] = []
    min_rounds = 1 if tracer else workload.min_rounds
    rounds = 0
    last_cal = last_setup = float("-inf")
    t0 = clock()

    def more() -> bool:
        if rounds < min_rounds:
            return True
        if tracer and len(tracer.start) >= MAX_SPANS:
            return False
        return clock() - t0 < seconds

    while more():
        if not tracer and clock() - last_setup >= SETUP_EVERY_S:
            run.setup.append(setup_seconds(workload.modulus))
            last_setup = clock()
            run.setup_at.append(last_setup)
        for label in workload.cases:
            if clock() - last_cal >= CALIBRATE_EVERY_S:
                kernel.append(sessions.kernel_seconds())
                last_cal = clock()
                kernel_at.append(last_cal)
            index = len(run.results)
            t = clock()
            res = sessions.run_session(workload, ref, seed, index, label)
            res.wall = clock() - t
            started.append(t)
            run.walls[0] += res.wall
            if tracer:
                tracer.current, tracer.fixed = index, frozenset((ref.g, ref.h))
                tracer.install()
                t = clock()
                try:
                    traced = sessions.run_session(workload, ref, seed, index, label)
                finally:
                    run.walls[1] += clock() - t
                    tracer.uninstall()
                    tracer.current = -1
                res.attempted += traced.attempted
                res.failures += traced.failures
                if traced.fingerprint != res.fingerprint:
                    res.failures.append(f"{res.label} session {index}: {TRACE_CHANGED}")
            res.fingerprint = ()
            run.results.append(res)
        rounds += 1
        if rounds == min_rounds:
            run.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.elapsed = clock() - t0
    while not tracer and len(run.setup) < SETUP_MIN_SAMPLES:
        run.setup.append(setup_seconds(workload.modulus))
        run.setup_at.append(clock())

    def around(t: float) -> list[tuple[float, float]]:
        i = bisect.bisect(kernel_at, t)
        lo = max(0, i - SPEED_SAMPLES // 2)
        return kernel[lo : lo + SPEED_SAMPLES]

    factors = []
    for res, t in zip(run.results, started):
        factors.append(sessions.speed_factor(workload, around(t)))
        res.scale(factors[-1])
    run.speed = statistics.median(factors)
    run.setup = [x * sessions.setup_factor(around(t)) for x, t in zip(run.setup, run.setup_at)]
    return run


def kind_table(results, totals=None) -> dict:
    """Per kind and case: medians of prove+buyer and replay time, mean wire
    bytes, and with a trace the per-session operation counts."""
    by_label: dict[str, list] = {}
    for r in results:
        by_label.setdefault(r.label, []).append(r)
    table = {}
    for label, rs in sorted(by_label.items()):
        verify = [r.verify_s for r in rs if r.verify_s is not None]
        row = {
            "sessions": len(rs),
            "prove_plus_buyer_s": statistics.median(r.prove_s + r.buyer_s for r in rs),
            "replay_s": statistics.median(verify) if verify else None,
            "wire_bytes": statistics.mean(r.wire_bytes for r in rs),
        }
        if totals is not None:
            spans = totals.get(label, {})
            for name in ("group.member", "group.pow_fixed", "group.pow_var", "group.pow_small"):
                row[f"{name}.calls"] = spans.get(name, (0,))[0] / len(rs)
            row["sigma.fs_bytes"] = spans.get("sigma.sha256", (0, 0, 0))[2] / len(rs)
        table[label] = row
    return table


def stratified_reject(results) -> float:
    """Mean reject time with every case, and every frame within a case,
    weighted equally: the expected cost of rejecting a uniform mutant.

    Reject times range from a failure at the first frame to one after a
    full replay, so a plain median flips between those groups, and a plain
    mean moves with how often a run happened to hit the costly frames."""
    strata: dict[tuple, list[float]] = {}
    for r in results:
        for frame, seconds in r.rejects:
            strata.setdefault((r.label, frame), []).append(seconds)
    by_case: dict[str, list[float]] = {}
    for (label, _), times in strata.items():
        by_case.setdefault(label, []).append(statistics.mean(times))
    return statistics.mean(statistics.mean(v) for v in by_case.values())


def end_to_end(workload, run: Run) -> tuple[dict, dict]:
    results = run.results
    sess = [r.session_s for r in results if r.session_s]
    verify = [r.verify_s for r in results if r.verify_s is not None]
    s_tail, s_beyond = percentile(sess, workload.tail_pct)
    v_tail, v_beyond = percentile(verify, workload.tail_pct)
    metrics = {
        "session_s_p50": (statistics.median(sess), "s"),
        "session_s_tail": (s_tail, "s"),
        "prove_s": (statistics.median(r.prove_s for r in results if r.session_s), "s"),
        "buyer_s": (statistics.median(r.buyer_s for r in results if r.session_s), "s"),
        "verify_s_p50": (statistics.median(verify), "s"),
        "verify_s_tail": (v_tail, "s"),
        "reject_s": (stratified_reject(results), "s"),
        "sessions_per_s": (len(results) / sum(r.wall for r in results), "1/s"),
        "wire_bytes": (statistics.mean(r.wire_bytes for r in results), "bytes"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }
    detail = {
        "tail_percentile": workload.tail_pct,
        "session_samples": len(sess),
        "session_samples_beyond_tail": s_beyond,
        "verify_samples": len(verify),
        "verify_samples_beyond_tail": v_beyond,
        "reject_samples": sum(len(r.rejects) for r in results),
    }
    return metrics, detail


def per_layer(tracer: Tracer, run: Run, totals: dict) -> dict:
    """Per-session means of every layer's counts and self times."""
    results = run.results
    n = len(results)
    merged: dict[str, list] = {}
    for spans in totals.values():
        for name, (calls, own, attr) in spans.items():
            row = merged.setdefault(name, [0, 0.0, 0])
            row[0] += calls
            row[1] += own
            row[2] += attr

    def calls(name):
        return merged.get(name, (0,))[0] / n

    def self_s(*names):
        return sum(merged.get(x, (0, 0.0))[1] for x in names) * run.speed / n

    def attr(name):
        return merged.get(name, (0, 0, 0))[2] / n

    m = {}
    for c in ("member", "pow_fixed", "pow_var", "pow_small"):
        m[f"group.{c}.calls"] = (calls(f"group.{c}"), "count")
        m[f"group.{c}.s"] = (self_s(f"group.{c}"), "s")
    m["group.derive.s"] = (self_s("group.derive"), "s")
    for c in ("statement", "prove", "verify"):
        m[f"sigma.{c}.calls"] = (calls(f"sigma.{c}"), "count")
        m[f"sigma.{c}.cells"] = (attr(f"sigma.{c}"), "count")
        m[f"sigma.{c}.s"] = (self_s(f"sigma.{c}"), "s")
    m["sigma.cds_verify.s"] = (self_s("sigma.cds_verify"), "s")
    m["sigma.fs.s"] = (self_s("sigma.fs", "sigma.sha256"), "s")
    m["sigma.fs_bytes"] = (attr("sigma.sha256"), "bytes")
    for family in GADGETS:
        m[f"gadgets.{family}.prove_s"] = (self_s(f"gadgets.{family}.prove"), "s")
        m[f"gadgets.{family}.verify_s"] = (self_s(f"gadgets.{family}.verify"), "s")
    m["commitments.commit_int.s"] = (self_s("commitments.commit_int"), "s")
    m["commitments.reveal_int.s"] = (self_s("commitments.reveal_int"), "s")
    for step in SELLER_STEPS:
        m[f"protocols.seller.{step}_s"] = (self_s(f"protocols.seller.{step}"), "s")
    for step in BUYER_STEPS:
        m[f"protocols.buyer.{step}_s"] = (self_s(f"protocols.buyer.{step}"), "s")
    m["protocols.replay_s"] = (self_s("protocols.replay"), "s")
    repeats, total = tracer.reverified(set(range(n)))
    m["protocols.buyer.reverified_share"] = (repeats / total if total else 0.0, "ratio")
    m["codec.loads.s"] = (self_s("codec.loads"), "s")
    m["codec.dumps.s"] = (self_s("codec.dumps"), "s")
    for tag, name in sorted(TAG_NAMES.items()):
        m[f"codec.frame_bytes.{name}"] = (sum(r.frame_bytes.get(tag, 0) for r in results) / n, "bytes")
    for step in MPC_STEPS:
        m[f"mpc.{step}_s"] = (self_s(f"mpc.{step}"), "s")
    m["trace.overhead"] = (run.walls[1] / run.walls[0] - 1, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    run = run_rounds(workload, args.seed, args.seconds, tracer)
    results = run.results
    failures = [f for r in results for f in r.failures]
    attempted = sum(r.attempted for r in results)
    failed = sum(min(len(r.failures), r.attempted) for r in results)
    honest_mutants: dict[str, int] = {}
    for r in results:
        for reading, n in r.honest_mutants.items():
            honest_mutants[reading] = honest_mutants.get(reading, 0) + n

    OUT.mkdir(exist_ok=True)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "elapsed_s": run.elapsed,
        "speed": run.speed,
        "failures": failures,
        "honest_mutants": honest_mutants,
    }
    if tracer:
        totals = tracer.layer_totals(lambda sid: results[sid].label if sid >= 0 else None)
        metrics = per_layer(tracer, run, totals)
        detail["kinds"] = kind_table(results, totals)
        detail["spans"] = len(tracer.start)
        tracer.write(OUT / f"{workload.name}-spans.tsv.gz")
    else:
        metrics, extra = end_to_end(workload, run)
        detail.update(extra)
        detail["kinds"] = kind_table(results)
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for label, row in detail["kinds"].items():
        cells = "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items())
        print(f"# {label:18s} {cells}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if not args.trace:
        print(
            f"# tail = p{workload.tail_pct}: {detail['session_samples']} sessions "
            f"({detail['session_samples_beyond_tail']} beyond), {detail['verify_samples']} verifies "
            f"({detail['verify_samples_beyond_tail']} beyond)"
        )
    print(f"# failed_share = {failed}/{attempted}")
    readings = ", ".join(f"{k} {v}" for k, v in sorted(honest_mutants.items())) or "none"
    print(f"# mutants accepted as honest transcripts: {readings}")
    for f in failures[:20]:
        print(f"# FAILED: {f}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
