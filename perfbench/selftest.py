#!/usr/bin/env python3
"""Checks on the benchmark itself; prints one line per check, exits 1 on any failure.

    python3 perfbench/selftest.py

- the oracle gives the hand-worked outcomes below;
- an accepted mutant counts as an honest transcript only when an honest run
  sends it and its verdict is the oracle's (`sessions.honest_reading`);
- with a fixed seed, a traced session produces byte-identical transcripts
  and identical verdicts to the untraced one, on every case of every workload;
- two traced runs of the same sessions give identical per-layer counts
  (calls, cells, hashed bytes, frame bytes);
- the metric names the runner prints are exactly those in BENCHMARK.json.
"""

from __future__ import annotations

import json
import sys

import run  # puts the zkmech sources on the path
import sessions
from sessions import WORKLOADS, Inputs
from tracer import Tracer
from zkmech.protocols import Outcome

SEED = 20240517

KNOWN = [
    (Inputs("ex1", 8, (5,), (3,)), Outcome(trade=False, payment=0)),
    (Inputs("ex1", 8, (5,), (5,)), Outcome(trade=True, item=0, payment=5)),
    (Inputs("ex1multi", 8, (5,), (3, 7, 7)), Outcome(trade=True, item=1, payment=7)),
    (Inputs("ex1multi", 8, (5,), (6, 2)), Outcome(trade=True, item=0, payment=5)),
    (Inputs("ex1multi", 8, (7,), (6, 2, 6)), Outcome(trade=False, payment=0)),
    (Inputs("ex2", 8, (2, 3), (5, 7)), Outcome(trade=True, item=1, payment=3)),
    (Inputs("ex2", 8, (2, 3), (6, 7)), Outcome(trade=True, item=0, payment=2)),
    (Inputs("ex2", 8, (6, 7), (5, 6)), Outcome(trade=False, payment=0)),
    (Inputs("ex3", 8, (4, 6), (7,)), Outcome(trade=False, payment=0)),
    (Inputs("ex3", 8, (2, 5), (7,), coin=1, mask=0), Outcome(trade=True, item=0, payment=2, lottery=(0, 1))),
    (Inputs("ex3", 8, (2, 5), (7,), coin=1, mask=1), Outcome(trade=False, payment=2, lottery=(1, 0))),
    (Inputs("ex3", 8, (1, 3), (7,)), Outcome(trade=True, item=0, payment=4)),
    (Inputs("ex4", 8, (5,), (4,)), Outcome(trade=False, payment=0)),
    (Inputs("ex4", 8, (5,), (6,), coin=6, mask=4), Outcome(trade=True, item=0, payment=8, lottery=(1, 0, 0, 1))),
    (Inputs("ex4", 8, (5,), (6,), coin=6, mask=3), Outcome(trade=True, item=0, payment=0, lottery=(0, 1, 1, 0))),
    (Inputs("ex4", 8, (5,), (6,), coin=6, mask=1), Outcome(trade=True, item=0, payment=0, lottery=(0, 0, 1, 0))),
    (Inputs("mpc", 8, (3,), (2,)), Outcome(trade=False, payment=0)),
    (Inputs("mpc", 8, (3,), (3,)), Outcome(trade=True, item=0, payment=3)),
]


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def counts(tracer: Tracer, results) -> dict:
    totals = tracer.layer_totals(lambda sid: "all" if sid >= 0 else None)["all"]
    out = {name: (calls, attr) for name, (calls, _, attr) in totals.items()}
    out["frame_bytes"] = [sorted(r.frame_bytes.items()) for r in results]
    return out


def flip_last_byte(text: str, frame: int, mask: int) -> str:
    lines = text.splitlines()
    blob = bytearray.fromhex(lines[1 + frame])
    blob[-1] ^= mask
    lines[1 + frame] = blob.hex()
    return "\n".join(lines) + "\n"


def check_honest_readings(failures: list[str]) -> None:
    """An ex1 trade at price 3 on report 5 (frames: seed, commit, report,
    reveal, outcome), judged by `honest_reading` as if the verifier had
    accepted each mutant with the verdict given."""
    ref = sessions.load_ref(sessions.TOY_Q23)
    inp = Inputs("ex1", 8, (3,), (5,))
    rngs = sessions.role_rngs(SEED, 0)
    states = {role: rngs[role].getstate() for role in ("seller", "buyer")}
    text = sessions.play(ref, inp, rngs, 0, mutants=0).fingerprint[0]
    trade = Outcome(trade=True, item=0, payment=3)
    raised = flip_last_byte(text, 2, 0b010)  # report 5 -> 7: still a trade at 3
    lowered = flip_last_byte(text, 2, 0b100)  # report 5 -> 1: below the price
    opening = flip_last_byte(text, 3, 0b001)  # the last revealed bit's randomness
    cases = [
        ("report raised", raised, trade, "report"),
        ("report raised, wrong payment", raised, Outcome(trade=True, item=0, payment=7), None),
        ("report lowered", lowered, trade, None),
        ("opening changed", opening, trade, None),
    ]
    for what, bad, verdict, want in cases:
        got = sessions.honest_reading(ref, inp, states, bad, verdict)
        check(got == want, f"honest_reading of an accepted ex1 mutant, {what} -> {want}", failures)

    # ex2 at prices (0, 1) on reports (0, 5) sells item 1 with no proof.  A
    # mutant reporting (0, 1) ties the two gains, and ties go to item 0, so
    # selling item 1 on it is a false accept (the verifier accepts it).
    inp = Inputs("ex2", 8, (0, 1), (0, 5))
    rngs = sessions.role_rngs(SEED, 1)
    states = {role: rngs[role].getstate() for role in ("seller", "buyer")}
    tie = flip_last_byte(sessions.play(ref, inp, rngs, 0, mutants=0).fingerprint[0], 2, 0b100)
    got = sessions.honest_reading(ref, inp, states, tie, Outcome(trade=True, item=1, payment=1))
    check(got is None, "honest_reading of an ex2 mutant selling item 1 on a tie -> None", failures)


def main() -> int:
    failures: list[str] = []
    for inp, want in KNOWN:
        got = sessions.expected_outcome(inp)
        check(got == want, f"oracle {inp.kind} {inp.prices} {inp.values} -> {want}", failures)

    check_honest_readings(failures)

    for workload in WORKLOADS.values():
        # A traced run of one round plays each session untraced, then traced.
        first, second = Tracer(), Tracer()
        runs = [run.run_rounds(workload, SEED, 0, tracer) for tracer in (first, second)]
        changed = [f for r in runs[0].results + runs[1].results for f in r.failures if run.TRACE_CHANGED in f]
        check(not changed, f"{workload.name}: traced and untraced transcripts and verdicts identical", failures)
        same = counts(first, runs[0].results) == counts(second, runs[1].results)
        check(same, f"{workload.name}: per-layer counts repeat exactly", failures)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    toy = WORKLOADS["toy-q23"]
    untraced = run.run_rounds(toy, SEED, 0, None)
    e2e, _ = run.end_to_end(toy, untraced)
    check(list(e2e) == [m["name"] for m in spec["end_to_end"]], "end-to-end metric names match BENCHMARK.json", failures)
    tracer = Tracer()
    traced_run = run.run_rounds(toy, SEED, 0, tracer)
    totals = tracer.layer_totals(lambda sid: traced_run.results[sid].label if sid >= 0 else None)
    layer = run.per_layer(tracer, traced_run, totals)
    check(list(layer) == [m["name"] for m in spec["per_layer"]], "per-layer metric names match BENCHMARK.json", failures)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    check(all(units.get(k) == u for k, (_, u) in {**e2e, **layer}.items()), "metric units match BENCHMARK.json", failures)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
