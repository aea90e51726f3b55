#!/usr/bin/env python3
"""The per-kind baseline in the RFC 3526 2048-bit group, traced.

    python3 perfbench/baseline.py        # about three minutes on a 2-core box

One fixed session per row of the ROADMAP baseline table (the ex1 row is
the criterion-13 run), each checked against the oracle and replayed from
its text by a third party.  Prints, per kind: seller plus buyer time,
third-party replay time, wire bytes, and the modexp, membership and
hashed-byte counts of the whole session; writes the same to
.perfbench/baseline-2048.json.  Times here are plain wall seconds: the runs
are one session each, too few for the calibrated speed of run.py.
"""

from __future__ import annotations

import json
import sys

import run  # puts the zkmech sources on the path
import sessions
from sessions import Inputs
from tracer import Tracer
from zkmech.group import RFC3526_MODP_2048

ROWS = [
    ("ex1, H=2^16, no trade", Inputs("ex1", 1 << 16, (54321,), (12345,))),
    ("ex2, H=16, no trade", Inputs("ex2", 16, (9, 12), (5, 7))),
    ("ex3, H=16, lottery", Inputs("ex3", 16, (3, 10), (8,), coin=1, mask=0)),
    ("ex4, H=16", Inputs("ex4", 16, (9,), (12,), coin=5, mask=10)),
    ("mpc, H=8", Inputs("mpc", 8, (3,), (5,))),
]
COUNTED = ("group.member", "group.pow_fixed", "group.pow_var", "group.pow_small")


def main() -> int:
    ref = sessions.load_ref(RFC3526_MODP_2048)
    tracer = Tracer()
    table = {}
    failures = []
    for index, (name, inp) in enumerate(ROWS):
        tracer.current, tracer.fixed = index, frozenset((ref.g, ref.h))
        tracer.install()
        try:
            res = sessions.play(ref, inp, sessions.role_rngs("baseline", index), turn=0, mutants=0)
        finally:
            tracer.uninstall()
        failures += res.failures
        table[name] = {
            "prove_plus_buyer_s": res.prove_s + res.buyer_s,
            "replay_s": res.verify_s,
            "wire_bytes": res.wire_bytes,
        }
        print(f"# {name}: done", file=sys.stderr, flush=True)
    totals = tracer.layer_totals(lambda sid: ROWS[sid][0] if sid >= 0 else None)
    for name, row in table.items():
        spans = totals.get(name, {})
        for span in COUNTED:
            row[f"{span}.calls"] = spans.get(span, (0,))[0]
        row["sigma.fs_bytes"] = spans.get("sigma.sha256", (0, 0, 0))[2]

    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "baseline-2048.json").write_text(json.dumps(table, indent=1) + "\n")
    print("| run | prove + buyer | third-party replay | wire bytes | member | pow fixed | pow var | pow small |")
    print("|---|---|---|---|---|---|---|---|")
    for name, row in table.items():
        replay = f"{row['replay_s']:.1f} s" if row["replay_s"] is not None else "not replayable"
        print(
            f"| {name} | {row['prove_plus_buyer_s']:.1f} s | {replay} | {row['wire_bytes']:,} | "
            + " | ".join(str(row[f"{span}.calls"]) for span in COUNTED)
            + " |"
        )
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
