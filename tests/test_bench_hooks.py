"""The benchmark's tracer wraps package functions by name
(`perfbench/tracer.py`).  This runs it, as a traced benchmark run does, over
one seeded session per toy-q23 case, one wide-h65536 session and one
gates-h16 mpc trade, so that a renamed or removed hook fails here rather
than in the benchmark.  The seller raises only g and h, so the mpc trade is
the session whose buyer (z_i = C_i^rho_i) and seller (k_s^r_s) make the
variable-base powers that `group.pow_var` counts."""

import importlib
from pathlib import Path

import pytest

from zkmech import group, sigma

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("sessions"), importlib.import_module("tracer")


def sessions_to_trace(sessions):
    toy = sessions.WORKLOADS["toy-q23"]
    for index, label in enumerate(toy.cases):
        yield toy, index, label
    yield sessions.WORKLOADS["wide-h65536"], 0, "ex1/none"
    gates = sessions.WORKLOADS["gates-h16"]
    yield gates, gates.cases.index("mpc/trade"), "mpc/trade"


def hooks():
    """The attributes the tracer wraps by name."""
    return group.GroupParams.is_member, group.GroupParams.pow_unchecked, sigma.CdsStatement.__post_init__


def test_traced_sessions_match_untraced(bench):
    sessions, tracer_mod = bench
    originals = hooks()
    tracer = tracer_mod.Tracer()
    for workload, index, label in sessions_to_trace(sessions):
        ref = sessions.load_ref(workload.modulus)
        plain = sessions.run_session(workload, ref, SEED, index, label)
        tracer.current, tracer.fixed = index, frozenset((ref.g, ref.h))
        tracer.install()
        try:
            traced = sessions.run_session(workload, ref, SEED, index, label)
        finally:
            tracer.uninstall()
        assert plain.failures == traced.failures == []
        assert traced.fingerprint == plain.fingerprint, label
    assert hooks() == originals
    spans = set(tracer.names)
    wanted = ("group.member", "group.pow_fixed", "group.pow_var", "sigma.statement", "protocols.replay")
    assert spans.issuperset(wanted), spans
    # A gadget wrapper is named when it is wrapped, so read the spans
    # recorded: every traced prover and verifier is still called.
    recorded = {tracer.names[i] for i in tracer.name}
    gadgets = {f"gadgets.{family}.{side}" for family in tracer_mod.GADGETS for side in ("prove", "verify")}
    assert gadgets <= recorded, gadgets - recorded
