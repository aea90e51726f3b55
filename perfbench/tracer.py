"""Spans around the public functions of each zkmech module, installed from outside.

`Tracer.install` swaps wrappers onto class attributes and onto every name a
zkmech module binds to a wrapped function (a `from .x import name` binding
is a separate name, so each caller's module is patched), and `uninstall`
puts the originals back; the wrappers are built once, so switching is
cheap.  Spans live in flat arrays (name, start, end, parent, session,
attribute) until the run ends; `layer_totals` then turns them into
per-layer counts and self times, where a span's self time is its duration
minus that of its child spans.
"""

from __future__ import annotations

import gzip
import sys
import types
from array import array
from collections import defaultdict

from zkmech import codec, commitments, gadgets, group, mpc, protocols, sigma

from sessions import clock

SMALL_EXP_BITS = 128

# Gadget families: (prover, verifier) per family name.
GADGETS = {
    "ge": ("prove_ge_public", "verify_ge_public"),
    "le": ("prove_le_public", "verify_le_public"),
    "le_committed": ("prove_le_committed", "verify_le_committed"),
    "sum": ("prove_sum", "verify_sum"),
    "complement": ("prove_complement", "verify_complement"),
    "lt": ("prove_lt_committed", "verify_lt_committed"),
}
SELLER_STEPS = ("begin", "receive_reports", "receive_mask")
BUYER_STEPS = ("receive_commit", "receive_evidence", "receive_final")
MPC_STEPS = ("seller_commit", "verify_indicator", "buyer_respond", "seller_finalize", "buyer_conclude")


def _cells(stmt) -> int:
    return sum(len(row) for row in stmt.rows)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.session = array("i")
        self.attr = array("q")
        self.verify_keys: dict[int, int] = {}  # span index -> hash of (statement, proof, context)
        self.stack: list[int] = []
        self.current = -1  # session id stamped on new spans
        self.fixed: frozenset[int] = frozenset()  # g and h of the reference string in use
        self._plan: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, attr=None, key=None):
        """`name` is a span name or a function of the call's arguments
        returning one; `attr` gives the span's numeric attribute and `key`
        a value kept per span in `verify_keys`."""
        tracer = self
        fixed_id = None if callable(name) else self.name_id(name)

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(fixed_id if fixed_id is not None else tracer.name_id(name(args)))
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.session.append(tracer.current)
            tracer.attr.append(attr(args) if attr else 0)
            if key:
                tracer.verify_keys[idx] = key(args)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr_name: str, value) -> None:
        self._plan.append((owner, attr_name, getattr(owner, attr_name), value))

    def _rebind(self, original, wrapper) -> None:
        """Point every zkmech module's binding of `original` at `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "zkmech" or mod_name.startswith("zkmech."):
                for attr_name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr_name, wrapper)

    def _method(self, cls, attr_name: str, span: str, **kw) -> None:
        self._set(cls, attr_name, self.wrap(getattr(cls, attr_name), span, **kw))

    def _function(self, module, attr_name: str, span: str, **kw) -> None:
        original = getattr(module, attr_name)
        self._rebind(original, self.wrap(original, span, **kw))

    def install(self) -> None:
        if not self._plan:
            self._plan_wrappers()
        for owner, attr_name, _, wrapper in self._plan:
            setattr(owner, attr_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr_name, original, _ in reversed(self._plan):
            setattr(owner, attr_name, original)

    def _plan_wrappers(self) -> None:
        gp = group.GroupParams

        def pow_class(args):
            params, base, e = args
            if base in self.fixed:
                return "group.pow_fixed"
            return "group.pow_small" if (e % params.p).bit_length() <= SMALL_EXP_BITS else "group.pow_var"

        self._method(gp, "is_member", "group.member")
        self._method(gp, "pow_unchecked", pow_class)

        derive = group.derive_generators

        def derive_and_note(params, seed):
            ref = derive(params, seed)
            self.fixed = frozenset((ref.g, ref.h))
            return ref

        self._rebind(derive, self.wrap(derive_and_note, "group.derive"))

        self._method(sigma.CdsStatement, "__post_init__", "sigma.statement", attr=lambda a: _cells(a[0]))
        self._function(sigma, "ni_prove", "sigma.prove", attr=lambda a: _cells(a[0]))
        self._function(
            sigma,
            "ni_verify",
            "sigma.verify",
            attr=lambda a: _cells(a[0]),
            key=lambda a: hash((a[0].rows, a[1], a[2])),
        )
        self._function(sigma, "cds_verify", "sigma.cds_verify")
        self._function(sigma, "fiat_shamir_challenge", "sigma.fs")
        real_hashlib = sigma.hashlib
        proxy = types.SimpleNamespace(
            sha256=self.wrap(real_hashlib.sha256, "sigma.sha256", attr=lambda a: len(a[0]))
        )
        self._set(sigma, "hashlib", proxy)

        for family, (prover, verifier) in GADGETS.items():
            self._function(gadgets, prover, f"gadgets.{family}.prove")
            self._function(gadgets, verifier, f"gadgets.{family}.verify")

        self._function(commitments, "commit_int", "commitments.commit_int")
        self._function(commitments, "reveal_int", "commitments.reveal_int")

        for step in SELLER_STEPS:
            self._method(protocols.SellerSession, step, f"protocols.seller.{step}")
        for step in BUYER_STEPS:
            self._method(protocols.BuyerSession, step, f"protocols.buyer.{step}")
        self._function(protocols, "replay", "protocols.replay")

        self._function(codec, "transcript_loads", "codec.loads")
        self._function(codec, "transcript_dumps", "codec.dumps")

        for step in MPC_STEPS:
            fn = "verify_indicator" if step == "verify_indicator" else f"mpc_{step}"
            self._function(mpc, fn, f"mpc.{step}")

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_totals(self, group_of) -> dict:
        """{group: {span name: [calls, self seconds, attribute sum]}} where
        `group_of(session id)` names the group a span's session belongs to
        (None drops the span)."""
        own = self.self_times()
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0]))
        for i in range(len(own)):
            g = group_of(self.session[i])
            if g is None:
                continue
            row = out[g][self.names[self.name[i]]]
            row[0] += 1
            row[1] += own[i]
            row[2] += self.attr[i]
        return out

    def reverified(self, sessions) -> tuple[int, int]:
        """(buyer ni_verify calls repeating one the buyer made online,
        all buyer ni_verify calls) over the given session ids."""
        online_ids = {self._ids.get(f"protocols.buyer.{s}") for s in BUYER_STEPS[:2]}
        final_id = self._ids.get("protocols.buyer.receive_final")
        seen: dict[int, set[int]] = defaultdict(set)
        repeats = total = 0
        for idx in sorted(self.verify_keys):
            sid = self.session[idx]
            if sid not in sessions:
                continue
            p = self.parent[idx]
            while p >= 0 and self.name[p] not in online_ids and self.name[p] != final_id:
                p = self.parent[p]
            if p < 0:
                continue  # a third-party verification, not the buyer's
            total += 1
            k = self.verify_keys[idx]
            if self.name[p] == final_id:
                repeats += k in seen[sid]
            else:
                seen[sid].add(k)
        return repeats, total

    def write(self, path) -> None:
        """All spans as gzipped TSV: name, start, end, parent, session, attribute."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tsession\tattr\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.session[i]}\t{self.attr[i]}\n"
                )
