"""Command-line entry points.

Subcommands: `gen-params` (safe-prime search / parameter files), `demo`
(both roles in-process, transcript to stdout), `seller` / `buyer` (two
processes over TCP with binary framing), `verify` (replay a transcript
file), and `analyze` (incentive lemma, noise report, weight recovery).
Over TCP, a role whose peer is silent or drips exits 1 once one message
takes longer than `PEER_TIMEOUT_S` (600 s).

Exit codes: 0 success/verified, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import socket
import sys
import time
from itertools import count

from . import analysis
from .codec import (
    Message,
    TAG_OUTCOME,
    transcript_dumps,
    transcript_frames,
    transcript_header,
)
from .errors import CodecError, VerificationFailed, ZkmechError
from .group import (
    GroupParams,
    RFC3526_MODP_2048,
    derive_generators,
    gen_params,
    load_params_file,
    params_from_modulus,
    save_params_file,
)
from .protocols import (
    KINDS,
    BuyerSession,
    MechanismSpec,
    Outcome,
    SellerSession,
    max_frame_bytes,
    max_messages,
    replay,
    run_local,
)

TOY_Q = 23  # default desk-scale group
DEFAULT_CRS_SEED = bytes.fromhex(
    "8e4b1c2ff7a95d360b81e5c4a2d90377c6f1508e2ab4d96713c08f5be2a4d017"
)


def _role_rng(seed_hex: str | None, role: str) -> random.Random:
    if seed_hex is None:
        return random.SystemRandom()
    material = bytes.fromhex(seed_hex) + role.encode()
    return random.Random(int.from_bytes(hashlib.sha256(material).digest(), "big"))


def _resolve_group(args) -> tuple[GroupParams, bytes]:
    if getattr(args, "group", None):
        return load_params_file(args.group)
    if getattr(args, "toy", False):
        return params_from_modulus(TOY_Q), DEFAULT_CRS_SEED
    return params_from_modulus(RFC3526_MODP_2048), DEFAULT_CRS_SEED


MAX_BOUND = 1 << 16
# The noise report's widest window: its bin lists hold 2 * window + 1 entries.
MAX_WINDOW = 1 << 16


def _int_in(low: int, high: int | None = None):
    """A flag's type: an integer of at least `low`, and at most `high`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low or high is not None and value > high:
            limit = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {limit}, got {value}")
        return value

    return integer


def _values_from_args(args) -> list[int]:
    """The buyer's values: --values for ex2 and ex1multi, --value otherwise."""
    kind = args.example
    if KINDS[kind].per_report != 1:
        if not args.values:
            raise ZkmechError(f"{kind} needs --values v1,v2,...")
        return [int(x) for x in args.values.split(",")]
    if args.value is None:
        raise ZkmechError(f"{kind} needs --value")
    return [args.value]


def _spec_from_args(args) -> MechanismSpec:
    """The seller's mechanism; ex1multi takes its bidder count from --values."""
    kind = args.example
    if KINDS[kind].prices == 2:
        if args.s1 is None or args.s2 is None:
            raise ZkmechError(f"{kind} needs --s1 and --s2")
        return MechanismSpec(kind, args.bound, (args.s1, args.s2))
    if args.price is None:
        raise ZkmechError(f"{kind} needs --price")
    n_buyers = 1 if KINDS[kind].per_report else len(_values_from_args(args))
    return MechanismSpec(kind, args.bound, (args.price,), n_buyers=n_buyers)


# -- socket framing ---------------------------------------------------------------
#
# A peer that stalls or drips, sends an oversized frame, closes mid-frame or
# breaks the connection fails the session with VerificationFailed (exit 1).

# Seconds that one whole message may take: each frame received, each batch
# sent and the buyer's connect.  The seller waits this long for the report
# while an interactive buyer answers its prompt.
PEER_TIMEOUT_S = 600.0
FRAME_HEADER = 5  # a frame's tag byte and four length bytes


def _recv_exact(sock: socket.socket, n: int, deadline: float, closed: str) -> bytes:
    """n bytes by the deadline; `closed` says where a peer that hangs up
    before sending any of them stopped."""
    buf = bytearray()
    while len(buf) < n:
        try:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("timed out")
            sock.settimeout(left)
            chunk = sock.recv(min(n - len(buf), 1 << 16))
        except OSError as exc:  # the deadline passed, or a reset
            raise VerificationFailed("peer", f"receive failed: {exc}") from exc
        if not chunk:
            raise VerificationFailed("peer", f"connection closed {'mid-frame' if buf else closed}")
        buf += chunk
    return bytes(buf)


def _recv_message(sock: socket.socket, cap: int) -> Message:
    """One frame, read whole within `PEER_TIMEOUT_S`; a length header above
    `cap` fails before any payload is read."""
    deadline = time.monotonic() + PEER_TIMEOUT_S
    header = _recv_exact(sock, FRAME_HEADER, deadline, "before the next frame")
    length = int.from_bytes(header[1:], "big")
    if length > cap:
        raise VerificationFailed("peer", f"frame of {length} bytes exceeds the {cap}-byte cap")
    return Message(header[0], _recv_exact(sock, length, deadline, "mid-frame"))


def _send_messages(sock: socket.socket, msgs: list[Message]) -> None:
    try:
        sock.settimeout(PEER_TIMEOUT_S)  # a bound on the whole batch
        sock.sendall(b"".join(m.frame() for m in msgs))
    except OSError as exc:
        raise VerificationFailed("peer", f"send failed: {exc}") from exc


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    number = int(port)
    if not 0 <= number <= 65535:
        raise ZkmechError(f"port {number} outside 0..65535")
    return host or "127.0.0.1", number


# -- subcommands -------------------------------------------------------------------


def _cmd_gen_params(args) -> int:
    if args.bits == 2048 and not args.search:
        params = params_from_modulus(RFC3526_MODP_2048)
    else:
        start = int(args.start_seed, 16) if args.start_seed else None
        params = gen_params(args.bits, start=start)
    crs = bytes.fromhex(args.crs_seed) if args.crs_seed else random.SystemRandom().randbytes(32)
    if args.out:
        save_params_file(args.out, params, crs)
        print(f"wrote {args.out}")
    else:
        print(f"q={params.q}")
        print(f"p={params.p}")
        print(f"seed={crs.hex()}")
    return 0


def _print_outcome(outcome: Outcome, stream) -> None:
    print(f"trade={str(outcome.trade).lower()}", file=stream)
    if outcome.item is not None:
        print(f"item={outcome.item}", file=stream)
    print(f"payment={outcome.payment}", file=stream)
    if outcome.lottery is not None:
        print(f"lottery={','.join(map(str, outcome.lottery))}", file=stream)


def _cmd_demo(args) -> int:
    params, crs = _resolve_group(args)
    ref = derive_generators(params, crs)
    spec, values = _spec_from_args(args), _values_from_args(args)
    outcome, transcript = run_local(
        ref,
        spec,
        values,
        _role_rng(args.seed, "seller"),
        _role_rng(args.seed, "buyer"),
    )
    text = transcript_dumps(transcript)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _print_outcome(outcome, sys.stderr)
    return 0


def _cmd_seller(args) -> int:
    spec = _spec_from_args(args)
    params, crs = _resolve_group(args)
    ref = derive_generators(params, crs)
    seller = SellerSession(ref, spec, _role_rng(args.seed, "seller"))
    cap = max_frame_bytes(spec.kind, spec.bound, params)
    host, port = _parse_endpoint(args.listen)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((host, port))
        srv.listen(1)
        print(f"listening on {host}:{srv.getsockname()[1]}", file=sys.stderr)
        conn, peer = srv.accept()
        with conn:
            _send_messages(conn, seller.begin())
            _send_messages(conn, seller.receive_reports([_recv_message(conn, cap)]))
            if seller.awaiting_mask:
                _send_messages(conn, seller.receive_mask(_recv_message(conn, cap)))
    _save_log(args.out, seller.log, spec.kind, spec.bound)
    _print_outcome(seller.outcome, sys.stdout)
    return 0


def _cmd_buyer(args) -> int:
    kind, bound = args.example, args.bound
    params, crs = _resolve_group(args)
    ref = derive_generators(params, crs)
    rng = _role_rng(args.seed, "buyer")
    buyer = None
    if not args.interactive:
        buyer = BuyerSession(ref, kind, bound, _values_from_args(args), rng)
    cap = max_frame_bytes(kind, bound, params)
    host, port = _parse_endpoint(args.connect)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.settimeout(PEER_TIMEOUT_S)
        sock.connect((host, port))
        # The commitment, and its certificate where the kind has one.
        commit_msgs = [_recv_message(sock, cap) for _ in range(1 + KINDS[kind].certified)]
        # The value is requested only now, after the commitment is already
        # fixed on the wire.
        if buyer is None:
            try:
                raw = input("value: " if KINDS[kind].per_report == 1 else "values (v1,v2): ")
            except EOFError:
                raise ZkmechError("stdin closed before a value was given") from None
            buyer = BuyerSession(ref, kind, bound, [int(x) for x in raw.split(",")], rng)
        _send_messages(sock, buyer.receive_commit(commit_msgs))
        # Each message is checked before the next is read (its cell equations
        # and openings before the buyer's next send, or at the end), so the
        # buyer reads no more evidence than the claimed case sends, then the
        # outcome.
        while True:
            msg = _recv_message(sock, cap)
            if msg.tag == TAG_OUTCOME:
                outcome = buyer.receive_final([msg])
                break
            mask = buyer.receive_evidence([msg])
            if mask is not None:
                _send_messages(sock, [mask])
    _save_log(args.out, buyer.log, kind, bound)
    _print_outcome(outcome, sys.stdout)
    return 0


def _save_log(path: str | None, log, kind: str, bound: int) -> None:
    """Write a role's log as a transcript file, if one was asked for."""
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(transcript_dumps(log.transcript(kind, bound)))


# A transcript's first line: "zkmech/1", a kind and "H=" with at most 2^16.
HEADER_CAP = 64


def _read_transcript(fh, params: GroupParams):
    """(kind, bound, seed, messages) of the transcript file `fh`, opened in
    binary mode.  Lines are read one at a time, each capped at the kind's
    longest frame in hex.  Frame lines are capped at the header, the seed
    line and the kind's longest run, and blank lines, counted apart, at as
    many; `messages` reads them as the verifier asks, so a file stops being
    read at its first bad message."""
    header = fh.readline(HEADER_CAP + 1)
    if len(header) > HEADER_CAP:
        raise CodecError(f"header longer than {HEADER_CAP} bytes", line=1)
    kind, bound = transcript_header(_ascii(header, 1).rstrip("\r\n"))
    if kind not in KINDS:
        raise CodecError(f"unknown protocol kind {kind!r}", line=1)
    if not 2 <= bound <= MAX_BOUND:
        raise CodecError(f"H={bound} outside 2..{MAX_BOUND}", line=1)
    cap = 2 * (FRAME_HEADER + max_frame_bytes(kind, bound, params)) + 2  # hex, CR LF
    most = 2 + max_messages(kind)  # the header, the seed and the messages

    def lines():
        seen = {"lines": 1, "blank lines": 0}  # the header is a frame line
        for lineno in count(2):
            line = fh.readline(cap + 1)
            if not line:
                return
            if len(line) > cap:
                raise CodecError(f"line longer than {cap} bytes", line=lineno)
            text = _ascii(line, lineno)
            what = "lines" if text.strip() else "blank lines"
            seen[what] += 1
            if seen[what] > most:
                raise CodecError(f"more than {most} {what} for {kind}", line=lineno)
            yield lineno, text

    return kind, bound, *transcript_frames(lines())


def _ascii(line: bytes, lineno: int) -> str:
    try:
        return line.decode("ascii")
    except UnicodeDecodeError:
        raise CodecError("non-ASCII bytes", line=lineno) from None


def _cmd_verify(args) -> int:
    params, _ = _resolve_group(args)
    try:
        with open(args.transcript, "rb") as fh:
            kind, bound, seed, messages = _read_transcript(fh, params)
            outcome = replay(derive_generators(params, seed), kind, bound, messages)
    except (CodecError, VerificationFailed, ZkmechError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    print("verified", file=sys.stderr)
    _print_outcome(outcome, sys.stdout)
    return 0


def _cmd_analyze(args) -> int:
    if args.what == "ic-lemma":
        holds = analysis.ex3_ic_lemma_check(args.bound)
        print(f"H={args.bound}")
        print(f"lemma_holds={str(holds).lower()}")
        return 0 if holds else 1
    if args.what == "noise":
        report = analysis.noise_ratio_report(
            args.eps,
            args.ell,
            args.samples,
            (-args.window, args.window),
            _role_rng(args.seed, "noise") if args.seed else random.Random(0xD1CE),
        )
        sys.stdout.write(report.render())
        return 0
    if args.what == "groves":
        rng = _role_rng(args.seed, "groves") if args.seed else random.Random(0x9805)
        ok = True
        for _ in range(args.trials):
            inst = analysis.random_groves_instance(args.n, args.outcomes, rng)
            outcome = analysis.groves_outcome(inst)
            ok = ok and analysis.groves_extract_weights(inst.valuations, outcome) == inst.weights
        print(f"trials={args.trials}")
        print(f"exact_recovery={str(ok).lower()}")
        return 0 if ok else 1
    raise ZkmechError(f"unknown analysis {args.what!r}")


# -- argument parsing ----------------------------------------------------------------


def _add_group_flags(sp, seeded: bool = True) -> None:
    """--group and --toy; and --seed, which a replay, having no private
    randomness, does not take."""
    sp.add_argument("--group", help="parameter file (q=/p=/seed= lines)")
    sp.add_argument("--toy", action="store_true", help="use the q=23 desk-scale group")
    if seeded:
        sp.add_argument("--seed", help="hex seed for deterministic private randomness")


def _add_spec_flags(sp, kinds) -> None:
    sp.add_argument("--example", required=True, choices=kinds)
    bound = _int_in(2, MAX_BOUND)
    sp.add_argument("--H", dest="bound", type=bound, default=8, help="price bound (power of two)")
    sp.add_argument("--price", type=int, help="hidden price (ex1, ex1multi, ex4)")
    sp.add_argument("--s1", type=int, help="first hidden price (ex2, ex3)")
    sp.add_argument("--s2", type=int, help="second hidden price (ex2, ex3)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zkmech",
        description="Hidden-mechanism auctions with zero-knowledge verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-params", help="generate or emit group parameters")
    sp.add_argument("--bits", type=_int_in(3, 2048), required=True)
    sp.add_argument("--start-seed", help="hex start point for a deterministic search")
    sp.add_argument("--crs-seed", help="hex reference-string seed to embed")
    sp.add_argument("--search", action="store_true", help="search even at 2048 bits")
    sp.add_argument("--out", help="write a parameter file instead of stdout")
    sp.set_defaults(func=_cmd_gen_params)

    sp = sub.add_parser("demo", help="run both roles in-process")
    _add_spec_flags(sp, list(KINDS))
    sp.add_argument("--value", type=int, help="buyer value (ex1, ex3, ex4)")
    sp.add_argument("--values", help="comma-separated values/bids (ex2, ex1multi)")
    sp.add_argument("--out", help="transcript file (default: stdout)")
    _add_group_flags(sp)
    sp.set_defaults(func=_cmd_demo)

    # Networked sessions have one buyer: kinds with a report per bidder stay local.
    networked = [name for name, kind in KINDS.items() if kind.per_report]
    sp = sub.add_parser("seller", help="serve one session over TCP")
    _add_spec_flags(sp, networked)
    sp.add_argument("--listen", required=True, help="host:port (empty host = loopback)")
    sp.add_argument("--out", help="transcript file")
    _add_group_flags(sp)
    sp.set_defaults(func=_cmd_seller)

    sp = sub.add_parser("buyer", help="join one session over TCP")
    _add_spec_flags(sp, networked)
    sp.add_argument("--value", type=int, help="buyer value")
    sp.add_argument("--values", help="comma-separated values (ex2)")
    sp.add_argument("--connect", required=True, help="host:port")
    sp.add_argument("--interactive", action="store_true", help="prompt for the value")
    sp.add_argument("--out", help="transcript file")
    _add_group_flags(sp)
    sp.set_defaults(func=_cmd_buyer)

    sp = sub.add_parser("verify", help="re-verify a transcript file")
    sp.add_argument("transcript")
    _add_group_flags(sp, seeded=False)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("analyze", help="run an analysis report")
    asub = sp.add_subparsers(dest="what", required=True)
    a = asub.add_parser("ic-lemma")
    a.add_argument("--H", dest="bound", type=_int_in(1, 32), default=8)
    a = asub.add_parser("noise")
    a.add_argument("--eps", type=float, default=0.1, help="noise epsilon (alpha = 1 - eps)")
    a.add_argument("--ell", type=_int_in(1), default=1)
    a.add_argument("--window", type=_int_in(0, MAX_WINDOW), default=50)
    a.add_argument("--samples", type=_int_in(0), default=100_000)
    a.add_argument("--seed")
    a = asub.add_parser("groves")
    a.add_argument("--n", type=_int_in(2), default=3)
    a.add_argument("--outcomes", type=_int_in(1), default=4)
    a.add_argument("--trials", type=_int_in(1), default=100)
    a.add_argument("--seed")
    sp.set_defaults(func=_cmd_analyze)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ZkmechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
