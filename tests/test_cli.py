import io
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
from itertools import product

import pytest

from zkmech import cli
from zkmech.codec import (
    TAG_COIN_MASK,
    TAG_COMMIT,
    TAG_OUTCOME,
    TAG_SEED,
    TAG_TYPE_REPORT,
    Message,
    encode_uint,
    transcript_dumps,
    transcript_loads,
)
from zkmech.errors import CodecError
from zkmech.group import RFC3526_MODP_2048, derive_generators, load_params_file, params_from_modulus
from zkmech.protocols import (
    BuyerSession,
    MechanismSpec,
    SellerSession,
    max_frame_bytes,
    max_messages,
    run_local,
    verify_transcript,
)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestDemoVerify:
    def test_pipeline_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run.transcript"
        rc = cli.run(
            [
                "demo", "--example", "ex1", "--price", "5", "--H", "8",
                "--value", "3", "--toy", "--seed", "aa", "--out", str(out),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "trade=false" in captured.err
        rc = cli.run(["verify", str(out), "--toy"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "verified" in captured.err
        assert "trade=false" in captured.out

    def test_transcript_to_stdout(self, capsys):
        rc = cli.run(
            ["demo", "--example", "ex1", "--price", "1", "--H", "4", "--value", "2", "--toy", "--seed", "bb"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("zkmech/1 ex1 H=4")
        assert "trade=true" in captured.err

    def test_flipped_hex_digit_fails_verification(self, tmp_path, capsys):
        out = tmp_path / "run.transcript"
        cli.run(
            [
                "demo", "--example", "ex3", "--s1", "2", "--s2", "5", "--H", "8",
                "--value", "7", "--toy", "--seed", "cc", "--out", str(out),
            ]
        )
        capsys.readouterr()
        text = out.read_text()
        lines = text.splitlines()
        line = lines[3]
        pos = len(line) // 2
        flipped = "0" if line[pos] != "0" else "1"
        lines[3] = line[:pos] + flipped + line[pos + 1 :]
        bad = tmp_path / "bad.transcript"
        bad.write_text("\n".join(lines) + "\n")
        rc = cli.run(["verify", str(bad), "--toy"])
        assert rc == 1
        assert "verification failed" in capsys.readouterr().err

    def test_all_examples_round_trip(self, tmp_path, capsys):
        cases = [
            ["--example", "ex1multi", "--price", "3", "--values", "7,3,5"],
            ["--example", "ex2", "--s1", "3", "--s2", "6", "--values", "5,5"],
            ["--example", "ex4", "--price", "2", "--value", "3"],
        ]
        for i, extra in enumerate(cases):
            out = tmp_path / f"t{i}.transcript"
            rc = cli.run(
                ["demo", *extra, "--H", "8", "--toy", "--seed", "dd", "--out", str(out)]
            )
            assert rc == 0
            assert cli.run(["verify", str(out), "--toy"]) == 0
        capsys.readouterr()


class TestGenParams:
    def test_write_and_reuse_parameter_file(self, tmp_path, capsys):
        group = tmp_path / "group.params"
        rc = cli.run(
            ["gen-params", "--bits", "16", "--crs-seed", "deadbeef", "--out", str(group)]
        )
        assert rc == 0
        params, seed = load_params_file(str(group))
        assert params.bit_length == 16 and seed == bytes.fromhex("deadbeef")
        out = tmp_path / "run.transcript"
        rc = cli.run(
            [
                "demo", "--example", "ex1", "--price", "5", "--H", "8", "--value", "3",
                "--group", str(group), "--seed", "ee", "--out", str(out),
            ]
        )
        assert rc == 0
        assert cli.run(["verify", str(out), "--group", str(group)]) == 0
        capsys.readouterr()

    def test_stdout_form(self, capsys):
        rc = cli.run(["gen-params", "--bits", "12", "--start-seed", "07", "--crs-seed", "aa"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("q=") and "seed=aa" in out


class TestAnalyze:
    def test_ic_lemma(self, capsys):
        assert cli.run(["analyze", "ic-lemma", "--H", "4"]) == 0
        assert "lemma_holds=true" in capsys.readouterr().out

    def test_noise_report(self, capsys):
        rc = cli.run(
            ["analyze", "noise", "--eps", "0.1", "--samples", "1000", "--window", "20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha=0.9" in out and "epsilon=0.1" in out and "interior_bins=" in out

    @pytest.mark.parametrize("window", ["10000", "65536"])
    def test_a_window_past_the_pmf_underflow(self, capsys, window):
        assert cli.run(["analyze", "noise", "--window", window, "--samples", "10"]) == 0
        fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()[1:])
        for name in ("interior_bins", "gap_bins", "boundary_bins", "empirical_max_abs_z"):
            assert math.isfinite(float(fields[name])), name

    def test_groves(self, capsys):
        rc = cli.run(["analyze", "groves", "--n", "3", "--trials", "20"])
        assert rc == 0
        assert "exact_recovery=true" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "groves", "--n", "0"],
            ["analyze", "groves", "--outcomes", "0"],
            ["analyze", "groves", "--trials", "-3"],
            ["analyze", "ic-lemma", "--H", "0"],
            ["analyze", "ic-lemma", "--H", "-4"],
            ["analyze", "noise", "--samples", "-1"],
            ["analyze", "noise", "--window", str(1 << 40)],
            ["gen-params", "--start-seed", "01", "--bits", "100000"],
        ],
    )
    def test_a_bad_flag_is_a_usage_error(self, argv):
        # a subprocess with a timeout, so that a call that hangs fails
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "zkmech.cli", *argv],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.returncode == 2, done.stdout
        assert argv[-2] in done.stderr and "Traceback" not in done.stderr


class TestUsageErrors:
    def test_missing_flags_exit_two(self, capsys, monkeypatch):
        def no_socket(*args, **kwargs):
            raise AssertionError("usage errors must be reported before any socket opens")

        monkeypatch.setattr(cli.socket, "socket", no_socket)
        assert cli.run(["demo", "--example", "ex1", "--toy"]) == 2
        assert cli.run(["nonsense"]) == 2
        assert cli.run(["demo", "--example", "ex9"]) == 2
        assert cli.run(["seller", "--example", "ex2", "--listen", ":0", "--toy"]) == 2
        assert cli.run(["buyer", "--example", "ex2", "--connect", "127.0.0.1:9", "--toy"]) == 2
        assert cli.run(["buyer", "--example", "ex1", "--value", "9", "--connect", ":9", "--toy"]) == 2
        # ports outside 0..65535
        assert cli.run(["seller", "--example", "ex1", "--price", "3", "--listen", ":70000", "--toy"]) == 2
        assert "port 70000 outside 0..65535" in capsys.readouterr().err
        assert cli.run(["buyer", "--example", "ex1", "--value", "3", "--connect", "127.0.0.1:65536", "--toy"]) == 2
        assert "port 65536 outside 0..65535" in capsys.readouterr().err
        # flags that set nothing: a replay has no private randomness, and
        # the noise report takes epsilon alone
        assert cli.run(["verify", "x.transcript", "--toy", "--seed", "aa"]) == 2
        assert cli.run(["analyze", "noise", "--alpha", "0.9"]) == 2
        capsys.readouterr()

    def test_multi_buyer_not_networked(self, capsys):
        rc = cli.run(
            ["seller", "--example", "ex1multi", "--price", "1", "--listen", ":0", "--toy"]
        )
        assert rc == 2
        capsys.readouterr()


def _run_seller_in_thread(args):
    result = {}

    def target():
        result["rc"] = cli.run(args)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, result


def _run_buyer_with_retry(args, tries=80):
    for _ in range(tries):
        rc = cli.run(args)
        if rc != 2:
            return rc
        time.sleep(0.05)
    return 2


# kind -> (seller flags, buyer flags) of one networked session per
# single-buyer kind; ex4's buyer sends its mask mid-session.
NETWORKED = {
    "ex1": (["--price", "5"], ["--value", "6"]),
    "ex2": (["--s1", "3", "--s2", "6"], ["--values", "5,5"]),
    "ex3": (["--s1", "2", "--s2", "5"], ["--value", "7"]),
    "ex4": (["--price", "2"], ["--value", "5"]),
}


class TestNetworked:
    def test_tcp_transcript_identical_to_demo(self, tmp_path, capsys):
        for kind, (prices, values) in NETWORKED.items():
            common = ["--example", kind, "--H", "8", "--toy", "--seed", "ab12"]
            demo_out = tmp_path / f"{kind}-demo.transcript"
            assert cli.run(["demo", *common, *prices, *values, "--out", str(demo_out)]) == 0
            address = f"127.0.0.1:{_free_port()}"
            seller_out = tmp_path / f"{kind}-seller.transcript"
            buyer_out = tmp_path / f"{kind}-buyer.transcript"
            thread, result = _run_seller_in_thread(
                ["seller", *common, *prices, "--listen", address, "--out", str(seller_out)]
            )
            rc = _run_buyer_with_retry(
                ["buyer", *common, *values, "--connect", address, "--out", str(buyer_out)]
            )
            thread.join(timeout=20)
            assert not thread.is_alive(), kind
            assert rc == 0 and result["rc"] == 0, kind
            demo_text = demo_out.read_text()
            assert demo_text == seller_out.read_text() == buyer_out.read_text(), kind
        capsys.readouterr()

    def test_interactive_buyer_prompts_after_commitment(self, tmp_path, capsys, monkeypatch):
        port = _free_port()
        thread, result = _run_seller_in_thread(
            [
                "seller", "--example", "ex1", "--price", "5", "--H", "8",
                "--listen", f"127.0.0.1:{port}", "--toy", "--seed", "77",
            ]
        )
        monkeypatch.setattr("builtins.input", lambda prompt="": "3")
        rc = _run_buyer_with_retry(
            [
                "buyer", "--example", "ex1", "--H", "8", "--interactive",
                "--connect", f"127.0.0.1:{port}", "--toy", "--seed", "77",
            ]
        )
        thread.join(timeout=20)
        assert rc == 0 and result["rc"] == 0
        out = capsys.readouterr().out
        assert "trade=false" in out

    def test_interactive_buyer_with_stdin_closed_is_a_usage_error(self, capsys, monkeypatch):
        port = _free_port()
        thread, result = _run_seller_in_thread(
            [
                "seller", "--example", "ex1", "--price", "5", "--H", "8",
                "--listen", f"127.0.0.1:{port}", "--toy", "--seed", "77",
            ]
        )
        prompts = []

        def closed_stdin(prompt=""):
            prompts.append(prompt)
            raise EOFError

        monkeypatch.setattr("builtins.input", closed_stdin)
        argv = [
            "buyer", "--example", "ex1", "--H", "8", "--interactive",
            "--connect", f"127.0.0.1:{port}", "--toy", "--seed", "77",
        ]
        # A usage error exits 2, as a refused connection does, so the buyer
        # is retried only until it gets as far as the prompt.
        for _ in range(80):
            rc = cli.run(argv)
            if prompts:
                break
            time.sleep(0.05)
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert prompts == ["value: "]
        assert rc == 2 and result["rc"] == 1
        err = capsys.readouterr().err
        assert "error: stdin closed" in err and "Traceback" not in err

    def test_interactive_ex2_buyer_answers_two_values(self, tmp_path, capsys, monkeypatch):
        prices, _ = NETWORKED["ex2"]
        common = ["--example", "ex2", "--H", "8", "--toy", "--seed", "5eed"]
        demo_out = tmp_path / "demo.transcript"
        assert cli.run(["demo", *common, *prices, "--values", "5,5", "--out", str(demo_out)]) == 0
        address = f"127.0.0.1:{_free_port()}"
        seller_out = tmp_path / "seller.transcript"
        buyer_out = tmp_path / "buyer.transcript"
        thread, result = _run_seller_in_thread(
            ["seller", *common, *prices, "--listen", address, "--out", str(seller_out)]
        )
        prompts = []
        monkeypatch.setattr("builtins.input", lambda prompt="": prompts.append(prompt) or "5,5")
        rc = _run_buyer_with_retry(
            ["buyer", *common, "--interactive", "--connect", address, "--out", str(buyer_out)]
        )
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert rc == 0 and result["rc"] == 0
        assert prompts == ["values (v1,v2): "]
        assert demo_out.read_text() == seller_out.read_text() == buyer_out.read_text()
        assert "item=0" in capsys.readouterr().out


def criterion_one_runs():
    """(spec, values, coin, mask) for every run of acceptance criterion 1."""
    for s, v in product(range(8), repeat=2):
        yield MechanismSpec("ex1", 8, (s,)), [v], None, None
    for s, v1, v2 in product(range(4), repeat=3):
        yield MechanismSpec("ex1multi", 4, (s,), n_buyers=2), [v1, v2], None, None
    for s1, s2, v1, v2 in product(range(8), repeat=4):
        yield MechanismSpec("ex2", 8, (s1, s2)), [v1, v2], None, None
    for s1, s2, v in product(range(8), repeat=3):
        if s1 <= s2:
            yield MechanismSpec("ex3", 8, (s1, s2)), [v], (v ^ s1) & 1, (v ^ s2) & 1
    for s, v, x, y in product(range(4), repeat=4):
        yield MechanismSpec("ex4", 4, (s,)), [v], x, y


def largest_frames(ref, runs) -> dict:
    largest: dict = {}
    for spec, values, coin, mask in runs:
        _, tr = run_local(
            ref, spec, values, random.Random(1), random.Random(2), coin_value=coin, mask_value=mask
        )
        key = (spec.kind, spec.bound)
        largest[key] = max([largest.get(key, 0)] + [len(m.payload) for m in tr.messages])
    return largest


TOY_REF = derive_generators(params_from_modulus(23), cli.DEFAULT_CRS_SEED)


def test_the_records_agree():
    """The seller's log, the buyer's log fed one message at a time, as the
    networked buyer feeds it, and `run_local`'s transcript are one record."""
    for spec, values, coin, mask in criterion_one_runs():
        seller = SellerSession(TOY_REF, spec, random.Random(1), coin_value=coin)
        buyer = BuyerSession(
            TOY_REF, spec.kind, spec.bound, values, random.Random(2), mask_value=mask
        )
        queue = seller.receive_reports(buyer.receive_commit(seller.begin()))
        while queue:
            msg = queue.pop(0)
            if msg.tag == TAG_OUTCOME:
                buyer.receive_final([msg])
            elif (answer := buyer.receive_evidence([msg])) is not None:
                queue += seller.receive_mask(answer)
        _, tr = run_local(
            TOY_REF, spec, values, random.Random(1), random.Random(2), coin_value=coin, mask_value=mask
        )
        assert seller.log.messages == buyer.log.messages == tr.messages, (spec, values)


def _recv_bytes(sock, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("the peer closed mid-frame")
        data += chunk
    return data


def _recv_frame(sock) -> Message:
    header = _recv_bytes(sock, 5)
    return Message(header[0], _recv_bytes(sock, int.from_bytes(header[1:], "big")))


def _fake_peer(script):
    """A listening socket whose first connection `script` serves on a thread."""
    srv = socket.socket()
    srv.settimeout(20)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    result = {}

    def serve():
        conn, _ = srv.accept()
        conn.settimeout(20)
        with conn, srv:
            try:
                script(conn, result)
            except OSError as exc:  # the buyer hung up, as it should
                result["closed"] = type(exc).__name__

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return srv.getsockname()[1], thread, result


def _honest_start(conn):
    """Play an honest ex1 seller up to its evidence; returns that evidence."""
    seller = SellerSession(TOY_REF, MechanismSpec("ex1", 8, (5,)), random.Random(1))
    conn.sendall(b"".join(m.frame() for m in seller.begin()))
    return seller.receive_reports([_recv_frame(conn)])


def huge_header(conn, result):
    conn.sendall(bytes([TAG_COMMIT]) + (2**32 - 1).to_bytes(4, "big"))
    result["tail"] = conn.recv(1)  # b"" once the buyer hangs up


def endless_evidence(conn, result):
    first = _honest_start(conn)[0]
    result["sent"] = 0
    while result["sent"] < 100_000:
        conn.sendall(first.frame())
        result["sent"] += 1


def closes_mid_frame(conn, result):
    conn.sendall(bytes([TAG_COMMIT]) + (100).to_bytes(4, "big") + bytes(10))


def closes_after_commit(conn, result):
    seller = SellerSession(TOY_REF, MechanismSpec("ex1", 8, (5,)), random.Random(1))
    conn.sendall(seller.begin()[0].frame())
    conn.shutdown(socket.SHUT_WR)  # a clean close, between two frames
    while conn.recv(1 << 16):  # the buyer's report, until it hangs up
        pass


DEADLINE_S = 0.5  # PEER_TIMEOUT_S in the tests of the per-message deadline


def _drip(sock, data: bytes) -> None:
    """Send `data` a byte at a time, each byte well inside the deadline,
    until the peer hangs up."""
    try:
        for byte in data:
            sock.sendall(bytes([byte]))
            time.sleep(DEADLINE_S / 5)
    except OSError:
        pass


def dripping_commit(conn, result):
    seller = SellerSession(TOY_REF, MechanismSpec("ex1", 8, (5,)), random.Random(1))
    _drip(conn, seller.begin()[0].frame())


class TestMisbehavingPeers:
    BUYER = ["buyer", "--example", "ex1", "--H", "8", "--value", "3", "--toy", "--seed", "05"]

    def run_buyer(self, script, capsys):
        port, thread, result = _fake_peer(script)
        start = time.monotonic()
        rc = cli.run(self.BUYER + ["--connect", f"127.0.0.1:{port}"])
        result["elapsed"] = time.monotonic() - start
        thread.join(timeout=20)
        assert not thread.is_alive()
        err = capsys.readouterr().err
        assert err.startswith("verification failed: ") and "Traceback" not in err
        return rc, err, result

    def test_four_gib_length_header_is_refused_unread(self, capsys):
        rc, err, result = self.run_buyer(huge_header, capsys)
        assert rc == 1 and "exceeds the" in err and result["tail"] == b""

    def test_endless_non_final_frames(self, capsys):
        rc, err, result = self.run_buyer(endless_evidence, capsys)
        # The repeated proof is read once, where the outcome is due, and fails.
        assert rc == 1 and "[outcome]" in err
        assert result["sent"] < 100_000 and "closed" in result

    def test_peer_closes_mid_frame(self, capsys):
        rc, err, _ = self.run_buyer(closes_mid_frame, capsys)
        assert rc == 1 and "closed mid-frame" in err

    def test_peer_closes_after_the_commitment(self, capsys):
        rc, err, _ = self.run_buyer(closes_after_commit, capsys)
        assert rc == 1 and "closed before the next frame" in err

    def test_a_dripping_seller_fails_within_the_deadline(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PEER_TIMEOUT_S", DEADLINE_S)
        rc, err, result = self.run_buyer(dripping_commit, capsys)
        assert rc == 1 and result["elapsed"] < 2 * DEADLINE_S, (rc, err, result)

    def test_a_dripping_buyer_fails_within_the_deadline(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PEER_TIMEOUT_S", DEADLINE_S)
        thread, result, sock = self.connect_to_seller()
        with sock:
            commit = _recv_frame(sock)
            buyer = BuyerSession(TOY_REF, "ex1", 8, [3], random.Random(2))
            report = buyer.receive_commit([commit])[0].frame()
            dripper = threading.Thread(target=_drip, args=(sock, report), daemon=True)
            start = time.monotonic()
            dripper.start()
            thread.join(timeout=20)
            elapsed = time.monotonic() - start
            dripper.join(timeout=20)
        err = capsys.readouterr().err
        assert "\nverification failed: " in err and "Traceback" not in err
        assert result["rc"] == 1 and elapsed < 2 * DEADLINE_S, (result, err, elapsed)

    def test_an_honest_seller_writing_in_pieces(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "PEER_TIMEOUT_S", DEADLINE_S)
        prices, values = NETWORKED["ex4"]
        common = ["--example", "ex4", "--H", "8", "--toy", "--seed", "ab12"]
        demo_out = tmp_path / "demo.transcript"
        assert cli.run(["demo", *common, *prices, *values, "--out", str(demo_out)]) == 0
        seller = SellerSession(TOY_REF, MechanismSpec("ex4", 8, (2,)), cli._role_rng("ab12", "seller"))

        def send(conn, msgs):  # 8 bytes at a time: each frame well inside the deadline
            for frame in (m.frame() for m in msgs):
                for i in range(0, len(frame), 8):
                    conn.sendall(frame[i : i + 8])
                    time.sleep(0.002)

        def script(conn, result):
            send(conn, seller.begin())
            send(conn, seller.receive_reports([_recv_frame(conn)]))
            send(conn, seller.receive_mask(_recv_frame(conn)))

        port, thread, result = _fake_peer(script)
        buyer_out = tmp_path / "buyer.transcript"
        argv = ["buyer", *common, *values, "--connect", f"127.0.0.1:{port}", "--out", str(buyer_out)]
        rc = cli.run(argv)
        thread.join(timeout=20)
        assert rc == 0 and "closed" not in result, capsys.readouterr().err
        assert buyer_out.read_text() == demo_out.read_text()
        capsys.readouterr()

    @pytest.mark.parametrize("kind", sorted(NETWORKED))
    @pytest.mark.parametrize("delivery", ["byte by byte", "coalesced"])
    def test_an_honest_seller_splitting_or_coalescing_frames(
        self, kind, delivery, tmp_path, capsys, monkeypatch
    ):
        """A scripted honest seller that sends every frame one byte per
        `sendall`, or one that sends in one `sendall`, before any report,
        every frame of its run across batches: the commitment, a
        certificate where the kind has one, all evidence precomputed from
        the buyer's known answers, and the outcome.  Either way the buyer
        exits 0 with `demo`'s transcript and outcome; every wait is bounded."""
        monkeypatch.setattr(cli, "PEER_TIMEOUT_S", 5.0)
        prices, values = NETWORKED[kind]
        common = ["--example", kind, "--H", "8", "--toy", "--seed", "ab12"]
        demo_out = tmp_path / "demo.transcript"
        assert cli.run(["demo", *common, *prices, *values, "--out", str(demo_out)]) == 0
        demo = transcript_loads(demo_out.read_text())
        expected = io.StringIO()
        cli._print_outcome(verify_transcript(TOY_REF, demo), expected)
        spec = cli._spec_from_args(cli.build_parser().parse_args(["demo", *common, *prices]))
        seller = SellerSession(TOY_REF, spec, cli._role_rng("ab12", "seller"))

        def byte_by_byte(conn, result):
            def send(msgs):
                for byte in b"".join(m.frame() for m in msgs):
                    conn.sendall(bytes([byte]))

            send(seller.begin())
            send(seller.receive_reports([_recv_frame(conn)]))
            if seller.awaiting_mask:
                send(seller.receive_mask(_recv_frame(conn)))

        def coalesced(conn, result):
            buyers = (TAG_TYPE_REPORT, TAG_COIN_MASK)
            conn.sendall(b"".join(m.frame() for m in demo.messages if m.tag not in buyers))
            while conn.recv(1 << 16):  # the buyer's report and mask, until it hangs up
                pass

        script = byte_by_byte if delivery == "byte by byte" else coalesced
        port, thread, result = _fake_peer(script)
        buyer_out = tmp_path / "buyer.transcript"
        argv = ["buyer", *common, *values, "--connect", f"127.0.0.1:{port}", "--out", str(buyer_out)]
        rc = cli.run(argv)
        thread.join(timeout=20)
        captured = capsys.readouterr()
        assert not thread.is_alive() and "closed" not in result
        assert rc == 0, captured.err
        assert buyer_out.read_text() == demo_out.read_text()
        assert captured.out == expected.getvalue()

    def test_a_stray_frame_after_the_outcome_is_never_read(self, tmp_path, capsys, monkeypatch):
        prices, values = NETWORKED["ex4"]
        common = ["--example", "ex4", "--H", "8", "--toy", "--seed", "ab12"]
        demo_out = tmp_path / "demo.transcript"
        assert cli.run(["demo", *common, *prices, *values, "--out", str(demo_out)]) == 0
        seller = SellerSession(TOY_REF, MechanismSpec("ex4", 8, (2,)), cli._role_rng("ab12", "seller"))
        sent, received = [], []
        real_recv = cli._recv_message

        def recv(sock, cap):
            received.append(real_recv(sock, cap))
            return received[-1]

        def send(conn, msgs):  # one batch, one write
            sent.extend(msgs)
            conn.sendall(b"".join(m.frame() for m in msgs))

        def script(conn, result):
            send(conn, seller.begin())
            send(conn, seller.receive_reports([_recv_frame(conn)]))
            send(conn, seller.receive_mask(_recv_frame(conn)))
            conn.sendall(sent[-1].frame())  # the outcome again, after the outcome

        monkeypatch.setattr(cli, "_recv_message", recv)
        port, thread, result = _fake_peer(script)
        buyer_out = tmp_path / "buyer.transcript"
        argv = ["buyer", *common, *values, "--connect", f"127.0.0.1:{port}", "--out", str(buyer_out)]
        rc = cli.run(argv)
        thread.join(timeout=20)
        assert rc == 0, capsys.readouterr().err
        assert received == sent and received[-1].tag == TAG_OUTCOME
        assert buyer_out.read_text() == demo_out.read_text()
        capsys.readouterr()

    @staticmethod
    def connect_to_seller():
        """An honest ex1 seller on a thread, and a connection to it."""
        port = _free_port()
        thread, result = _run_seller_in_thread(
            ["seller", "--example", "ex1", "--price", "5", "--listen", f"127.0.0.1:{port}", "--toy"]
        )
        for _ in range(200):
            try:
                return thread, result, socket.create_connection(("127.0.0.1", port), timeout=20)
            except OSError:
                time.sleep(0.05)
        raise AssertionError("the seller did not listen")

    def test_seller_refuses_an_oversized_report(self, capsys):
        thread, result, sock = self.connect_to_seller()
        with sock:
            _recv_frame(sock)
            sock.sendall(bytes([TAG_COMMIT]) + (2**32 - 1).to_bytes(4, "big"))
            thread.join(timeout=20)
        assert result["rc"] == 1
        err = capsys.readouterr().err
        assert "exceeds the" in err and "Traceback" not in err

    def test_honest_frames_fit_the_cap(self, ref384):
        for (kind, bound), size in largest_frames(TOY_REF, criterion_one_runs()).items():
            assert size <= max_frame_bytes(kind, bound, TOY_REF.params), (kind, bound, size)
        wide = [
            (MechanismSpec("ex3", 16, (2, 3)), [9], 1, 0),
            (MechanismSpec("ex3", 16, (2, 9)), [9], 1, 0),
            (MechanismSpec("ex4", 16, (9,)), [12], 5, 11),
            (MechanismSpec("ex2", 16, (5, 9)), [2, 3], None, None),
            (MechanismSpec("ex1", 16, (13,)), [2], None, None),
        ]
        for (kind, bound), size in largest_frames(ref384, wide).items():
            assert size <= max_frame_bytes(kind, bound, ref384.params), (kind, bound, size)


# The caps as computed when they were pinned: kind -> group bits ->
# max_frame_bytes at H = 2, 4, 16 and 2^16, and max_messages.  The kinds
# without a coin or a certificate send a bound proof at the longest.
PLAIN_CAPS = {
    5: (65, 144, 353, 3883),
    384: (253, 661, 1951, 22963),
    2048: (1085, 2949, 9023, 111155),
}
PINNED_FRAME_CAPS = {
    "ex1": PLAIN_CAPS,
    "ex1multi": PLAIN_CAPS,
    "ex2": PLAIN_CAPS,
    "ex3": {
        5: (195, 433, 909, 5930),
        384: (1182, 3206, 7254, 37970),
        2048: (5550, 15478, 35334, 186066),
    },
    "ex4": {
        5: (264, 690, 1542, 8942),
        384: (1862, 5766, 13574, 60422),
        2048: (8934, 28230, 66822, 298374),
    },
}
PINNED_MESSAGE_CAPS = {"ex1": 4, "ex1multi": 65539, "ex2": 5, "ex3": 9, "ex4": 7}


@pytest.mark.parametrize("kind", sorted(PINNED_FRAME_CAPS))
def test_the_caps_are_pinned(kind, q23, q384):
    # the memory bounds on hostile peers and files: neither may move
    groups = {5: q23, 384: q384, 2048: params_from_modulus(RFC3526_MODP_2048)}
    for q_bits, caps in PINNED_FRAME_CAPS[kind].items():
        params = groups[q_bits]
        assert params.bit_length == q_bits
        got = tuple(max_frame_bytes(kind, bound, params) for bound in (2, 4, 16, 1 << 16))
        assert got == caps, (kind, q_bits)
    assert max_messages(kind) == PINNED_MESSAGE_CAPS[kind]


class TestCappedVerify:
    """`zkmech verify` reads a capped line at a time: an oversized file
    fails after a bounded read, with exit code 1 and no traceback."""

    def verify(self, path, capsys):
        t0 = time.monotonic()
        rc = cli.run(["verify", str(path), "--toy"])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err, elapsed

    def honest(self, tmp_path, capsys):
        out = tmp_path / "run.transcript"
        demo = [
            "demo", "--example", "ex3", "--s1", "2", "--s2", "5", "--H", "8",
            "--value", "7", "--toy", "--seed", "cc", "--out", str(out),
        ]
        assert cli.run(demo) == 0
        capsys.readouterr()
        return out.read_bytes()

    def test_sparse_multi_gigabyte_files(self, tmp_path, capsys):
        lines = self.honest(tmp_path, capsys).splitlines(keepends=True)
        for name, head in (("empty-header", b""), ("long-line", b"".join(lines[:2]))):
            path = tmp_path / name
            with open(path, "wb") as fh:
                fh.write(head)
                fh.truncate(3 << 30)  # a sparse 3 GiB of zero bytes
            rc, err, elapsed = self.verify(path, capsys)
            assert rc == 1 and "verification failed" in err and "longer than" in err, name
            assert elapsed < 10, name

    def test_one_surplus_line(self, tmp_path, capsys):
        lines = self.honest(tmp_path, capsys).splitlines(keepends=True)
        assert len(lines) == 2 + max_messages("ex3")  # the lottery is ex3's longest case
        path = tmp_path / "surplus.transcript"
        path.write_bytes(b"".join(lines) + lines[-1])
        rc, err, _ = self.verify(path, capsys)
        assert rc == 1 and f"more than {len(lines)} lines" in err
        path.write_bytes(b"".join(lines))
        assert self.verify(path, capsys)[0] == 0

    def test_reading_stops_at_the_first_bad_message(self, tmp_path, capsys):
        """The lines go to the verifier one at a time, so the line after a
        bad report, which would not decode, is never read."""
        lines = self.honest(tmp_path, capsys).splitlines(keepends=True)
        assert lines[4].startswith(b"03")  # the report
        report = Message(TAG_TYPE_REPORT, (7).to_bytes(2, "big") + bytes([1]) + encode_uint(3))
        path = tmp_path / "stops.transcript"
        path.write_bytes(b"".join(lines[:4]) + report.frame().hex().encode() + b"\n" + b"\xff" * 100)
        rc, err, _ = self.verify(path, capsys)
        assert rc == 1 and "report index 7, expected 0" in err

    def test_header_names_a_known_kind_and_bound(self, tmp_path, capsys):
        lines = self.honest(tmp_path, capsys).splitlines(keepends=True)
        for header in (b"zkmech/1 ex9 H=8\n", b"zkmech/1 ex3 H=131072\n", b"zkmech/1 ex3 H=6\n"):
            path = tmp_path / "header.transcript"
            path.write_bytes(header + b"".join(lines[1:]))
            rc, err, _ = self.verify(path, capsys)
            assert rc == 1 and "verification failed" in err, header
        path.write_bytes(b"".join(lines[:3]) + "é".encode() + b"".join(lines[3:]))
        rc, err, _ = self.verify(path, capsys)
        assert rc == 1 and "non-ASCII" in err

    def test_longest_runs_meet_the_line_cap(self, ref384):
        runs = [
            (MechanismSpec("ex1", 8, (5,)), [6], None, None),
            (MechanismSpec("ex1", 8, (5,)), [3], None, None),
            (MechanismSpec("ex1multi", 8, (5,), n_buyers=3), [7, 3, 1], None, None),
            (MechanismSpec("ex2", 8, (7, 7)), [0, 0], None, None),
            (MechanismSpec("ex2", 8, (3, 6)), [5, 5], None, None),
            (MechanismSpec("ex3", 8, (5, 6)), [3], None, None),
            (MechanismSpec("ex3", 8, (2, 5)), [7], 1, 0),
            (MechanismSpec("ex3", 8, (1, 2)), [7], None, None),
            (MechanismSpec("ex4", 4, (3,)), [1], None, None),
            (MechanismSpec("ex4", 4, (2,)), [3], 1, 2),
        ]
        longest: dict = {}
        for spec, values, coin, mask in runs:
            _, tr = run_local(
                TOY_REF, spec, values, random.Random(1), random.Random(2), coin_value=coin, mask_value=mask
            )
            surplus_reports = len(values) - (1 << 16) if spec.kind == "ex1multi" else 0
            count = len(tr.messages) - surplus_reports
            longest[spec.kind] = max(longest.get(spec.kind, 0), count)
        assert longest == {kind: max_messages(kind) for kind in longest}
        assert len(longest) == 5


class TestCanonicalText:
    """`zkmech verify` accepts H only in canonical ASCII decimal and a frame
    line only as the lowercase hex `zkmech demo` writes: any other spelling
    of an honest run exits 1, naming the line."""

    def honest(self, tmp_path, capsys) -> list[str]:
        out = tmp_path / "run.transcript"
        demo = [
            "demo", "--example", "ex1", "--price", "5", "--H", "8",
            "--value", "3", "--toy", "--seed", "aa", "--out", str(out),
        ]
        assert cli.run(demo) == 0
        capsys.readouterr()
        return out.read_text().splitlines(keepends=True)

    def verify(self, tmp_path, capsys, lines) -> tuple[int, str]:
        path = tmp_path / "spelled.transcript"
        path.write_bytes("".join(lines).encode())
        rc = cli.run(["verify", str(path), "--toy"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return rc, err

    def test_the_bound(self, tmp_path, capsys):
        header, *frames = self.honest(tmp_path, capsys)
        assert header == "zkmech/1 ex1 H=8\n"
        assert self.verify(tmp_path, capsys, [header, *frames])[0] == 0
        for field in ("08", "+8", "0_8", "00008", "\u0668"):
            rc, err = self.verify(tmp_path, capsys, [f"zkmech/1 ex1 H={field}\n", *frames])
            assert rc == 1 and "(line 1)" in err, field

    def test_the_frame_lines(self, tmp_path, capsys):
        lines = self.honest(tmp_path, capsys)
        assert lines[2].startswith("01")  # the commitment
        body = lines[2].rstrip("\n")
        assert body != body.upper()
        for spelled in (body.upper(), body[:2] + " " + body[2:], body[:-1] + body[-1].upper() + " 00"):
            rc, err = self.verify(tmp_path, capsys, [*lines[:2], spelled + "\n", *lines[3:]])
            assert rc == 1 and "(line 3)" in err, spelled
        crlf = [line.replace("\n", "\r\n") for line in lines]
        assert self.verify(tmp_path, capsys, crlf)[0] == 0


class TestOneFrameReader:
    """`transcript_loads` and `zkmech verify` read the frames after the
    header with one codec function: on every file they give the same kind,
    bound, seed and messages, or the same error at the same line."""

    RUNS = [
        (MechanismSpec("ex1", 8, (5,)), [3], None, None),
        (MechanismSpec("ex1multi", 8, (5,), n_buyers=3), [7, 3, 1], None, None),
        (MechanismSpec("ex2", 8, (3, 6)), [5, 5], None, None),
        (MechanismSpec("ex3", 8, (2, 5)), [7], 1, 0),
        (MechanismSpec("ex4", 4, (2,)), [3], 1, 2),
    ]

    @staticmethod
    def both(text: str) -> list:
        """What each reader makes of `text`: (kind, bound, seed, messages),
        or the CodecError's message and line."""
        def cli_read():
            fh = io.BytesIO(text.encode())
            kind, bound, seed, messages = cli._read_transcript(fh, TOY_REF.params)
            return kind, bound, seed, list(messages)

        def loads():
            t = transcript_loads(text)
            return t.kind, t.bound, t.seed, t.messages

        out = []
        for read in (loads, cli_read):
            try:
                out.append(read())
            except CodecError as exc:
                out.append((str(exc), exc.line))
        return out

    def honest_texts(self):
        for seed, (spec, values, coin, mask) in enumerate(self.RUNS):
            rngs = random.Random(seed), random.Random(seed + 100)
            _, tr = run_local(TOY_REF, spec, values, *rngs, coin_value=coin, mask_value=mask)
            yield tr, transcript_dumps(tr)

    def test_honest_transcripts(self):
        for tr, text in self.honest_texts():
            loaded, read = self.both(text)
            assert loaded == read == (tr.kind, tr.bound, tr.seed, tr.messages)

    def test_the_same_errors(self):
        _, text = next(self.honest_texts())
        header, seed, *frames = text.splitlines(keepends=True)
        cases = {
            "blank lines before the seed": [header, "\n", " \n", seed, *frames],
            "blank lines before a non-seed frame": [header, "\n", "\n", *frames],
            "a non-seed first frame": [header, *frames],
            "no frames": [header],
            "only blank lines": [header, "\n", "\n"],
            "an empty seed": [header, Message(TAG_SEED, b"").frame().hex() + "\n", *frames],
        }
        for name, lines in cases.items():
            loaded, read = self.both("".join(lines))
            assert loaded == read, name
        assert self.both("".join(cases["blank lines before the seed"]))[0][2] == TOY_REF.seed
        assert self.both("".join(cases["blank lines before a non-seed frame"]))[0] == (
            "the first frame must carry the seed (line 4)",
            4,
        )
        assert self.both("".join(cases["a non-seed first frame"]))[0][1] == 2
        assert self.both("".join(cases["no frames"]))[0][1] == 2
        assert self.both("".join(cases["an empty seed"]))[0] == ("the seed is empty (line 2)", 2)

    def test_blank_lines_do_not_count_against_the_frame_cap(self, tmp_path, capsys):
        """A full run of each kind with blank lines before the seed and
        between its frames verifies as `transcript_loads` reads it."""
        for tr, text in self.honest_texts():
            header, *frames = text.splitlines(keepends=True)
            path = tmp_path / "blanks.transcript"
            path.write_text(header + "\n \n" + "\n".join(frames))
            expected = io.StringIO()
            cli._print_outcome(verify_transcript(TOY_REF, transcript_loads(path.read_text())), expected)
            capsys.readouterr()
            assert cli.run(["verify", str(path), "--toy"]) == 0, tr.kind
            assert capsys.readouterr().out == expected.getvalue()

    def test_a_file_of_blank_lines_stops_at_the_cap(self):
        _, text = next(self.honest_texts())
        header, seed, *_ = text.splitlines(keepends=True)
        most = 2 + max_messages("ex1")  # the cap on frame lines, and on blank lines
        fh = io.BytesIO((header + seed + "\n" * (most + 1)).encode())
        _, _, _, messages = cli._read_transcript(fh, TOY_REF.params)
        with pytest.raises(CodecError, match=f"more than {most} blank lines") as exc:
            list(messages)
        assert exc.value.line == 3 + most
