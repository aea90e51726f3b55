import socket
import threading
import time

from zkmech import cli
from zkmech.group import load_params_file


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
            ["analyze", "noise", "--alpha", "0.9", "--eps", "0.1", "--samples", "1000", "--window", "20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "epsilon=0.1" in out and "max_interior_log_ratio_dev=" in out

    def test_inconsistent_noise_flags(self, capsys):
        rc = cli.run(["analyze", "noise", "--alpha", "0.5", "--eps", "0.1"])
        assert rc == 2
        capsys.readouterr()

    def test_groves(self, capsys):
        rc = cli.run(["analyze", "groves", "--n", "3", "--trials", "20"])
        assert rc == 0
        assert "exact_recovery=true" in capsys.readouterr().out


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


class TestNetworked:
    def test_tcp_transcript_identical_to_demo(self, tmp_path, capsys):
        demo_out = tmp_path / "demo.transcript"
        assert (
            cli.run(
                [
                    "demo", "--example", "ex3", "--s1", "2", "--s2", "5", "--H", "8",
                    "--value", "7", "--toy", "--seed", "ab12", "--out", str(demo_out),
                ]
            )
            == 0
        )
        port = _free_port()
        seller_out = tmp_path / "seller.transcript"
        buyer_out = tmp_path / "buyer.transcript"
        thread, result = _run_seller_in_thread(
            [
                "seller", "--example", "ex3", "--s1", "2", "--s2", "5", "--H", "8",
                "--listen", f"127.0.0.1:{port}", "--toy", "--seed", "ab12",
                "--out", str(seller_out),
            ]
        )
        rc = _run_buyer_with_retry(
            [
                "buyer", "--example", "ex3", "--H", "8", "--value", "7",
                "--connect", f"127.0.0.1:{port}", "--toy", "--seed", "ab12",
                "--out", str(buyer_out),
            ]
        )
        thread.join(timeout=20)
        assert rc == 0 and result["rc"] == 0
        demo_text = demo_out.read_text()
        assert demo_text == seller_out.read_text() == buyer_out.read_text()
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
