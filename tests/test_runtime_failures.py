"""Graceful-failure regression tests: every bad ending must produce a
partial-results summary and a nonzero exit, never a hang or a stack trace."""

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime import ClusterSpec, cluster, run_cluster
from repro.runtime.wire import MAX_FRAME

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestPortInUse:
    def test_cluster_reports_partial_not_hang(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken = blocker.getsockname()[1]
        try:
            spec = ClusterSpec(
                topology={"name": "line", "kwargs": {"n": 2}},
                messages=4,
                transport="tcp",
                port_base=taken,  # node 0 gets the occupied port
                deadline=10.0,
            )
            result = run_cluster(spec)
        finally:
            blocker.close()
        assert result.partial
        assert any("transport start failed" in e for e in result.errors)
        assert "error: transport start failed" in result.summary()

    def test_cli_exits_nonzero(self, capsys):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken = blocker.getsockname()[1]
        try:
            code = main(
                [
                    "runtime", "--topology", "line", "--n", "2",
                    "--messages", "4", "--transport", "tcp",
                    "--port-base", str(taken), "--deadline", "10",
                ]
            )
        finally:
            blocker.close()
        assert code == 1
        out = capsys.readouterr().out
        assert "PARTIAL" in out
        assert "transport start failed" in out


class TestCorruptFrameOnALiveSocket:
    """Garbage written to a live node's listening port is dropped by the
    transport and never reaches the run's verdict."""

    def test_bad_frames_are_dropped_and_the_run_passes(self, monkeypatch):
        ports = {}
        allocate_ports = cluster.allocate_ports

        def capture(net, **kwargs):  # learn the ports the cluster binds
            ports.update(allocate_ports(net, **kwargs))
            return dict(ports)

        monkeypatch.setattr(cluster, "allocate_ports", capture)
        frames = [
            struct.pack(">I", 4) + b"\x07bad",  # body not led by the 0x02 tag
            struct.pack(">I", MAX_FRAME + 1),  # length prefix past MAX_FRAME
        ]
        sent = []

        def write_garbage():
            deadline = time.monotonic() + 30
            while not ports and time.monotonic() < deadline:
                time.sleep(0.001)
            for frame in frames:  # one raw connection per frame
                while time.monotonic() < deadline:
                    try:
                        with socket.create_connection(ports[1], timeout=5) as conn:
                            conn.sendall(frame)
                        sent.append(frame)
                        break
                    except ConnectionRefusedError:  # not listening yet
                        time.sleep(0.001)

        writer = threading.Thread(target=write_garbage, daemon=True)
        writer.start()
        result = run_cluster(ClusterSpec(
            topology={"name": "ring", "kwargs": {"n": 4}},
            messages=3_000,
            transport="tcp",
            deadline=60.0,
        ))
        both_sent_during_run = len(sent) == 2
        writer.join(timeout=30)
        assert both_sent_during_run
        assert result.errors == []
        assert not result.partial, result.summary()
        assert result.transport_stats["frames_dropped"] == 2
        assert result.transport_stats["records_dropped"] == 0


class TestDeadline:
    # 50k messages keep ring(6) busy for about a second; a run stopped at
    # its 0.3 s deadline must say so, not read only as a conformance FAIL.
    def test_deadline_is_a_readable_error(self):
        spec = ClusterSpec(
            topology={"name": "ring", "kwargs": {"n": 6}},
            messages=50_000,
            deadline=0.3,
        )
        result = run_cluster(spec)
        assert result.partial
        (error,) = result.errors
        assert error.startswith("deadline of 0.3s reached with ")
        assert error.endswith("/50000 deliveries")
        assert f"error: {error}" in result.summary()
        # What was delivered before the deadline is still judged.
        assert result.report.generated > 0

    def test_cli_exits_1(self, capsys):
        code = main(
            [
                "runtime", "--topology", "ring", "--n", "6",
                "--messages", "50000", "--deadline", "0.3",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "PARTIAL" in out
        assert "error: deadline" in out


class TestKeyboardInterrupt:
    def test_sigint_produces_partial_summary_and_exit_1(self, tmp_path):
        # A real ^C: run the CLI in a subprocess, interrupt it mid-run.
        script = tmp_path / "drive.py"
        script.write_text(
            "import sys\n"
            "from repro.cli import main\n"
            "sys.exit(main(["
            "'runtime', '--topology', 'ring', '--n', '6', "
            "'--messages', '300000', '--deadline', '120']))\n"
        )
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        time.sleep(2.0)  # let the cluster get going
        proc.send_signal(signal.SIGINT)
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            pytest.fail("runtime CLI hung after SIGINT")
        assert proc.returncode == 1, out
        assert "PARTIAL" in out
        assert "run interrupted" in out
