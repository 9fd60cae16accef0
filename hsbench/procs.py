"""Child processes: one `honeysheets` subcommand at a time, and the tracker.

Every child gets a fixed PYTHONHASHSEED and the checkout's src/ on its
path. Pipeline children are started and reaped by spawner.py, so their
peak resident set comes from the kernel's own accounting (wait4) and not
from the benchmark's. The tracker's peak is its VmHWM, read before it is
stopped. In traced runs the same argv goes through launcher.py, which
wraps the layers before it calls the CLI.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "launcher.py"
SPAWNER = BENCH_DIR / "spawner.py"
STAGE_TIMEOUT_S = 120.0


class StageFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    # Let the warm-up's compiled files be written and reused, so no timed
    # process compiles the package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Spawner:
    """The helper process that starts and reaps pipeline subcommands."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, env: dict, stderr: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stderr": str(stderr),
                   "timeout": STAGE_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise StageFailed("spawner exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Launch:
    """How to start a subcommand: plainly, or under the tracing launcher."""

    root: Path
    spawner: Spawner
    spans_dir: Path | None = None

    def argv(self, stage: str, args: list[str], tag: str) -> list[str]:
        if self.spans_dir is None:
            return [sys.executable, "-m", "honeysheets.cli", stage, *args]
        spans = self.spans_dir / f"{tag}.json"
        return [
            sys.executable,
            str(LAUNCHER),
            str(spans),
            repr(time.perf_counter()),
            stage,
            *args,
        ]


@dataclass
class StageResult:
    seconds: float
    maxrss_kb: int


def run_stage(launch: Launch, stage: str, args: list[str], tag: str, log_dir: Path) -> StageResult:
    """Run one subcommand to completion; raise StageFailed on a non-zero exit."""
    err_path = log_dir / f"{tag}.err"
    reply = launch.spawner.run(launch.argv(stage, args, tag), launch.root,
                               child_env(launch.root), err_path)
    if reply["status"] != 0:
        detail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-400:]
        raise StageFailed(f"{stage} exited {reply['status']}: {detail}")
    return StageResult(seconds=reply["seconds"], maxrss_kb=reply["maxrss_kb"])


def _default_sigint() -> None:
    """Give the child SIGINT's default action, which Python turns into KeyboardInterrupt.

    A shell that starts the benchmark in the background hands it SIGINT
    ignored, and an ignored signal stays ignored across exec: `serve`
    would then never stop on the SIGINT that ends it.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Tracker:
    """A running `honeysheets serve` on a loopback port chosen by the kernel."""

    def __init__(self, launch: Launch, args: list[str], tag: str, log_dir: Path):
        self._err_lines: list[str] = []
        self.proc = subprocess.Popen(
            launch.argv("serve", [*args, "--bind", "127.0.0.1:0"], tag),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            # faulthandler: a SIGABRT on a hung shutdown dumps every thread's stack
            env={**child_env(launch.root), "PYTHONFAULTHANDLER": "1"},
            cwd=launch.root,
            text=True,
            preexec_fn=_default_sigint,
        )
        self._err_path = log_dir / f"{tag}.err"
        self.port = self._await_listening()
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _await_listening(self) -> int:
        """Block until the server prints its `listening on host:port` line."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stderr, selectors.EVENT_READ)
            if not sel.select(timeout=STAGE_TIMEOUT_S):
                self.kill()
                raise StageFailed("serve printed nothing")
        line = self.proc.stderr.readline()
        if not line.startswith("listening on "):
            rest = self.proc.stderr.read() if self.proc.poll() is not None else ""
            self.kill()
            raise StageFailed(f"serve did not start: {line!r} {rest[-400:]!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._err_lines.append(line)

    def stop(self) -> int:
        """SIGINT the server, reap it, and return its peak RSS in KiB."""
        peak_kb = _vm_hwm_kb(self.proc.pid)
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.send_signal(signal.SIGABRT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.kill()
        self._drain.join(timeout=10)
        self.proc.stderr.close()
        err = "".join(self._err_lines)
        self._err_path.write_text(err, encoding="utf-8")
        if self.proc.returncode != 0:
            raise StageFailed(f"serve exited {self.proc.returncode} after SIGINT: {err[-4000:]}")
        return peak_kb

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _vm_hwm_kb(pid: int) -> int:
    """Peak RSS of a live process's own address space (not inherited)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise StageFailed(f"no VmHWM for pid {pid}")
