"""Shared plumbing of the end-to-end benchmark: checkout layout, the
cleared environment, seeded input generation, measured child
processes and the daemon handle.

Everything here runs in the benchmark's own process (the client).  The
program under test is reached only through its user-facing entry
points: ``python -m repro.cli`` child processes, the ``serve`` daemon
over HTTP, and ``SegmentedSequenceStore.append``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs from (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated stores and checkpoints; removed per run
#: except for the ``counts`` ledger that pins count metrics per seed.
WORK = ROOT / ".perfbench_work"

#: Variables the program reads to pick execution paths.  The benchmark
#: measures the default production path, so every one is cleared for
#: the benchmark's own process and every child.
ENV_PREFIX = "NOISYMINE_"

#: Per-op timeout; an op exceeding it is killed and counted as failed.
OP_TIMEOUT_S = 90.0


def source_present() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def clear_program_env() -> Dict[str, str]:
    """Remove every ``NOISYMINE_*`` variable from this process's
    environment; returns what was removed (for the host record)."""
    cleared = {k: v for k, v in os.environ.items() if k.startswith(ENV_PREFIX)}
    for key in cleared:
        del os.environ[key]
    return cleared


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    env["PYTHONPATH"] = str(SRC)
    return env


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources; keys the
    count ledger so a changed program or schedule never compares
    against another one's counts."""
    digest = hashlib.blake2b(digest_size=12)
    bench = Path(__file__).resolve().parent
    for path in sorted(SRC.rglob("*.py")) + sorted(bench.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(cleared: Dict[str, str]) -> Dict[str, object]:
    try:
        import numba  # noqa: F401

        numba_state = "present"
    except ImportError:
        numba_state = "absent: compiled-kernel paths are not measured"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_state,
        "cleared_env": cleared,
        "machine": platform.machine(),
    }


# -- seeded inputs ------------------------------------------------------------


def op_seeds(seed: int, label: str, count: int) -> List[int]:
    """*count* per-op seeds derived from the workload seed."""
    key = int.from_bytes(hashlib.blake2b(label.encode(), digest_size=4).digest(),
                         "little")
    rng = np.random.default_rng([seed, key])
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=count)]


def draw_motif(rng: np.random.Generator, weight: int, m: int) -> np.ndarray:
    return rng.choice(m, size=weight, replace=weight > m)


def planted_rows(
    rng: np.random.Generator,
    n: int,
    length: int,
    m: int,
    motifs: Sequence[Tuple[np.ndarray, float]],
    alpha: float,
) -> np.ndarray:
    """*n* rows of *length* uniform symbols with each motif planted
    contiguously in a ``freq`` share of rows, then uniform noise: each
    symbol is replaced by a different uniformly drawn symbol with
    probability *alpha* (the model behind ``--noise``)."""
    rows = rng.integers(0, m, size=(n, length), dtype=np.int64)
    for motif, freq in motifs:
        carriers = np.flatnonzero(rng.random(n) < freq)
        starts = rng.integers(0, length - len(motif) + 1, size=len(carriers))
        for row, start in zip(carriers, starts):
            rows[row, start:start + len(motif)] = motif
    flip = rng.random((n, length)) < alpha
    rows[flip] = (rows[flip] + rng.integers(1, m, size=int(flip.sum()))) % m
    return rows


def write_text_store(path: Path, rows: np.ndarray) -> None:
    """The ``<id> TAB <symbols>`` text format ``noisymine`` reads."""
    lines = [f"{i}\t{' '.join(map(str, row.tolist()))}\n"
             for i, row in enumerate(rows)]
    path.write_text("".join(lines), encoding="utf-8")


# -- measured child processes -------------------------------------------------


@dataclass
class ChildRun:
    """One finished ``python -m repro.cli`` process, measured from the
    outside: wall clock from spawn to exit, CPU and peak RSS from the
    process's own ``wait4`` rusage."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Spawner:
    """A ``spawner.py`` child that starts every measured CLI process.

    The measured processes are children of this small launcher rather
    than of the benchmark's client, so their ``ru_maxrss`` is their own
    peak and not the client's (see ``spawner.py``).
    """

    def __init__(self, cwd: Path):
        self.cwd = cwd
        script = Path(__file__).resolve().parent / "spawner.py"
        self.proc = subprocess.Popen(
            [sys.executable, str(script)], cwd=cwd, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: Sequence[str], timeout: float = OP_TIMEOUT_S,
            module: bool = True) -> ChildRun:
        """Run ``python -m repro.cli ARGV`` (or ``python ARGV`` with
        ``module=False``) to completion."""
        out_path = self.cwd / ".child.out"
        err_path = self.cwd / ".child.err"
        request = {
            "cmd": ([sys.executable] + (["-m", "repro.cli"] if module else [])
                    + list(argv)),
            "cwd": str(self.cwd), "out": str(out_path),
            "err": str(err_path), "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with {self.proc.wait()}")
        measured = json.loads(line)
        run = ChildRun(
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            **measured,
        )
        out_path.unlink()
        err_path.unlink()
        return run

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def import_seconds(spawner: Spawner) -> Tuple[float, float]:
    """A fresh interpreter importing ``repro.cli``: ``(process wall
    clock from spawn to exit, import time measured inside the child)``."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    run = spawner.run(["-c", code], timeout=60.0, module=False)
    if run.returncode != 0:
        raise RuntimeError(f"importing repro.cli failed: {run.stderr[-400:]}")
    return run.wall_s, float(run.stdout.strip())


# -- the daemon ---------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    # fields[0] is the state (field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / ticks


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class Daemon:
    """A ``noisymine serve`` child on a free port.

    ``setup_s`` is the time from spawn until ``/healthz`` answers.
    CPU and peak RSS are read from the daemon's ``/proc`` entries, never
    from the client.
    """

    def __init__(self, cwd: Path, log_path: Path):
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        self.log = open(log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--quiet"],
            cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=self.log,
            stdin=subprocess.DEVNULL,
        )
        try:
            self.url = self._read_url(started + 60.0)
            client = ServiceClient(self.url, timeout=5.0)
            while True:
                try:
                    if client.healthz().get("status") == "ok":
                        break
                except ServiceError:
                    if time.perf_counter() > started + 60.0:
                        raise
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def _read_url(self, deadline: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("daemon did not announce its address")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("daemon closed stdout before listening")
                line += chunk
        text = line.decode().strip()
        return text.rsplit(" ", 1)[1]

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then wait; kill if it
        does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


# -- the append worker --------------------------------------------------------


class Appender:
    """An ``appender.py`` child holding a segmented store open; each
    :meth:`append` call appends one pre-generated batch and returns the
    child's own timing of ``SegmentedSequenceStore.append``.  With
    *switch_to*, the child first opens that store in place of the one
    it holds, outside the timing."""

    def __init__(self, batches_path: Path, first_id: int, cwd: Path,
                 root: Optional[Path] = None):
        script = Path(__file__).resolve().parent / "appender.py"
        self.proc = subprocess.Popen(
            [sys.executable, str(script), str(batches_path), str(first_id)]
            + ([str(root)] if root is not None else []),
            cwd=cwd, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def append(self, index: int, switch_to: Optional[Path] = None) -> float:
        request = f"{index}" if switch_to is None else f"{index} {switch_to}"
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"append worker exited with {self.proc.wait()}")
        return float(json.loads(line)["append_s"])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Appender":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
