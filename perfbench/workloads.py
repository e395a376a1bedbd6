"""The benchmark's three workloads.

Each run is a fixed, seeded schedule: the inputs, the op count and
every op's config and seed follow from ``(seed, seconds)`` alone, and
ops run one at a time from a single client.  Inputs are generated
before any timed window and outside set-up; every seed's inputs are
the workload's reference instance with its alphabet relabelled.

* ``cli-fig14`` — cold ``noisymine mine --json`` processes on a packed
  2000x60 store (m=20, alpha=0.1, min_match 0.2, sample 400), cycling
  border-collapsing, maxminer, toivonen and levelwise.
* ``daemon-dense`` — one fresh ``noisymine serve`` per run and one
  closed-loop client submitting jobs on a packed 3000x40 store over a
  5-symbol alphabet (min_match 0.12, max_weight 8, max_span 10), same
  miner cycle; every 8th job resubmits an earlier job's exact config.
* ``append-remine`` — a segmented 20000x60 store checkpointed by
  ``noisymine mine --checkpoint``; each op appends 250 rows and runs
  ``noisymine remine``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import (
    Appender,
    ChildRun,
    Daemon,
    OP_TIMEOUT_S,
    Spawner,
    draw_motif,
    import_seconds,
    op_seeds,
    planted_rows,
    write_text_store,
)

MINERS = ("border-collapsing", "maxminer", "toivonen", "levelwise")
EXACT_MINERS = ("maxminer", "levelwise")

#: Client status-poll interval for daemon jobs (the ``noisymine submit``
#: default).  Polls land on the daemon's interpreter lock; their cost and
#: the up-to-one-interval wait are in ``service.client_overhead_s``.
POLL_INTERVAL_S = 0.05

#: Repetitions behind each reported ``setup_s`` median.
SETUP_REPEATS = {"cli-fig14": 5, "daemon-dense": 5, "append-remine": 3}
#: Rows per appended batch in ``append-remine``.
APPEND_ROWS = 250
#: Rows per batch of the append probe of the workloads whose schedule
#: has no append (about 50 ms of mostly CPU work per append).
PROBE_ROWS = 4000
#: Probe appends after each op of those workloads.  Each op's probe
#: starts from a fresh copy of the store, so every sample does the same
#: work: an append's cost grows with the store's id count, and a probe
#: store grown over the whole run made its median drift with the run.
PROBE_APPENDS = 3
#: In ``daemon-dense``, every this-many-th job resubmits an earlier
#: job's exact config (a result-memo hit).
RESUBMIT_EVERY = 8
#: In ``append-remine``, every this-many-th appended batch carries an
#: emerging motif (see :meth:`AppendRemine.prepare`).
EMERGING_EVERY = 4
#: Seed of the generator behind every workload's reference instance.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class MiningSpec:
    """The semantic flags of one workload's mining jobs."""

    alphabet: int
    noise: float
    min_match: float
    sample_size: int
    max_weight: int
    max_span: int
    max_gap: int = 0
    delta: float = 1e-4

    def config(self, algorithm: str, seed: int) -> Dict[str, object]:
        """The job as a daemon config document."""
        return {
            "alphabet": self.alphabet, "noise": self.noise,
            "min_match": self.min_match, "sample_size": self.sample_size,
            "max_weight": self.max_weight, "max_span": self.max_span,
            "max_gap": self.max_gap, "delta": self.delta,
            "algorithm": algorithm, "seed": seed,
        }

    def flags(self, algorithm: str, seed: int) -> List[str]:
        """The same job as ``noisymine mine`` flags."""
        flags = []
        for key, value in self.config(algorithm, seed).items():
            flags += ["--" + key.replace("_", "-"), str(value)]
        return flags

    def constraints(self):
        from repro.core.lattice import PatternConstraints

        return PatternConstraints(max_weight=self.max_weight,
                                  max_span=self.max_span,
                                  max_gap=self.max_gap)

    def matrix(self):
        from repro.core.compatibility import CompatibilityMatrix

        return CompatibilityMatrix.uniform_noise(self.alphabet, self.noise)


@dataclass
class Op:
    """One op of a schedule and everything observed about it."""

    index: int
    algorithm: str
    seed: int
    resubmit: bool = False
    latency_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    append_s: float = 0.0
    payload: Optional[dict] = None
    error: Optional[str] = None
    memo_hit: bool = False
    #: Service timings of a daemon job, from the job's own timestamps.
    service: Dict[str, float] = field(default_factory=dict)

    @property
    def scans(self) -> int:
        if self.payload is None or self.memo_hit:
            return 0
        return int(self.payload["scans"])

    def record(self, run: ChildRun) -> None:
        """Take latency, CPU, peak RSS and the ``--json`` result from a
        finished CLI child."""
        self.latency_s, self.cpu_s = run.wall_s, run.cpu_s
        self.peak_rss_mb = run.peak_rss_mb
        if run.returncode != 0:
            self.error = f"exit {run.returncode}: {run.stderr[-300:]}"
            return
        try:
            self.payload = json.loads(run.stdout)
        except ValueError:
            self.error = f"unreadable --json output: {run.stdout[:200]!r}"


@dataclass
class Outcome:
    """What one run reports."""

    metrics: Dict[str, Tuple[float, str]]
    ops: List[Op]
    run_errors: List[str]
    counts: Dict[str, object]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error is not None)


def counts_of(ops: Sequence[Op]) -> Dict[str, object]:
    """The count metrics of a run, which must repeat exactly."""
    return {
        "ops": len(ops),
        "scans": [op.scans for op in ops],
        "memo_hits": [op.memo_hit for op in ops],
    }


def summarise(ops: Sequence[Op], wall_s: float, setup_s: float,
              append_s: Sequence[float], cpu_total_s: float,
              peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    n = len(ops)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / wall_s, "1/s"),
        "latency_p50_s": (median([op.latency_s for op in ops]), "s"),
        "append_p50_s": (median(append_s), "s"),
        "cpu_s_per_op": (cpu_total_s / n, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "scans_per_op": (sum(op.scans for op in ops) / n, "count"),
        "ok_share": (sum(op.error is None for op in ops) / n, "ratio"),
    }


# -- correctness checks -------------------------------------------------------


class Checker:
    """Result checks, run outside every timed window.

    Every payload goes through :func:`repro.mining.verify.verify_result`
    (threshold, downward closure, border); given a database it also
    re-measures every reported match value exactly.  Identical payloads
    over the same database are checked once.
    """

    def __init__(self, spec: MiningSpec):
        self.spec = spec
        self._cache: Dict[str, Optional[str]] = {}

    def check(self, payload: dict, database=None,
              refresh: bool = False) -> Optional[str]:
        from repro.mining.result import MiningResult
        from repro.mining.verify import verify_result

        key = json.dumps([payload["patterns"], payload["border"],
                          database is not None], sort_keys=True)
        if key not in self._cache:
            result = MiningResult.from_dict({
                "frequent": payload["patterns"], "border": payload["border"],
                "scans": payload["scans"],
            })
            report = verify_result(
                result, self.spec.min_match, self.spec.constraints(),
                database=database,
                matrix=self.spec.matrix() if database is not None else None,
                engine="vectorized",
            )
            if refresh:
                # A refresh reports the border plus the patterns it
                # measured exactly, not the border's downward closure.
                report.closure_violations.clear()
            self._cache[key] = None if report.ok else report.summary()
        return self._cache[key]


def check_exact_borders(ops: Sequence[Op]) -> None:
    """levelwise and maxminer must report one border per store and
    threshold; an op disagreeing with the first exact op fails."""
    reference = None
    for op in ops:
        if op.error is not None or op.algorithm not in EXACT_MINERS:
            continue
        border = sorted(op.payload["border"])
        if reference is None:
            reference = border
        elif border != reference:
            op.error = (f"{op.algorithm} border differs from the first "
                        f"exact miner's border")


def _signature(payload: dict) -> Tuple:
    """What the traced and untraced runs of one op must agree on."""
    return (sorted(payload["border"]), payload["scans"],
            sorted(payload["patterns"]))


def cli_inprocess(argv: Sequence[str]) -> Tuple[float, str]:
    """``repro.cli.main(argv)`` in this process; returns ``(seconds,
    stdout)`` and raises on a non-zero exit."""
    from repro import cli

    buffer = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"noisymine {argv[0]} exited {code}")
    return elapsed, buffer.getvalue()


def paired_runs(recorder, op: Op,
                run: Callable[[int], Tuple[float, str]]) -> Tuple[float, float]:
    """Run one op in-process untraced and traced, alternating which pass
    goes first so warm-up drift cancels; ``run(position)`` returns
    ``(seconds, --json output)``.  Returns ``(untraced, traced)``
    seconds; the two results must agree."""
    order = (False, True) if op.index % 2 == 0 else (True, False)
    seconds = {}
    for position, with_trace in enumerate(order):
        with (recorder.installed(str(op.index)) if with_trace
              else contextlib.nullcontext()):
            seconds[with_trace], out = run(position)
        payload = json.loads(out)
        if op.payload is None:
            op.payload = payload
        elif _signature(payload) != _signature(op.payload):
            op.error = "traced and untraced runs disagree"
    op.latency_s = seconds[True]
    return seconds[False], seconds[True]


# -- workloads ----------------------------------------------------------------


class Workload:
    """A schedule of ops plus its inputs.

    Subclasses provide ``prepare()`` (generate inputs), ``timed()``
    (the end-to-end run, returning an :class:`Outcome`) and
    ``traced(recorder)`` (the in-process run, returning the ops and the
    untraced and traced op seconds).
    """

    name = ""
    rng_key = 0
    #: Nominal seconds per op, used only to size the fixed op count.
    nominal_op_s = 1.0
    #: Op counts are a multiple of this (one full cycle of the schedule).
    cycle = len(MINERS)

    def __init__(self, seed: int, seconds: int, work: Path,
                 spawner: Spawner):
        self.seed = seed
        self.work = work
        self.spawner = spawner
        cycles = max(1, round(seconds / (self.nominal_op_s * self.cycle)))
        self.n_ops = cycles * self.cycle
        #: The traced run replays the first half of the schedule.
        self.n_traced = max(self.cycle,
                            self.n_ops // (2 * self.cycle) * self.cycle)
        # Inputs are one reference instance per workload, drawn from a
        # fixed generator, with its symbols relabelled by a permutation
        # drawn from the seed.  The uniform noise model is symmetric
        # under relabelling, so each seed's store is another input that
        # poses the same mining problem and costs the same work; the
        # per-op seeds and the schedule's choices still follow the seed.
        self.rng = np.random.default_rng([REFERENCE_SEED, self.rng_key])
        self.seed_rng = np.random.default_rng([seed, self.rng_key])
        self.symbols = self.seed_rng.permutation(self.spec.alphabet)
        #: Wall clock of each phase of the run, for the run report.
        self.phases: Dict[str, float] = {}

    @contextlib.contextmanager
    def phase(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = (self.phases.get(name, 0.0)
                                 + time.perf_counter() - started)

    def cli_child(self, argv: Sequence[str]) -> ChildRun:
        """A set-up or conversion CLI child that must succeed."""
        run = self.spawner.run(argv)
        if run.returncode != 0:
            raise RuntimeError(f"noisymine {argv[0]} failed: "
                               f"{run.stderr[-400:]}")
        return run

    def planted(self, rows: int, motifs) -> np.ndarray:
        """*rows* reference rows with *motifs* planted, relabelled."""
        return self.symbols[planted_rows(self.rng, rows, self.length,
                                         self.spec.alphabet, motifs,
                                         self.spec.noise)]

    def batches(self, count: int, rows: int, motifs) -> np.ndarray:
        return np.stack([self.planted(rows, motifs) for _ in range(count)])


class PackedWorkload(Workload):
    """Mining jobs on one packed store, cycling :data:`MINERS`."""

    #: ``(weight, frequency)`` of each planted motif.
    motif_shapes: Tuple[Tuple[int, float], ...] = ()
    rows_n = length = 0
    spec: MiningSpec

    def prepare(self) -> None:
        m = self.spec.alphabet
        motifs = [(draw_motif(self.rng, weight, m), freq)
                  for weight, freq in self.motif_shapes]
        rows = self.planted(self.rows_n, motifs)
        self.text = self.work / f"{self.name}.txt"
        write_text_store(self.text, rows)
        self.store = self.work / f"{self.name}.nmp"
        self.cli_child(["convert", str(self.text), str(self.store)])
        self.schedule = self.make_schedule()
        # The append probe: the same PROBE_APPENDS batches after every
        # op, each time appended to a fresh segmented copy of the store.
        self.probe_batches = self.batches(PROBE_APPENDS, PROBE_ROWS, motifs)
        self.probe_path = self.work / "probe-batches.npy"
        np.save(self.probe_path, self.probe_batches)
        self.probe_root = self.work / "probe-base"
        self.cli_child(["convert", str(self.text), str(self.probe_root),
                        "--to", "segmented"])
        self.probe_wall = 0.0
        self.probe_samples: List[float] = []

    def make_schedule(self) -> List[Op]:
        seeds = op_seeds(self.seed, self.name, self.n_ops)
        return [Op(i, MINERS[i % len(MINERS)], seeds[i])
                for i in range(self.n_ops)]

    def ops(self, count: int) -> List[Op]:
        return [Op(op.index, op.algorithm, op.seed, op.resubmit)
                for op in self.schedule[:count]]

    @contextlib.contextmanager
    def append_probe(self):
        """Append latency on a workload whose schedule has no append.
        An :class:`Appender` child appends :data:`PROBE_APPENDS` batches
        to a fresh copy of the store after each op (:meth:`probe`), so
        the probe samples the whole timed phase; its client-side wall
        clock, copy included, is kept out of ``ops_per_s``."""
        with Appender(self.probe_path, self.rows_n, self.work) as appender:
            yield appender

    def probe_store(self, op: Op) -> Path:
        """A fresh segmented copy of the store for *op*'s probe; the
        previous op's copy is removed."""
        shutil.rmtree(self.work / f"probe-{op.index - 1}", ignore_errors=True)
        return Path(shutil.copytree(self.probe_root,
                                    self.work / f"probe-{op.index}"))

    def probe(self, appender: Appender, op: Op) -> None:
        started = time.perf_counter()
        store = self.probe_store(op)
        samples = [appender.append(i, switch_to=None if i else store)
                   for i in range(PROBE_APPENDS)]
        self.probe_wall += time.perf_counter() - started
        self.probe_samples += samples
        op.append_s = median(samples)

    def traced_probe(self, recorder, ops: Sequence[Op]) -> None:
        """The probe's appends in-process, under the recorder."""
        from repro.io import SegmentedSequenceStore

        for op in ops:
            with SegmentedSequenceStore.open(self.probe_store(op)) as store:
                for batch_index, batch in enumerate(self.probe_batches):
                    start = self.rows_n + batch_index * len(batch)
                    with recorder.installed(str(op.index)):
                        store.append(list(batch),
                                     ids=list(range(start, start + len(batch))))

    def check(self, ops: Sequence[Op]) -> None:
        """Every result through ``verify_result`` (exact miners' values
        re-measured), memo hits exactly on the resubmitted jobs, and one
        border from levelwise and maxminer."""
        from repro.io import PackedSequenceStore

        checker = Checker(self.spec)
        with PackedSequenceStore.open(self.store) as store:
            for op in ops:
                if op.error is not None:
                    continue
                if op.memo_hit != op.resubmit:
                    op.error = (f"memo_hit is {op.memo_hit} on a "
                                f"{'re' if op.resubmit else 'first '}"
                                f"submission")
                    continue
                exact = op.algorithm in EXACT_MINERS
                op.error = checker.check(op.payload, store if exact else None)
        check_exact_borders(ops)


class CliFig14(PackedWorkload):
    name = "cli-fig14"
    rng_key = 14
    nominal_op_s = 1.25
    motif_shapes = ((6, 0.3), (6, 0.3))
    rows_n, length = 2000, 60
    spec = MiningSpec(alphabet=20, noise=0.1, min_match=0.2, sample_size=400,
                      max_weight=8, max_span=10)

    def argv(self, op: Op) -> List[str]:
        return ["mine", str(self.store),
                *self.spec.flags(op.algorithm, op.seed), "--json"]

    def timed(self) -> Outcome:
        with self.phase("setup"):
            setup = median([import_seconds(self.spawner)[0]
                            for _ in range(SETUP_REPEATS[self.name])])
        ops = self.ops(self.n_ops)
        with self.append_probe() as appender, self.phase("ops"):
            for op in ops:
                op.record(self.spawner.run(self.argv(op)))
                self.probe(appender, op)
        with self.phase("checks"):
            self.check(ops)
        metrics = summarise(ops, self.phases["ops"] - self.probe_wall, setup,
                            self.probe_samples,
                            sum(op.cpu_s for op in ops),
                            max(op.peak_rss_mb for op in ops))
        return Outcome(metrics, ops, [], counts_of(ops))

    def traced(self, recorder):
        ops = self.ops(self.n_traced)
        cli_inprocess(self.argv(ops[0]))  # warm imports and caches
        pairs = [paired_runs(recorder, op,
                             lambda _position, op=op: cli_inprocess(self.argv(op)))
                 for op in ops]
        self.traced_probe(recorder, ops)
        self.check(ops)
        return ops, [p[0] for p in pairs], [p[1] for p in pairs]


class DaemonDense(PackedWorkload):
    name = "daemon-dense"
    rng_key = 5
    nominal_op_s = 1.25
    rows_n, length = 3000, 40
    spec = MiningSpec(alphabet=5, noise=0.1, min_match=0.12, sample_size=400,
                      max_weight=8, max_span=10)

    def make_schedule(self) -> List[Op]:
        seeds = op_seeds(self.seed, self.name, self.n_ops)
        schedule: List[Op] = []
        for i in range(self.n_ops):
            if (i + 1) % RESUBMIT_EVERY == 0:
                fresh = [op for op in schedule if not op.resubmit]
                earlier = fresh[int(self.seed_rng.integers(len(fresh)))]
                schedule.append(Op(i, earlier.algorithm, earlier.seed, True))
            else:
                fresh_count = i - i // RESUBMIT_EVERY
                schedule.append(
                    Op(i, MINERS[fresh_count % len(MINERS)], seeds[i]))
        return schedule

    def run_jobs(self, client, ops: Sequence[Op], recorder=None,
                 appender: Optional[Appender] = None) -> None:
        """Submit each op's job and wait for its result, one in flight.
        Latency runs from the submit call to the received result."""
        for op in ops:
            config = self.spec.config(op.algorithm, op.seed)
            tracing = (recorder.installed(str(op.index))
                       if recorder is not None
                       else contextlib.nullcontext())
            with tracing:
                started = time.perf_counter()
                try:
                    job = client.submit(config, store=str(self.store))
                    doc = client.wait(job["id"], timeout=OP_TIMEOUT_S,
                                      poll_interval=POLL_INTERVAL_S)
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    doc = None
                    op.error = f"{type(exc).__name__}: {exc}"
                op.latency_s = time.perf_counter() - started
            if appender is not None:
                self.probe(appender, op)
            if doc is None:
                continue
            op.payload = doc["result"]
            op.memo_hit = bool(doc.get("memo_hit"))
            status = client.status(job["id"])
            op.service = {
                "queue_wait_s": status["started_at"] - status["submitted_at"],
                "run_s": status["finished_at"] - status["started_at"],
                "client_overhead_s": op.latency_s - (
                    status["finished_at"] - status["submitted_at"]),
            }

    def timed(self) -> Outcome:
        from repro.service import ServiceClient

        setups = []
        daemon = None
        try:
            with self.phase("setup"):
                # Each set-up is a fresh daemon; the last one serves.
                for _ in range(SETUP_REPEATS[self.name]):
                    if daemon is not None:
                        daemon.stop()
                    daemon = Daemon(self.work, self.work / "daemon.log")
                    setups.append(daemon.setup_s)
            client = ServiceClient(daemon.url, timeout=OP_TIMEOUT_S)
            ops = self.ops(self.n_ops)
            cpu_before = daemon.cpu_s()
            with self.append_probe() as appender, self.phase("ops"):
                self.run_jobs(client, ops, appender=appender)
            cpu = daemon.cpu_s() - cpu_before
            rss = daemon.peak_rss_mb()
            health = client.healthz()
        finally:
            if daemon is not None:
                daemon.stop()
        with self.phase("checks"):
            self.check(ops)
        metrics = summarise(ops, self.phases["ops"] - self.probe_wall,
                            median(setups), self.probe_samples,
                            cpu, rss)
        counts = counts_of(ops)
        counts["memo_hits_total"] = health["result_memo"]["hits"]
        counts["store_cache_misses"] = health["store_cache"]["misses"]
        return Outcome(metrics, ops, [], counts)

    def traced(self, recorder):
        from repro import cli
        from repro.service import MiningServer, MiningService, ServiceClient

        # Two in-process daemons built like `noisymine serve`: each op
        # runs on the untraced one and on the traced one.
        defaults = cli.build_parser().parse_args(["serve"])
        servers = []
        try:
            for _ in range(2):
                server = MiningServer(port=0, service=MiningService(
                    workers=defaults.workers,
                    store_capacity=defaults.store_capacity,
                    memo_entries=defaults.memo_entries,
                ))
                thread = threading.Thread(target=server.serve_forever,
                                          daemon=True)
                thread.start()
                servers.append((server, thread))
            plain = ServiceClient(servers[0][0].url)
            traced = ServiceClient(servers[1][0].url)
            plain_ops = self.ops(self.n_traced)
            ops = self.ops(self.n_traced)
            for plain_op, op in zip(plain_ops, ops):
                # Alternate which daemon goes first so warm-up drift
                # cancels, as in paired_runs.
                passes = [lambda: self.run_jobs(plain, [plain_op]),
                          lambda: self.run_jobs(traced, [op], recorder)]
                for run in passes if op.index % 2 == 0 else passes[::-1]:
                    run()
                if (op.payload is not None and plain_op.payload is not None
                        and _signature(op.payload)
                        != _signature(plain_op.payload)):
                    op.error = "traced and untraced jobs disagree"
            health = traced.healthz()
        finally:
            for server, thread in servers:
                server.close()
                thread.join(timeout=15)
        self.service_counts = {
            "memo_hits": float(health["result_memo"]["hits"]),
            "store_cache_misses": float(health["store_cache"]["misses"]),
        }
        self.traced_probe(recorder, ops)
        self.check(ops)
        return (ops, [op.latency_s for op in plain_ops],
                [op.latency_s for op in ops])


class AppendRemine(Workload):
    name = "append-remine"
    rng_key = 20
    nominal_op_s = 0.65
    cycle = EMERGING_EVERY
    rows_n, length = 20000, 60
    spec = MiningSpec(alphabet=20, noise=0.1, min_match=0.2, sample_size=400,
                      max_weight=8, max_span=10)

    def prepare(self) -> None:
        m = self.spec.alphabet
        motifs = [(draw_motif(self.rng, 6, m), 0.3) for _ in range(2)]
        emerging = [(draw_motif(self.rng, 6, m), 0.3)]
        rows = self.planted(self.rows_n, motifs)
        # The base motifs fade in appended rows, so their border sums
        # drift down without crossing.  Every EMERGING_EVERY-th batch
        # also carries a new motif whose subpatterns are frequent on the
        # delta, so that refresh verifies upward-crosser candidates with
        # one full-store pass; every other refresh stays O(delta).
        fading = [(motif, freq / 2) for motif, freq in motifs]
        self.append_batches = np.concatenate([
            self.batches(1, APPEND_ROWS, fading + (emerging if i % EMERGING_EVERY
                                      == EMERGING_EVERY - 1 else []))
            for i in range(self.n_ops)
        ])
        self.batches_path = self.work / "batches.npy"
        np.save(self.batches_path, self.append_batches)
        self.text = self.work / "base.txt"
        write_text_store(self.text, rows)
        self.root = self.work / "segmented"
        self.checkpoint = self.work / "checkpoint.json"
        self.mine_seed = op_seeds(self.seed, self.name, 1)[0]

    def flags(self) -> List[str]:
        return self.spec.flags("border-collapsing", self.mine_seed)

    def setup_once(self, in_process: bool = False) -> float:
        """``convert --to segmented`` plus ``mine --checkpoint``."""
        shutil.rmtree(self.root, ignore_errors=True)
        steps = [
            ["convert", str(self.text), str(self.root), "--to", "segmented"],
            ["mine", str(self.root), *self.flags(), "--checkpoint",
             str(self.checkpoint), "--json"],
        ]
        if in_process:
            return sum(cli_inprocess(argv)[0] for argv in steps)
        return sum(self.cli_child(argv).wall_s for argv in steps)

    def remine_argv(self, out: Optional[Path] = None) -> List[str]:
        argv = ["remine", str(self.root), "--checkpoint",
                str(self.checkpoint), *self.flags(), "--json"]
        if out is not None:
            argv += ["--checkpoint-out", str(out)]
        return argv

    def timed(self) -> Outcome:
        with self.phase("setup"):
            setup = median([self.setup_once()
                            for _ in range(SETUP_REPEATS[self.name])])
        ops = [Op(i, "remine", 0) for i in range(self.n_ops)]
        with Appender(self.batches_path, self.rows_n, self.work,
                      self.root) as appender, self.phase("ops"):
            for op in ops:
                op.append_s = appender.append(op.index)
                op.record(self.spawner.run(self.remine_argv()))
        with self.phase("checks"):
            self.check(ops)
        metrics = summarise(ops, self.phases["ops"], setup,
                            [op.append_s for op in ops],
                            sum(op.cpu_s for op in ops),
                            max(op.peak_rss_mb for op in ops))
        counts = counts_of(ops)
        counts["delta"] = [
            [op.payload["delta"][key] for key in
             ("full_scans", "reprobed", "crosser_candidates")]
            if op.payload else None for op in ops
        ]
        return Outcome(metrics, ops, [], counts)

    def check(self, ops: Sequence[Op]) -> None:
        """Every refresh is checked against the store as it stood after
        its append: structure through ``verify_result``, and every
        reported value against exact match sums accumulated batch by
        batch over the rows read back from the store.  The last
        refresh's border must equal an exact from-scratch mine of the
        final store."""
        from repro.core.pattern import Pattern
        from repro.core.sequence import SequenceDatabase
        from repro.io import SegmentedSequenceStore
        from repro.mining import LevelwiseMiner, count_matches_batched

        with SegmentedSequenceStore.open(self.root) as store:
            full = store.to_database()
        rows = [row for _sid, row in full.scan()]
        matrix = self.spec.matrix()
        reported = sorted({text for op in ops if op.payload is not None
                           for text in op.payload["patterns"]})
        patterns = [Pattern([-1 if tok == "*" else int(tok)
                             for tok in text.split()]) for text in reported]

        def sums(part: List[np.ndarray]) -> np.ndarray:
            matches = count_matches_batched(
                patterns, SequenceDatabase(part), matrix, engine="vectorized")
            return np.array([matches[p] for p in patterns]) * len(part)

        checker = Checker(self.spec)
        total = sums(rows[:self.rows_n])
        for op in ops:
            start = self.rows_n + op.index * APPEND_ROWS
            total = total + sums(rows[start:start + APPEND_ROWS])
            if op.error is not None:
                continue
            op.error = checker.check(op.payload, refresh=True)
            if op.error is None:
                exact = dict(zip(reported, total / (start + APPEND_ROWS)))
                off = [text for text, value in op.payload["patterns"].items()
                       if abs(exact[text] - value) > 1e-9]
                if off:
                    op.error = f"{len(off)} refreshed values are not exact"
        last = ops[-1]
        if last.error is None:
            exact_run = LevelwiseMiner(
                matrix, self.spec.min_match,
                constraints=self.spec.constraints(), engine="vectorized",
            ).mine(full)
            want = sorted(p.to_string() for p in exact_run.border.elements)
            if sorted(last.payload["border"]) != want:
                last.error = ("final refresh border differs from a "
                              "from-scratch mine")

    def traced(self, recorder):
        from repro.io import SegmentedSequenceStore

        scratch = self.work / "checkpoint-scratch.json"
        self.setup_once(in_process=True)
        ops = [Op(i, "remine", 0) for i in range(self.n_traced)]
        pairs = []
        with SegmentedSequenceStore.open(self.root) as store:
            for op in ops:
                batch = self.append_batches[op.index]
                start = self.rows_n + op.index * APPEND_ROWS
                with recorder.installed(str(op.index)):
                    store.append(list(batch),
                                 ids=list(range(start, start + len(batch))))
                # Both passes refresh the same checkpoint over the same
                # store; the first writes its refresh aside, the second
                # carries the chain on.
                pairs.append(paired_runs(recorder, op, lambda position: (
                    cli_inprocess(self.remine_argv(
                        scratch if position == 0 else None)))))
        self.check(ops)
        return ops, [p[0] for p in pairs], [p[1] for p in pairs]


WORKLOADS = {cls.name: cls for cls in (CliFig14, DaemonDense, AppendRemine)}
