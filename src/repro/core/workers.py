"""Process-backend shard execution: one worker process per shard.

``ShardedAnalyzer(backend="process")`` places each shard — a
:class:`~repro.core.analyzer.GretelAnalyzer`, the same object an
inline shard is — in a long-lived worker process so shards
genuinely run on separate cores instead of taking turns under the
GIL.  The module has two halves:

* :func:`shard_worker_main` — the worker's event loop.  It is seeded
  **once** with a pickled :class:`WorkerSeed` (fingerprint library,
  config, metadata-store snapshot), builds its own
  ``GretelAnalyzer`` locally (compiling its own selection index
  in-process on the first fault), then serves commands from a
  duplex pipe.  A command's op is the analyzer method to call
  (:data:`PIPELINE_OPS`), or ``reap``, which calls nothing.  Exchange
  commands (``reap``/``flush``/``stats``/…) drain the shard's report
  log and ship the new
  :class:`~repro.core.reports.FaultReport` batch back with the reply,
  so worker memory stays bounded and the parent streams reports at
  chunk granularity; ``feed`` commands are acknowledged with
  *empty* replies — see the deadlock note below.
* :class:`ProcessShard` — the parent-side client.  It answers to the
  analyzer's own names where :class:`~repro.core.parallel.ShardedAnalyzer`
  talks to one shard (``feed`` / ``reports`` / ``on_report``
  / ``close``) and to ``post`` / ``wait`` where it fans one method out
  to the whole pool.

Wire protocol (one reply per command, FIFO per connection):

    parent -> worker   (op, payload)
    worker -> parent   (tag, op, payload, reports)

where ``tag`` is ``"ok"`` or ``"error"`` (payload then carries the
worker traceback).  Lifecycle robustness:

* **Backpressure** — ``feed`` sends one chunk command and
  caps unacknowledged chunks at :data:`DEFAULT_MAX_INFLIGHT`; once the
  cap is reached the parent blocks on the next reply, so a slow shard
  stalls its producer instead of growing an unbounded pipe buffer.
* **Deadlock freedom** — chunk acks never carry reports.  A reply
  batch big enough to fill the worker→parent buffer while the parent
  is itself blocked sending the next chunk would deadlock the pair
  (each side in a blocking ``send``, neither receiving).  Tiny acks
  cannot fill the buffer, so the worker always returns to ``recv``
  and the parent's ``send`` always completes; accumulated reports are
  fetched every :data:`DEFAULT_REAP_EVERY` chunks by an explicit reap
  *exchange*, during which the parent sends nothing else and actively
  receives — a reply of any size drains safely.
* **Liveness** — every reply wait polls the worker's ``is_alive`` and
  a deadline; a dead or wedged worker raises
  :class:`~repro.core.parallel.ShardWorkerError` instead of hanging.
* **Teardown** — any failure (or :meth:`ProcessShard.close`) joins the
  worker with a timeout and terminates it if the join expires;
  workers are daemonic, so an abandoned pool can never outlive the
  parent process.
* **Thread safety** — the pipe protocol is strict FIFO
  request/reply, so every protocol entry point serializes on one
  per-shard reentrant lock: two threads driving one pool can never
  interleave one exchange with another.

See ``docs/parallelism.md`` for the design discussion (chunking,
seeding, rejected alternatives).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.core.fingerprint import FingerprintLibrary
from repro.core.parallel import ShardWorkerError
from repro.core.analyzer import GretelAnalyzer
from repro.core.reports import FaultReport
from repro.openstack.wire import WireEvent

#: Maximum unacknowledged chunk commands per shard before the parent
#: blocks (synchronous backpressure on the producer).
DEFAULT_MAX_INFLIGHT = 4

#: Chunk commands between report-reap exchanges.  Bounds both worker
#: report memory and parent-side report latency to this many chunks
#: without paying a round-trip per chunk.
DEFAULT_REAP_EVERY = 4

#: Seconds to wait for one worker reply before declaring it wedged.
REPLY_TIMEOUT = 120.0

#: Seconds to wait for a worker to exit at close before terminating it.
JOIN_TIMEOUT = 5.0

#: Start method: fork is cheap on Linux (the seed is shared
#: copy-on-write); the explicit pickled seed keeps spawn working where
#: fork is unavailable (or becomes non-default).
_START_METHODS = ("fork", "spawn")


def _context() -> Any:
    for method in _START_METHODS:
        if method in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


#: Process-wide round-robin cursor over the CPUs the parent may run
#: on; every new worker, of whichever pool, takes the next one.
_cpu_cursor = itertools.count()


def _pin(pid: int) -> None:
    """Pin one worker to the next allowed CPU.

    A worker sleeps in ``recv`` between chunks and is woken by the
    parent's ``send``.  A socket write is a *sync* wakeup: the
    scheduler assumes the writer is about to sleep and places the
    wakee on the writer's CPU.  Every worker is woken by the one
    parent, so the pool gravitates onto a single core and stays there
    (sampled on 2 cores: both workers runnable on the same CPU in
    100 % of samples), or does not, run by run — the pool is either
    serial or parallel depending on where the scheduler happened to
    leave it.  One worker per core is the design, so say so.  Best
    effort: a platform without the call, a single allowed CPU or a
    sandbox that forbids it leave placement to the scheduler.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) > 1:
            os.sched_setaffinity(
                pid, {cpus[next(_cpu_cursor) % len(cpus)]}
            )
    except OSError:
        pass


@dataclass
class WorkerSeed:
    """Everything a worker needs to build its shard, pickled once.

    ``wiring`` holds the
    :class:`~repro.core.analyzer.GretelAnalyzer` keywords
    exactly as ``ShardedAnalyzer`` passes them to its inline shards
    (store, config, the latency and defer flags);
    ``shard_id`` only names the worker in its process title and error
    messages.  The metadata store crosses the boundary as a
    snapshot copy: the analyzer only *reads* monitoring metadata
    (populated at capture time), so each worker consults an identical
    read-only copy.  In-process caches (the compiled selection index)
    are rebuilt inside the worker: its shard's detector builds the
    shape table, and each selection fills on first use.
    """

    shard_id: int
    library: FingerprintLibrary
    wiring: Dict[str, Any]


#: Worker ops that are the analyzer's own methods, called by name
#: (with the command's payload when it carries one).  Anything else
#: but ``reap`` and ``stop`` is refused: the pipe is not a way to call
#: arbitrary attributes.
PIPELINE_OPS = ("feed", "flush", "process_deferred", "stats")


def _dispatch(shard: GretelAnalyzer, op: str, payload: Any) -> Any:
    if op in PIPELINE_OPS:
        method = getattr(shard, op)
        return method() if payload is None else method(payload)
    if op == "reap":
        # Nothing to call: the reply itself carries the report batch.
        return None
    raise ValueError(f"unknown worker op {op!r}")


def shard_worker_main(conn: Any, seed: WorkerSeed) -> None:
    """The worker process: build the shard, then serve commands."""
    try:
        shard = GretelAnalyzer(seed.library, **seed.wiring)
    except BaseException:
        try:
            conn.send(("error", "seed", traceback.format_exc(), []))
        except OSError:
            pass
        conn.close()
        return
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            break
        if op == "stop":
            try:
                conn.send(("ok", "stop", None, []))
            except OSError:
                pass
            break
        try:
            result = _dispatch(shard, op, payload)
            # Chunk replies are deliberately tiny acks: a big report
            # batch attached to a chunk ack can fill the worker->parent
            # buffer while the parent is itself blocked sending the
            # next chunk — a bidirectional pipe deadlock.  Reports ride
            # only on exchange ops (reap/flush/stats/...), where the
            # parent is actively receiving and sends nothing else, and
            # the reap every ``DEFAULT_REAP_EVERY`` chunks keeps worker
            # memory bounded by the window and the deferred queue,
            # never by reports published.
            if op == "feed":
                reports = []
            else:
                reports = shard.reports
                shard.shed_logs()
            reply = ("ok", op, result, reports)
        except BaseException:
            reply = ("error", op, traceback.format_exc(), [])
        try:
            conn.send(reply)
        except OSError:
            break
    conn.close()


class ProcessShard:
    """Parent-side client for one shard worker process.

    Stands in for the worker's
    :class:`~repro.core.analyzer.GretelAnalyzer` under the
    same method names, so :class:`~repro.core.parallel.ShardedAnalyzer`
    steps and reads either kind of shard with one call.
    Reports stream back attached to replies and accumulate here (in
    worker emit order), read via :attr:`reports`.
    """

    def __init__(self, seed: WorkerSeed) -> None:
        ctx = _context()
        self.shard_id = seed.shard_id
        # The wire protocol is strict FIFO request/reply, so two
        # threads interleaving commands on one pipe would corrupt the
        # pairing.  Every protocol entry point takes this reentrant
        # lock; in practice it is uncontended — it turns a would-be
        # protocol corruption under misuse into simple serialization.
        self._io = threading.RLock()
        self._inflight = 0
        self._unreaped = 0
        self._closed = False
        self._reports: List[FaultReport] = []
        self._listeners: List[Callable[[FaultReport], None]] = []
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(child, seed),
            daemon=True,
            name=f"gretel-shard-{seed.shard_id}",
        )
        self.process.start()
        child.close()
        _pin(self.process.pid)

    # -- report fan-in ----------------------------------------------------

    def on_report(self, callback: Callable[[FaultReport], None]) -> None:
        """Register a report consumer, fired as reply batches arrive.

        Unlike the inline backend (listeners fire inside the shard's
        synchronous step), process-backend listeners fire on the
        parent when a worker reply is absorbed — same reports, same
        per-shard order, later wall-clock point.
        """
        self._listeners.append(callback)

    def _collect(self, reports: Sequence[FaultReport]) -> None:
        # Single seam through which every worker-produced report
        # enters the parent; the negative-oracle tests tamper here to
        # prove verify_equivalence catches a dropping/duplicating
        # worker.
        self._reports.extend(reports)
        for callback in self._listeners:
            for report in reports:
                callback(report)

    @property
    def reports(self) -> List[FaultReport]:
        """Reports received so far (call after flush/drain to sync)."""
        return list(self._reports)

    # -- protocol plumbing ------------------------------------------------

    def _fail(self, message: str) -> "ShardWorkerError":
        self.close()
        raise ShardWorkerError(message)

    def post(self, op: str, payload: Any = None) -> None:
        """Send one command without waiting for its reply."""
        with self._io:
            self._post(op, payload)

    def _post(self, op: str, payload: Any = None) -> None:
        if self._closed:
            self._fail(
                f"shard {self.shard_id} worker is closed "
                f"(command {op!r} rejected)"
            )
        if not self.process.is_alive() and not self._conn.poll():
            self._fail(
                f"shard {self.shard_id} worker died "
                f"(exit code {self.process.exitcode}) "
                f"before command {op!r}"
            )
        try:
            self._conn.send((op, payload))
        except (OSError, ValueError) as error:
            self._fail(
                f"cannot reach shard {self.shard_id} worker: {error}"
            )
        self._inflight += 1

    def _reply(self) -> Any:
        """Receive one reply (FIFO); raises on error/death/timeout.

        Callers hold :attr:`_io` (all protocol entry points do).
        """
        if self._closed:
            self._fail(f"shard {self.shard_id} worker is closed")
        deadline = time.monotonic() + REPLY_TIMEOUT
        while not self._conn.poll(0.05):
            if not self.process.is_alive() and not self._conn.poll():
                self._fail(
                    f"shard {self.shard_id} worker died "
                    f"(exit code {self.process.exitcode}) "
                    "with replies outstanding"
                )
            if time.monotonic() >= deadline:
                self._fail(
                    f"shard {self.shard_id} worker did not reply "
                    f"within {REPLY_TIMEOUT:.0f}s"
                )
        try:
            tag, op, payload, reports = self._conn.recv()
        except (EOFError, OSError) as error:
            self._fail(
                f"lost connection to shard {self.shard_id} worker: "
                f"{error}"
            )
        self._inflight -= 1
        self._collect(reports)
        if tag == "error":
            self._fail(
                f"shard {self.shard_id} worker failed in {op!r}:\n"
                f"{payload}"
            )
        return op, payload

    def wait(self, op: str) -> Any:
        """Absorb replies until ``op``'s arrives; returns its payload."""
        with self._io:
            while True:
                got, payload = self._reply()
                if got == op:
                    return payload

    def call(self, op: str, payload: Any = None) -> Any:
        """Round-trip one command (absorbing earlier replies first).

        The post/wait pair holds the protocol lock for its whole
        duration, so a concurrent thread can never splice a command
        between them.
        """
        with self._io:
            self._post(op, payload)
            return self.wait(op)

    # -- the analyzer's names ---------------------------------------------

    def feed(self, chunk: Sequence[WireEvent]) -> None:
        """Ship one chunk of this shard's events to the worker.

        Absorbs any replies already waiting, and blocks once
        ``DEFAULT_MAX_INFLIGHT`` chunks are unacknowledged —
        synchronous backpressure, so a slow worker stalls its producer
        instead of buffering without bound.  Chunk acks carry no
        reports (see :func:`shard_worker_main` on why that matters for
        deadlock freedom); every ``DEFAULT_REAP_EVERY`` chunks a reap
        exchange collects what the worker accumulated.
        """
        if not chunk:
            return
        with self._io:
            while self._conn.poll():
                self._reply()
            self._post("feed", chunk)
            self._unreaped += 1
            while self._inflight >= DEFAULT_MAX_INFLIGHT:
                self._reply()
            if self._unreaped >= DEFAULT_REAP_EVERY:
                # One round-trip per that many chunks: the wait
                # absorbs the outstanding chunk acks (FIFO) and then
                # the reap reply carrying the report batch — received
                # while nothing else is being sent, so a reply of any
                # size can never wedge the pipe.
                self._unreaped = 0
                self._post("reap")
                self.wait("reap")

    # -- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the worker; idempotent, never raises, never hangs.

        Takes the protocol lock so the ``stop`` command cannot splice
        into another thread's in-flight exchange (reentrant: the
        failure path calls close while already holding it).
        """
        with self._io:
            self._close()

    def _close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.process.is_alive():
            try:
                self._conn.send(("stop", None))
            except (OSError, ValueError):
                pass
        try:
            self._conn.close()
        except OSError:
            pass
        self.process.join(JOIN_TIMEOUT)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(JOIN_TIMEOUT)
