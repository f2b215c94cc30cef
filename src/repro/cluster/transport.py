"""Shard transports: how the coordinator reaches its shards.

Three implementations of one tiny submit/collect protocol:

``inline``
    The shard lives in the coordinator's process.  Zero overhead, no
    parallelism -- the default, and what the exactness property tests
    exercise (the other transports run the byte-identical
    :class:`~repro.cluster.shard.ShardHost` code).

``process``
    One worker process per shard, connected over a
    :func:`multiprocessing.Pipe`.  Shard passes run truly in parallel
    (one GIL per worker), which is what the end-to-end benchmark's
    ``cluster_discover`` workload measures.

``socket``
    One worker process per shard, connected through an authenticated
    localhost TCP socket (:mod:`multiprocessing.connection`).  Same
    worker loop as ``process``; the point is that nothing in the
    protocol assumes shared memory, so the socket pair is the template
    for shards on *other machines* -- point the client at a remote
    listener and the coordinator code does not change.

The fan-out idiom is pipelined: the coordinator ``submit``\\ s to every
shard first and only then ``collect``\\ s, so worker shards
compute concurrently.  Each transport owns exactly one shard;
request/response pairs are strictly ordered per transport, which keeps
the protocol trivial (no request ids).

Construction is pipelined the same way, in two phases.  *Start*
(:func:`make_transport`, i.e. the transport constructors) forks the
worker and ships it the construction tuple; *await-ready*
(:meth:`ShardTransport.await_ready`) blocks for the worker's "ready"
reply and raises its construction error.  A coordinator starts every
replica before it awaits the first, so N workers tokenise and index at
once, and awaits them all before its own constructor returns.  Workers
are forked where the platform forks (Linux), so they inherit every
module -- and the compute-backend singleton -- the coordinator process
already loaded; on a spawn-start platform each worker re-imports
:mod:`repro` (and numpy) from scratch, inside its construction.

Errors raised inside a worker travel back as a formatted traceback and
re-raise coordinator-side as :class:`ShardTransportError` -- a shard
failure must never silently shrink a result set.
"""

from __future__ import annotations

import abc
import multiprocessing
import time
import traceback
from multiprocessing.connection import Client, Connection, Listener
from typing import Sequence

from repro.cluster.shard import ShardHost
from repro.core.config import SilkMothConfig
from repro.obs.sketch import get_sketch_registry
from repro.settings import SETTINGS

#: Recognised transport names.
KNOWN_TRANSPORTS = SETTINGS["SILKMOTH_CLUSTER_TRANSPORT"].choices


class ShardTransportError(RuntimeError):
    """A shard worker raised while handling a command."""


def _observe_collect_wait(transport: str, seconds: float) -> None:
    """Record how long one ``collect`` blocked on a shard reply.

    Feeds the ``silkmoth_transport_wait_quantile`` sketch family: the
    coordinator-side straggler signal.  Inline shards answer at submit
    time, so their wait is structurally zero; under the worker
    transports this is the per-reply tail the fan-out actually pays.
    """
    get_sketch_registry().register(
        "silkmoth_transport_wait_quantile",
        "Coordinator wall seconds blocked collecting one shard reply.",
        ("transport",),
    ).record(seconds, transport=transport)


class ShardTimeoutError(ShardTransportError):
    """A shard reply did not arrive within the per-request deadline.

    After a timeout the transport is desynchronised -- the late reply
    may still arrive and would pair with the *next* command -- so the
    caller must treat the endpoint as dead (close or :meth:`kill` it)
    rather than keep talking to it.  The cluster coordinator does
    exactly that: a timed-out replica is marked unhealthy and the
    request fails over to the next replica.
    """


class ShardTransport(abc.ABC):
    """One shard endpoint speaking the submit/collect protocol."""

    @abc.abstractmethod
    def submit(self, command: str, payload: tuple) -> None:
        """Dispatch one command without waiting for its result."""

    @abc.abstractmethod
    def collect(self, timeout: "float | None" = None):
        """Return the result of the oldest un-collected ``submit``.

        *timeout* bounds the wait in seconds; expiry raises
        :class:`ShardTimeoutError` (in-process transports answer
        immediately and never time out).  Calling without a pending
        ``submit`` raises :class:`ShardTransportError` on every
        transport -- protocol misuse fails fast and uniformly.
        """

    def await_ready(self) -> None:
        """Block until the shard behind this endpoint is constructed.

        Second phase of the construction handshake (the constructor is
        the first): raises :class:`ShardTransportError` when the worker
        failed to build its shard or died trying.  Idempotent; the
        default is a no-op because an in-process shard is built by the
        time its constructor returns.
        """

    def request(
        self, command: str, payload: tuple = (), timeout: "float | None" = None
    ):
        """Convenience round-trip: submit then collect."""
        self.submit(command, payload)
        return self.collect(timeout)

    @abc.abstractmethod
    def close(self) -> None:
        """Shut the shard down cleanly and release its resources
        (idempotent on every transport)."""

    def kill(self) -> None:
        """Tear the shard down *abruptly*, skipping the close handshake.

        Models sudden worker death (OOM kill, machine loss): no drain,
        no goodbye message.  After :meth:`kill`, ``submit``/``collect``
        raise :class:`ShardTransportError`.  The default implementation
        is a plain :meth:`close`; transports with real workers
        terminate the process instead.
        """
        self.close()


class InlineTransport(ShardTransport):
    """The shard host running inside the coordinator's process."""

    def __init__(self, *host_args):
        self.host = ShardHost(*host_args)
        self._pending: list = []
        self._dead = False

    def submit(self, command: str, payload: tuple) -> None:
        """Execute immediately (inline shards have no concurrency)."""
        if self._dead:
            raise ShardTransportError("transport is closed")
        try:
            self._pending.append((True, self.host.handle(command, payload)))
        except Exception as exc:  # noqa: BLE001 - mirrored to the caller
            self._pending.append(
                (False, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )

    def collect(self, timeout: "float | None" = None):
        """Pop the oldest submitted result (raising mirrored errors).

        *timeout* is accepted for interface parity but never fires:
        inline results are computed at submit time.
        """
        if self._dead:
            raise ShardTransportError("transport is closed")
        if not self._pending:
            raise ShardTransportError("collect() without a pending submit()")
        ok, value = self._pending.pop(0)
        if not ok:
            raise ShardTransportError(value)
        _observe_collect_wait("inline", 0.0)
        return value

    def close(self) -> None:
        """Mark the in-process shard dead and drop pending replies."""
        self._pending.clear()
        self._dead = True


def _worker_loop(conn: Connection) -> None:
    """The worker-side command loop shared by process and socket shards.

    Protocol: first message is the construction tuple (the
    :class:`~repro.cluster.shard.ShardHost` arguments, in order);
    afterwards each ``(command, payload)`` message yields one
    ``(ok, value)`` reply, where a False ``ok`` carries the formatted
    traceback.  The loop exits on the ``"close"`` command or a closed
    connection.
    """
    host_args = conn.recv()
    try:
        host = ShardHost(*host_args)
        conn.send((True, "ready"))
    except Exception as exc:  # noqa: BLE001 - mirrored to the coordinator
        conn.send((False, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
        return
    while True:
        try:
            command, payload = conn.recv()
        except EOFError:
            return
        if command == "close":
            conn.send((True, None))
            return
        try:
            conn.send((True, host.handle(command, payload)))
        except Exception as exc:  # noqa: BLE001 - mirrored to the coordinator
            conn.send(
                (False, f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
            )


class _RemoteTransport(ShardTransport):
    """Shared plumbing for the worker-process transports."""

    #: Transport-kind label on the collect-wait sketch (subclasses set it).
    kind = "remote"

    def __init__(self) -> None:
        self._conn: Connection | None = None
        self._process: multiprocessing.Process | None = None
        self._outstanding = 0
        #: Whether the worker's construction reply has been consumed.
        self._ready = False

    def _start(self, host_args: tuple) -> None:
        """Ship the construction tuple; the reply is :meth:`await_ready`'s."""
        self._conn.send(host_args)

    def await_ready(self) -> None:
        """Wait for the worker's ready reply (or its construction error)."""
        if self._ready:
            return
        if self._conn is None:
            raise ShardTransportError("transport is closed")
        try:
            ok, value = self._conn.recv()
        except (OSError, EOFError) as exc:
            # A worker that died during construction closes the pipe
            # without a reply.
            raise ShardTransportError(
                "shard worker died during construction"
            ) from exc
        if not ok:
            raise ShardTransportError(f"shard worker failed to start: {value}")
        self._ready = True

    def submit(self, command: str, payload: tuple) -> None:
        """Send one command; the worker replies in submission order."""
        if self._conn is None:
            raise ShardTransportError("transport is closed")
        if not self._ready:
            # Replies pair with requests by order alone: the construction
            # reply must be consumed before the first command's can be.
            self.await_ready()
        try:
            self._conn.send((command, payload))
        except (OSError, BrokenPipeError) as exc:
            raise ShardTransportError(f"shard worker is gone: {exc}") from exc
        self._outstanding += 1

    def collect(self, timeout: "float | None" = None):
        """Receive the oldest outstanding reply (raising mirrored errors).

        With a *timeout*, waits at most that many seconds for the reply
        and raises :class:`ShardTimeoutError` on expiry -- after which
        the connection is desynchronised and must not be reused (see
        :class:`ShardTimeoutError`).
        """
        if self._conn is None:
            raise ShardTransportError("transport is closed")
        if self._outstanding <= 0:
            raise ShardTransportError("collect() without a pending submit()")
        self._outstanding -= 1
        started = time.perf_counter()
        if timeout is not None and not self._conn.poll(timeout):
            raise ShardTimeoutError(
                f"no shard reply within {timeout:.3f}s deadline"
            )
        try:
            ok, value = self._conn.recv()
        except (OSError, EOFError, BrokenPipeError) as exc:
            raise ShardTransportError(f"shard worker died: {exc}") from exc
        if not ok:
            raise ShardTransportError(value)
        _observe_collect_wait(self.kind, time.perf_counter() - started)
        return value

    def close(self) -> None:
        """Ask the worker to exit, then reap the process."""
        if self._conn is None:
            return
        try:
            # Drain anything outstanding (the construction reply of a
            # started-but-never-awaited worker included) so the close
            # reply pairs up; a bounded wait per reply keeps close()
            # from hanging forever on a worker that will never answer.
            if not self._ready and not self._conn.poll(5):
                raise ShardTimeoutError("shard worker is still constructing")
            self.await_ready()
            while self._outstanding > 0:
                self.collect(timeout=5)
            self._conn.send(("close", ()))
            self._conn.recv()
        except (OSError, EOFError, BrokenPipeError, ShardTransportError):
            pass
        finally:
            self._conn.close()
            self._conn = None
            if self._process is not None:
                self._process.join(timeout=5)
                if self._process.is_alive():  # pragma: no cover - safety net
                    self._process.terminate()
                    self._process.join(timeout=5)
                self._process = None

    def kill(self) -> None:
        """Terminate the worker process immediately (no handshake)."""
        if self._process is not None:
            self._process.terminate()
            self._process.join(timeout=5)
            self._process = None
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._outstanding = 0


class ProcessTransport(_RemoteTransport):
    """One worker process per shard over a duplex pipe."""

    kind = "process"

    def __init__(self, *host_args):
        super().__init__()
        parent, child = multiprocessing.Pipe()
        self._process = multiprocessing.Process(
            target=_worker_loop, args=(child,), daemon=True
        )
        self._process.start()
        child.close()
        self._conn = parent
        self._start(host_args)


def _socket_worker(address, authkey: bytes) -> None:
    """Worker entry point for the socket transport: dial back and serve."""
    conn = Client(address, authkey=authkey)
    try:
        _worker_loop(conn)
    finally:
        conn.close()


class SocketTransport(_RemoteTransport):
    """One worker process per shard over an authenticated local socket.

    The listener binds an ephemeral ``127.0.0.1`` port and the worker
    dials back; every byte then flows through the same
    :mod:`multiprocessing.connection` channel a remote machine would
    use, which is the point of shipping this transport at all.
    """

    kind = "socket"

    def __init__(self, *host_args):
        super().__init__()
        authkey = multiprocessing.current_process().authkey
        listener = Listener(("127.0.0.1", 0), authkey=bytes(authkey))
        try:
            self._process = multiprocessing.Process(
                target=_socket_worker,
                args=(listener.address, bytes(authkey)),
                daemon=True,
            )
            self._process.start()
            self._conn = listener.accept()
        finally:
            listener.close()
        self._start(host_args)


#: Transport name -> constructor.
_TRANSPORTS = {
    "inline": InlineTransport,
    "process": ProcessTransport,
    "socket": SocketTransport,
}


def make_transport(
    name: str,
    config: SilkMothConfig,
    raw_sets: Sequence[Sequence[str]] = (),
    deleted: Sequence[int] = (),
    compact_dead_fraction: float = 0.25,
) -> ShardTransport:
    """Start one shard behind the named transport.

    Returns as soon as the worker has been handed its construction
    tuple, so a caller can start further shards while this one builds.
    :meth:`~ShardTransport.await_ready` blocks until the shard is
    built and raises its construction error; ``submit`` and ``close``
    imply it, so an endpoint that is simply used behaves as if it had
    been ready all along.  The arguments are
    :class:`~repro.cluster.shard.ShardHost`'s, and every transport
    constructor takes them in that order.
    """
    try:
        factory = _TRANSPORTS[name]
    except KeyError:
        raise ValueError(
            f"unknown cluster transport {name!r}; known: "
            f"{', '.join(KNOWN_TRANSPORTS)}"
        ) from None
    return factory(
        config,
        tuple(tuple(elements) for elements in raw_sets),
        tuple(deleted),
        compact_dead_fraction,
    )
