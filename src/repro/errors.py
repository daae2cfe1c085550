"""Exception taxonomy for the process-network runtime.

The paper's Java implementation relies on ``java.io.IOException`` for its
cascading-termination protocol (section 3.4): closing an ``InputStream``
makes the *next write* to the corresponding ``OutputStream`` raise, while
closing an ``OutputStream`` lets the reader drain buffered data and only
then observe end-of-stream.  We reproduce that contract with an explicit
exception hierarchy so processes (and tests) can distinguish the two
directions while generic code can still catch the common base class.
"""

from __future__ import annotations

__all__ = [
    "ChannelError",
    "EndOfStreamError",
    "BrokenChannelError",
    "ChannelClosedError",
    "DeadlockError",
    "ArtificialDeadlockError",
    "TrueDeadlockError",
    "RemoteError",
    "RegistryError",
    "MigrationError",
    "GraphConsistencyError",
]


class ChannelError(IOError):
    """Base class for all channel I/O failures (the ``IOException`` analogue).

    ``IterativeProcess.run`` treats any :class:`ChannelError` raised from
    ``step`` as the normal termination signal of the cascading-shutdown
    protocol, mirroring Figure 4 of the paper where ``IOException`` is
    silently swallowed and ``onStop`` closes all of the process's streams.
    """


class EndOfStreamError(ChannelError):
    """Raised by a read once the writer has closed *and* the buffer drained.

    This is the Python analogue of ``EOFException`` surfacing from
    ``DataInputStream`` after ``read`` returns ``-1`` in Java.  Importantly
    it is raised only after all buffered data has been consumed, which is
    what makes the "compute all primes below 100" termination mode of the
    paper consume every produced element before shutting down.
    """


class BrokenChannelError(ChannelError):
    """Raised by a write after the reader has closed its end.

    Java piped streams raise ``IOException("Pipe closed")`` in this case;
    the paper uses it for the "first 100 primes" termination mode where a
    downstream iteration limit propagates *upstream* immediately.
    """


class ChannelClosedError(ChannelError):
    """Raised when operating on a stream that this side already closed."""


class DeadlockError(RuntimeError):
    """Base class for deadlock diagnoses produced by the scheduler."""

    def __init__(self, message: str, blocked: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        #: names of the processes that were blocked when diagnosis was made
        self.blocked = blocked


class ArtificialDeadlockError(DeadlockError):
    """All processes blocked, at least one on a *write* to a full channel.

    Parks' bounded-scheduling result: such a deadlock is an artifact of
    finite channel capacities and can potentially be resolved by enlarging
    the smallest full channel.  The scheduler normally resolves these
    automatically; this exception escapes only when capacity growth is
    disabled or capped.
    """


class TrueDeadlockError(DeadlockError):
    """All processes blocked on *reads* from empty channels.

    No buffer-capacity assignment can make progress; in Kahn semantics the
    network's least fixed point has been reached and execution is complete
    (or the program is genuinely deadlocked if streams were expected to be
    infinite).
    """


class _ReportedError(RuntimeError):
    """A failure on the far side of a request, with its traceback text."""

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        super().__init__(message)
        self.remote_traceback = remote_traceback

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.remote_traceback:
            return f"{base}\n--- remote traceback ---\n{self.remote_traceback}"
        return base


class RemoteError(_ReportedError):
    """An exception raised while executing a task on a remote compute server.

    Carries the remote traceback text so failures occurring on another
    server (or OS process) remain diagnosable from the client.
    """


class RegistryError(_ReportedError):
    """Name-registry lookup or registration failure."""


class MigrationError(RuntimeError):
    """A process/stream could not be migrated between servers."""


class GraphConsistencyError(ValueError):
    """The static pre-flight found the program graph unsound.

    Raised by :meth:`repro.kpn.network.Network.preflight`; ``findings``
    holds the error-severity :class:`repro.analysis.Finding` rows.
    """

    def __init__(self, findings) -> None:
        super().__init__("; ".join(str(f) for f in findings))
        self.findings = list(findings)
