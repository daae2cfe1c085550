"""CSP processes: threads communicating by rendezvous.

A deliberately small runtime — just enough to express the paper's planned
KPN-vs-CSP comparison workloads.  The shape mirrors JCSP: a
:class:`CSPProcess` has a ``run`` body using ``SyncChannel`` operations;
:class:`ParallelCSP` runs a set of processes to completion;
:class:`PoisonError` propagation replaces the KPN termination cascade
(each process poisons its channels on the way out).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional, Sequence

from experiments.csp.channel import PoisonError, SyncChannel

__all__ = ["CSPProcess", "InlineCSP", "ParallelCSP"]


class CSPProcess:
    """Base class: one thread, rendezvous I/O, poison-on-exit.

    Subclasses implement :meth:`body`; channels listed in ``poisons`` are
    poisoned when the process ends (for any reason), which is how
    termination propagates in a CSP network.
    """

    def __init__(self, poisons: Sequence[SyncChannel] = (),
                 name: Optional[str] = None) -> None:
        self.name = name or f"{type(self).__name__}-{id(self) & 0xFFFF:x}"
        self.poisons = list(poisons)
        self.failure: Optional[BaseException] = None

    def body(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        try:
            self.body()
        except PoisonError:
            pass
        except Exception as exc:  # noqa: BLE001
            self.failure = exc
        finally:
            for ch in self.poisons:
                ch.poison()


class InlineCSP(CSPProcess):
    """Adapts a plain callable into a CSP process."""

    def __init__(self, fn: Callable[[], None],
                 poisons: Sequence[SyncChannel] = (),
                 name: Optional[str] = None) -> None:
        super().__init__(poisons=poisons, name=name)
        self.fn = fn

    def body(self) -> None:
        self.fn()


class ParallelCSP:
    """Run CSP processes concurrently; join; surface failures."""

    def __init__(self, processes: Iterable[CSPProcess]) -> None:
        self.processes: List[CSPProcess] = list(processes)
        self._threads: List[threading.Thread] = []

    def start(self) -> "ParallelCSP":
        for p in self.processes:
            t = threading.Thread(target=p.run, name=p.name, daemon=True)
            self._threads.append(t)
            t.start()
        return self

    def join(self, timeout: Optional[float] = None) -> bool:
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            t.join(remaining)
            if t.is_alive():
                return False
        for p in self.processes:
            if p.failure is not None:
                raise p.failure
        return True

    def run(self, timeout: Optional[float] = None) -> bool:
        return self.start().join(timeout)
