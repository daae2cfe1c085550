"""Shared-state race detection over a built :class:`Network`.

Every process runs in its own thread (paper section 3.2), so any
*mutable* Python object reachable from two processes is a data race the
runtime permits silently — and a determinacy hole the Kahn model never
sees, because it lives outside the channels.

:func:`detect_races` walks each leaf process's object graph — its
``__dict__``, the closure cells and ``functools.partial`` bindings of
any captured callables, and the contents of containers — and reports
every mutable object reachable from two or more processes.

Deliberately *not* reported:

* channels, endpoint streams, buffers, and block accounting — sharing
  them is the point; their internal locking is the runtime's contract;
* the owning :class:`Network` and other :class:`Process` objects
  (process-to-process references are topology, not shared data; the
  referenced process's own state is checked from its own root);
* locks, events, conditions, semaphores, and threads;
* immutables: tuples, frozensets, str/bytes/numbers, frozen dataclasses;
* classes that declare ``__kpn_shared_ok__ = True`` (e.g. the stateless
  element codecs, which are module-level singletons by design).
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.analysis.findings import Finding
from repro.kpn.buffers import BlockAccounting, BoundedByteBuffer
from repro.kpn.channel import Channel
from repro.kpn.network import Network
from repro.kpn.process import Process
from repro.kpn.streams import InputStream, OutputStream

__all__ = ["Race", "detect_races", "race_findings"]

#: recursion ceiling — deep graphs beyond this are runtime plumbing
_MAX_DEPTH = 12

_ATOMIC_TYPES = (type(None), bool, int, float, complex, str, bytes,
                 range, slice, type)

_LOCK_TYPES = (threading.Event, threading.Condition, threading.Semaphore,
               threading.BoundedSemaphore, threading.Barrier,
               threading.Thread, threading.local)

_INFRA_TYPES = (Channel, InputStream, OutputStream, BoundedByteBuffer,
                BlockAccounting, Network, Process)


@dataclass
class Race:
    """One mutable object reachable from two or more processes."""

    type_name: str
    object_repr: str
    processes: Tuple[str, ...]
    paths: Dict[str, str]  #: process name -> first capture path seen

    def describe(self) -> str:
        routes = ", ".join(f"{p} via {self.paths[p]}"
                           for p in self.processes)
        return (f"mutable {self.type_name} {self.object_repr} shared by "
                f"{len(self.processes)} processes: {routes}")


def _is_lockish(obj: Any) -> bool:
    if isinstance(obj, _LOCK_TYPES):
        return True
    # threading.Lock / RLock are C factories; match by defining module
    return type(obj).__module__ in ("_thread", "_threading_local")


def _is_exempt(obj: Any) -> bool:
    if isinstance(obj, _INFRA_TYPES) or _is_lockish(obj):
        return True
    if getattr(type(obj), "__kpn_shared_ok__", False):
        return True
    import types
    return isinstance(obj, (types.ModuleType, types.BuiltinFunctionType))


def _is_mutable(obj: Any) -> bool:
    if isinstance(obj, _ATOMIC_TYPES):
        return False
    if isinstance(obj, (tuple, frozenset)):
        return False
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return not type(obj).__dataclass_params__.frozen
    if isinstance(obj, (list, dict, set, bytearray, memoryview)):
        return True
    if type(obj).__name__ == "ndarray":  # numpy, without importing it
        return True
    import collections
    if isinstance(obj, (collections.deque, collections.Counter,
                        collections.OrderedDict, collections.defaultdict)):
        return True
    import types
    if isinstance(obj, (types.FunctionType, types.MethodType,
                        functools.partial)):
        return False  # code is shared safely; captured state is traversed
    # arbitrary instances: mutable iff they carry instance state
    return hasattr(obj, "__dict__") or bool(getattr(obj, "__slots__", ()))


def _children(obj: Any) -> List[Tuple[str, Any]]:
    """(edge-label, child) pairs to continue the capture traversal."""
    out: List[Tuple[str, Any]] = []
    import types
    if isinstance(obj, dict):
        for k, v in list(obj.items()):
            out.append((f"[{k!r}]", v))
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for i, v in enumerate(list(obj)):
            out.append((f"[{i}]", v))
    elif isinstance(obj, functools.partial):
        out.append((".func", obj.func))
        for i, v in enumerate(obj.args):
            out.append((f".args[{i}]", v))
        for k, v in obj.keywords.items():
            out.append((f".keywords[{k!r}]", v))
    elif isinstance(obj, types.MethodType):
        out.append((".__func__", obj.__func__))
        # __self__ is a Process in the common case; exemption stops it
        out.append((".__self__", obj.__self__))
    elif isinstance(obj, types.FunctionType):
        for i, cell in enumerate(obj.__closure__ or ()):
            try:
                out.append((f".<closure>[{i}]", cell.cell_contents))
            except ValueError:
                pass  # empty cell
        for i, v in enumerate(obj.__defaults__ or ()):
            out.append((f".<default>[{i}]", v))
    else:
        state = getattr(obj, "__dict__", None)
        if isinstance(state, dict):
            for k, v in list(state.items()):
                out.append((f".{k}", v))
        for slot in getattr(type(obj), "__slots__", ()) or ():
            if isinstance(slot, str) and hasattr(obj, slot):
                out.append((f".{slot}", getattr(obj, slot)))
    return out


def detect_races(network: Network, topology=None) -> List[Race]:
    """All mutable objects reachable from >= 2 of the network's processes."""
    topology = topology or network.topology()
    #: id(obj) -> (obj, {process name -> capture path})
    seen: Dict[int, Tuple[Any, Dict[str, str]]] = {}

    def visit(obj: Any, owner: str, path: str, depth: int,
              visited: set) -> None:
        if depth > _MAX_DEPTH or obj is None:
            return
        if isinstance(obj, _ATOMIC_TYPES):
            return
        oid = id(obj)
        if oid in visited:
            return
        visited.add(oid)
        if _is_exempt(obj):
            return  # neither reported nor traversed
        entry = seen.get(oid)
        if entry is None:
            seen[oid] = (obj, {owner: path})
        else:
            entry[1].setdefault(owner, path)
        for label, child in _children(obj):
            visit(child, owner, path + label, depth + 1, visited)

    for p in topology.leaves:
        visited: set = set()
        for attr, value in list(vars(p).items()):
            if attr in ("network", "_ctrl"):
                continue
            visit(value, p.name, f"{p.name}.{attr}", 1, visited)

    races: List[Race] = []
    for obj, owners in seen.values():
        if len(owners) >= 2 and _is_mutable(obj):
            names = tuple(sorted(owners))
            try:
                shown = repr(obj)
            except Exception:
                shown = f"<{type(obj).__name__} at 0x{id(obj):x}>"
            if len(shown) > 60:
                shown = shown[:57] + "..."
            races.append(Race(type_name=type(obj).__name__,
                              object_repr=shown, processes=names,
                              paths={n: owners[n] for n in names}))
    races.sort(key=lambda r: (r.paths[r.processes[0]], r.type_name))
    return races


def race_findings(network: Network, topology=None) -> List[Finding]:
    return [Finding(rule="shared-state", severity="error",
                    message=race.describe(), analysis="races",
                    subject=", ".join(race.processes))
            for race in detect_races(network, topology)]
