"""Fusion-safety analysis: which processes may the graph compiler fuse?

The graph compiler (:mod:`repro.kpn.compile`) collapses linear chains of
processes into a single thread that invokes the stage bodies by direct
call.  That is only sound for processes whose behaviour is a function of
their input streams and the ``on_start``/``step``/``on_stop`` protocol:

* anything declared ``@nondeterminate`` observes event ordering, and a
  fused schedule is a *different* ordering;
* anything that reconfigures the graph at run time (``spawn``,
  ``new_channel``, ``splice_from`` — Sift, SelfRemovingCons) creates
  processes and channels that need their own threads and real buffers;
* anything driving its own loop instead of the ``step`` protocol cannot
  be pumped one step at a time;
* anything sharing mutable state with another process depends on the
  thread interleaving the compiler is about to change.

This module centralizes those judgements so the compiler, the CLI plan
printout, and the negative tests all agree on them.  The verdicts are
conservative by construction: fusion must be *proved* safe, never
assumed.  The dynamic-capability scan reads the compiled code of every
routine a class body defines (nested functions, lambdas and
comprehensions included), not its source, so a class built by ``exec``
is judged like any other; a routine with no code to read counts as
dynamic.
"""

from __future__ import annotations

from types import CodeType, GetSetDescriptorType, MemberDescriptorType
from typing import Dict, Iterator, Optional

from repro.analysis.races import detect_races

__all__ = ["fusion_blockers", "dynamic_reason", "DYNAMIC_CALLS"]

#: method calls that reconfigure the running graph: a process making any
#: of these keeps its own thread.
DYNAMIC_CALLS = frozenset({"spawn", "new_channel", "splice_from"})

_dynamic_cache: Dict[type, Optional[str]] = {}


def _names(value, owner: str) -> Iterator[Optional[str]]:
    """Every name the code behind a class-body ``value`` refers to, and
    None for a routine that has no code to read.

    Walks nested code objects (inner functions, lambdas, comprehensions),
    static and class methods, properties, ``__wrapped__``, containers and
    the bodies of classes nested in ``owner`` (by qualified name).
    """
    if isinstance(value, CodeType):
        yield from value.co_names
        for const in value.co_consts:
            yield from _names(const, owner)
    elif isinstance(value, (staticmethod, classmethod)):
        yield from _names(value.__func__, owner)
    elif isinstance(value, property):
        for accessor in (value.fget, value.fset, value.fdel):
            yield from _names(accessor, owner)
    elif isinstance(value, type):
        # a class merely referenced (a codec type, an exception) is not
        # part of the body
        if value.__qualname__.startswith(owner + "."):
            for member in vars(value).values():
                yield from _names(member, owner)
    elif isinstance(value, (tuple, list, set, frozenset, dict)):
        for item in (value.values() if isinstance(value, dict) else value):
            yield from _names(item, owner)
    elif isinstance(value, (GetSetDescriptorType, MemberDescriptorType)):
        return
    else:
        code = getattr(value, "__code__", None)
        wrapped = getattr(value, "__wrapped__", None)
        if isinstance(code, CodeType) or wrapped is not None:
            yield from _names(code, owner)
            yield from _names(wrapped, owner)
        elif callable(value) or hasattr(type(value), "__get__"):
            yield None


def dynamic_reason(klass: type) -> Optional[str]:
    """Why ``klass`` counts as dynamic (graph-reconfiguring), or None.

    Reads the code of every routine defined in a class of the MRO below
    the framework bases for a ``spawn`` / ``new_channel`` /
    ``splice_from`` reference; a routine it cannot read counts as one.
    """
    if klass in _dynamic_cache:
        return _dynamic_cache[klass]
    reason: Optional[str] = None
    for cls in klass.__mro__:
        if cls is object or cls.__module__ == "repro.kpn.process":
            continue
        reason = next((
            f"{cls.__name__}.{attr} has no code to scan" if name is None
            else f"{cls.__name__}.{name}() reconfigures the graph at run time"
            for attr, value in vars(cls).items()
            for name in _names(value, cls.__qualname__)
            if name is None or name in DYNAMIC_CALLS), None)
        if reason:
            break
    _dynamic_cache[klass] = reason
    return reason


def fusion_blockers(network, topology=None) -> Dict[str, str]:
    """Map every unfusable leaf process's name to the reason.

    Consults :func:`~repro.kpn.process.needs_own_thread` (the
    ``@nondeterminate`` markers and the run-loop protocol), the
    dynamic-capability scan, and the shared-state race detector
    (:func:`repro.analysis.races.detect_races`) over the built network.
    Processes absent from the result are structurally safe to fuse;
    whether they actually fuse is the compiler's chain-shape decision.
    """
    from repro.kpn.process import needs_own_thread

    topology = topology or network.topology()
    blockers: Dict[str, str] = {}
    for p in topology.leaves:
        reason = needs_own_thread(p)
        dyn = None if reason else dynamic_reason(type(p))
        if reason or dyn:
            blockers[p.name] = reason or f"dynamic: {dyn}"
    for race in detect_races(network, topology):
        shared = ", ".join(race.processes)
        for name in race.processes:
            blockers.setdefault(
                name, f"shared mutable state: {race.type_name} reachable "
                      f"from {shared}")
    return blockers
