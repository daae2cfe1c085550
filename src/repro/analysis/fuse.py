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
assumed (a class whose source is unavailable counts as dynamic).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Dict, Optional

from repro.analysis.markers import NONDETERMINATE_ATTR
from repro.analysis.races import detect_races

__all__ = ["fusion_blockers", "dynamic_reason", "DYNAMIC_CALLS"]

#: method calls that reconfigure the running graph: a process making any
#: of these keeps its own thread.
DYNAMIC_CALLS = frozenset({"spawn", "new_channel", "splice_from"})

_dynamic_cache: Dict[type, Optional[str]] = {}


def dynamic_reason(klass: type) -> Optional[str]:
    """Why ``klass`` counts as dynamic (graph-reconfiguring), or None.

    Scans the AST of every class in the MRO below the framework bases
    for ``spawn`` / ``new_channel`` / ``splice_from`` call sites.
    """
    from repro.kpn.process import CompositeProcess, IterativeProcess, Process

    if klass in _dynamic_cache:
        return _dynamic_cache[klass]
    reason: Optional[str] = None
    for cls in klass.__mro__:
        if cls in (Process, IterativeProcess, CompositeProcess, object):
            continue
        if cls.__module__ == "repro.kpn.process":
            continue
        try:
            tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        except (OSError, TypeError, SyntaxError):
            reason = (f"source of {cls.__name__} unavailable for the "
                      f"dynamic-capability scan")
            break
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DYNAMIC_CALLS):
                reason = (f"{cls.__name__}.{node.func.attr}() reconfigures "
                          f"the graph at run time")
                break
        if reason:
            break
    _dynamic_cache[klass] = reason
    return reason


def fusion_blockers(network, topology=None) -> Dict[str, str]:
    """Map every unfusable leaf process's name to the reason.

    Consults the ``@nondeterminate`` markers, the run-loop protocol, the
    dynamic-capability scan, and the shared-state race detector
    (:func:`repro.analysis.races.detect_races`) over the built network.
    Processes absent from the result are structurally safe to fuse;
    whether they actually fuse is the compiler's chain-shape decision.
    """
    from repro.kpn.process import IterativeProcess

    topology = topology or network.topology()
    blockers: Dict[str, str] = {}
    for p in topology.leaves:
        klass = type(p)
        declared = getattr(klass, NONDETERMINATE_ATTR, None)
        if declared is not None:
            blockers[p.name] = f"@nondeterminate: {declared}"
            continue
        if (not isinstance(p, IterativeProcess)
                or klass.run is not IterativeProcess.run):
            blockers[p.name] = ("custom run() loop (not the "
                                "on_start/step/on_stop protocol)")
            continue
        dyn = dynamic_reason(klass)
        if dyn is not None:
            blockers[p.name] = f"dynamic: {dyn}"
    for race in detect_races(network, topology):
        shared = ", ".join(race.processes)
        for name in race.processes:
            blockers.setdefault(
                name, f"shared mutable state: {race.type_name} reachable "
                      f"from {shared}")
    return blockers
