"""``repro.analysis`` — zero-runtime-cost static analysis for KPN programs.

Three passes, surfaced together by ``repro lint`` (see docs/analysis.md):

* :mod:`repro.analysis.astlint` — Kahn-semantics lint over the AST of
  process bodies (polling, clock/randomness, ad-hoc merges, shared
  mutation, foreign I/O);
* :mod:`repro.analysis.races` — mutable objects reachable from two or
  more processes of a *built* network;
* :mod:`repro.analysis.graphproofs` — directed-cycle deadlock proofs
  and boundedness proofs with initial-token accounting.

:func:`lint_network` chains all three over a built
:class:`~repro.kpn.network.Network`; the source-level entry points
(:func:`lint_paths`, :func:`lint_source`) run the AST pass alone.

:mod:`repro.analysis.fuse` layers fusion-safety judgements on top of the
same passes for the graph compiler (:mod:`repro.kpn.compile`): which
processes must keep their own threads (``@nondeterminate``, dynamic
graph reconfiguration, custom run loops, shared-state races).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro._lazy import lazy_exports
from repro.analysis.markers import declared_nondeterminate, nondeterminate

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.findings import Finding

# Zero runtime cost includes import cost: the process library imports this
# package for the ``@nondeterminate`` marker alone, so the passes (ast,
# tokenize, inspect) load when a lint entry point is first used.
__getattr__ = lazy_exports(__name__, {
    "astlint": ("RULES", "lint_callable", "lint_class", "lint_file",
                "lint_paths", "lint_source"),
    "findings": ("FAILING_SEVERITIES", "JSON_SCHEMA_VERSION", "Finding",
                 "sort_findings", "summarize"),
    "fuse": ("dynamic_reason", "fusion_blockers"),
    "graphproofs": ("GraphProof", "graph_findings", "prove_graph"),
    "races": ("Race", "detect_races", "race_findings"),
})

__all__ = [
    "Finding", "FAILING_SEVERITIES", "JSON_SCHEMA_VERSION", "RULES",
    "sort_findings", "summarize",
    "nondeterminate", "declared_nondeterminate",
    "lint_source", "lint_file", "lint_paths", "lint_class",
    "lint_callable",
    "Race", "detect_races", "race_findings",
    "GraphProof", "prove_graph", "graph_findings",
    "fusion_blockers", "dynamic_reason",
    "lint_network",
]


def lint_network(network) -> List[Finding]:
    """All three passes over a built network.

    AST-lints each distinct leaf process class, detects shared mutable
    state, and runs the graph proofs.  Returns the combined findings,
    errors first.
    """
    from repro.analysis.astlint import lint_class
    from repro.analysis.findings import sort_findings
    from repro.analysis.graphproofs import graph_findings
    from repro.analysis.races import race_findings
    from repro.kpn.process import CompositeProcess

    findings: List[Finding] = []
    seen_classes: set = set()
    pending = list(network.processes)
    while pending:
        p = pending.pop()
        if isinstance(p, CompositeProcess):
            pending.extend(p.processes)
            continue
        klass = type(p)
        if klass in seen_classes:
            continue
        seen_classes.add(klass)
        findings.extend(lint_class(klass))
    findings.extend(race_findings(network))
    findings.extend(graph_findings(network))
    return sort_findings(findings)
