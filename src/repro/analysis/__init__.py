"""``repro.analysis`` — zero-runtime-cost static analysis for KPN programs.

Three passes, surfaced together by ``repro lint`` (see docs/analysis.md):

* :mod:`repro.analysis.astlint` — Kahn-semantics lint over the AST of
  process bodies (polling, clock/randomness, ad-hoc merges, shared
  mutation, foreign I/O);
* :mod:`repro.analysis.races` — mutable objects reachable from two or
  more processes of a *built* network;
* :mod:`repro.analysis.graphproofs` — the graph pass: the paper's
  construction rules (single producer/consumer, connectivity, codec
  agreement) plus directed-cycle deadlock proofs and boundedness proofs
  with initial-token accounting.

:func:`lint_network` chains all three over a built
:class:`~repro.kpn.network.Network`; the source-level entry points
(:func:`lint_paths`, :func:`lint_source`) run the AST pass alone.  The
network-level passes all read one program graph,
:meth:`repro.kpn.network.Network.topology`.

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

__all__ = ["nondeterminate", "declared_nondeterminate", "lint_network"]

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


def lint_network(network) -> List[Finding]:
    """All three passes over a built network.

    AST-lints each distinct leaf process class, detects shared mutable
    state, and runs the graph rules and proofs — all over one
    :meth:`~repro.kpn.network.Network.topology`.  Returns the combined
    findings, errors first.
    """
    from repro.analysis.astlint import lint_class
    from repro.analysis.findings import sort_findings
    from repro.analysis.graphproofs import graph_findings
    from repro.analysis.races import race_findings

    topology = network.topology()
    findings: List[Finding] = []
    for klass in dict.fromkeys(type(p) for p in topology.leaves):
        findings.extend(lint_class(klass))
    findings.extend(race_findings(network, topology))
    findings.extend(graph_findings(network, topology))
    return sort_findings(findings)
