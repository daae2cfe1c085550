"""A minimal CSP runtime for the paper's planned comparison (§6.2).

Rendezvous channels (:class:`~experiments.csp.channel.SyncChannel`), guarded
choice (:class:`~experiments.csp.channel.Alternation`), threaded processes with
poison-propagation termination (:mod:`~experiments.csp.process`), and the
factorization farm rebuilt on them (:func:`~experiments.csp.farm.csp_farm`) so
the KPN and CSP styles can be benchmarked against each other on identical
Task objects.
"""

from experiments.csp.channel import Alternation, PoisonError, SyncChannel
from experiments.csp.farm import csp_farm
from experiments.csp.process import CSPProcess, InlineCSP, ParallelCSP

__all__ = ["Alternation", "PoisonError", "SyncChannel", "csp_farm",
           "CSPProcess", "InlineCSP", "ParallelCSP"]
