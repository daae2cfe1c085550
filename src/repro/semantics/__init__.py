"""Kahn's denotational semantics (paper section 2), executable.

A stream value is a finite prefix plus a flag saying whether it is
complete, ordered by extension (:mod:`~repro.semantics.closed`, the one
domain); processes are continuous functions on it — the ``ck_*``
kernels, which :mod:`~repro.semantics.compile` derives from a built
network, reading each map's ``element_fn`` and each binary operator's
``combine``; a network's meaning is the least fixed point of its
equations, found by Kleene iteration
(:class:`~repro.semantics.closed.ClosedEquationNetwork`); and
determinacy — the paper's central correctness claim — is checked by
comparing operational histories against that fixed point and across
schedules (:mod:`~repro.semantics.determinacy`).
"""

from repro.semantics.closed import (CBOTTOM, CStream, ClosedEquationNetwork,
                                    cprefix_le)
from repro.semantics.compile import (CompiledNetwork,
                                     UncompilableProcessError,
                                     compile_network, register_kernel)
from repro.semantics.determinacy import (fibonacci_equations,
                                         fibonacci_reference,
                                         hamming_equations, hamming_reference,
                                         histories_under_capacities,
                                         primes_reference, sieve_equations)

__all__ = [
    "CBOTTOM", "CStream", "ClosedEquationNetwork", "cprefix_le",
    "CompiledNetwork", "UncompilableProcessError", "compile_network",
    "register_kernel",
    "fibonacci_equations", "fibonacci_reference", "hamming_equations",
    "hamming_reference", "histories_under_capacities", "primes_reference",
    "sieve_equations",
]
