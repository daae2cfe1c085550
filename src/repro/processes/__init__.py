"""Standard process library: every named process from the paper's figures.

Byte-level (type-independent): Cons, SelfRemovingCons, Duplicate, Identity.
Typed (codec-parameterized): Constant, Sequence, FromIterable, Print,
Collect, Discard, Map (the rate-1 map shape) with Scale and MapProcess,
BinaryOp with Add/Subtract/Multiply/Divide/Average/Equal, ModuloFilter,
OrderedMerge, Guard, ModuloRouter, Scatter, Gather, Direct, Turnstile,
Select, Sift, RecursiveSift.

:mod:`~repro.processes.networks` assembles them into the paper's example
graphs (Fibonacci, sieve, Newton square root, Hamming, Figure 13).
"""

from repro.processes.arithmetic import (Add, Average, BinaryOp, Divide, Equal,
                                        ModuloFilter, Multiply, Subtract)
from repro.processes.dsp import (Accumulate, Delay, Downsample, FIRFilter,
                                 MovingAverage, Unzip, Upsample, Window, Zip)
from repro.processes.codecs import (BOOL, Codec, DOUBLE, INT, LONG, OBJECT,
                                    ObjectCodec, StructCodec, get_codec)
from repro.processes.merges import OrderedMerge, ordered_merge_tree
from repro.processes.networks import (BuiltNetwork, fibonacci, hamming,
                                      modulo_merge, newton_sqrt, primes)
from repro.processes.reconfig import RecursiveSift, Sift
from repro.processes.routing import (Direct, Gather, Guard, ModuloRouter,
                                     Scatter, Select, Turnstile)
from repro.processes.sinks import Collect, Discard, Print
from repro.processes.sources import Constant, FromIterable, Sequence
from repro.processes.transforms import (Cons, Duplicate, Identity, Map,
                                        MapProcess, Scale, SelfRemovingCons)

__all__ = [
    "Add", "Average", "BinaryOp", "Divide", "Equal", "ModuloFilter",
    "Multiply", "Subtract",
    "BOOL", "Codec", "DOUBLE", "INT", "LONG", "OBJECT", "ObjectCodec",
    "StructCodec", "get_codec",
    "Accumulate", "Delay", "Downsample", "FIRFilter", "MovingAverage",
    "Unzip", "Upsample", "Window", "Zip",
    "OrderedMerge", "ordered_merge_tree",
    "BuiltNetwork", "fibonacci", "hamming", "modulo_merge", "newton_sqrt",
    "primes",
    "RecursiveSift", "Sift",
    "Direct", "Gather", "Guard", "ModuloRouter", "Scatter", "Select",
    "Turnstile",
    "Collect", "Discard", "Print",
    "Constant", "FromIterable", "Sequence",
    "Cons", "Duplicate", "Identity", "Map", "MapProcess", "Scale",
    "SelfRemovingCons",
]
