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

from repro._lazy import lazy_exports

# Every name loads with its module on first use: a chain of Scale stages
# pays for codecs and transforms, not for the sieve, the merges or the
# paper's example graphs.
__getattr__ = lazy_exports(__name__, {
    "arithmetic": ("Add", "Average", "BinaryOp", "Divide", "Equal",
                   "ModuloFilter", "Multiply", "Subtract"),
    "codecs": ("BOOL", "Codec", "DOUBLE", "INT", "LONG", "OBJECT",
               "ObjectCodec", "StructCodec", "get_codec"),
    "dsp": ("Accumulate", "Delay", "Downsample", "FIRFilter",
            "MovingAverage", "Unzip", "Upsample", "Window", "Zip"),
    "merges": ("OrderedMerge", "ordered_merge_tree"),
    "networks": ("BuiltNetwork", "fibonacci", "hamming", "modulo_merge",
                 "newton_sqrt", "primes"),
    "reconfig": ("RecursiveSift", "Sift"),
    "routing": ("Direct", "Gather", "Guard", "ModuloRouter", "Scatter",
                "Select", "Turnstile"),
    "sinks": ("Collect", "Discard", "Print"),
    "sources": ("Constant", "FromIterable", "Sequence"),
    "transforms": ("Cons", "Duplicate", "Identity", "Map", "MapProcess",
                   "Scale", "SelfRemovingCons"),
})
