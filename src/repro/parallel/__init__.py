"""Embarrassingly-parallel computing on process networks (paper section 5).

Generic Producer/Worker/Consumer processes move :class:`Task` objects;
:func:`~repro.parallel.meta.meta_static` and
:func:`~repro.parallel.meta.meta_dynamic` replace one worker with N under
static or on-demand load balancing; :func:`~repro.parallel.farm.run_farm`
wires a whole farm in one call.  Workloads: weak-RSA factorization
(:mod:`~repro.parallel.factor`, the paper's experiment) and block image
compression (:mod:`~repro.parallel.imaging`, the paper's motivating
example).
"""

from repro._lazy import lazy_exports

# Everything loads on first use: a pool child or a compute server imports
# this package for its executor and tasks alone, and ``imaging`` would
# bring numpy into a process that may never touch an image.
__getattr__ = lazy_exports(__name__, {
    "factor": ("DEFAULT_BATCH", "FactorConsumerResult", "FactorProducerTask",
               "FactorResult", "FactorWorkerTask", "factor_search_sequential",
               "is_probable_prime", "make_weak_key", "random_prime",
               "solve_difference"),
    "executor": ("InlineExecutor", "ProcessPool", "TaskExecutor",
                 "default_pool_size", "resolve_executor", "shared_executor",
                 "shutdown_shared_executors"),
    "farm": ("FarmHandle", "build_farm", "run_farm"),
    "generic": ("Consumer", "Producer", "Worker"),
    "imaging": ("BLOCK", "BlockTask", "CompressedBlock", "ImageProducerTask",
                "compress_block", "decompress_block", "join_blocks",
                "random_image", "reassemble", "split_blocks"),
    "meta": ("ParallelHarness", "meta_dynamic", "meta_static"),
    "tasks": ("STOP", "CallableTask", "RangeProducerTask", "ResultTask",
              "Task"),
})
