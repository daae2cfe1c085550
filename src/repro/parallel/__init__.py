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

from repro.parallel.factor import (DEFAULT_BATCH, FactorConsumerResult,
                                   FactorProducerTask, FactorResult,
                                   FactorWorkerTask, factor_search_sequential,
                                   is_probable_prime, make_weak_key,
                                   random_prime, solve_difference)
from repro.parallel.executor import (InlineExecutor, ProcessPool,
                                     TaskExecutor, default_pool_size,
                                     resolve_executor, shared_executor,
                                     shutdown_shared_executors)
from repro.parallel.farm import FarmHandle, build_farm, run_farm
from repro.parallel.generic import Consumer, Producer, Worker
from repro.parallel.imaging import (BLOCK, BlockTask, CompressedBlock,
                                    ImageProducerTask, compress_block,
                                    decompress_block, join_blocks,
                                    random_image, reassemble, split_blocks)
from repro.parallel.meta import ParallelHarness, meta_dynamic, meta_static
from repro.parallel.tasks import (STOP, CallableTask, RangeProducerTask,
                                  ResultTask, Task)

__all__ = [
    "DEFAULT_BATCH", "FactorConsumerResult", "FactorProducerTask",
    "FactorResult", "FactorWorkerTask", "factor_search_sequential",
    "is_probable_prime", "make_weak_key", "random_prime", "solve_difference",
    "FarmHandle", "build_farm", "run_farm",
    "Consumer", "Producer", "Worker",
    "InlineExecutor", "ProcessPool", "TaskExecutor",
    "default_pool_size", "resolve_executor", "shared_executor",
    "shutdown_shared_executors",
    "BLOCK", "BlockTask", "CompressedBlock", "ImageProducerTask",
    "compress_block", "decompress_block", "join_blocks", "random_image",
    "reassemble", "split_blocks",
    "ParallelHarness", "meta_dynamic", "meta_static",
    "STOP", "CallableTask", "RangeProducerTask", "ResultTask", "Task",
]
