"""Ablation: struct vs pickle framing (design choice #3).

The paper counts "Object Serialization and network communication
associated with the channels" among its minor overheads.  Here we measure
the cost difference between fixed-width struct codecs and pickle framing
for channel traffic, and the pickle cost of a real worker-task object —
the per-task overhead constant the simulated cluster is calibrated with.
"""

import pickle

import pytest

from repro.kpn.buffers import BoundedByteBuffer
from repro.kpn.streams import (BlockingInputStream, LocalInputStream,
                               LocalOutputStream)
from repro.parallel import FactorWorkerTask, make_weak_key
from repro.processes.codecs import DOUBLE, LONG, OBJECT

N_ELEMENTS = 5000


def roundtrip(codec, values):
    buf = BoundedByteBuffer(1 << 22)
    out = LocalOutputStream(buf)
    inp = BlockingInputStream(LocalInputStream(buf))
    for v in values:
        codec.write(out, v)
    return [codec.read(inp) for _ in values]


@pytest.mark.benchmark(group="codec")
def test_long_codec(benchmark):
    values = list(range(N_ELEMENTS))
    assert benchmark(roundtrip, LONG, values) == values


@pytest.mark.benchmark(group="codec")
def test_double_codec(benchmark):
    values = [float(i) for i in range(N_ELEMENTS)]
    assert benchmark(roundtrip, DOUBLE, values) == values


@pytest.mark.benchmark(group="codec")
def test_object_codec_ints(benchmark):
    values = list(range(N_ELEMENTS))
    assert benchmark(roundtrip, OBJECT, values) == values


@pytest.mark.benchmark(group="codec")
def test_object_codec_tasks(benchmark):
    n, _, _ = make_weak_key(bits=64, found_at_task=5, seed=2)
    values = [FactorWorkerTask(n, i, 64 * i) for i in range(200)]
    got = benchmark(roundtrip, OBJECT, values)
    assert [t.task_index for t in got] == list(range(200))


@pytest.mark.benchmark(group="task-pickle")
def test_worker_task_pickle_size_and_speed(benchmark):
    """The per-task serialization the dynamic farm pays twice per task."""
    n, _, _ = make_weak_key(bits=512, found_at_task=1000, seed=4)
    task = FactorWorkerTask(n, 1000, 64000)

    def round_trip():
        return pickle.loads(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))

    clone = benchmark(round_trip)
    assert clone.d_start == task.d_start
    size = len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
    assert size < 4096  # a 1024-bit-key task stays well under one packet
