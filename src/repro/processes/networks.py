"""Prebuilt program graphs for every example network in the paper.

Each builder wires one of the paper's figure programs into a supplied (or
fresh) :class:`~repro.kpn.network.Network` and returns a handle with the
pieces tests, examples, and benchmarks need.  The builders mirror the
paper's own construction style (compare :func:`fibonacci` with the code in
Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.kpn.network import Network
from repro.processes.arithmetic import Add, Average, Divide, Equal
from repro.processes.codecs import DOUBLE, LONG
from repro.processes.merges import OrderedMerge, ordered_merge_tree
from repro.processes.reconfig import RecursiveSift, Sift
from repro.processes.routing import Guard, ModuloRouter
from repro.processes.sinks import Collect
from repro.processes.sources import Constant, Sequence
from repro.processes.transforms import Cons, Duplicate, Scale

__all__ = ["BuiltNetwork", "fibonacci", "primes", "newton_sqrt", "hamming",
           "modulo_merge"]


@dataclass
class BuiltNetwork:
    """Handle returned by the graph builders."""

    network: Network
    results: List[Any] = field(default_factory=list)

    def run(self, timeout: Optional[float] = None) -> List[Any]:
        self.network.run(timeout=timeout)
        return self.results


def fibonacci(count: int = 20, network: Optional[Network] = None) -> BuiltNetwork:
    """The Fibonacci network of Figures 2 and 6.

    Stream equations (with ``B = be``, ``F = df``, ``G = gb``)::

        B = cons(1, G)      F = cons(1, B)      G = B + F

    whose least fixed point makes the printed stream ``F`` the Fibonacci
    numbers 1, 1, 2, 3, 5, …  ``count`` limits the Collect process, the
    paper's ``Print(20, fh.getInputStream())``.
    """
    net = network or Network(name="fibonacci")
    ab, be, cd, df, ed, eg, fg, fh, gb = net.channels_n(9, prefix="fib")
    results: List[Any] = []
    net.add(Constant(1, ab.get_output_stream(), iterations=1, name="Constant-ab"))
    net.add(Cons(ab.get_input_stream(), gb.get_input_stream(),
                 be.get_output_stream(), name="Cons-b"))
    net.add(Duplicate(be.get_input_stream(),
                      [ed.get_output_stream(), eg.get_output_stream()],
                      name="Duplicate-e"))
    net.add(Add(eg.get_input_stream(), fg.get_input_stream(),
                gb.get_output_stream(), name="Add-g"))
    net.add(Constant(1, cd.get_output_stream(), iterations=1, name="Constant-cd"))
    net.add(Cons(cd.get_input_stream(), ed.get_input_stream(),
                 df.get_output_stream(), name="Cons-f"))
    net.add(Duplicate(df.get_input_stream(),
                      [fh.get_output_stream(), fg.get_output_stream()],
                      name="Duplicate-f"))
    net.add(Collect(fh.get_input_stream(), results, iterations=count,
                    name="Collect-h"))
    return BuiltNetwork(net, results)


def primes(count: Optional[int] = None, below: Optional[int] = None,
           recursive: bool = False, network: Optional[Network] = None,
           channel_capacity: Optional[int] = None) -> BuiltNetwork:
    """The Sieve of Eratosthenes network of Figure 7.

    Exactly one of ``count`` / ``below`` selects the paper's two
    termination modes (section 3.4):

    * ``count=k`` — "the first k primes": iteration limit on the sink;
      upstream processes are cut off by broken-channel exceptions.  The
      iterative Sift carries the same limit: it rewires the graph after
      every prime it emits, and how many primes it emits before noticing
      that the sink has closed is a race — bounded only by how promptly
      the sink thread gets to run — so without the limit the *graph* a
      run builds (and the channels its history names) would vary from
      run to run even though the sink's output never does.
    * ``below=m`` — "all primes less than m": iteration limit on the
      Sequence source; the pipeline drains before terminating.

    ``recursive`` picks the Figure-7 self-replacing Sift; the default is
    the Figure-8 iterative Sift.
    """
    if (count is None) == (below is None):
        raise ValueError("specify exactly one of count= or below=")
    net = network or Network(name="primes")
    feed = net.channel(channel_capacity, name="sieve-feed")
    found = net.channel(channel_capacity, name="sieve-out")
    results: List[Any] = []
    source_iterations = 0 if below is None else max(0, below - 2)
    if below is not None and source_iterations == 0:
        # ``below <= 2``: an empty feed.  Sequence(iterations=0) means
        # *unbounded* (the paper's convention), so use an empty iterable.
        from repro.processes.sources import FromIterable

        net.add(FromIterable(feed.get_output_stream(), [], name="Sequence"))
    else:
        net.add(Sequence(feed.get_output_stream(), start=2,
                         iterations=source_iterations, name="Sequence"))
    sift_cls = RecursiveSift if recursive else Sift
    kwargs = {} if recursive else {"iterations": count or 0}
    net.add(sift_cls(feed.get_input_stream(), found.get_output_stream(),
                     channel_capacity=channel_capacity, name="Sift",
                     **kwargs))
    net.add(Collect(found.get_input_stream(), results,
                    iterations=count or 0, name="Collect"))
    return BuiltNetwork(net, results)


def newton_sqrt(x: float, initial: Optional[float] = None,
                network: Optional[Network] = None) -> BuiltNetwork:
    """The Newton's-method square-root network of Figure 11.

    Iterates ``r_n = (x / r_{n-1} + r_{n-1}) / 2`` entirely inside the
    network; the Equal process detects convergence ("the root estimate
    stops changing") and the Guard passes exactly one value downstream
    before stopping — the paper's data-dependent termination.
    """
    net = network or Network(name="newton-sqrt")
    r0 = float(initial if initial is not None else (x if x > 0 else 1.0))
    xs, seed, r, rdiv, ravg, req, q, rnext = net.channels_n(8, prefix="newton")
    rn_eq, rn_guard, rn_fb, ctl, out = net.channels_n(5, prefix="newton2")
    results: List[Any] = []
    net.add(Constant(float(x), xs.get_output_stream(), codec=DOUBLE, name="X"))
    net.add(Constant(r0, seed.get_output_stream(), iterations=1, codec=DOUBLE,
                     name="Seed"))
    net.add(Cons(seed.get_input_stream(), rn_fb.get_input_stream(),
                 r.get_output_stream(), name="Cons-r"))
    net.add(Duplicate(r.get_input_stream(),
                      [rdiv.get_output_stream(), ravg.get_output_stream(),
                       req.get_output_stream()], name="Dup-r"))
    net.add(Divide(xs.get_input_stream(), rdiv.get_input_stream(),
                   q.get_output_stream(), codec=DOUBLE, name="Divide"))
    net.add(Average(q.get_input_stream(), ravg.get_input_stream(),
                    rnext.get_output_stream(), codec=DOUBLE, name="Average"))
    net.add(Duplicate(rnext.get_input_stream(),
                      [rn_eq.get_output_stream(), rn_guard.get_output_stream(),
                       rn_fb.get_output_stream()], name="Dup-rnext"))
    net.add(Equal(req.get_input_stream(), rn_eq.get_input_stream(),
                  ctl.get_output_stream(), codec=DOUBLE, name="Equal"))
    net.add(Guard(rn_guard.get_input_stream(), ctl.get_input_stream(),
                  out.get_output_stream(), codec=DOUBLE, stop_after_true=True,
                  name="Guard"))
    net.add(Collect(out.get_input_stream(), results, codec=DOUBLE,
                    name="Collect"))
    return BuiltNetwork(net, results)


def hamming(count: int = 20, network: Optional[Network] = None,
            channel_capacity: Optional[int] = None) -> BuiltNetwork:
    """The unbounded 2^k·3^m·5^n network of Figure 12.

    ``H = cons(1, merge(2·H, 3·H, 5·H))`` — every output element enqueues
    up to three new elements, so "the amount of storage required for the
    channels grows without bound as the program executes".  Run it in a
    bounded network and Parks' scheduler keeps growing the hot channels;
    run it with growth disabled and it deadlocks artificially — both
    behaviours are exercised in the tests.
    """
    net = network or Network(name="hamming")
    cap = channel_capacity
    seed = net.channel(cap, name="ham-seed")
    h = net.channel(cap, name="ham-h")
    hx2, hx3, hx5, hout = (net.channel(cap, name=f"ham-{n}")
                           for n in ("x2", "x3", "x5", "out"))
    s2, s3, s5 = (net.channel(cap, name=f"ham-s{k}") for k in (2, 3, 5))
    merged = net.channel(cap, name="ham-merged")
    results: List[Any] = []
    net.add(Constant(1, seed.get_output_stream(), iterations=1, name="One"))
    net.add(Cons(seed.get_input_stream(), merged.get_input_stream(),
                 h.get_output_stream(), name="Cons-h"))
    net.add(Duplicate(h.get_input_stream(),
                      [hx2.get_output_stream(), hx3.get_output_stream(),
                       hx5.get_output_stream(), hout.get_output_stream()],
                      name="Dup-h"))
    net.add(Scale(hx2.get_input_stream(), s2.get_output_stream(), 2, name="Scale-2"))
    net.add(Scale(hx3.get_input_stream(), s3.get_output_stream(), 3, name="Scale-3"))
    net.add(Scale(hx5.get_input_stream(), s5.get_output_stream(), 5, name="Scale-5"))
    ordered_merge_tree(net,
                       [s2.get_input_stream(), s3.get_input_stream(),
                        s5.get_input_stream()],
                       merged.get_output_stream(), capacity=cap,
                       prefix="ham-merge")
    net.add(Collect(hout.get_input_stream(), results, iterations=count,
                    name="Collect"))
    return BuiltNetwork(net, results)


def modulo_merge(n_values: int, divisor: int = 10,
                 network: Optional[Network] = None,
                 channel_capacity: Optional[int] = None) -> BuiltNetwork:
    """The acyclic-but-deadlock-prone graph of Figure 13.

    source → mod → (upper: multiples of ``divisor``; lower: the rest) →
    ordered merge → sink.  "For every N data elements read, the Modulo
    process produces 1 element on its first output and N−1 elements on
    its second output" — so a small lower-channel capacity stalls the
    router while the merge is blocked on the upper channel: deadlock with
    no directed cycle.
    """
    net = network or Network(name="fig13")
    cap = channel_capacity
    src = net.channel(cap, name="f13-src")
    upper = net.channel(cap, name="f13-upper")
    lower = net.channel(cap, name="f13-lower")
    out = net.channel(cap, name="f13-out")
    results: List[Any] = []
    net.add(Sequence(src.get_output_stream(), start=1, iterations=n_values,
                     name="Source"))
    net.add(ModuloRouter(src.get_input_stream(), upper.get_output_stream(),
                         lower.get_output_stream(), divisor, name="Mod"))
    net.add(OrderedMerge(upper.get_input_stream(), lower.get_input_stream(),
                         out.get_output_stream(), name="Merge"))
    net.add(Collect(out.get_input_stream(), results, name="Sink"))
    return BuiltNetwork(net, results)
