"""Static deadlock and boundedness proofs over built networks."""

import pytest

from repro.analysis.graphproofs import graph_findings, prove_graph
from repro.errors import GraphConsistencyError
from repro.kpn.network import Network
from repro.processes.networks import (fibonacci, hamming, modulo_merge,
                                      newton_sqrt, primes)
from repro.processes.routing import Gather
from repro.processes.sinks import Collect
from repro.processes.sources import FromIterable, Sequence
from repro.processes.transforms import Cons, Duplicate, Scale


def zero_token_loop():
    """Two Scales feeding each other: strict reads, no initial tokens."""
    net = Network(name="dead-loop")
    a = net.channel(name="a")
    b = net.channel(name="b")
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 2, name="s1"))
    net.add(Scale(b.get_input_stream(), a.get_output_stream(), 3, name="s2"))
    return net


def seeded_loop():
    """The same loop broken by a Cons whose deferred tail is the feedback."""
    net = Network(name="seeded-loop")
    seed = net.channel(name="seed")
    joined = net.channel(name="joined")
    fb = net.channel(name="fb")
    net.add(FromIterable(seed.get_output_stream(), [1], name="seed-src"))
    net.add(Cons(seed.get_input_stream(), fb.get_input_stream(),
                 joined.get_output_stream(), name="cons"))
    net.add(Scale(joined.get_input_stream(), fb.get_output_stream(), 2,
                  name="scale"))
    return net


def gather_fed_by_its_own_output(backend=None):
    """Sequence -> Gather[0]; Gather -> Duplicate -> Scale -> Gather[1].

    The cycle enters Gather through ``inputs[1]``, which its first step
    does not read: input 0 supplies the token that starts the loop.
    """
    net = Network(name="gather-loop", backend=backend)
    feed = net.channel(name="feed")
    merged = net.channel(name="merged")
    tap = net.channel(name="tap")
    loop = net.channel(name="loop")
    back = net.channel(name="back")
    out = []
    net.add(Sequence(feed.get_output_stream(), name="seq"))
    net.add(Gather([feed.get_input_stream(), back.get_input_stream()],
                   merged.get_output_stream(), codec="long", name="gather"))
    net.add(Duplicate(merged.get_input_stream(),
                      [tap.get_output_stream(), loop.get_output_stream()],
                      name="dup"))
    net.add(Scale(loop.get_input_stream(), back.get_output_stream(), 10,
                  name="scale"))
    net.add(Collect(tap.get_input_stream(), out, iterations=10, name="sink"))
    return net, out


# ---------------------------------------------------------------------------
# deadlock proofs
# ---------------------------------------------------------------------------

def test_zero_token_cycle_proved_deadlocked():
    proof = prove_graph(zero_token_loop())
    assert proof.has_directed_cycle
    assert proof.proved_deadlocks, "strict zero-token loop must be proved dead"
    cycle = proof.proved_deadlocks[0]
    assert set(cycle.processes) == {"s1", "s2"}


def test_deadlock_reported_as_error_finding():
    findings = graph_findings(zero_token_loop())
    dead = [f for f in findings if f.rule == "proved-deadlock"]
    assert len(dead) == 1
    assert dead[0].severity == "error"


def test_checker_surfaces_proved_deadlock():
    issues = graph_findings(zero_token_loop())
    assert any(i.rule == "proved-deadlock" and i.severity == "error"
               for i in issues)
    with pytest.raises(GraphConsistencyError):
        zero_token_loop().preflight()


def test_deferred_tail_breaks_deadlock():
    proof = prove_graph(seeded_loop())
    assert proof.has_directed_cycle
    assert not proof.proved_deadlocks
    assert all(c.verdict == "live" for c in proof.cycles)


@pytest.mark.parametrize("backend", ["thread", "async"])
def test_cycle_through_an_input_the_rule_does_not_name_is_no_deadlock(backend):
    """Gather is strict but reads one input per step: a zero-token cycle
    through ``inputs[1]`` used to be a proved deadlock, and
    ``start(lint=True)`` refused a network that runs to completion."""
    net, out = gather_fed_by_its_own_output(backend)
    proof = prove_graph(net)
    assert proof.has_directed_cycle
    assert not proof.proved_deadlocks
    assert not [f for f in graph_findings(net) if f.severity == "error"]
    assert net.run(timeout=30, lint=True)
    assert out == [0, 0, 1, 0, 2, 10, 3, 0, 4, 20]


def test_cycle_through_the_awaited_gather_input_still_proved_dead():
    """The same shape entered through ``inputs[0]`` cannot start."""
    net = Network(name="gather-dead")
    a = net.channel(name="a")
    b = net.channel(name="b")
    other = net.channel(name="other")
    net.add(Sequence(other.get_output_stream(), name="seq"))
    net.add(Gather([b.get_input_stream(), other.get_input_stream()],
                   a.get_output_stream(), codec="long", name="gather"))
    net.add(Scale(a.get_input_stream(), b.get_output_stream(), 10,
                  name="scale"))
    assert prove_graph(net).proved_deadlocks


# ---------------------------------------------------------------------------
# boundedness proofs over the paper's figure networks
# ---------------------------------------------------------------------------

def test_fibonacci_proved_bounded():
    proof = prove_graph(fibonacci(10).network)
    assert proof.has_undirected_cycle
    assert proof.bounded, proof.bounded_reason
    assert "token" in proof.bounded_reason


def test_newton_proved_bounded():
    proof = prove_graph(newton_sqrt(2.0).network)
    assert proof.bounded, proof.bounded_reason


def test_primes_proved_bounded_acyclic():
    proof = prove_graph(primes(count=10).network)
    assert not proof.has_undirected_cycle
    assert proof.bounded
    assert "section 3.5" in proof.bounded_reason


def test_hamming_honestly_unproved():
    # OrderedMerge carries no rate-balance declaration because its relative
    # input occupancies genuinely grow: a proof here would be unsound
    proof = prove_graph(hamming(10).network)
    assert proof.has_undirected_cycle
    assert not proof.bounded
    assert "rate-balance" in proof.bounded_reason


def test_fig13_honestly_unproved():
    # the modulo-merge graph deadlocks at small fixed capacities (the
    # paper's Figure 13 motivation), so it must not be proved bounded
    proof = prove_graph(modulo_merge(50, 10).network)
    assert not proof.bounded


def test_seeded_loop_proved_bounded():
    proof = prove_graph(seeded_loop())
    assert proof.bounded, proof.bounded_reason


def test_bounded_findings_are_info():
    findings = graph_findings(fibonacci(10).network)
    assert [f.rule for f in findings] == ["proved-bounded"]
    assert findings[0].severity == "info"


# ---------------------------------------------------------------------------
# Network.start(lint=True) pre-flight
# ---------------------------------------------------------------------------

def test_preflight_rejects_proved_deadlock():
    with pytest.raises(GraphConsistencyError, match="proved-deadlock"):
        zero_token_loop().start(lint=True)


def test_preflight_rejects_shared_state():
    shared = []
    net = Network()
    c1 = net.channel(name="c1")
    c2 = net.channel(name="c2")
    net.add(FromIterable(c1.get_output_stream(), [1], name="s1"))
    net.add(FromIterable(c2.get_output_stream(), [2], name="s2"))
    net.add(Collect(c1.get_input_stream(), shared, name="k1"))
    net.add(Collect(c2.get_input_stream(), shared, name="k2"))
    with pytest.raises(GraphConsistencyError, match="shared-state"):
        net.start(lint=True)


def test_preflight_passes_clean_network_and_runs():
    built = fibonacci(5)
    assert built.network.run(timeout=60, lint=True)
    assert built.results == [1, 1, 2, 3, 5]
