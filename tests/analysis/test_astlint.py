"""AST lint pass: Kahn-semantics rules over process bodies."""

import textwrap

from repro.analysis.astlint import lint_callable, lint_class, lint_source
from repro.analysis.markers import nondeterminate


def lint(body: str):
    """Lint a module defining process classes; returns findings."""
    return lint_source(textwrap.dedent(body), filename="<test>")


def rules(findings):
    return [f.rule for f in findings]


PRELUDE = """\
from repro.kpn.process import IterativeProcess, Process
"""


# ---------------------------------------------------------------------------
# poll: non-blocking channel inspection
# ---------------------------------------------------------------------------

def test_occupancy_poll_flagged():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        if self.source.channel.occupancy() > 0:
            self.out.write(self.source.read(8))
""")
    assert rules(findings) == ["poll"]
    assert findings[0].severity == "error"
    assert findings[0].subject == "P.step"


def test_read_ahead_counts_are_polls_too():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        if self.source.channel.buffered() or self.source.channel.reader.held():
            self.out.write(self.source.read(8))
""")
    assert rules(findings) == ["poll", "poll"]


def test_firing_rule_that_looks_at_the_channel_is_a_poll():
    """``awaits`` says what the next step reads; asking the stream whether
    that would block is the scheduler's business."""
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def awaits(self):
        return () if self.source.would_block_on() else (self.source,)
""")
    assert rules(findings) == ["poll"]


def test_read_with_timeout_flagged():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        chunk = self.source.read(8, timeout=0.5)
""")
    assert rules(findings) == ["poll"]


def test_plain_blocking_read_clean():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        self.out.write(self.source.read(8))
""")
    assert findings == []


def test_wait_any_readable_flagged():
    findings = lint(PRELUDE + """
from repro.kpn.channel import wait_any_readable

class P(IterativeProcess):
    def step(self):
        ready = wait_any_readable(self.inputs)
""")
    assert rules(findings) == ["poll"]


# ---------------------------------------------------------------------------
# time / random
# ---------------------------------------------------------------------------

def test_clock_read_flagged_but_sleep_allowed():
    findings = lint(PRELUDE + """
import time

class P(IterativeProcess):
    def step(self):
        time.sleep(0.01)            # pacing is allowed
        stamp = time.monotonic()    # clock-dependent output is not
""")
    assert rules(findings) == ["time"]


def test_unseeded_random_flagged():
    findings = lint(PRELUDE + """
import random

class P(IterativeProcess):
    def step(self):
        self.out.write(random.random())
""")
    assert rules(findings) == ["random"]


def test_explicitly_seeded_random_allowed():
    findings = lint(PRELUDE + """
import random

class P(IterativeProcess):
    def on_start(self):
        random.seed(self.seed)

    def step(self):
        self.out.write(random.random())
""")
    assert findings == []


# ---------------------------------------------------------------------------
# select: data-dependent input selection
# ---------------------------------------------------------------------------

def test_data_dependent_input_selection_flagged():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        which = self.control.read(1)[0]
        value = self.inputs[which].read(8)
""")
    assert "select" in rules(findings)


def test_data_dependent_output_selection_allowed():
    # routing *outputs* by data is determinate (ModuloRouter, Direct)
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        value = self.source.read(8)
        self.outputs[value[0] % 2].write(value)
""")
    assert findings == []


# ---------------------------------------------------------------------------
# global-write / io
# ---------------------------------------------------------------------------

def test_global_rebind_flagged():
    findings = lint(PRELUDE + """
COUNTER = 0

class P(IterativeProcess):
    def step(self):
        global COUNTER
        COUNTER += 1
""")
    assert "global-write" in rules(findings)


def test_module_level_mutation_flagged():
    findings = lint(PRELUDE + """
RESULTS = []

class P(IterativeProcess):
    def step(self):
        RESULTS.append(self.source.read(8))
""")
    assert "global-write" in rules(findings)


def test_self_state_mutation_allowed():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        self.buffer.append(self.source.read(8))
""")
    assert findings == []


def test_codec_write_not_mistaken_for_mutation():
    # LONG.write(self.out, v) targets the stream argument, not the codec
    findings = lint(PRELUDE + """
from repro.processes.codecs import LONG

class P(IterativeProcess):
    def step(self):
        LONG.write(self.out, 1)
""")
    assert findings == []


def test_blocking_io_flagged_print_allowed():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        print(self.source.read(8))          # Print-process idiom: fine
        with open("/tmp/x", "w") as fh:     # hidden side channel: not
            fh.write("x")
""")
    assert rules(findings) == ["io"]


def test_socket_use_flagged():
    findings = lint(PRELUDE + """
import socket

class P(IterativeProcess):
    def step(self):
        s = socket.create_connection(("host", 1))
""")
    assert rules(findings) == ["io"]


# ---------------------------------------------------------------------------
# suppression and the @nondeterminate escape hatch
# ---------------------------------------------------------------------------

def test_line_suppression_with_rule():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        n = self.source.channel.occupancy()  # repro: lint-ok[poll]
""")
    assert findings == []


def test_bare_suppression():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        n = self.source.channel.occupancy()  # repro: lint-ok
""")
    assert findings == []


def test_suppression_for_other_rule_does_not_apply():
    findings = lint(PRELUDE + """
class P(IterativeProcess):
    def step(self):
        n = self.source.channel.occupancy()  # repro: lint-ok[io]
""")
    assert rules(findings) == ["poll"]


def test_nondeterminate_decorator_downgrades_to_declared():
    findings = lint(PRELUDE + """
from repro.analysis.markers import nondeterminate

@nondeterminate("fairness experiment")
class P(IterativeProcess):
    def step(self):
        n = self.source.channel.occupancy()
""")
    assert rules(findings) == ["poll"]
    assert findings[0].severity == "declared"
    assert "fairness experiment" in findings[0].message


def test_nondeterminate_requires_reason():
    import pytest

    with pytest.raises(TypeError):
        @nondeterminate("")
        class P:  # noqa: F811
            pass


# ---------------------------------------------------------------------------
# live-object entry points
# ---------------------------------------------------------------------------

def test_lint_class_on_live_turnstile():
    from repro.processes.routing import Turnstile

    findings = lint_class(Turnstile)
    assert findings, "Turnstile's wait_any_readable must be reported"
    assert all(f.severity == "declared" for f in findings)
    assert all(f.subject.startswith("Turnstile") for f in findings)


def test_lint_class_on_clean_process():
    from repro.processes.arithmetic import Add

    assert lint_class(Add) == []


def test_lint_callable_farm_function():
    def task(x):
        import random
        return x * random.random()

    findings = lint_callable(task)
    assert rules(findings) == ["random"]


def test_lint_callable_pure_function():
    def task(x):
        return x * x

    assert lint_callable(task) == []


def test_non_process_classes_ignored():
    findings = lint(PRELUDE + """
class Helper:
    def poll_loop(self):
        return self.ch.occupancy()
""")
    assert findings == []


def test_process_subclass_chain_resolved():
    # B derives from a same-module Process subclass: still linted
    findings = lint(PRELUDE + """
class A(IterativeProcess):
    def step(self):
        pass

class B(A):
    def step(self):
        n = self.source.channel.occupancy()
""")
    assert rules(findings) == ["poll"]
