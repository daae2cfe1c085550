"""The dynamic-capability scan reads code objects, never source.

``repro.analysis.fuse.dynamic_reason`` decides which processes the graph
compiler must leave on their own thread because they reconfigure the
graph (``spawn``, ``new_channel``, ``splice_from``).  These tests pin
its verdicts on the whole process library against a source-level
oracle, its independence from ``inspect.getsource``, and every place a
call can hide in a class body.
"""

import ast
import functools
import importlib
import inspect
import pkgutil
import textwrap
import time

import pytest

import repro
from repro.analysis import fuse
from repro.analysis.fuse import DYNAMIC_CALLS, dynamic_reason
from repro.kpn.compile import compile_network
from repro.kpn.network import Network
from repro.kpn.process import IterativeProcess, Process
from repro.processes import Collect, Scale, Sequence


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.setattr(fuse, "_dynamic_cache", {})


def _library_processes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    found, todo = set(), [Process]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found and sub.__module__.startswith("repro."):
                found.add(sub)
                todo.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def _source_verdict(klass):
    """The scan as it read source: the first dynamic attribute call in the
    text of a class below the framework bases."""
    for cls in klass.__mro__:
        if cls is object or cls.__module__ == "repro.kpn.process":
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in DYNAMIC_CALLS):
                return f"{cls.__name__}.{node.func.attr}()"
    return None


def test_library_verdicts_match_the_source_scan():
    classes = _library_processes()
    assert len(classes) >= 40
    for klass in classes:
        reason = dynamic_reason(klass)
        expected = _source_verdict(klass)
        assert (reason is None) == (expected is None), klass
        if expected is not None:
            assert reason.startswith(expected), (klass, reason)
    dynamic = {k.__name__ for k in classes if dynamic_reason(k)}
    assert dynamic == {"Sift", "RecursiveSift", "SelfRemovingCons"}


def test_the_scan_reads_no_source(monkeypatch):
    from repro.processes import SelfRemovingCons, Sift

    def no_source(obj):
        raise OSError("no source")

    monkeypatch.setattr(inspect, "getsource", no_source)
    monkeypatch.setattr(inspect, "getsourcelines", no_source)
    assert dynamic_reason(Scale) is None
    assert dynamic_reason(Collect) is None
    assert dynamic_reason(Sift).startswith("Sift.")
    assert dynamic_reason(SelfRemovingCons).startswith("SelfRemovingCons.")


_EXEC_STAGE = '''
class Triple(IterativeProcess):
    def __init__(self, source, out, name=None):
        super().__init__(name=name)
        self.source, self.out, self.codec = source, out, LONG
        self.track(source, out)

    def step(self):
        LONG.write(self.out, 3 * LONG.read(self.source))
'''


def _exec_class(source, name):
    from repro.processes.codecs import LONG

    namespace = {"IterativeProcess": IterativeProcess, "LONG": LONG}
    exec(compile(source, "<generated>", "exec"), namespace)
    return namespace[name]


def test_a_class_built_by_exec_fuses():
    Triple = _exec_class(_EXEC_STAGE, "Triple")
    with pytest.raises((OSError, TypeError)):
        inspect.getsource(Triple)
    assert dynamic_reason(Triple) is None
    net = Network()
    a, b = net.channels_n(2)
    out = []
    net.add(Sequence(a.get_output_stream(), iterations=5, name="src"))
    net.add(Triple(a.get_input_stream(), b.get_output_stream(), name="x3"))
    net.add(Collect(b.get_input_stream(), out, name="sink"))
    plan = compile_network(net)
    assert [tuple(s.name for s in stages) for stages, _, _, _ in plan.chains] \
        == [("src", "x3", "sink")]
    net.optimize()
    assert net.run(timeout=30)
    assert out == [0, 3, 6, 9, 12]


def test_a_class_built_by_exec_that_spawns_is_dynamic():
    source = _EXEC_STAGE.replace(
        "        LONG.write", "        self.spawn(None)\n        LONG.write")
    assert "spawn" in dynamic_reason(_exec_class(source, "Triple"))


class _Base(IterativeProcess):
    pass


def _wraps(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


class InNested(_Base):
    def step(self):
        def inner():
            return self.spawn(None)
        return inner


class InLambda(_Base):
    def step(self):
        return lambda: self.new_channel()


class InComprehension(_Base):
    def step(self):
        return [self.splice_from(c) for c in ()]


class InProperty(_Base):
    @property
    def grown(self):
        return self.new_channel()


class InStaticMethod(_Base):
    @staticmethod
    def helper(p):
        return p.spawn(None)


class InClassMethod(_Base):
    @classmethod
    def helper(cls, p):
        return p.spawn(None)


class InWrappedStep(_Base):
    @_wraps
    def step(self):
        self.spawn(None)


class InLambdaAttribute(_Base):
    grow = staticmethod(lambda p: p.new_channel())


class InDispatchTable(_Base):
    handlers = {"grow": lambda p: p.new_channel()}


class InHelperClass(_Base):
    class Helper:
        def go(self, p):
            p.splice_from(None)


class InheritsIt(InNested):
    def step(self):
        pass


@pytest.mark.parametrize("klass", [
    InNested, InLambda, InComprehension, InProperty, InStaticMethod,
    InClassMethod, InWrappedStep, InLambdaAttribute, InDispatchTable,
    InHelperClass, InheritsIt], ids=lambda k: k.__name__)
def test_a_dynamic_call_is_found_wherever_it_hides(klass):
    reason = dynamic_reason(klass)
    assert reason is not None and "reconfigures the graph" in reason


class Plain(_Base):
    """Nothing dynamic anywhere, whatever the body holds."""

    __slots__ = ("x",)
    codec_name = "long"
    limits = (1, 2)
    table = {"a": 1}
    referenced = Scale

    @property
    def doubled(self):
        return [2 * v for v in self.limits]

    @staticmethod
    def helper(p):
        return p.name

    def step(self):
        return lambda: self.doubled


def test_a_body_without_a_dynamic_call_is_static():
    assert dynamic_reason(Plain) is None


class BuiltinAttribute(_Base):
    now = time.monotonic


class CallableObject(_Base):
    helper = functools.partial(print)


@pytest.mark.parametrize("klass", [BuiltinAttribute, CallableObject],
                         ids=lambda k: k.__name__)
def test_a_routine_without_code_counts_as_dynamic(klass):
    reason = dynamic_reason(klass)
    assert reason is not None and "no code" in reason
