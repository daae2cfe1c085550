"""Code shipping: classes travel with the data (paper section 6.2).

The paper's future-work answer to "the compiled class files for the
application must be available on the local file system of each server" is
to "include the Java bytecode directly in the class annotation ... the
distribution of code is now just as scalable as the distribution of data".
Python's equivalent is shipping *source*: the
:class:`SourceShippingPickler` embeds the source text of classes and
module-level functions that the receiving interpreter cannot import (most
importantly anything defined in ``__main__`` — the normal home of
user-written Task classes), and the receiving side ``exec``-utes it into a
cached synthetic module.

Round-tripping works: a shipped class remembers its origin
(``__shipped_source__``), so results built from shipped classes serialize
back to the client by source again.

Limitations (documented, enforced with clear errors): lambdas and
closures cannot ship (no retrievable standalone source); shipped source
must be self-contained up to its imports.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import pickle
import sys
import textwrap
import types
from typing import Any, Callable, Dict, Optional, Set

from repro.errors import MigrationError
from repro.kpn.process import Process
from repro.distributed.migration import MigrationPickler

__all__ = ["SourceShippingPickler", "dumps_shipped", "loads_shipped",
           "shippable", "register_ship_module"]

#: modules whose definitions always ship by source (besides __main__)
_ship_modules: Set[str] = set()
#: classes/functions explicitly opted in
_shippable: Set[int] = set()
#: remote-side cache: source hash → synthetic module
_loaded_modules: Dict[str, types.ModuleType] = {}


def register_ship_module(module_name: str) -> None:
    """Ship every class/function from ``module_name`` by source."""
    _ship_modules.add(module_name)


def shippable(obj):
    """Decorator marking a class or function for source shipping."""
    _shippable.add(id(obj))
    return obj


def _should_ship(defn) -> bool:
    module = getattr(defn, "__module__", None)
    if module is None:
        return False
    if hasattr(defn, "__shipped_source__"):
        return True  # arrived by source: must return by source
    if id(defn) in _shippable:
        return True
    if module == "__main__" or module in _ship_modules:
        return True
    # pytest rewrites test modules in ways that survive import on the
    # same machine, so tests module classes resolve normally.
    return False


def _get_source(defn) -> str:
    shipped = getattr(defn, "__shipped_source__", None)
    if shipped is not None:
        return shipped
    try:
        return textwrap.dedent(inspect.getsource(defn))
    except (OSError, TypeError) as exc:
        raise MigrationError(
            f"cannot ship {defn!r}: source unavailable ({exc}); lambdas and "
            "REPL-defined objects cannot migrate — define them in a file or "
            "install the module on the servers") from exc


def _library_namespace() -> dict:
    """Names pre-seeded into shipped-source modules.

    ``inspect.getsource`` captures a definition's text but not its
    module's imports, so a shipped class referencing library names
    (``IterativeProcess``, codecs, Task helpers) would not resolve.  We
    seed the synthetic module with the library's public API — the names a
    user-defined process or task legitimately leans on.  References to
    *other* globals must be imported inside method bodies (documented in
    docs/extending.md).
    """
    namespace: dict = {}
    import repro
    import repro.kpn as _kpn
    import repro.parallel as _parallel
    import repro.processes as _processes
    import repro.processes.codecs as _codecs

    for module in (_kpn, _processes, _parallel, _codecs):
        for name in getattr(module, "__all__", []):
            namespace.setdefault(name, getattr(module, name))
    namespace["repro"] = repro
    # the innocuous stdlib modules user task/process code leans on most
    import collections
    import itertools
    import json
    import math
    import random
    import struct
    import time
    import zlib

    namespace.update(collections=collections, itertools=itertools, json=json,
                     math=math, random=random, struct=struct, time=time,
                     zlib=zlib)
    return namespace


def _exec_source(source: str) -> types.ModuleType:
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    cached = _loaded_modules.get(digest)
    if cached is not None:
        return cached
    module = types.ModuleType(f"repro._shipped_{digest}")
    module.__dict__["__builtins__"] = __builtins__
    module.__dict__.update(_library_namespace())
    # inspect.getsource keeps decorator lines, so the @shippable marker
    # must resolve inside the synthetic module too (it is idempotent).
    module.__dict__["shippable"] = shippable
    sys.modules[module.__name__] = module
    exec(compile(source, f"<shipped:{digest}>", "exec"), module.__dict__)
    _loaded_modules[digest] = module
    return module


# -- rebuild functions (referenced from pickles by name) ---------------------

def _rebuild_shipped_class(source: str, name: str) -> type:
    module = _exec_source(source)
    cls = getattr(module, name)
    cls.__shipped_source__ = source
    return cls


def _rebuild_shipped_instance(source: str, name: str):
    cls = _rebuild_shipped_class(source, name)
    return cls.__new__(cls)


def _rebuild_shipped_function(source: str, name: str):
    module = _exec_source(source)
    fn = getattr(module, name)
    fn.__shipped_source__ = source
    return fn


class SourceShippingPickler(MigrationPickler):
    """Migration pickler that additionally ships code by source.

    Handles, beyond channel plumbing:

    * instances of classes the remote cannot import → rebuilt from source
      (state applied via the normal ``__setstate__`` path);
    * the classes themselves (when pickled as objects);
    * module-level functions (e.g. a plain function passed to
      ``MapProcess``).
    """

    def __init__(self, file, process: Optional[Process] = None,
                 protocol: int = pickle.HIGHEST_PROTOCOL,
                 buffer_callback=None) -> None:
        # A dummy process makes channel classification trivially "no owned
        # endpoints" when shipping plain tasks rather than processes.
        super().__init__(file, process or Process(name="no-endpoints"),
                         protocol=protocol, buffer_callback=buffer_callback)

    def reducer_override(self, obj: Any):
        reduced = super().reducer_override(obj)
        if reduced is not NotImplemented:
            return reduced
        if isinstance(obj, type) and _should_ship(obj):
            return (_rebuild_shipped_class,
                    (_get_source(obj), obj.__name__))
        if isinstance(obj, types.FunctionType) and _should_ship(obj):
            if obj.__name__ == "<lambda>":
                raise MigrationError(
                    "lambdas cannot migrate between servers; use a named "
                    "module-level function")
            if obj.__closure__:
                raise MigrationError(
                    f"closure {obj.__name__!r} cannot migrate; use a "
                    "module-level function or a class with state")
            return (_rebuild_shipped_function,
                    (_get_source(obj), obj.__name__))
        cls = type(obj)
        if not isinstance(obj, type) and _should_ship(cls) \
                and not isinstance(obj, types.ModuleType):
            state = obj.__getstate__() if hasattr(obj, "__getstate__") \
                else getattr(obj, "__dict__", {})
            return (_rebuild_shipped_instance,
                    (_get_source(cls), cls.__name__), state)
        return NotImplemented


def dumps_shipped(obj: Any, process: Optional[Process] = None) -> bytes:
    """Serialize with both migration plumbing and source shipping.

    When ``obj`` is itself a process (or composite), it defines the
    channel-ownership boundary for migration; otherwise ``process`` may
    name the owning process explicitly (rarely needed for plain tasks).
    """
    if process is None and isinstance(obj, Process):
        process = obj
    buf = io.BytesIO()
    SourceShippingPickler(buf, process).dump(obj)
    return buf.getvalue()


def loads_shipped(data: bytes, network=None) -> Any:
    """Counterpart of :func:`dumps_shipped` (alias of migration loads)."""
    from repro.distributed.migration import loads_migration

    return loads_migration(data, network=network)
