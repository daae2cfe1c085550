"""Run configuration: the five per-run options, resolved in one place.

:meth:`RunConfig.resolve` settles each option as argument > the process
config of the innermost :func:`use` > its ``REPRO_*`` variable > default,
reading the environment when it is called.  This module is the only
reader of those variables and nothing writes them: an entry point runs
under :func:`use`, a process-mode compute server gets :meth:`RunConfig.argv`.
Imports only the standard library, so the telemetry hub and a compute
server's cold start can read it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # the runtime never needs argparse here
    import argparse

__all__ = ["RunConfig", "use", "add_run_arguments", "BACKENDS",
           "EXECUTOR_KINDS"]

#: scheduler backends: one OS thread per process (the paper's), or
#: cooperative tasks on event loops (:mod:`repro.kpn.aio`)
BACKENDS = ("thread", "async")
#: where a Worker's ``task.run()`` executes (:mod:`repro.parallel.executor`)
EXECUTOR_KINDS = ("inline", "process")


def _switch(text: str) -> bool:
    """The one boolean parser: anything but empty, 0, false or no is on."""
    return text.strip().lower() not in ("", "0", "false", "no")


#: field -> (environment variable, parser of its text, argparse options);
#: a field with choices defaults to the first
_OPTIONS: Dict[str, tuple] = {
    "backend": ("REPRO_BACKEND", str, dict(
        choices=BACKENDS, help="scheduler backend: one OS thread per "
        "process or cooperative tasks on event loops (default thread)")),
    "executor": ("REPRO_EXECUTOR", str, dict(
        choices=EXECUTOR_KINDS, help="compute backend for shipped tasks "
        "and hosted workers (default inline)")),
    "pool_size": ("REPRO_POOL_SIZE", int, dict(
        type=int, help="process pool width (default: CPU count)")),
    "telemetry": ("REPRO_TELEMETRY", _switch, dict(
        action="store_true", default=None, help="enable the telemetry hub")),
    "profile": ("REPRO_PROFILE", _switch, dict(
        action="store_true", default=None,
        help="enable the continuous KPN profiler; implies --telemetry")),
}


@dataclass(frozen=True)
class RunConfig:
    """The five run options; ``None`` means "not given here"."""

    backend: Optional[str] = None
    executor: Optional[str] = None
    pool_size: Optional[int] = None
    telemetry: Optional[bool] = None
    profile: Optional[bool] = None

    @classmethod
    def resolve(cls, config: Optional["RunConfig"] = None,
                **given: Any) -> "RunConfig":
        """Every field settled and validated: a ``given`` keyword, else
        ``config``'s field, else the process config of the innermost
        :func:`use`, else the environment variable, else the default."""
        layers = (cls(**given), config or cls(), _process)
        settled: Dict[str, Any] = {}
        for name, (variable, parse, options) in _OPTIONS.items():
            value = next((getattr(layer, name) for layer in layers
                          if getattr(layer, name) is not None), None)
            source = name
            text = "" if value is not None else os.environ.get(variable, "")
            if text := text.strip():
                source, value = variable, parse(text)
            choices = options.get("choices")
            if choices:
                value = value or choices[0]
                if value not in choices:
                    raise ValueError(
                        f"unknown {name} {value!r}; pick one of {choices}")
            elif name == "pool_size":
                value = (os.cpu_count() or 1) if value is None else value
                if value < 1:
                    raise ValueError(f"{source} must be >= 1, got {value}")
            settled[name] = bool(value) if parse is _switch else value
        return cls(**settled)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        """The fields an :func:`add_run_arguments` parser was given."""
        return cls(**{name: getattr(args, name, None) for name in _OPTIONS})

    def given(self) -> Dict[str, Any]:
        """The fields this config sets."""
        return {k: v for k, v in vars(self).items() if v is not None}

    def argv(self) -> List[str]:
        """The flags :func:`add_run_arguments` parses back into this
        config's given fields (an off switch is its flag's absence)."""
        out: List[str] = []
        for name, value in self.given().items():
            flag = "--" + name.replace("_", "-")
            if value is True:
                out.append(flag)
            elif value is not False:
                out += [flag, str(value)]
        return out


#: the fields set by the enclosing :func:`use` blocks
_process = RunConfig()


@contextmanager
def use(config: RunConfig) -> Iterator[RunConfig]:
    """Make ``config``'s given fields the process config for a ``with``
    block, over those of any enclosing block; the previous process
    config is restored on exit."""
    global _process
    previous = _process
    _process = replace(previous, **config.given())
    try:
        yield _process
    finally:
        _process = previous


def add_run_arguments(parser: argparse.ArgumentParser, *names: str) -> None:
    """The one command-line spelling of the run options: all five, or
    just ``names``.  An absent flag parses as None, so the process config
    and the environment still apply."""
    for name in names or tuple(_OPTIONS):
        variable, _, options = _OPTIONS[name]
        parser.add_argument(
            "--" + name.replace("_", "-"),
            **dict(options, help=f"{options['help']} (also: {variable})"))
