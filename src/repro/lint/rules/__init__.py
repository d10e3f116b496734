"""Built-in rule modules; importing this package registers every rule."""

from . import api, determinism, io, perf  # noqa: F401

__all__ = ["api", "determinism", "io", "perf"]
