"""Channel-as-token transformer forecaster with input-routed low-rank adapters."""

__version__ = "0.2.0"

from .tensor import Tape, Tensor  # noqa: F401
