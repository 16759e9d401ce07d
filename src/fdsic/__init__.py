"""Digital self-interference cancellation lab for full-duplex transceivers.

Subpackages: ``signals`` (waveform sources), ``transceiver`` (hardware model
and observation rendering), ``cancellers`` (the augmented nonlinear LMS,
whose N = 0 case is the widely linear ALMS), ``theory`` (closed-form
predictions), ``harness`` (experiments and reports).
"""

__version__ = "0.1.0"

from . import cancellers, harness, signals, theory, transceiver  # noqa: E402,F401
