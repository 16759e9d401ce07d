"""Digital self-interference cancellation lab for full-duplex transceivers.

Subpackages: ``signals`` (waveform sources), ``transceiver`` (hardware model
and observation rendering), ``cancellers`` (the augmented nonlinear LMS,
whose N = 0 case is the widely linear ALMS), ``theory`` (closed-form
predictions), ``harness`` (experiments and reports), ``cli`` (the command
line). Importing the package imports none of them, nor numpy: import each
where it is used, so that ``cli`` chooses numpy's BLAS threads before numpy
loads.
"""

__version__ = "0.1.0"
