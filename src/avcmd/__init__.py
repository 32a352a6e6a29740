"""Audio-gestural command recognition toolkit.

Gesture classification with dense trajectories, visual-word encodings, and
chi-square kernel SVMs; spoken-command matching with MFCC features and
dynamic time warping; an online layer that localizes activity, fuses the two
modalities, and drives a dialogue FSM -- validated end to end on procedurally
generated ground-truth corpora. Callers import from the submodules.
"""

from .mfcc import mfcc  # bench/test_bench.py checks that its tracer wraps `avcmd.mfcc`

__version__ = "0.1.0"
