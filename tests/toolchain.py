"""The toolchain on which the tests' pinned hashes and known-answer words
were recorded.

The pins are ``GOLDEN_SHA256`` and ``MULTI_CHUNK_SHA256`` in ``test_cli``,
the ``*_SHA256`` digests in ``test_hjbgrid`` and ``KNOWN_WORDS`` in
``test_montecarlo``. They hold bits: ``ndtri``'s come from scipy's compiled
special functions, and the Philox counter view reads numpy's private state
layout. On another toolchain a mismatch may be the toolchain and not a
regression, so each pin's failure message names both toolchains.
"""

import platform

import numpy
import scipy

RECORDED = "Python 3.11.7, numpy 2.4.6, scipy 1.17.1, x86_64"
RUNNING = (f"Python {platform.python_version()}, numpy {numpy.__version__}, "
           f"scipy {scipy.__version__}, {platform.machine()}")


def pin_mismatch(pin: str) -> str:
    """The failure message of the assertion that checks ``pin``."""
    return f"{pin} differs; pinned on {RECORDED}; running on {RUNNING}"
