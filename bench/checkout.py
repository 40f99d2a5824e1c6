"""Paths of the checkout under test; the package is imported from its `src/`."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def use_checkout_src():
    """Import graphentropy from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import graphentropy
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import graphentropy from {SRC}: {exc}")
    if not os.path.abspath(graphentropy.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: graphentropy came from {graphentropy.__file__}, not {SRC}")
