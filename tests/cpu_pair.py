"""The OpenBLAS core and the numpy SIMD flag that the hex bit pins depend on.

A dot sums in the order of the ddot kernel numpy's bundled OpenBLAS picks for
the CPU, and np.log rounds as the SIMD code numpy dispatches does.  So the
pins in test_optimize.py (MAXIMIZE_AT_D15F377, CREASE_SCAN_AT_2F23108) and
test_ergm.py (PSI_FULL_FROM_PHI_PRIME_BISECTION) hold one record per
(OpenBLAS core, numpy AVX512_SKX) pair, and a test reads the record of the
pair it runs on.  The four pairs of RECORDED are those an x86-64 CPU with
AVX-512 runs: its native pair, and the pairs it runs under
OPENBLAS_CORETYPE=Haswell, under
NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4", and under both.  A
CPU with AVX2 and FMA but no AVX-512 should run the last pair under those
two variables.  On a pair with no record the pins fail, with a message that
names the recorded pairs and the running one.  To record a new pair, run
the pinned calls there, add their hex values under the pair's name to each
pin, and add the name to RECORDED.  Run as a script, this prints the
running pair: python tests/cpu_pair.py

python tests/cpu_pair.py --all-pairs runs tier-1 once in each of the four
SETTINGS in turn, natively and under the variables above, and prints one
pass/fail line per setting with the pair it ran on and pytest's summary.  It
exits nonzero if any run fails.
"""

import ctypes
import os
import pathlib
import subprocess
import sys

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

SKYLAKEX_AVX512 = "OpenBLAS core SkylakeX, numpy AVX512_SKX True"
HASWELL_AVX512 = "OpenBLAS core Haswell, numpy AVX512_SKX True"
SKYLAKEX_AVX2 = "OpenBLAS core SkylakeX, numpy AVX512_SKX False"
HASWELL_AVX2 = "OpenBLAS core Haswell, numpy AVX512_SKX False"
RECORDED = (SKYLAKEX_AVX512, HASWELL_AVX512, SKYLAKEX_AVX2, HASWELL_AVX2)

# The environment under which a CPU with AVX-512 runs each pair of RECORDED
_HASWELL = {"OPENBLAS_CORETYPE": "Haswell"}
_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
SETTINGS = ({}, _HASWELL, _AVX2, {**_HASWELL, **_AVX2})


def openblas_core():
    """The core name numpy's bundled OpenBLAS reports, or "unknown" where no
    bundled library exports scipy_openblas_get_corename64_."""
    root = pathlib.Path(np.__file__).parent
    for path in sorted(root.parent.glob("numpy.libs/*openblas*")) + sorted(
            root.glob(".dylibs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def running_pair():
    return (f"OpenBLAS core {openblas_core()}, "
            f"numpy AVX512_SKX {__cpu_features__.get('AVX512_SKX', 'unknown')}")


def pin_message():
    """The failure message of a hex bit pin."""
    return f"bit pins recorded on {'; '.join(RECORDED)}; running on {running_pair()}"


def pinned(records):
    """The record of the running pair in records, a pin's dict keyed by pair;
    an AssertionError with pin_message() where the pair has none."""
    pair = running_pair()
    if pair not in records:
        raise AssertionError(pin_message())
    return records[pair]


def all_pairs():
    """Tier-1 under each of SETTINGS, one after another; 0 if every run passes."""
    root = pathlib.Path(__file__).resolve().parent.parent
    failed = 0
    for setting in SETTINGS:
        env = {k: v for k, v in os.environ.items() if k not in (*_HASWELL, *_AVX2)}
        env.update(setting)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        pair = subprocess.run([sys.executable, __file__], env=env, cwd=root,
                              capture_output=True, text=True).stdout.strip()
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            env=env, cwd=root, capture_output=True, text=True)
        lines = run.stdout.splitlines()
        failed += run.returncode != 0
        name = " ".join(f'{k}="{v}"' for k, v in setting.items()) or "native"
        print(f"{'pass' if run.returncode == 0 else 'FAIL'}  {name}  ({pair}): "
              f"{lines[-1] if lines else run.stderr.strip()}", flush=True)
        for line in lines:
            if line.startswith(("FAILED", "ERROR")):
                print(f"    {line}", flush=True)
    return int(failed > 0)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Print the running pair.")
    parser.add_argument("--all-pairs", action="store_true",
                        help="run tier-1 under each of the four settings instead")
    if parser.parse_args().all_pairs:
        sys.exit(all_pairs())
    print(running_pair())
