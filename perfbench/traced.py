"""Run ``python -m repro ...`` with the layer table wrapped.

    python perfbench/traced.py DUMP_PATH <repro arguments...>

The layer totals are written to ``DUMP_PATH`` when the process exits.
``SIGUSR1`` writes the totals so far to ``DUMP_PATH.<n>`` (n = 1, 2, ...)
and starts counting from zero, which lets a long-lived ``repro serve``
report one trace per round of jobs.
"""

import atexit
import runpy
import signal
import sys

import layers


def main() -> None:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    layers.install(tracer)
    rounds = [0]

    def dump_round(_signum, _frame) -> None:
        rounds[0] += 1
        tracer.dump(f"{dump_path}.{rounds[0]}")
        tracer.reset()

    signal.signal(signal.SIGUSR1, dump_round)
    atexit.register(tracer.dump, dump_path)
    sys.argv = ["repro", *argv]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
