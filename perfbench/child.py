"""One repetition: import afslab, optionally trace it, run `afslab` once.

Usage: child.py TIMING_JSON TRACE_PREFIX|- [afslab arguments...]

The parent starts this script with PYTHONPATH pointing at the checkout's
`src`. It writes perf_counter timestamps (a system-wide monotonic clock on
Linux, so they compare with the parent's) for "afslab.cli imported" and for
the start and end of `cli.main`. With no afslab arguments it only measures
set-up. With a trace prefix every layer is wrapped after the set-up
timestamp, and the spans are written when the run ends.
"""

import time

import afslab.cli

READY = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    timing_path, trace_prefix, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = None
    if trace_prefix != "-":
        import tracer

        layers = {}
        for layer in tracer.LAYERS:
            try:
                layers[layer] = importlib.import_module(f"afslab.{layer}")
            except ModuleNotFoundError:
                pass  # a removed layer reads as zero calls
        namespaces = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "afslab"]
        recorder = tracer.SpanRecorder()
        tracer.install(recorder, layers, namespaces)
    timing = {"ready": READY, "module": afslab.cli.__file__}
    code = 0
    if argv:
        timing["start"] = time.perf_counter()
        code = afslab.cli.main(argv)
        timing["end"] = time.perf_counter()
    if recorder is not None:
        recorder.dump(trace_prefix)
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
