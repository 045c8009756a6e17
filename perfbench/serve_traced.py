"""Run the service daemon with spans recorded around its public calls.

Usage: ``python3 perfbench/serve_traced.py <spans.json> <serve flags...>``.
The spans are written to ``<spans.json>`` when the daemon exits.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import spans  # noqa: E402

if __name__ == "__main__":
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.service.server import main

    try:
        status = main(sys.argv[2:])
    finally:
        recorder.write(sys.argv[1])
    sys.exit(status)
