"""Run one ``logcave`` command from the checkout's ``src`` tree.

    python bench/launch.py [--trace FILE] -- <logcave arguments>

With ``--trace`` the span wrappers of ``spans.py`` are installed before
``logcave.cli.main`` runs, and the spans are written to FILE when it ends.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv):
    trace_file = None
    if argv[:1] == ["--trace"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import logcave.cli
    if trace_file is None:
        return logcave.cli.main(argv)
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        return logcave.cli.main(argv)
    finally:
        tracer.save(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
