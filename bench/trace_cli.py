"""Run the latpack CLI in this process with the tracer installed.

    python3 bench/trace_cli.py TRACE.raw verify paper

The CLI's stdout and exit code are passed through.  The spans are saved raw
to TRACE.raw (Tracer.load reads them back), so that summarising them is not
part of the traced command's time.
"""

import sys

from tracer import Tracer


def main(raw_path, argv):
    tracer = Tracer()
    tracer.install()
    import latpack.cli

    with tracer.task("latpack " + " ".join(argv)):
        code = latpack.cli.run(argv)
    tracer.save(raw_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
