"""Run one pk4lie step in this fresh process, as a user's shell would.

    python3 child.py setup              import pk4lie.cli, load the catalog
                                        with its load assertions, print the
                                        path pk4lie was imported from
    python3 child.py run ARGS...        pk4lie ARGS
    python3 child.py trace FILE ARGS... pk4lie ARGS with the layer wrappers
                                        installed; counters, self times and
                                        spans go to FILE as JSON

`pk4lie` must be importable (run.py puts the checkout's src/ first on
PYTHONPATH).
"""

import time

STARTED = time.monotonic()  # the first line: cli.startup.s ends here

import json  # noqa: E402
import sys  # noqa: E402


def setup() -> int:
    import pk4lie
    import pk4lie.cli  # noqa: F401
    from pk4lie.catalog import load_catalog
    load_catalog()
    print(pk4lie.__file__)
    return 0


def run(argv) -> int:
    from pk4lie.cli import main
    return main(argv)


def trace(path, argv) -> int:
    import tracer
    t0 = time.monotonic()
    import pk4lie.cli
    import_s = time.monotonic() - t0
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        return pk4lie.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(path, "w") as f:
            json.dump({"started": STARTED, "import_s": import_s,
                       "counts": tr.counts, "seconds": tr.seconds,
                       "spans": tr.spans,
                       "sympy_imported": "sympy" in sys.modules}, f)


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup()
    if mode == "run":
        return run(rest)
    if mode == "trace":
        return trace(rest[0], rest[1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
