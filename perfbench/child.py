"""One benchmark measurement: a fresh interpreter running hdtest.cli.main once.

Usage: python3 child.py RESULT_JSON SPANS_JSON|- -- CLI_ARGS...

The parent stamps time.monotonic() into PERFBENCH_SPAWN just before it starts
this process, so `setup_s` runs from process start until `hdtest.cli` is
imported.  With a spans path, the tracer from spans.py is installed before
`main` runs and its spans are written out after `main` returns.
"""

import json
import os
import sys
import time


def _blas_threads():
    """Effective OpenBLAS thread count, read without changing it; None if unknown."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn()
    return None


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "hdtest_threads": os.environ.get("HDTEST_THREADS"),
    }


def main(argv) -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    result_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON SPANS_JSON|- -- CLI_ARGS...")
    from hdtest import cli

    setup_s = time.monotonic() - spawn
    expected = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(cli.__file__).startswith(expected + os.sep):
        raise SystemExit(f"hdtest imported from {cli.__file__}, not from {expected}")

    tracer = missing = None
    if spans_path != "-":
        import spans
        from hdtest.errors import DomainError

        tracer = spans.Tracer(errors=(DomainError,))
        missing = spans.install(tracer)
    t0 = time.perf_counter()
    rc = cli.main(cli_args)
    main_s = time.perf_counter() - t0

    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"missing": missing, "spans": spans.to_rows(tracer.spans, t0)}, fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "setup_s": setup_s, "main_s": main_s, "env": _environment()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
