"""Record every LP that ``solve_lp`` serves and every transport search, and
digest them, so that a change to the LP kernel can show it moves no bit.

    python tests/lp_record.py small_exact [--seed 1] [--scale 1.0]

runs one pass of a benchmark workload (``bench/workloads.py``) with BLAS
pinned to one thread and prints one line per record kind: its count and a
SHA-256 digest over
- ``lp``: every field of each ``LpSolution`` (status, x, value, dual_eq,
  dual_ub, the three residuals and the iteration count), or the message of
  the breakdown it raised;
- ``pivots``: each LP's status and iteration count, or the message of the
  breakdown it raised, so a kernel change that moves bits but no pivot
  leaves this line as it is;
- ``transport``: each return of the transport dual's search;
- ``output``: each operation's output;
- ``files``: every file the pass wrote (the CLI's reports), by path.

Run it on two checkouts and compare the lines.  ``all`` in place of the
workload runs every workload in turn and prefixes each line with its name,
so that one ``diff`` of two outputs covers the whole benchmark.
``solution_bytes`` is the serialization the tier-1 digest of
``tests/test_solvers.py`` pins.
"""

import os
import sys

if __name__ == "__main__":  # before numpy loads BLAS
    os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def solution_bytes(sol) -> bytes:
    """Every field of an LpSolution, as bytes."""
    arrays = (sol.x, sol.dual_eq, sol.dual_ub)
    numbers = np.array([np.nan if v is None else v for v in (
        sol.value, sol.feasibility_residual, sol.complementarity_residual, sol.duality_gap)])
    return b"|".join([sol.status.value.encode(), str(sol.iterations).encode(),
                      *(b"-" if a is None else a.tobytes() for a in arrays),
                      numbers.tobytes()])


def pivots_bytes(sol) -> bytes:
    """An LpSolution's status and iteration count, as bytes."""
    return f"{sol.status.value} {sol.iterations}".encode()


def value_bytes(value) -> bytes:
    """A nested return value (arrays, numbers, tuples, dicts, strings) as bytes."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    if isinstance(value, dict):
        return b"{" + b",".join(value_bytes(k) + b":" + value_bytes(v)
                               for k, v in value.items()) + b"}"
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(value_bytes(v) for v in value) + b")"
    if isinstance(value, (float, np.floating)):
        return np.float64(value).tobytes()
    return repr(value).encode()


class Recorder:
    """While entered, digests each ``solve_lp`` outcome and each transport
    search that ``ipmdro.balls`` makes, by kind."""

    def __init__(self):
        self.digests = {}
        self.counts = Counter()

    def add(self, kind, data: bytes):
        self.digests.setdefault(kind, hashlib.sha256()).update(data)
        self.counts[kind] += 1

    def _wrap(self, fn, **serializers):
        """``fn``, recording each return under every kind of ``serializers``
        by that kind's serializer, and each exception's message under all."""
        def recorded(*args):
            try:
                out = fn(*args)
            except Exception as exc:
                for kind in serializers:
                    self.add(kind, f"{type(exc).__name__}: {exc}".encode())
                raise
            for kind, serialize in serializers.items():
                self.add(kind, serialize(out))
            return out

        return recorded

    def __enter__(self):
        from ipmdro import balls

        self._saved = balls.solve_lp, balls._transport_dual
        balls.solve_lp = self._wrap(balls.solve_lp, lp=solution_bytes, pivots=pivots_bytes)
        balls._transport_dual = self._wrap(balls._transport_dual, transport=value_bytes)
        return self

    def __exit__(self, *exc):
        from ipmdro import balls

        balls.solve_lp, balls._transport_dual = self._saved

    def lines(self):
        return [f"{kind} {self.counts[kind]} {self.digests[kind].hexdigest()}"
                for kind in sorted(self.digests)]


def _workloads():
    """The benchmark's ``workloads`` module, with the package on the path."""
    for path in (str(ROOT / "bench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def record_pass(workload, seed, scale):
    """One pass of ``workload``'s operations under a Recorder; its lines."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        ops = workloads.BUILDERS[workload](seed, scale, ROOT, out_dir)
        with Recorder() as rec:
            for op in ops:
                try:
                    out = op.call()
                except Exception as exc:  # a breakdown is part of the record
                    out = f"{type(exc).__name__}: {exc}"
                rec.add("output", op.case.encode() + b"=" + value_bytes(out))
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            rec.add("files", str(path.relative_to(out_dir)).encode() + path.read_bytes())
        return rec.lines()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a benchmark workload, or all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    every = args.workload == "all"
    for workload in _workloads().BUILDERS if every else [args.workload]:
        for line in record_pass(workload, args.seed, args.scale):
            print(f"{workload} {line}" if every else line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
