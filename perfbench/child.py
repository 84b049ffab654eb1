"""One measured gibbs1d process: a CLI run or a batch of library calls.

Usage (started by ``run.py``, one fresh interpreter per operation)::

    python3 perfbench/child.py STATS_JSON T0 TRACE cli ARG...
    python3 perfbench/child.py STATS_JSON T0 TRACE lib JOB_JSON

``T0`` is the parent's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is shared by all processes on Linux, so the
process's set-up time (interpreter start, ``import artifact.cli``, config
load) is measured from it.  ``TRACE`` is 1 to wrap the program's layers
with ``tracer.Tracer``.  The stats file receives the set-up time, the peak
RSS, the trace aggregates and, in ``lib`` mode, the results of the library
calls.
"""

import json
import sys
import time


def _peak_rss_kb():
    """Peak RSS of this program, from VmHWM of the address space exec created.

    ru_maxrss from wait4 is no use here: the spawning process's peak RSS is
    folded into it when the child execs from a vfork-style clone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _write(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _run_lib(artifact, job: dict) -> list:
    """Library calls of the finite-range workload; each result is one operation."""
    from artifact.fseq import Word
    from artifact.potential import CouplingLaw, PairPotential

    results = []
    for call in job["calls"]:
        pot = call["potential"]
        if pot["kind"] == "power_law":
            law = CouplingLaw.power_law(pot["q"], pot.get("amplitude", 1.0))
        else:
            law = CouplingLaw.finite_table(pot["values"])
        p = PairPotential(beta=pot["beta"], coupling=law, truncation_range=pot.get("truncation_range"))
        R = p.finite_range
        try:
            if call["op"] == "cesaro_estimate":
                n = call["n"]
                boundary = Word.constant(-R, n + 2 * R, call["boundary"])
                value = artifact.dynamics.cesaro_estimate(p, Word(0, (1,)), n, boundary)
                results.append({"name": call["name"], "value": value})
            else:
                n = call["n"]
                past = call["past"]
                boundary = Word(-R, tuple([past] * R) + (1,) * (n + 1) + (1,) * R)
                pi = artifact.kernel.pi_window_at_zero(p, boundary, n, call["s"])
                g = artifact.kernel.g_exact_markov(p).prob((past,) * R, call["s"])
                results.append({"name": call["name"], "value": float(pi.value), "g_exact": g})
        except (ValueError, ArithmeticError) as exc:
            results.append({"name": call["name"], "error": f"{type(exc).__name__}: {exc}"})
    return results


def main() -> int:
    stats_path, t0, trace, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    rest = sys.argv[5:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    import artifact
    import artifact.cli

    if tracer is not None:
        tracer.install(artifact)
    stats: dict = {}
    if mode == "cli":
        load_config = artifact.cli.load_config

        def timed_load_config(path):
            cfg = load_config(path)
            stats.setdefault("setup_s", time.monotonic() - t0)
            return cfg

        artifact.cli.load_config = timed_load_config
        rc = artifact.cli.main(rest)
    else:
        with open(rest[0]) as fh:
            job = json.load(fh)
        stats["setup_s"] = time.monotonic() - t0
        stats["results"] = _run_lib(artifact, job)
        rc = 0
    if tracer is not None:
        stats["trace"] = tracer.snapshot()
    stats["peak_rss_kb"] = _peak_rss_kb()
    _write(stats_path, stats)
    return rc


if __name__ == "__main__":
    sys.exit(main())
