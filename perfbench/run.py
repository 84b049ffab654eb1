"""Benchmark of gibbs1d: end-to-end metrics per workload, or per-layer metrics traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole rounds of the workload's processes (see
``workloads.py``), one process at a time, for about ``S`` seconds after an
unmeasured warm-up process, and reports the median over its rounds.  With
``--trace 0`` it prints ``wall_s``, ``cpu_s``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` it alternates untraced and traced rounds,
prints the per-layer metrics of the traced rounds and reports the tracing
overhead on standard error.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of the run (every round, host steal ticks, per-function span
aggregates) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import import_times  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> (unit, aggregate summed, qualified function names).
# The aggregates are those of tracer.Tracer.snapshot: "self_s", "total_s",
# "calls" and "amount" (what tracer.AMOUNTS records for the function).
# A name ending in "*" selects every function whose name starts with the rest.
_TAIL = ("potential.CouplingLaw.tail", "potential.CouplingLaw.weighted_total", "potential.PairPotential.coupling_tail",
         "potential.PairPotential.beyond_range_tail", "potential.tail_variation")
_TABLE = ("potential.PairPotential.tail_enclosure_table", "potential.TailEnclosureTable.*",
          "potential._TruncatedTailTable.*")
_TRANSFER = ("kernel.TransferMatrix.*", "kernel.MarkovConditional.*", "kernel.g_exact_markov")
_CSV = ("dynamics.write_chain_csv", "dynamics.write_coupling_csv")
LAYER_SPANS = {
    "cli.config_s": ("s", "total_s", ("cli.load_config",)),
    "cli.emit_s": ("s", "self_s", ("cli.*",)),
    "intervals.sum_terms": ("count", "amount", ("intervals.float_sum_enclosure",)),
    "intervals.sum_s": ("s", "self_s", ("intervals.*",)),
    "potential.tail_calls": ("count", "calls", ("potential.CouplingLaw.tail",)),
    "potential.tail_s": ("s", "self_s", _TAIL),
    "potential.table_builds": ("count", "calls", ("potential.PairPotential.tail_enclosure_table",)),
    "potential.table_terms": ("count", "amount", ("potential.PairPotential.tail_enclosure_table",)),
    "potential.table_s": ("s", "self_s", _TABLE),
    "fseq.s": ("s", "self_s", ("fseq.*",)),
    "ratiobound.rows": ("count", "calls", ("ratiobound.rn_series",)),
    "ratiobound.rn_terms": ("count", "amount", ("ratiobound.rn_series",)),
    "ratiobound.s": ("s", "self_s", ("ratiobound.*",)),
    "criteria.evaluate_calls": ("count", "calls", ("criteria.evaluate_all",)),
    "criteria.decided": ("count", "amount", ("criteria.evaluate_all",)),
    "criteria.s": ("s", "self_s", ("criteria.*",)),
    "kernel.window_weight_calls": ("count", "calls", ("kernel.window_weight",)),
    "kernel.window_weight_s": ("s", "self_s", ("kernel.window_weight",)),
    "kernel.empirical_s": ("s", "self_s", ("kernel.empirical_g_variation*",)),
    "kernel.transfer_s": ("s", "self_s", _TRANSFER),
    "kernel.enumeration_s": ("s", "self_s", ("kernel.dobrushin_sum",)),
    "dynamics.sites": ("count", "amount", ("dynamics.sample_chain", "dynamics.couple_two_pasts")),
    "dynamics.sample_s": ("s", "self_s", ("dynamics.sample_chain",)),
    "dynamics.couple_s": ("s", "self_s", ("dynamics.couple_two_pasts",)),
    "dynamics.cesaro_s": ("s", "self_s", ("dynamics.cesaro_*",)),
    "dynamics.csv_rows": ("count", "amount", _CSV),
    "dynamics.csv_s": ("s", "self_s", _CSV),
}
# cli.emit_s is the time in cli outside every other layer and outside config loading.
_CONFIG_FUNCS = ("cli.load_config", "cli.parse_config")
PER_LAYER = {"cli.import_s": "s", "cli.import_scipy_s": "s", **{k: v[0] for k, v in LAYER_SPANS.items()},
             "cli.bytes_written": "bytes"}

# One thread per process for the BLAS and OpenMP pools (the machine has 2
# cores, and the benchmark process idles while a child runs); fixed hash seed.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
PROC_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0


def _matches(name: str, selectors) -> bool:
    return any(name == s or (s.endswith("*") and name.startswith(s[:-1])) for s in selectors)


def layer_metrics(funcs: dict, import_s: float, import_scipy_s: float, bytes_written: int) -> dict:
    """Per-layer metrics of one traced round from summed per-function span aggregates."""
    out = {"cli.import_s": import_s, "cli.import_scipy_s": import_scipy_s}
    for metric, (_, stat, selectors) in LAYER_SPANS.items():
        names = [n for n in funcs if _matches(n, selectors)]
        if metric == "cli.emit_s":
            names = [n for n in names if n not in _CONFIG_FUNCS]
        out[metric] = sum(funcs[n][stat] for n in names)
    out["cli.bytes_written"] = bytes_written
    return out


def read_steal_ticks():
    """Host steal ticks of all CPUs from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def spawn(argv, env, stdout_path, stderr_path, timeout):
    """Run one process to its end; returns (start, end, rusage, exit code)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    end = time.monotonic()
    return start, end, usage, os.waitstatus_to_exitcode(status)


class Runner:
    """Runs rounds of one workload and collects their measurements."""

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.procs = workloads.build(workload, smoke)
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        for proc in self.procs:
            d = work / proc.name
            d.mkdir(parents=True)
            if proc.mode == "cli":
                config = dict(proc.config, seed=seed)
                (d / "config.yaml").write_text(json.dumps(config, indent=1, sort_keys=True))
            else:
                (d / "job.json").write_text(json.dumps(proc.job, indent=1, sort_keys=True))

    def _argv(self, proc, trace: bool, t0: float):
        d = self.work / proc.name
        head = [sys.executable] + (["-X", "importtime"] if trace else []) + [str(BENCH / "child.py")]
        head += [str(d / "stats.json"), repr(t0), "1" if trace else "0", proc.mode]
        if proc.mode == "lib":
            return head + [str(d / "job.json")]
        return head + [proc.command, "--config", str(d / "config.yaml"), "--out", str(d / "art"),
                       "--seed", str(self.seed)]

    def warm_up(self) -> None:
        """One unmeasured import, so byte-code caches exist before timing, as they do for users."""
        d = self.work
        _, _, _, rc = spawn([sys.executable, "-c", "import artifact.cli"], self.env, d / "warm.out", d / "warm.err",
                            PROC_TIMEOUT_S)
        if rc != 0:
            sys.stderr.write((d / "warm.err").read_text())
            raise SystemExit(f"cannot import artifact.cli from {ROOT / 'src'} (exit code {rc})")

    def round(self, trace: bool) -> dict:
        for proc in self.procs:
            d = self.work / proc.name
            shutil.rmtree(d / "art", ignore_errors=True)
            for name in ("stats.json", "stdout.txt", "stderr.txt"):
                (d / name).unlink(missing_ok=True)
        steal0 = read_steal_ticks()
        runs = []
        for proc in self.procs:
            d = self.work / proc.name
            timeout = max(1.0, min(PROC_TIMEOUT_S, self.deadline - time.monotonic()))
            t0 = time.monotonic()
            start, end, usage, rc = spawn(self._argv(proc, trace, t0), self.env, d / "stdout.txt",
                                          d / "stderr.txt", timeout)
            runs.append((proc, start, end, usage, rc))
        steal1 = read_steal_ticks()
        rec = {
            "traced": trace,
            "wall_s": runs[-1][2] - runs[0][1],
            "cpu_s": sum(u.ru_utime + u.ru_stime for _, _, _, u, _ in runs),
            "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
            "procs": {},
            "ops": [],
        }
        setup = 0.0
        peak_rss_mb = 0.0
        funcs: dict = {}
        import_s = import_scipy_s = 0.0
        bytes_written = 0
        for proc, start, end, usage, rc in runs:
            d = self.work / proc.name
            stats_path = d / "stats.json"
            stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
            setup += stats.get("setup_s", 0.0)
            # the child's own VmHWM; wait4's ru_maxrss also holds this process's peak
            rss_mb = (stats.get("peak_rss_kb") or usage.ru_maxrss) / 1024.0
            peak_rss_mb = max(peak_rss_mb, rss_mb)
            rec["procs"][proc.name] = {"wall_s": end - start, "cpu_s": usage.ru_utime + usage.ru_stime,
                                      "peak_rss_mb": rss_mb, "setup_s": stats.get("setup_s"), "exit_code": rc}
            rec["ops"] += self._check(proc, rc, stats, d)
            if trace:
                err = (d / "stderr.txt").read_text(errors="replace")
                import_s += import_times(err, "artifact")
                import_scipy_s += import_times(err, "scipy")
                for name, agg in stats.get("trace", {}).items():
                    acc = funcs.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0})
                    for k in acc:
                        acc[k] += agg[k]
                art = d / "art"
                if art.is_dir():
                    bytes_written += sum(f.stat().st_size for f in art.iterdir() if f.is_file())
        rec["setup_s"] = setup
        rec["peak_rss_mb"] = peak_rss_mb
        if trace:
            rec["layers"] = layer_metrics(funcs, import_s, import_scipy_s, bytes_written)
            rec["functions"] = funcs
        return rec

    def _check(self, proc, rc: int, stats: dict, d: Path) -> list:
        """[name, errors, known fault] for each operation of one process."""
        if proc.mode == "lib":
            if "results" not in stats:
                return [[c["name"], [f"library process exited {rc} without results"], bool(c.get("known_fault"))]
                        for c in proc.job["calls"]]
            return [list(op) for op in workloads.check_lib(proc, stats["results"])]
        if rc != 0 or "setup_s" not in stats:
            tail = (d / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
            return [[proc.name, [f"exit code {rc}: {' '.join(tail)}"], False]]
        try:
            errors = workloads.check_cli(proc, d / "art", self.seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return [[proc.name, errors, False]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        ap.error("--seed must fit in 64 bits")
    if not (ROOT / "src" / "artifact" / "cli.py").is_file():
        print(f"no gibbs1d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    # Every process of the run shares one CPU, the last this process may use: on
    # a virtual machine, starting a child on an idle vCPU costs a wake-up whose
    # length varies with the host's load.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, args.smoke, work)
        runner.warm_up()
        steal0 = read_steal_ticks()
        start = time.monotonic()
        rounds = []
        kinds = (False, True) if args.trace else (False,)
        while True:
            cycle0 = time.monotonic()
            for traced in kinds:
                rec = runner.round(traced)
                rounds.append(rec)
                bad = [op for op in rec["ops"] if op[1]]
                print(f"round {len(rounds)}{' traced' if traced else ''}: wall {rec['wall_s']:.3f} s, "
                      f"cpu {rec['cpu_s']:.3f} s, setup {rec['setup_s']:.3f} s, rss {rec['peak_rss_mb']:.1f} MB, "
                      f"steal {rec['steal_ticks']} ticks, {len(bad)} of {len(rec['ops'])} ops failed",
                      file=sys.stderr)
            now = time.monotonic()
            if now + (now - cycle0) > start + args.seconds or now + 2 * (now - cycle0) > runner.deadline:
                break
        steal1 = read_steal_ticks()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for rec in rounds for op in rec["ops"]]
    failed = [op for op in ops if op[1]]
    correct = all(known for _, _, known in failed)
    for name, errors, known in {op[0]: op for op in failed}.values():
        times = sum(op[0] == name for op in failed)
        print(f"{'known fault' if known else 'FAILED'} ({times}x): {name}: {'; '.join(errors)[:400]}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        metrics = {m: {"value": statistics.median(r["layers"][m] for r in traced), "unit": unit}
                   for m, unit in PER_LAYER.items()}
        overhead = {m: statistics.median(r[m] for r in traced) / statistics.median(r[m] for r in plain) - 1
                    for m in ("wall_s", "cpu_s")}
        print(f"tracing overhead: {100 * overhead['wall_s']:+.1f}% wall time, {100 * overhead['cpu_s']:+.1f}% CPU time "
              "of the untraced rounds", file=sys.stderr)
    else:
        metrics = {m: {"value": statistics.median(r[m] for r in plain), "unit": unit} for m, unit in END_TO_END.items()}
        overhead = None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "child_env": CHILD_ENV,
        "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
        "tracing_overhead": overhead, "metrics": metrics, "rounds": rounds,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
