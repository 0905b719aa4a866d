#!/usr/bin/env python3
"""Run one pml benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; pml is imported from ``src/``. With
``--trace 0`` the run measures the end-to-end metrics with no wrappers
installed. With ``--trace 1`` it alternates untraced blocks with a fixed
number of traced blocks, prints the per-layer table and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Result files go to
``perfbench/out/``. ``ops_per_s`` and ``setup_s`` are CPU times scaled to a
reference host speed by ``HostProbe``. Workloads and metrics are described in
README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PROBE_EVERY_S = 0.2  # wall seconds between host-speed probes
# CPU time of each probe part in the reference machine's fast state (README.md)
PROBE_REF_S = {"interpreter": 0.0040, "blas": 0.0012}
# os.sysconf names for the data cache sizes (glibc _SC_LEVEL{1_D,2,3}CACHE_SIZE)
CACHE_SYSCONF = {"l1d": 188, "l2": 191, "l3": 194}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_threads() -> tuple[int, int]:
    """Run BLAS/OpenMP pools on one thread and the process on one CPU; must run
    before numpy loads. Returns nproc and the CPU.

    One thread stays under the cap of nproc. A second BLAS thread did not make
    train_pair faster on 2 cores (the conv matmuls are small), and its
    spin-waiting made the process's CPU time follow other tenants' load. On one
    CPU the host probe's thread shares the measuring thread's CPU, so it sees
    the same neighbours (README.md).
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(nproc: int, cpu: int, seed: int, workload: str) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pml").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = {}
    for name, key in CACHE_SYSCONF.items():
        try:
            caches[name + "_bytes"] = os.sysconf(key)
        except (ValueError, OSError):
            caches[name + "_bytes"] = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": nproc,
        "pinned_cpu": cpu,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "caches": caches,
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest(),
    }


class HostProbe:
    """Fixed CPU work outside pml, run by a sampler thread to follow the host's speed.

    On a shared host the CPU time of the same code changes with other tenants'
    load: on the machine measured in README.md a core switched, many times a
    second, between a fast and an about 1.8 times slower state, and the share
    of slow time drifted from run to run. Every ``PROBE_EVERY_S`` wall seconds
    the thread times two parts in its own CPU time, with the garbage collector
    off so that they do not depend on pml's heap: formatting and parsing a
    fixed block of floats (``interpreter``) and multiplying a fixed matrix
    (``blas``). ``scale`` is the mean time of one part over a stretch of the
    run divided by its ``PROBE_REF_S``: above 1 when the host ran slow.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.values = rng.random((16, 256))
        self.matrix = rng.random((160, 160))
        self.samples: list[tuple[float, dict[str, float]]] = []  # (perf_counter at the end, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-probe", daemon=True)

    def run(self) -> dict[str, float]:
        enabled = gc.isenabled()
        gc.disable()
        try:
            c0 = thread_time()
            text = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in self.values.tolist())
            parsed = [[float(p) for p in line.split()] for line in text.splitlines()]
            c1 = thread_time()
            for _ in range(4):
                product = self.matrix @ self.matrix
            c2 = thread_time()
        finally:
            if enabled:
                gc.enable()
        if parsed[-1][-1] != self.values[-1, -1] or not product[0, 0] > 0:
            raise RuntimeError("host probe computed a wrong result")
        return {"interpreter": c1 - c0, "blas": c2 - c1}

    def _loop(self) -> None:
        self.run()  # warm-up, not kept
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples.append((perf_counter(), self.run()))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, part: str, start: float = -math.inf, end: float = math.inf) -> float | None:
        """Mean time of ``part`` between ``start`` and ``end`` over its reference; None without samples."""
        times = [cpu[part] for t, cpu in self.samples if start <= t <= end]
        return statistics.fmean(times) / PROBE_REF_S[part] if times else None


def _rate(blocks: list[dict]) -> float:
    """Ops per CPU second spent in pml calls, over all the given blocks."""
    return sum(b["ops"] for b in blocks) / sum(b["cpu_s"] for b in blocks)


class SetUps:
    """Holds a workload's inputs and times every set-up, in CPU and wall seconds."""

    def __init__(self, workload, seed: int, out_dir: Path):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.state: dict | None = None
        self.cpu_s: list[float] = []
        self.wall_s: list[float] = []
        self.windows: list[tuple[float, float]] = []  # perf_counter at start and end

    def renew(self) -> None:
        """Build the inputs again; the keys in ``workload.carried`` (check tallies) move over."""
        old = self.state or {}
        carried = {key: old[key] for key in self.workload.carried if key in old}
        old = self.state = None  # release the previous inputs before building the next ones
        t0, c0 = perf_counter(), thread_time()
        state = self.workload.setup(self.seed, self.out_dir)
        self.cpu_s.append(thread_time() - c0)
        self.wall_s.append(perf_counter() - t0)
        self.windows.append((t0, perf_counter()))
        state.update(carried)
        self.state = state

    def due(self, elapsed: float, seconds: float) -> bool:
        """Whether the next set-up is due, spreading SETUP_REPEATS over ``seconds``."""
        return len(self.cpu_s) < SETUP_REPEATS and elapsed >= len(self.cpu_s) * seconds / SETUP_REPEATS


def run_block(workload, state, index: int, tracer) -> dict:
    """Run one block of tasks, timing only the calls into pml; check them after the block.

    Each call is timed twice: in CPU seconds of the calling thread (BLAS runs
    in it, on one thread) and in wall seconds.
    """
    from perfbench import trace

    traced = tracer is not None
    tasks = workload.block(state, index)
    results, cpu, wall, started = [], 0.0, 0.0, perf_counter()
    with (trace.installed(tracer) if traced else contextlib.nullcontext()):
        for task in tasks:
            t0, c0 = perf_counter(), thread_time()
            if traced:
                with trace.op_span(tracer):
                    out = task.run()
            else:
                out = task.run()
            cpu += thread_time() - c0
            wall += perf_counter() - t0
            results.append((task, out))
    window = (started, perf_counter())
    ops, failed, errors = sum(task.ops for task in tasks), 0, []
    for task, out in results:
        bad, messages = workload.check(state, task, out)
        failed += bad
        errors.extend(messages)
    return {"traced": traced, "ops": ops, "cpu_s": cpu, "wall_s": wall, "ops_per_s": ops / cpu,
            "window": window, "failed": failed, "errors": errors}


def measure(workload, setups: SetUps, seconds: float, tracer=None) -> dict:
    """Set up, run blocks, and set up again between them; then report and tear down.

    Untraced: blocks run until the next one would overrun ``seconds`` (at least
    one), and the set-ups are spread over those ``seconds``, so that ``setup_s``
    samples the whole run and not only its first seconds; each new set-up
    replaces the inputs. Traced: untraced and traced blocks alternate until
    ``workload.trace_blocks`` traced blocks have run. Set-ups not yet done run
    after the last block.
    """
    blocks, block_s = [], 0.0  # block_s: wall seconds of the blocks, checks included
    started = perf_counter()
    setups.renew()
    try:
        while True:
            traced = tracer is not None and len(blocks) % 2 == 1
            t0 = perf_counter()
            blocks.append(run_block(workload, setups.state, len(blocks), tracer if traced else None))
            block_s += perf_counter() - t0
            elapsed = perf_counter() - started
            if tracer is not None:
                if sum(b["traced"] for b in blocks) >= workload.trace_blocks:
                    break
                continue
            while setups.due(elapsed, seconds):
                setups.renew()
                elapsed = perf_counter() - started
            if elapsed + block_s / len(blocks) > seconds:
                break
        while len(setups.cpu_s) < SETUP_REPEATS:
            setups.renew()
        report = workload.report(setups.state)
    finally:
        if setups.state is not None and hasattr(workload, "teardown"):
            workload.teardown(setups.state)
    return {"blocks": blocks, "attempted": sum(b["ops"] for b in blocks),
            "failed": sum(b["failed"] for b in blocks),
            "errors": [m for b in blocks for m in b.pop("errors")],
            "report": report, "wall_s": perf_counter() - started}


def layer_table(tracer, metrics: dict, untraced: float, traced: float, op_wall: float) -> str:
    from perfbench import trace

    layers = tracer.layers()
    lines = [f"{'layer':<22} {'spans':>8} {'calls':>10} {'total_s':>10} {'self_s':>10} {'self%':>7}"]
    for name in trace.LAYER_NAMES:
        calls = tracer.counts.get(name, 0)
        row = layers.get(name)
        if row is None and not calls:
            lines.append(f"{name:<22} {'not exercised':>37}")
            continue
        row = row or {"spans": 0, "total_s": 0.0, "self_s": 0.0}
        timed = row["spans"] or name in tracer.leaf_s
        t_total = f"{row['total_s']:.4f}" if timed else "-"
        t_self = f"{row['self_s']:.4f}" if timed else "-"
        share = f"{100 * row['self_s'] / op_wall:.1f}" if timed else "-"
        lines.append(f"{name:<22} {row['spans']:>8} {calls or row['spans']:>10} "
                     f"{t_total:>10} {t_self:>10} {share:>7}")
    self_sum = sum(r["self_s"] for r in layers.values())
    lines.append(f"sum of self times {self_sum:.4f} s over traced op wall time {op_wall:.4f} s "
                 f"({100 * self_sum / op_wall:.2f}%)")
    lines.append(f"tracing overhead: untraced {untraced:.6g}, traced {traced:.6g} ops per CPU s "
                 f"(untraced/traced = {untraced / traced:.4f})")
    lines.append("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        shown = "not exercised" if value is None else f"{value:.6g} {unit}"
        lines.append(f"  {name:<30} {shown}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse(argv)
    nproc, cpu = pin_threads()
    if not (ROOT / "src" / "pml" / "__init__.py").is_file():
        print(f"error: no pml sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import trace, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    env = environment(nproc, cpu, args.seed, args.workload)

    tracer = trace.Tracer() if args.trace else None
    setups = SetUps(workload, args.seed, out_dir)
    with HostProbe() as probe:
        run = measure(workload, setups, args.seconds, tracer)
    extra = run["report"]
    setup_times, setup_wall = setups.cpu_s, setups.wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [b for b in run["blocks"] if not b["traced"]]
    cpu_rate = _rate(plain)
    part = workload.probe_part
    scale = probe.scale(part) or probe.run()[part] / PROBE_REF_S[part]

    def scaled(cpu_s: float, window: tuple[float, float]) -> float:
        return cpu_s / (probe.scale(part, *window) or scale)

    ops_per_s = sum(b["ops"] for b in plain) / sum(scaled(b["cpu_s"], b["window"]) for b in plain)
    setup_s = statistics.median(scaled(t, w) for t, w in zip(setup_times, setups.windows))
    block_rates = [b["ops_per_s"] for b in plain]
    wall_rate = sum(b["ops"] for b in plain) / sum(b["wall_s"] for b in plain)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# pml benchmark: workload {args.workload}, seed {args.seed}, op = {workload.op_unit}")
    print("# env " + json.dumps(env, sort_keys=True))
    for message in run["errors"][:20]:
        print(f"CHECK FAILED: {message}")

    if args.trace:
        traced_blocks = [b for b in run["blocks"] if b["traced"]]
        traced = _rate(traced_blocks)
        op_wall = sum(b["wall_s"] for b in traced_blocks)
        layer = trace.layer_metrics(tracer)
        self_sum = sum(row["self_s"] for row in tracer.layers().values())
        layer["trace.overhead_ratio"] = (cpu_rate / traced, "ratio")
        layer["trace.self_coverage"] = (self_sum / op_wall, "ratio")
        table = layer_table(tracer, layer, cpu_rate, traced, op_wall)
        print(table)
        (stem.parent / (stem.name + "-layers.txt")).write_text(table + "\n")
        tracer.write_csv(stem.parent / (stem.name + "-spans.csv"))
        metrics = {k: {"value": 0.0 if v is None else v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = {"ops_per_s": ops_per_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}

    failed_ratio = run["failed"] / run["attempted"]
    print(f"host_scale     {scale:.6g} (mean {part} probe time of {len(probe.samples)} probes over "
          f"the reference {PROBE_REF_S[part]} s; each block and set-up is scaled by the probes "
          f"made during it)")
    print(f"ops_per_s      {ops_per_s:.6g} per reference CPU second; {cpu_rate:.6g} per CPU second "
          f"(over {len(plain)} untraced blocks; block rates: median "
          f"{statistics.median(block_rates):.6g}, min {min(block_rates):.6g}, "
          f"max {max(block_rates):.6g}; per wall second {wall_rate:.6g})")
    print(f"setup_s        {setup_s:.6g} reference CPU s; {statistics.median(setup_times):.6g} CPU s "
          f"(median of {SETUP_REPEATS}: {', '.join(f'{t:.4f}' for t in setup_times)}; "
          f"wall median {statistics.median(setup_wall):.6g} s)")
    print(f"peak_rss_mb    {peak_rss_mb:.6g} MiB")
    print(f"failed_ratio   {failed_ratio:.6g} ({run['failed']} of {run['attempted']} ops)")
    for key, value in extra.items():
        print(f"{key:<14} {value}")

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps({
        **result, "env": env, "report": extra, "failed_ratio": failed_ratio,
        "cpu_ops_per_s": cpu_rate, "host_scale": scale,
        "probe_samples": probe.samples, "wall_s": run["wall_s"],
        "setup_cpu_s": setup_times, "setup_wall_s": setup_wall, "setup_windows": setups.windows, "blocks": run["blocks"],
        "errors": run["errors"]}, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
