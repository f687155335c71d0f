"""One fresh, single-threaded process of the permcross benchmark.

``run.py`` starts this file once per pass:

    python3 perfbench/worker.py MODE PAYLOAD_JSON

It imports ``permcross`` from the ``src`` directory next to ``perfbench``,
stamps the moment it is ready (``time.monotonic()``, which every process on
the machine shares, so ``run.py`` can subtract its own spawn time), runs the
work for MODE and prints one JSON object as the last line of its stdout.

Modes:
  setup   import only; the ready stamp is the whole answer
  pass    one pass of a workload, optionally under the tracer
  cold    verify-all warm, then each check alone with every cache cleared
  kernel  every STATISTICS function over a precomputed list of S_9
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from itertools import permutations  # noqa: E402

import permcross as pc  # noqa: E402
import permcross.checks  # noqa: E402,F401  (the check registry is built on import)
import permcross.cli  # noqa: E402,F401
from permcross import distributions  # noqa: E402

READY = time.monotonic()

GROUP_N = 9
KERNEL_N = 9


class CacheLedger:
    """Every ``functools.lru_cache`` on the package modules, found by
    introspection, with hit/miss totals that survive ``cache_clear()``."""

    def __init__(self):
        self.caches = {}
        for modname, mod in sorted(sys.modules.items()):
            if not modname.startswith("permcross.") or mod is None:
                continue
            layer = modname.split(".", 1)[1]
            for name, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname:
                    self.caches[f"{layer}.{name}"] = obj
        self.totals = {key: [0, 0] for key in self.caches}

    def clear(self):
        for key, cache in self.caches.items():
            info = cache.cache_info()
            self.totals[key][0] += info.hits
            self.totals[key][1] += info.misses
            cache.cache_clear()

    def counts(self) -> dict:
        self.clear()
        return {key: {"hits": h, "misses": m} for key, (h, m) in self.totals.items()}


class HostSpeed:
    """Samples how fast this host runs interpreter-bound Python during a pass.

    Every ``INTERVAL`` seconds a SIGALRM handler (a signal, not a thread)
    times a fixed burst shaped like the program's own work: tuple slicing,
    nested comparison loops and dict counting, in the benchmark's code.  On
    the machine the benchmark was defined on (2 vCPUs, Python 3.11) the
    host's speed drifts by up to 30% over tens of seconds, and the same
    class-sweep pass took 22.7-35.2 s.  The bursts slow down with the drift,
    so the pass time without the bursts, times the mean of
    ``REFERENCE_BURST_S / burst``, reads the same whichever phase of the drift
    a pass ran in.  Over eight to ten passes of fixed work this left a 1.3-2.0%
    standard deviation, against 11-12% for the raw time and 3-4% for a burst
    of plain integer arithmetic.  ``REFERENCE_BURST_S`` is the median burst
    there, so scaled and raw times are close.
    """

    INTERVAL = 0.05
    ROTATIONS = 40
    WORD = (4, 1, 3, 5, 7, 6, 2, 9, 8)
    REFERENCE_BURST_S = 1.75e-4

    def __init__(self):
        self.bursts: list[float] = []

    def _burst(self, signum, frame):
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for r in range(self.ROTATIONS):
            w = self.WORD[r % 9:] + self.WORD[:r % 9]
            c = 0
            for j in range(1, 9):
                wj = w[j]
                for i in range(j):
                    if w[i] > wj:
                        c += 1
            counts[c] = counts.get(c, 0) + 1
        self.bursts.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, wall: float) -> dict:
        if not self.bursts:
            self._burst(None, None)
        own = wall - sum(self.bursts)
        speed = statistics.fmean(self.REFERENCE_BURST_S / b for b in self.bursts)
        return {"own_wall_s": own, "ref_wall_s": own * speed, "host_speed": speed,
                "bursts": len(self.bursts)}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def spec_of(query: dict):
    kwargs = {}
    if query["constraint"] is not None:
        kind, k = query["constraint"]
        kwargs[kind] = k
    avoid = [tuple(int(c) for c in pat) for pat in query["avoid"]]
    return pc.class_spec(query["n"], avoid=avoid, **kwargs)


# ---------------------------------------------------------------------------
# workloads: each runs its queries (timed by the caller) and returns a
# function that turns what was computed into checkable outputs (untimed)


def verify_all(inputs, ledger):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pc.cli.main(["verify", "all", "--json"])

    def outputs():
        return {"exit_code": code, "lines": buf.getvalue().splitlines()}

    return outputs


def class_sweep(inputs, ledger):
    reports = []
    for query in inputs["queries"]:
        ledger.clear()
        t0 = time.perf_counter()
        report = pc.dist(spec_of(query), "crs")
        reports.append((query, report, time.perf_counter() - t0))

    def outputs():
        return [
            {
                "key": query["key"],
                "cls": query["cls"],
                "digest": digest(report.to_json()),
                "cardinality": report.cardinality,
                "coeff_sum": sum(report.to_json()["poly"]),
                "wall_s": wall,
            }
            for query, report, wall in reports
        ]

    return outputs


def profile_json(profile) -> dict:
    return {
        "by_pos1": [p.to_json() for p in profile.by_pos1],
        "by_last": [p.to_json() for p in profile.by_last],
        "total": profile.total.to_json(),
    }


def group_stats(inputs, ledger):
    ledger.clear()
    spec = pc.class_spec(GROUP_N)
    results = []
    for item in inputs["order"]:
        if item == "profile":
            results.append((item, distributions.crs_profile(GROUP_N)))
        elif item.startswith("joint:"):
            stats = tuple(item.split(":", 1)[1].split(","))
            results.append((item, pc.joint_dist(spec, stats)))
        else:
            results.append((item, pc.dist(spec, item)))

    def outputs():
        out = []
        for item, res in results:
            if item == "profile":
                data = profile_json(res)
                out.append({"key": item, "digest": digest(data), "cardinality": sum(data["total"]),
                            "coeff_sum": sum(sum(p) for p in data["by_pos1"])})
            else:
                data = res.to_json()
                coeffs = data["poly"]
                total = sum(c for *_, c in coeffs) if data["stats"][1:] else sum(coeffs)
                out.append({"key": item, "digest": digest(data), "cardinality": res.cardinality,
                            "coeff_sum": total})
        return out

    return outputs


WORKLOADS = {"verify-all": verify_all, "class-sweep": class_sweep, "group-stats": group_stats}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(payload) -> dict:
    ledger = CacheLedger()
    tracer = None
    if payload.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = WORKLOADS[payload["workload"]]
    with HostSpeed() as host:
        t0 = time.perf_counter()
        outputs = work(payload["inputs"], ledger)
        wall = time.perf_counter() - t0
    result = {"wall_s": wall, "peak_rss_mb": peak_rss_mb(), **host.scale(wall)}
    if tracer is not None:
        result["trace"] = tracer.report()  # before outputs(), which calls traced methods
        result["caches"] = ledger.counts()
    result["outputs"] = outputs()
    return result


def run_cold(payload) -> dict:
    """verify-all once with warm (shared) caches, then every check on its own
    with every cache cleared first."""
    warm = run_pass({"workload": "verify-all", "inputs": {}})
    ledger = CacheLedger()
    cold = {}
    with HostSpeed() as host:
        for check_id in pc.available_checks():
            ledger.clear()
            t0 = time.perf_counter()
            res = pc.run_check(check_id)
            cold[check_id] = {"cold_s": time.perf_counter() - t0, "status": res.status}
    scaled = host.scale(sum(c["cold_s"] for c in cold.values()))
    return {"warm": warm, "cold": cold, "cold_ref_sum_s": scaled["ref_wall_s"]}


def run_kernel(payload) -> dict:
    """Each statistic over all of S_9; the counting kernels are compared with
    the definitional scans outside the timed loops."""
    words = list(permutations(range(1, KERNEL_N + 1)))
    timings, values = {}, {}
    for name, fn in pc.STATISTICS.items():
        t0 = time.perf_counter()
        vals = [fn(w) for w in words]
        timings[name] = (time.perf_counter() - t0) / len(words) * 1e6
        values[name] = vals
    oracles = {"crs": pc.crossings, "nes": pc.nestings}
    mismatches = {
        name: sum(1 for w, v in zip(words, values[name]) if oracle(w)[0] != v)
        for name, oracle in oracles.items()
    }
    return {
        "us_per_word": timings,
        "stat_functions": {name: fn.__name__ for name, fn in pc.STATISTICS.items()},
        "words": len(words),
        "mismatches": mismatches,
    }


MODES = {
    "setup": lambda payload: {},
    "pass": run_pass,
    "cold": run_cold,
    "kernel": run_kernel,
}


def main(argv) -> int:
    mode, payload = argv[1], json.loads(argv[2])
    if not Path(pc.__file__).resolve().is_relative_to(SRC):
        print(f"permcross was imported from {pc.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    result = MODES[mode](payload)
    result["ready"] = READY
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
