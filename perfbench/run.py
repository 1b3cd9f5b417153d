"""Benchmark driver for the gtt kernel.

    python3 perfbench/run.py --workload catalog|prove|normalize \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver generates the workload's
inputs from the seed, measures set-up time in fresh interpreters, then
runs measured passes, each in a fresh single-threaded interpreter
(``bench_worker.py``), until ``--seconds`` is used up.  It checks every
verdict against its known answer and prints a report, then, as its last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from traced passes with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if not __package__:  # run as a script: import the package from the root
    sys.path[0] = str(Path(__file__).resolve().parents[1])
from perfbench.bench_worker import PROBE_EVERY_S, PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 7
# Candidate tail percentiles; the report uses the highest that leaves at
# least ten items of one pass beyond it.
TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)
LAYERS = ("theorems", "dynamism", "derivio", "grammar", "typecheck",
          "elaborate", "model")

# Counts that must repeat exactly from pass to pass (the node counts are
# made in traced passes only).
REPEATING_COUNTS = ("theorems.instances", "theorems.derivations",
                    "dynamism.derivations", "dynamism.rejected",
                    "dynamism.nodes", "dynamism.distinct_nodes",
                    "model.judgments", "model.skipped", "model.env_checks",
                    "model.equipment_pairs", "model.equipment_checks",
                    "derivio.bytes_in", "grammar.bytes_in")

# Time in a fresh interpreter from `import gtt` until the workload's
# signature is loaded, as every CLI call pays it; printed with the speed
# factor of the probes run just before and after.
SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from bench_worker import PROBE_REF_S, probe_s
before = probe_s()
t0 = time.perf_counter()
import gtt
from gtt.typecheck import default_signature
sig = default_signature()
if sys.argv[3] == "normalize":
    sig.replace(retract=False)
elapsed = time.perf_counter() - t0
print(repr(elapsed), repr(2 * PROBE_REF_S / (before + probe_s())))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return proc.stdout


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(seconds, speed factor) of each set-up probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        elapsed, factor = run_child(["-c", SETUP_PROBE, str(SRC), str(HERE), workload]).split()
        samples.append((float(elapsed), float(factor)))
    return samples


def run_pass(workload: str, run_dir: Path, traced: bool, index: int) -> dict:
    out = run_dir / f"pass{index}.json"
    run_child([str(HERE / "bench_worker.py"), str(SRC), workload,
               str(run_dir / "jobs.json"), "1" if traced else "0", str(out)])
    result = json.loads(out.read_text())
    result["traced"] = traced
    result["factors"] = speed_factors(result)
    raw = sum(item[1] for item in result["items"])
    scaled = sum(item[1] * f for item, f in zip(result["items"], result["factors"]))
    result["speed"] = scaled / raw if raw else 1.0
    return result


def speed_factors(result: dict) -> list[float]:
    """For each item, ``PROBE_REF_S`` over the mean duration of the speed
    probes run while it was handled, or within one probe interval of it."""
    times = [t for t, _, _ in result["samples"]]
    probes = [d for _, d, _ in result["samples"]]
    factors = []
    for _, _, start, end, _ in result["items"]:
        lo = bisect.bisect_left(times, start - PROBE_EVERY_S)
        hi = bisect.bisect_right(times, end + PROBE_EVERY_S)
        window = probes[lo:hi] or [probes[min(lo, len(probes) - 1)]]
        factors.append(PROBE_REF_S * len(window) / sum(window))
    return factors


def run_passes(workload: str, run_dir: Path, seconds: float, trace: bool) -> list[dict]:
    """Passes until the time is used up: at least one, and with tracing at
    least one untraced and one traced pass, alternating."""
    passes: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(workload, run_dir, traced, len(passes)))
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if trace and len(passes) < 2:
            continue
        step = (2 if trace else 1) * max(durations)
        if elapsed + step > seconds:
            return passes


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(items_per_pass: int) -> float:
    """The highest candidate percentile with at least ten items of one
    pass beyond it.  It depends on the pass size, not on how many passes
    fit in the run, so faster code is compared at the same percentile."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if items_per_pass * (100 - p) / 100 >= 10:
            best = p
    return best


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    dump = json.loads(Path(result["spans"]).read_text())
    spans = dump["spans"]
    # a span's duration, less the speed probes that ran inside it
    times = [t for t, _, _ in result.get("samples", ())]
    probe_sum = [0.0]
    for _, _, spent in result.get("samples", ()):
        probe_sum.append(probe_sum[-1] + spent)

    def duration(start, end):
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        return end - start - (probe_sum[hi] - probe_sum[lo])

    durations = [duration(start, end) for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for (_, _, _, parent, _), d in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += d
    inclusive: dict[str, float] = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    for (name, *_), d, children in zip(spans, durations, child_time):
        inclusive[name] = inclusive.get(name, 0.0) + d
        self_time[name.split(".")[0]] += d - children

    c = result["counts"]
    wall = result["raw_wall_s"]
    speed = result["speed"]

    def t(name):
        return inclusive.get(name, 0.0) * speed

    def ratio(a, b):
        return a / b if b else 0.0

    judged = c.get("model.judgments", 0)
    m = {
        "theorems.gen_s": t("theorems.gen"),
        "theorems.derive_s": t("theorems.derive"),
        "theorems.instances": c.get("theorems.instances", 0),
        "theorems.derivations": c.get("theorems.derivations", 0),
        "theorems.derive_calls": c.get("theorems.derive_calls", 0),
        "theorems.built": c.get("theorems.built", 0),
        "theorems.kept_ratio": ratio(c.get("theorems.derivations", 0),
                                     c.get("theorems.built", 0)),
        "dynamism.check_s": t("dynamism.check"),
        "dynamism.nodes": c.get("dynamism.nodes", 0),
        "dynamism.distinct_nodes": c.get("dynamism.distinct_nodes", 0),
        "dynamism.nodes_per_s": ratio(c.get("dynamism.nodes", 0), t("dynamism.check")),
        "dynamism.rejected": c.get("dynamism.rejected", 0),
        "derivio.parse_s": t("derivio.parse"),
        "derivio.print_s": t("derivio.print"),
        "derivio.bytes_in": c.get("derivio.bytes_in", 0),
        "derivio.mb_per_s": ratio(c.get("derivio.bytes_in", 0) / 1e6, t("derivio.parse")),
        "grammar.parse_s": t("grammar.parse"),
        "grammar.print_s": t("grammar.print"),
        "grammar.bytes_in": c.get("grammar.bytes_in", 0),
        "typecheck.infer_s": t("typecheck.infer"),
        "typecheck.tydyn_s": t("typecheck.tydyn"),
        "elaborate.elab_s": t("elaborate.elab"),
        "elaborate.norm_s": t("elaborate.norm"),
        "elaborate.equal_s": t("elaborate.equal"),
        "elaborate.size_in": c.get("elaborate.size_in", 0),
        "elaborate.size_elab": c.get("elaborate.size_elab", 0),
        "elaborate.size_nf": c.get("elaborate.size_nf", 0),
        "model.semantic_s": t("model.semantic"),
        "model.equipment_s": t("model.equipment"),
        "model.judgments": judged,
        "model.skipped": c.get("model.skipped", 0),
        "model.env_checks": c.get("model.env_checks", 0),
        "model.equipment_checks": c.get("model.equipment_checks", 0),
        "model.coverage": ratio(judged, judged + c.get("model.skipped", 0)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer] * speed
        m[f"{layer}.share"] = ratio(self_time[layer], wall)
    m["trace.spans"] = len(spans)
    m["trace.other_s"] = (wall - sum(self_time.values())) * speed
    m["trace.wall_s"] = wall * speed
    m["trace.speed"] = speed
    return m


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------

def item_failures(workload: str, result: dict, expected: list) -> list[str]:
    """One line per item whose verdict differs from its known answer."""
    bad = []
    if workload == "catalog":
        for item_id, *_, verdict in result["items"]:
            if verdict != "PASS":
                bad.append(f"{item_id}: {verdict}")
        return bad
    for (item_id, *_, got), want in zip(result["items"], expected):
        if workload == "prove":
            ok = got["accept"] == want["accept"] and got["echo"]
        else:
            ok = (got["type"] == want["type"] and got["elaborated"]
                  and got["nf_type"] and got["equal"] == want["equal"])
        if not ok:
            bad.append(f"{item_id}: got {got}, expected {want}")
    return bad


def run_failures(workload: str, passes: list[dict], expected: list) -> list[str]:
    """Failures of the run as a whole: work counts that do not repeat, or
    catalog counts that differ from those of the size-3 catalog."""
    bad = []
    for key in REPEATING_COUNTS:
        seen = {p["counts"][key] for p in passes if key in p["counts"]}
        if len(seen) > 1:
            bad.append(f"count {key} differs between passes: {sorted(map(str, seen))}")
    if workload == "catalog":
        for p in passes:
            bad.extend(catalog_count_failures(p["counts"], p["traced"]))
    elif {len(p["items"]) for p in passes} != {len(expected)}:
        bad.append(f"passes handled {sorted({len(p['items']) for p in passes})} "
                   f"items, expected {len(expected)}")
    return bad


def catalog_count_failures(counts: dict, traced: bool) -> list[str]:
    """Work counts of one catalog pass that differ from the size-3 values:
    exactly, or for the model's counts, downwards."""
    from perfbench.bench_gen import CATALOG_COUNTS, CATALOG_MODEL_MIN, CATALOG_NODES
    want = {**CATALOG_COUNTS, **(CATALOG_NODES if traced else {})}
    bad = [f"{key} = {counts.get(key, 0)}, expected {n}"
           for key, n in want.items() if counts.get(key, 0) != n]
    bad += [f"{key} = {counts.get(key, 0)}, expected at least {n}"
            for key, n in CATALOG_MODEL_MIN.items() if counts.get(key, 0) < n]
    model = counts.get("model.judgments", 0) + counts.get("model.skipped", 0)
    if model != CATALOG_COUNTS["theorems.derivations"]:
        bad.append(f"model.judgments + model.skipped = {model}, expected "
                   f"{CATALOG_COUNTS['theorems.derivations']}")
    return bad


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("catalog", "prove", "normalize"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gtt" / "__init__.py").is_file():
        print(f"error: no gtt sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import bench_gen

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        inputs = bench_gen.make_inputs(args.workload, args.seed)
        for name, text in inputs.files.items():
            (run_dir / name).write_text(text)
        (run_dir / "jobs.json").write_text(json.dumps(inputs.jobs))
        setup = measure_setup(args.workload)
        passes = run_passes(args.workload, run_dir, args.seconds, bool(args.trace))
        return report(args, inputs, setup, passes)
    finally:
        for path in run_dir.iterdir():
            if not path.name.endswith(".spans.json"):
                path.unlink()
        if not any(run_dir.iterdir()):
            run_dir.rmdir()


def report(args, inputs, setup: list[tuple[float, float]], passes: list[dict]) -> int:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    failures: list[str] = []
    attempted = 0
    failed = 0
    for p in passes:
        bad = item_failures(args.workload, p, inputs.expected)
        attempted += len(p["items"])
        failed += len(bad)
        failures.extend(bad)
    run_bad = run_failures(args.workload, passes, inputs.expected)
    correct = not failures and not run_bad and attempted > 0

    per_pass = len(plain[0]["items"])
    walls = [p["raw_wall_s"] * p["speed"] for p in plain]
    # an item's latency is its median over the untraced passes
    by_item: dict[str, list[float]] = {}
    for p in plain:
        for (item_id, lat, *_), f in zip(p["items"], p["factors"]):
            by_item.setdefault(item_id, []).append(lat * f)
    latencies = [statistics.median(v) for v in by_item.values()]
    tail_p = tail_percentile(per_pass)
    n_plain = sum(len(p["items"]) for p in plain)
    end_to_end = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (n_plain / sum(walls), "1/s"),
        "item_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1000 * percentile(latencies, tail_p), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
    }

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {per_pass} items each")
    if args.workload == "catalog":
        print("  (the catalog is fixed by its size; the seed does not change it)")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:14s} {value:12.4f} {unit}")
    print(f"  item latencies are medians over {len(plain)} passes; item_tail_ms is "
          f"their p{tail_p} over {len(latencies)} items; items_per_s counts "
          f"{n_plain} items in {sum(walls):.2f} s")
    speeds = ", ".join(f"{p['speed']:.3f}" for p in plain)
    print(f"  times are at the reference speed; unscaled: wall_s "
          f"{statistics.median(p['raw_wall_s'] for p in plain):.4f} s, setup_s "
          f"{statistics.median(t for t, _ in setup):.4f} s; speed factors {speeds}")
    print(f"  error_rate     {failed / max(attempted, 1):.4f} "
          f"({failed} of {attempted} items failed)")
    if len(passes) == 1:
        print("  one pass only: work counts were not compared between passes")
    if args.workload == "catalog":
        print("  work counts checked against those of the size-3 catalog")
    for line in (run_bad + failures)[:20]:
        print(f"  FAIL {line}")

    if args.trace:
        metrics = layer_report(traced, walls)
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_report(traced: list[dict], untraced_walls: list[float]) -> dict:
    per_pass = [layer_metrics(p) for p in traced]
    merged = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    untraced = statistics.median(untraced_walls)
    merged["trace.untraced_wall_s"] = untraced
    merged["trace.overhead"] = merged["trace.wall_s"] / untraced - 1
    print(f"  traced wall {merged['trace.wall_s']:.3f} s against untraced "
          f"{untraced:.3f} s: tracing overhead {100 * merged['trace.overhead']:+.1f}%")
    print(f"  {'layer':10s} {'self_s':>9s} {'share':>7s}")
    for layer in sorted(LAYERS, key=lambda l: -merged[f"{l}.self_s"]):
        print(f"  {layer:10s} {merged[f'{layer}.self_s']:9.3f} "
              f"{100 * merged[f'{layer}.share']:6.1f}%")
    print(f"  {'(driver)':10s} {merged['trace.other_s']:9.3f}")
    print(f"  spans: {', '.join(p['spans'] for p in traced)}")
    return {k: {"value": v, "unit": unit_of(k)} for k, v in merged.items()}


def unit_of(name: str) -> str:
    metric = name.split(".", 1)[1]
    if metric == "nodes_per_s":
        return "1/s"
    if metric == "mb_per_s":
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    if metric in ("share", "kept_ratio", "coverage", "overhead", "speed"):
        return "ratio"
    if metric.startswith("bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
