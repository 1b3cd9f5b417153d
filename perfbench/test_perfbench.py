"""Self-checks of the benchmark: seeded inputs, known answers, statistics.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import random
from pathlib import Path

import pytest

from perfbench import bench_gen, run
from perfbench.bench_worker import NodeCounter
from gtt.derivio import derivations_to_text, parse_derivations
from gtt.dynamism import derivation_errors
from gtt.elaborate import equal_terms
from gtt.grammar import parse_term_file, type_to_text
from gtt.typecheck import default_signature

HERE = Path(__file__).resolve().parent
SIG = default_signature()
SMALL_PROVE = ((1, 30_000), (4, 3_000))


@pytest.fixture(scope="module")
def pool():
    return bench_gen.catalog_pool()


@pytest.mark.parametrize("workload", ["prove", "normalize"])
def test_same_seed_same_bytes_other_seed_other_bytes(workload, monkeypatch):
    monkeypatch.setattr(bench_gen, "PROVE_SCHEDULE", SMALL_PROVE)
    monkeypatch.setattr(bench_gen, "NORMALIZE_TERMS", 20)
    monkeypatch.setattr(bench_gen, "ROUND_TRIPS", (10, 100, 200))
    a = bench_gen.make_inputs(workload, 7)
    b = bench_gen.make_inputs(workload, 7)
    c = bench_gen.make_inputs(workload, 8)
    assert a.files == b.files and a.jobs == b.jobs and a.expected == b.expected
    assert a.files.keys() == c.files.keys()
    assert a.files != c.files


def test_catalog_input_ignores_the_seed():
    assert bench_gen.make_inputs("catalog", 1).jobs == []


def test_prove_files_follow_the_schedule_and_known_answers(monkeypatch):
    monkeypatch.setattr(bench_gen, "PROVE_SCHEDULE", SMALL_PROVE)
    inputs = bench_gen.make_inputs("prove", 3)
    assert len(inputs.jobs) == 5
    for job, want in zip(inputs.jobs, inputs.expected):
        text = inputs.files[job["file"]]
        ds = parse_derivations(text, SIG)
        assert derivations_to_text(ds) == text == want["text"]
        assert [not derivation_errors(SIG, d) for d in ds] == want["accept"]
    sizes = [len(inputs.files[j["file"]]) for j in inputs.jobs]
    assert 30_000 <= sizes[0] < 40_000
    assert all(3_000 <= s < 25_000 for s in sizes[1:])


@pytest.mark.parametrize("seed", range(4))
def test_every_mutation_is_rejected(pool, seed):
    rng = random.Random(seed)
    kinds = set()
    for d in rng.sample(pool, 60):
        bad, kind = bench_gen.mutate(d, rng)
        kinds.add(kind)
        assert derivation_errors(SIG, bad), kind
    assert kinds == {"type", "drop", "err"}


def test_normalize_known_answers_on_the_seeded_items():
    inputs = bench_gen.make_inputs("normalize", 5)
    sigs = {"on": SIG, "off": SIG.replace(retract=False)}
    towers = {type_to_text(bench_gen.tower(step, height))
              for step, height, _ in bench_gen.TOWER_LADDER}
    checked = {True: 0, False: 0}
    for job, want in zip(inputs.jobs, inputs.expected):
        if want["type"] in towers:
            continue  # slow; every benchmark run checks them
        ctx, left = parse_term_file(inputs.files[job["left"]], SIG)
        _, right = parse_term_file(inputs.files[job["right"]], SIG)
        assert equal_terms(sigs[job["retract"]], left, right, ctx) == want["equal"]
        checked[want["equal"]] += 1
    assert checked[True] > 100 and checked[False] > 3


def test_catalog_counts_catch_less_work():
    counts = {**bench_gen.CATALOG_COUNTS, **bench_gen.CATALOG_MODEL_MIN,
              "model.skipped": 1935}
    assert run.catalog_count_failures(counts, traced=False) == []
    assert run.catalog_count_failures({**counts, "model.judgments": 1913,
                                       "model.skipped": 1934}, traced=False) == []
    fewer = {**counts, "model.judgments": 1911, "model.skipped": 1936}
    assert len(run.catalog_count_failures(fewer, traced=False)) == 1
    assert len(run.catalog_count_failures({**counts, "model.env_checks": 1},
                                          traced=False)) == 1
    assert len(run.catalog_count_failures(counts, traced=True)) == 2
    assert run.catalog_count_failures({**counts, **bench_gen.CATALOG_NODES},
                                      traced=True) == []


def test_tail_percentile_leaves_ten_items_beyond():
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(2535) == 99
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(5) == 50


def test_percentile_interpolates():
    xs = [float(i) for i in range(101)]
    assert run.percentile(xs, 50) == 50.0
    assert run.percentile(xs, 99.5) == 99.5
    assert run.percentile([3.0], 95) == 3.0


def test_layer_self_time_subtracts_children(tmp_path):
    spans = [
        ["theorems.gen", 0.0, 1.0, -1, "i0"],
        ["theorems.derive", 0.1, 0.7, 0, "i0"],
        ["elaborate.equal", 1.0, 2.0, -1, "i0"],
        ["elaborate.norm", 1.2, 1.5, 2, "i0"],
        ["model.semantic", 2.0, 2.5, -1, "i0"],
    ]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": spans}))
    m = run.layer_metrics({"spans": str(path), "raw_wall_s": 3.0, "speed": 1.0,
                           "counts": {}})
    assert m["theorems.gen_s"] == pytest.approx(1.0)
    assert m["theorems.derive_s"] == pytest.approx(0.6)
    assert m["theorems.self_s"] == pytest.approx(1.0)
    assert m["elaborate.self_s"] == pytest.approx(1.0)
    assert m["elaborate.norm_s"] == pytest.approx(0.3)
    assert m["model.share"] == pytest.approx(0.5 / 3)
    assert m["trace.other_s"] == pytest.approx(0.5)


def test_node_counter_matches_structural_equality(pool):
    counter = NodeCounter()
    sample = pool[:400] + pool[:50]
    for d in sample:
        counter.add(d)
    everything, stack = set(), list(sample)
    while stack:
        d = stack.pop()
        everything.add(d)
        stack.extend(d.premises)
    assert counter.nodes > len(counter.seen) == len(everything)


def test_benchmark_json_lists_every_layer_metric(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": []}))
    produced = set(run.layer_metrics({"spans": str(path), "raw_wall_s": 1.0,
                                      "speed": 1.0, "counts": {}}))
    produced |= {"trace.untraced_wall_s", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]


def test_spans_lose_the_probe_time_inside_them(tmp_path):
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": [["model.semantic", 0.0, 1.0, -1, "i0"]]}))
    m = run.layer_metrics({"spans": str(path), "raw_wall_s": 1.0, "speed": 1.0,
                           "counts": {}, "samples": [[0.5, 1e-4, 0.25]]})
    assert m["model.semantic_s"] == pytest.approx(0.75)
