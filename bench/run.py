"""Fresh-process benchmark of the clincorp command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client drives the CLI in a
closed loop: every command runs in its own fresh interpreter
(bench/child.py), the next starts only after the previous one exits, and at
most one child is alive at a time.  Inputs come from bench/gen.py for the
given seed and are cached under .bench_work/, one seed per input part.

With --trace 0 it times whole passes over the workload's command
list until --seconds would be exceeded (always at least one pass) and prints
the end-to-end metrics.  With --trace 1 it runs one untraced and one traced
pass and prints the per-layer table instead.  Every command is checked: its
exit code, a traceback on stderr, its stdout against earlier passes and,
for the pinned seed, against bench/golden.json, and its output against what
the generator's manifest knows.  The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

Every reported time is scaled to a reference speed: each child runs a speed
probe (bench/child.py), and its measured times are multiplied by
REF_PROBE_S times the child's mean probe speed.  The host's speed swings by
up to 2x within seconds; the probe sees those swings, clincorp does not
affect it.

--record-golden rewrites this workload's entry in bench/golden.json from a
pass at the pinned seed; use it only when an output change is intended.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
PINNED_SEED = 1
SETUP_STARTS = 10
# Probe duration that defines the reference speed.  Every reported time is
# scaled by REF_PROBE_S / (the mean probe duration seen by the child that
# took it), so it reads as the time at that speed.
REF_PROBE_S = 1e-4

ALL_LAYERS = frozenset({"txt", "tok", "ptb", "chk", "ann"})
NO_LAYERS: frozenset = frozenset()

Check = Callable[[str, str], list]


@dataclass
class Command:
    label: str
    argv: list[str]
    exit: int  # expected exit code
    docs: int  # documents the command reads or lists
    needs: frozenset  # layer files (by suffix) the command's answer depends on
    check: Check | None = None


@dataclass
class Outcome:
    cmd: Command
    exit: int
    sha: str
    raw_s: float  # measured wall time
    wall_s: float  # raw_s at the reference speed
    maxrss_kb: int
    problems: list[str]
    child: dict = field(default_factory=dict)


# ------------------------------------------------------------------ inputs ---

def ensure_inputs(part: str, seed: int) -> tuple[Path, dict]:
    """The input part for `seed` under .bench_work/<part>/, generated when the
    part holds another seed or none.  File names do not depend on the seed,
    so generating overwrites the previous seed's files in place.  The
    manifest is removed first and written last, so its presence marks a
    complete part."""
    out = WORK / part
    manifest = out / "manifest.json"
    if manifest.exists():
        cached = json.loads(manifest.read_text(encoding="utf-8"))
        if cached["seed"] == seed:
            return out, cached
        manifest.unlink()
    sys.path.insert(0, str(BENCH))
    import gen

    print(f"generating {part} inputs for seed {seed}", file=sys.stderr)
    return out, gen.generate(part, seed, out)


def doc_ids(n: int) -> list[str]:
    sys.path.insert(0, str(BENCH))
    import gen

    return [gen.doc_id_of(i) for i in range(n)]


# ------------------------------------------------------------------ checks ---

def _half_up(x: float, places: int) -> float:
    q = Decimal(1).scaleb(-places)
    return float(Decimal(str(x)).quantize(q, rounding=ROUND_HALF_UP))


def _diff(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {_short(got)}, want {_short(want)}"]


def _short(x) -> str:
    s = repr(x)
    return s if len(s) <= 160 else s[:157] + "..."


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_validate(violations: list) -> Check:
    want = Counter(map(tuple, violations))

    def check(out: str, err: str) -> list[str]:
        got: Counter = Counter()
        for line in out.splitlines():
            parts = line.split(": ", 2)
            if len(parts) != 3:
                return [f"unreadable finding {line!r}"]
            got[(parts[0], parts[2].split(" ", 1)[0].rstrip(":"))] += 1
        return _diff("findings (doc, rule)", sorted(got.items()), sorted(want.items()))

    return check


def check_iaa(layer: str, m: dict, details: bool = False) -> Check:
    keys = ["agreed", "count_a", "count_b", "precision", "recall", "f", "vacuous"]

    def check(out: str, err: str) -> list[str]:
        rep = _json(out)
        if not isinstance(rep, dict) or list(rep) != keys:
            return ["stdout is not the agreement report"]
        a, ca, cb = rep["agreed"], rep["count_a"], rep["count_b"]
        p = a / cb if cb else 0.0
        r = a / ca if ca else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        probs = _diff("precision, recall, f", [rep["precision"], rep["recall"], rep["f"]],
                      [_half_up(p, 3), _half_up(r, 3), _half_up(f, 3)])
        if rep["vacuous"] or not rep["f"] < 1:
            probs.append(f"{layer} agreement should be below 1, got {rep['f']}")
        if layer in m["iaa"]:
            probs += _diff(f"{layer} counts", {k: rep[k] for k in keys[:3]}, m["iaa"][layer])
        lines = err.splitlines()
        if layer == "chunk":
            got = [ln.split(" ")[2].rstrip(":") for ln in lines
                   if ln.startswith("excluded document ")]
            probs += _diff("excluded documents", got, m["chunk_excluded"])
        if layer == "tree":
            got = {}
            for ln in lines:
                if ln.startswith("excluded sentences in "):
                    doc, idx = ln[len("excluded sentences in "):].split(": ")
                    got[doc] = [int(i) for i in idx.split(",")]
            probs += _diff("excluded sentences", got, m["tree_excluded"])
        if details:
            rows = [ln for ln in lines if ln.split("\t", 1)[0].count("/") == 1]
            probs += _diff("detail rows", len(rows), m["docs"])
            if not any(ln.startswith("macro\t") for ln in lines):
                probs.append("detail table has no macro row")
        return probs

    return check


def _tsv_rows(out: str, header: str) -> list[list[str]] | None:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        return None
    return [ln.split("\t") for ln in lines[1:]]


def check_stats(report: str, m: dict) -> Check:
    def check(out: str, err: str) -> list[str]:
        if report == "length":
            avg = f"{_half_up(m['tokens'] / m['sentences'], 2):.2f}"
            want = (f"tokens\t{m['tokens']}\nsentences\t{m['sentences']}\n"
                    f"avg_tokens_per_sentence\t{avg}\n")
            return _diff("length report", out, want)
        header = ("label\tcount\tpct" if report in ("pos", "syn")
                  else "label\tcount\tpct_within\tpct_all")
        rows = _tsv_rows(out, header)
        if rows is None:
            return ["stdout is not the stats table"]
        if report == "entity":
            rows = [r for r in rows if r[0].endswith(":total")]
        elif report == "relation":
            rows = [r for r in rows if r[0].startswith("R(")]
        want = {"pos": m["tokens"], "syn": m["constituents"],
                "entity": m["entities"], "relation": m["relations_expanded"]}[report]
        return _diff(f"{report} total", sum(int(r[1]) for r in rows), want)

    return check


def check_kfold(k: int, seed: int, ids: list[str]) -> Check:
    def check(out: str, err: str) -> list[str]:
        rep = _json(out)
        if not isinstance(rep, dict) or (rep.get("k"), rep.get("seed")) != (k, seed):
            return ["stdout is not the fold manifest"]
        folds = rep["folds"]
        sizes = [len(f) for f in folds]
        probs = _diff("folds partition the corpus",
                      sorted(d for f in folds for d in f), ids)
        if len(folds) != k or max(sizes) - min(sizes) > 1:
            probs.append(f"fold sizes {sizes}")
        return probs

    return check


class RoundModel:
    """What the state file must hold after each round command of a pass."""

    def __init__(self, ids: list[str]) -> None:
        self.ids = ids
        self.pool = set(ids)
        self.history: dict[str, list[float]] = {}

    def check_new(self, out: str, err: str) -> list[str]:
        want = {"assignments": {}, "iaa_history": {}, "pool": self.ids, "round_index": 1}
        return _diff("new state", _json(out), want)

    def check_sample(self, n: int, round_index: int) -> Check:
        def check(out: str, err: str) -> list[str]:
            rep = _json(out)
            if not isinstance(rep, dict) or set(rep) != {"round_index", "sampled", "assignments"}:
                return ["stdout is not a round sample"]
            sampled = rep["sampled"]
            both = sum(1 for g in rep["assignments"].values() if len(g) == 2)
            probs = _diff("round index", rep["round_index"], round_index)
            probs += _diff("sample size", len(set(sampled)), n)
            if not set(sampled) <= self.pool:
                probs.append("sampled documents outside the pool")
            probs += _diff("assigned documents", sorted(rep["assignments"]), sorted(sampled))
            probs += _diff("shared documents", both, math.ceil(n / 3 - 1e-9))
            self.pool -= set(sampled)
            return probs

        return check

    def check_record(self, task: str, value: float) -> Check:
        def check(out: str, err: str) -> list[str]:
            history = self.history.setdefault(task, [])
            history.append(value)
            return _diff("recorded history", _json(out), {"task": task, "history": history})

        return check


def check_status(lines: list[str]) -> Check:
    want = "".join(ln + "\n" for ln in ["task\trounds\tthreshold\tconverged", *lines])
    return lambda out, err: _diff("status table", out, want)


def check_expand(pairs: int) -> Check:
    def check(out: str, err: str) -> list[str]:
        lines = out.splitlines()
        want = ["# one-to-one expansion of grouped relations",
                *(f"R{i}" for i in range(1, pairs + 1))]
        return _diff("expansion lines", [lines[0], *(ln.split("\t")[0] for ln in lines[1:])]
                     if lines else [], want)

    return check


def check_seg_advise(term: str, trail: list[str]) -> Check:
    def check(out: str, err: str) -> list[str]:
        rows = [ln.split("\t") for ln in out.splitlines()]
        probs = _diff("rule trail", [r[1] if len(r) == 3 else None for r in rows], trail)
        if rows and rows[0][0] != term:
            probs.append(f"first decision is for {rows[0][0]!r}, not {term!r}")
        return probs

    return check


# --------------------------------------------------------------- workloads ---

# Layer files each command's answer depends on, for annio.layers_used_ratio.
# The .txt file roots every bundle, so it always counts as needed.
PAIR_NEEDS = {
    "seg": {"txt", "tok"}, "pos": {"txt", "tok"}, "chunk": {"txt", "chk"},
    "tree": {"txt", "ptb"}, "entity": {"txt", "ann"}, "relation": {"txt", "ann"},
    "syn": {"txt", "ptb"}, "length": {"txt", "tok"},
}


def validate_10k(seed: int) -> list[Command]:
    root, m = ensure_inputs("big", seed)
    return [Command("validate", ["validate", root.name], 1 if m["violations"] else 0,
                    m["docs"], ALL_LAYERS, check_validate(m["violations"]))]


def report_1k(seed: int) -> list[Command]:
    root, m = ensure_inputs("pair", seed)
    a, b = f"{root.name}/a", f"{root.name}/b"
    cmds = []
    for layer in ("seg", "pos", "chunk", "tree", "entity", "relation"):
        excluded = {"chunk": m["chunk_excluded"], "tree": m["tree_excluded"]}.get(layer)
        cmds.append(Command(f"iaa-{layer}", ["iaa", "--layer", layer, a, b],
                            1 if excluded else 0, 2 * m["docs"],
                            frozenset(PAIR_NEEDS[layer]), check_iaa(layer, m)))
    cmds.append(Command("iaa-entity-details", ["iaa", "--layer", "entity", "--details", a, b],
                        0, 2 * m["docs"], frozenset(PAIR_NEEDS["entity"]),
                        check_iaa("entity", m, details=True)))
    for report in ("pos", "syn", "entity", "relation", "length"):
        cmds.append(Command(f"stats-{report}", ["stats", "--report", report, a], 0,
                            m["docs"], frozenset(PAIR_NEEDS[report]), check_stats(report, m)))
    return cmds


ROUND_CYCLES = 13
ROUND_SAMPLE = 40
ROUND_TASKS = ("seg", "entity", "relation")
ROUND_TAU = 0.9
ROUND_WINDOW = 3


def round_loop(seed: int) -> list[Command]:
    big, mb = ensure_inputs("big", seed)
    extras, me = ensure_inputs("extras", seed)
    ids = sorted(doc_ids(mb["docs"]))
    model = RoundModel(ids)
    state = "state.json"
    rng = random.Random(f"{seed}:round")
    expand_files = sorted(me["expand"])
    terms = sorted(me["seg_advise"])
    history: dict[str, list[float]] = {t: [] for t in ROUND_TASKS}
    cmds = [Command("new", ["round", "new", "--state", state, "--pool-from", big.name],
                    0, mb["docs"], NO_LAYERS, model.check_new)]
    for c in range(ROUND_CYCLES):
        cmds.append(Command(
            f"c{c:02d}-sample",
            ["round", "sample", "--state", state, "--n", str(ROUND_SAMPLE),
             "--seed", str(seed * 1000 + c)],
            0, 0, NO_LAYERS, model.check_sample(ROUND_SAMPLE, c + 2)))
        for task in ROUND_TASKS:
            value = round(min(0.999, 0.8 + 0.012 * c + rng.uniform(0.0, 0.04)), 3)
            history[task].append(value)
            cmds.append(Command(
                f"c{c:02d}-record-{task}",
                ["round", "record-iaa", "--state", state, "--task", task,
                 "--value", repr(value)],
                0, 0, NO_LAYERS, model.check_record(task, value)))
        converged = {t: len(h) >= ROUND_WINDOW and min(h[-ROUND_WINDOW:]) >= ROUND_TAU
                     for t, h in history.items()}
        lines = [f"{t}\t{len(history[t])}\t{ROUND_TAU:.3f}\t{str(converged[t]).lower()}"
                 for t in sorted(history)]
        cmds.append(Command(f"c{c:02d}-status", ["round", "status", "--state", state],
                            0 if all(converged.values()) else 1, 0, NO_LAYERS,
                            check_status(lines)))
        cmds.append(Command(f"c{c:02d}-kfold",
                            ["kfold", "--k", "10", "--seed", str(seed + c), big.name],
                            0, mb["docs"], NO_LAYERS, check_kfold(10, seed + c, ids)))
        name = expand_files[c % len(expand_files)]
        cmds.append(Command(f"c{c:02d}-expand", ["expand", f"{extras.name}/expand/{name}"],
                            0, 1, frozenset({"ann"}), check_expand(me["expand"][name])))
        term = terms[c % len(terms)]
        cmds.append(Command(
            f"c{c:02d}-seg-advise",
            ["seg-advise", "--lexicon", f"{extras.name}/lexicon.tsv", term],
            0, 0, NO_LAYERS, check_seg_advise(term, me["seg_advise"][term])))
    return cmds


WORKLOADS = {
    "validate-10k": validate_10k,
    "report-1k": report_1k,
    "round-loop": round_loop,
}


# ------------------------------------------------------------------ runner ---

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("CLINCORP_CONFIG", None)
    return env


def run_command(cmd: Command, trace: bool, n: int, golden: dict | None,
                first_hash: dict) -> Outcome:
    proc, wall, child = run_child("trace" if trace else "run", f"{cmd.label}#{n}", cmd.argv)

    out = proc.stdout.decode("utf-8", errors="replace")
    err = proc.stderr.decode("utf-8", errors="replace")
    sha = hashlib.sha256(proc.stdout).hexdigest()
    probs = _diff("exit code", proc.returncode, cmd.exit)
    if "Traceback (most recent call last)" in err:
        probs.append("traceback on stderr")
    if child.get("exit") != proc.returncode:
        probs.append("child did not report the command's exit")
    if child.get("threads", 1) != 1:
        probs.append(f"child ran {child['threads']} threads")
    if child and Path(child["clincorp"]) != ROOT / "src" / "clincorp":
        probs.append(f"imported clincorp from {child['clincorp']}")
    factor = speed_factor(child)
    if factor is None:
        probs.append("child reported no speed probe")
    probs += _diff("stdout sha256 against the first pass",
                   sha, first_hash.setdefault(cmd.label, sha))
    if golden is not None:
        probs += _diff("exit and stdout sha256 against golden.json",
                       [proc.returncode, sha], golden.get(cmd.label))
    if cmd.check is not None:
        try:
            probs += cmd.check(out, err)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            probs.append(f"output check failed on unexpected output: {exc!r}")
    for p in probs:
        print(f"FAIL {cmd.label}: {p}", file=sys.stderr)
    return Outcome(cmd, proc.returncode, sha, wall, wall * (factor or 1.0),
                   child.get("maxrss_kb", 0), probs, child)


def run_child(mode: str, cmd_id: str, args: list[str]):
    """Run bench/child.py once; returns the finished process, its wall time
    as seen from here and the child's own report ({} if it wrote none)."""
    # No subprocess timeout here: waiting with a timeout polls with sleeps of
    # up to 50 ms, which would quantize the timings.  stdout and stderr go to
    # files, not pipes: the child's probe signal can cut a blocking write to
    # a full pipe short, and the interpreter then drops the rest of the write.
    result, out_path, err_path = WORK / "child.json", WORK / "child.out", WORK / "child.err"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(result), mode, cmd_id, *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=WORK, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=out, stderr=err)
        wall = time.perf_counter() - start
    proc.stdout, proc.stderr = out_path.read_bytes(), err_path.read_bytes()
    child = json.loads(result.read_text(encoding="utf-8")) if result.exists() else {}
    return proc, wall, child


def speed_factor(child: dict) -> float | None:
    """REF_PROBE_S times the child's mean probe speed: multiplying a time
    measured in that child by it gives the time at the reference speed."""
    if not child.get("probes"):
        return None
    return REF_PROBE_S * child["probe_speed"]


def run_pass(commands: list[Command], trace: bool, n: int, golden, first_hash,
             setup: list[float] | None = None) -> list[Outcome]:
    """Run every command once.  With `setup`, also time interpreter starts,
    one before every stride-th command until SETUP_STARTS are taken: the
    machine's speed drifts over tens of seconds, so set-up samples are spread
    over the run rather than taken in one burst."""
    stride = max(1, len(commands) // SETUP_STARTS)
    outcomes = []
    for i, cmd in enumerate(commands):
        if setup is not None and i % stride == 0 and len(setup) < SETUP_STARTS:
            setup += measure_setup(1)
        outcomes.append(run_command(cmd, trace, n, golden, first_hash))
    return outcomes


def measure_setup(starts: int) -> list[float]:
    """Start-up times, at the reference speed, of fresh interpreters that
    import clincorp.cli and build its parser."""
    times = []
    for _ in range(starts):
        proc, wall, child = run_child("setup", "setup", [])
        factor = speed_factor(child)
        if proc.returncode != 0 or factor is None:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode(errors='replace')}")
        times.append(wall * factor)
    return times


def p90(xs: list[float]) -> float:
    """90th percentile, interpolated between samples, never beyond the
    slowest one."""
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) >= 2 else xs[0]


def end_to_end(passes: list[list[Outcome]], setup: list[float]) -> dict:
    walls = [sum(o.wall_s for o in p) for p in passes]
    rates = [sum(o.cmd.docs for o in p) / w for p, w in zip(passes, walls)]
    cmd_walls = [o.wall_s for p in passes for o in p]
    rss = [max(o.maxrss_kb for o in p) / 1024 for p in passes]
    outcomes = [o for p in passes for o in p]
    failed = sum(1 for o in outcomes if o.problems)
    print(f"{len(passes)} pass(es) of {len(passes[0])} command(s); "
          f"cmd_p50_s and cmd_p90_s over {len(cmd_walls)} samples; "
          f"setup_s over {len(setup)} starts; "
          f"fail_ratio {failed / len(outcomes):.4f} ({failed}/{len(outcomes)})")
    print("pass wall time, measured and at the reference speed: " + ", ".join(
        f"{sum(o.raw_s for o in p):.3f} s and {w:.3f} s" for p, w in zip(passes, walls)))
    if len(passes[0]) <= 20:
        for i, o in enumerate(passes[0]):
            print(f"  {o.cmd.label:22s} {statistics.median(p[i].wall_s for p in passes):8.3f} s")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "docs_per_s": (statistics.median(rates), "1/s"),
        "cmd_p50_s": (statistics.median(cmd_walls), "s"),
        "cmd_p90_s": (p90(cmd_walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": (1 - failed / len(outcomes), "ratio"),
    }


# Per-layer span metrics are named <span>.<stat>, stat being s or self_s.
SPAN_METRICS = [
    "annio.read_text_file.s", "annio.parse_tok.s", "annio.parse_ptb.s",
    "annio.parse_chk.s", "annio.parse_ann.s", "annio.load_document.self_s",
    "annio.load_corpus.s", "annio.discover.s", "agreement.corpus_agreement.self_s",
    "parseval.score_corpus.s", "groups.expand_all.s", "validate.validate_document.s",
    "stats.s", "workflow.load_state.s", "workflow.save_state.s", "workflow.kfold.s",
    "workflow.sample_round.s", "segadvice.load_lexicon.s", "cli.main.self_s",
]
COUNT_METRICS = [
    "annio.read_text_file.bytes", "annio.parse_tok.tokens", "annio.parse_ptb.trees",
    "annio.parse_chk.chunks", "annio.parse_ann.entities", "annio.discover.bundles",
    "gc.collections", "agreement.prf.calls", "agreement.doc_reports.calls",
    "validate.findings", "workflow.save_state.bytes",
]


def span_times(spans: list) -> dict[str, list[float]]:
    """Total and self seconds per span name.  A span's self time is its
    duration minus the durations of its direct children."""
    spans = [s for s in spans if s is not None]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, list[float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        t = totals.setdefault(name, [0.0, 0.0])
        t[0] += end - start
        t[1] += end - start - child_time[i]
    return totals


def per_layer(untraced: list[Outcome], traced: list[Outcome]) -> dict:
    totals: dict[str, list[float]] = {}
    counts: Counter = Counter()
    needed = parsed = 0
    untraced_s = gc_pause_s = 0.0
    for o in traced:
        factor = o.wall_s / o.raw_s  # the child's times at the reference speed
        times = span_times(o.child.get("spans", []))
        for name, (s, self_s) in times.items():
            t = totals.setdefault(name, [0.0, 0.0])
            t[0] += s * factor
            t[1] += self_s * factor
        c = Counter(o.child.get("counts", {}))
        gc_pause_s += c.pop("gc.pause_s", 0.0) * factor
        counts.update(c)
        reads = {layer: c[f"annio.read.{layer}"] for layer in ALL_LAYERS}
        parsed += sum(reads.values())
        needed += sum(n for layer, n in reads.items() if layer in o.cmd.needs)
        main_s = times.get("cli.main", [0.0])[0] * factor
        untraced_s += o.wall_s - main_s
        print(f"  {o.cmd.label:22s} wall {o.wall_s:8.3f} s  main {main_s:8.3f} s  "
              f"prf.calls {c['agreement.prf.calls']}")
    metrics = {}
    for metric in SPAN_METRICS:
        span, stat = metric.rsplit(".", 1)
        s, self_s = totals.get(span, [0.0, 0.0])
        metrics[metric] = (s if stat == "s" else self_s, "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], "bytes" if name.endswith(".bytes") else "count")
    metrics["annio.layers_used_ratio"] = (needed / parsed if parsed else 1.0, "ratio")
    metrics["gc.pause_s"] = (gc_pause_s, "s")
    metrics["untraced_s"] = (untraced_s, "s")
    metrics["trace_overhead_s"] = (
        sum(o.wall_s for o in traced) - sum(o.wall_s for o in untraced), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Fresh-process clincorp CLI benchmark.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "clincorp" / "cli.py").is_file():
        print(f"error: no clincorp sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record_golden and args.seed != PINNED_SEED:
        print(f"error: golden outputs are recorded at seed {PINNED_SEED}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # Built afresh for every pass: the round-loop checks model one pass.
    build = partial(WORKLOADS[args.workload], args.seed)
    build()  # generates missing inputs before anything is timed
    goldens = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden = None
    if args.seed == PINNED_SEED and not args.record_golden:
        golden = goldens.get(args.workload, {})
    first_hash: dict = {}
    measure_setup(1)  # compiles bytecode on a fresh checkout; not measured

    if args.trace:
        untraced = run_pass(build(), False, 0, golden, first_hash)
        traced = run_pass(build(), True, 1, golden, first_hash)
        passes = [untraced, traced]
        metrics = per_layer(untraced, traced)
    else:
        setup: list[float] = []
        passes = []
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(run_pass(build(), False, len(passes), golden, first_hash, setup))
            now = time.perf_counter()
            if now - start + (now - t) > args.seconds:
                break
        setup += measure_setup(SETUP_STARTS - len(setup))
        metrics = end_to_end(passes, setup)

    outcomes = [o for p in passes for o in p]
    failed = sum(1 for o in outcomes if o.problems)
    if args.record_golden:
        if failed:
            print("error: not recording golden outputs from a failing run", file=sys.stderr)
            return 1
        goldens[args.workload] = {o.cmd.label: [o.exit, o.sha] for o in passes[0]}
        GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
