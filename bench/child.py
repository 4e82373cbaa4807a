"""Run one clincorp command in this fresh process and report on it.

    python3 bench/child.py RESULT MODE CMD_ID ARG...

With MODE `run` it calls `clincorp.cli.main([ARG...])` and exits with its
return code, leaving stdout and stderr to the command.  When the process ends
it writes RESULT, a JSON object with its own wall time, `ru_maxrss`, live
thread count, exit code and speed-probe samples.  MODE `trace` first wraps
the library's public functions where the CLI looks them up, records one span
(name, start, end, parent, command id) per call plus work counts, times every
garbage-collector pass through `gc.callbacks`, and adds all of that to
RESULT.  MODE `setup` only imports `clincorp.cli` and builds its parser.

In every mode a speed probe times a fixed piece of work (probe_work) every
PROBE_EVERY_S seconds of wall time, from a SIGALRM handler in this process,
so it sees the speed the command itself gets; bench/run.py scales the
command's times by it.  probe_work allocates no object the garbage
collector tracks.  The alarm can cut a blocking write to a full pipe short, so the
caller should send stdout and stderr to files.
"""
import time

T0 = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


PROBE_EVERY_S = 0.005
PROBE_LOOPS = 125
PROBE_READS = 8
PROBE_FILE = str(Path(__file__).resolve())


def probe_work() -> int:
    """Interpreter work plus small file reads, about half the time each: a
    mix whose slow-down on a busy host follows the CLI's own (parsing and
    reading many small files) more closely than either part alone."""
    h = 0
    for i in range(PROBE_LOOPS):
        s = str(i) + "x"
        h ^= hash(s) + s.count("1")
    for _ in range(PROBE_READS):
        fd = os.open(PROBE_FILE, os.O_RDONLY)
        h ^= len(os.read(fd, 4096))
        os.close(fd)
    return h


class SpeedProbe:
    """Probe speeds (1/duration), each weighted by the wall time since the
    previous probe ended: a handler cannot run during a garbage collection
    or a long C call, so the first probe after one stands for all of it."""

    def __init__(self) -> None:
        self.n = 0
        self.speed_sum = 0.0  # sum of weight * speed
        self.weight_sum = 0.0
        self.last = time.perf_counter()
        self.busy = False

    def on_alarm(self, signum, frame) -> None:
        if self.busy:  # a late alarm arrived while a probe ran
            return
        self.busy = True
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.speed_sum += (end - self.last) / (end - start)
        self.weight_sum += end - self.last
        self.last = end
        self.n += 1
        self.busy = False

    def start(self) -> None:
        self.last = time.perf_counter()
        signal.signal(signal.SIGALRM, self.on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Tracer:
    """Spans and counts kept in memory until the process exits."""

    def __init__(self, cmd_id: str) -> None:
        self.cmd_id = cmd_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.gc_start = 0.0
        self.gc_pause = 0.0

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so each call records a span; `count(counts, args,
        result)` adds work counts after a call that returned."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.cmd_id)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def calls(self, name: str, fn):
        """Wrap `fn` so each call only bumps a counter: it runs too often
        for a span per call."""

        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_start = time.perf_counter()
        else:
            self.gc_pause += time.perf_counter() - self.gc_start
            self.counts["gc.collections"] += 1

    def install(self) -> None:
        """Patch each name where the CLI looks it up: `from ... import`
        bindings in clincorp.cli, and module globals for functions reached
        through a module attribute or called inside their own module."""
        from clincorp import agreement, annio, cli, stats, workflow

        def read_count(c, args, result):
            path = str(args[0])
            c["annio.read_text_file.bytes"] += os.path.getsize(path)
            c["annio.read." + Path(path).suffix.lstrip(".")] += 1

        def attr(key, measure):
            def count(c, args, result):
                c[key] += measure(result)
            return count

        annio.read_text_file = self.span("annio.read_text_file", annio.read_text_file, read_count)
        annio.parse_tok = self.span("annio.parse_tok", annio.parse_tok, attr(
            "annio.parse_tok.tokens", lambda r: sum(len(s.tokens) for s in r)))
        annio.parse_ptb = self.span("annio.parse_ptb", annio.parse_ptb, attr(
            "annio.parse_ptb.trees", len))
        annio.parse_chk = self.span("annio.parse_chk", annio.parse_chk, attr(
            "annio.parse_chk.chunks", lambda r: sum(len(b) for b in r)))
        annio.parse_ann = self.span("annio.parse_ann", annio.parse_ann, attr(
            "annio.parse_ann.entities", lambda r: len(r.entities)))
        annio.discover = self.span("annio.discover", annio.discover, attr(
            "annio.discover.bundles", len))
        annio.load_document = self.span("annio.load_document", annio.load_document)
        annio.load_corpus = self.span("annio.load_corpus", annio.load_corpus)

        cli.corpus_agreement = self.span("agreement.corpus_agreement", cli.corpus_agreement)
        cli.validate_document = self.span(
            "validate.validate_document", cli.validate_document,
            attr("validate.findings", len))
        cli.load_lexicon = self.span("segadvice.load_lexicon", cli.load_lexicon)
        agreement.score_corpus = self.span("parseval.score_corpus", agreement.score_corpus)
        for module in (agreement, stats, cli):
            module.expand_all = self.span("groups.expand_all", module.expand_all)
        agreement.prf = self.calls("agreement.prf.calls", agreement.prf)
        agreement.CorpusAgreement.doc_reports = self.calls(
            "agreement.doc_reports.calls", agreement.CorpusAgreement.doc_reports)

        for name in ("distribution", "assertion_cross_table", "relation_table",
                     "avg_sentence_length", "token_and_sentence_counts"):
            setattr(stats, name, self.span("stats", getattr(stats, name)))

        def state_bytes(c, args, result):
            c["workflow.save_state.bytes"] += os.path.getsize(args[1])

        workflow.load_state = self.span("workflow.load_state", workflow.load_state)
        workflow.save_state = self.span("workflow.save_state", workflow.save_state, state_bytes)
        workflow.kfold = self.span("workflow.kfold", workflow.kfold)
        workflow.sample_round = self.span("workflow.sample_round", workflow.sample_round)
        gc.callbacks.append(self.on_gc)


def main() -> int:
    result_path, mode, cmd_id, *argv = sys.argv[1:]
    probe = SpeedProbe()
    probe.start()
    tracer = Tracer(cmd_id) if mode == "trace" else None
    import clincorp.cli

    report = {"clincorp": str(Path(clincorp.cli.__file__).resolve().parent)}
    main_fn = clincorp.cli.main
    if mode == "setup":
        def main_fn(argv):
            clincorp.cli.build_parser()
            return 0
    if tracer is not None:
        tracer.install()
        main_fn = tracer.span("cli.main", main_fn)
    code = None
    try:
        code = main_fn(argv)
        return code
    finally:
        probe.stop()
        sys.stdout.flush()
        report.update(
            exit=code,
            wall_s=time.perf_counter() - T0,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            threads=threading.active_count(),
            probes=probe.n,
            probe_speed=probe.speed_sum / probe.weight_sum if probe.n else None,
        )
        if tracer is not None:
            gc.callbacks.remove(tracer.on_gc)
            tracer.counts["gc.pause_s"] = tracer.gc_pause
            report.update(spans=tracer.spans, counts=tracer.counts)
        Path(result_path).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
