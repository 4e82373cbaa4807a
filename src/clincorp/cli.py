"""Command-line surface for the corpus toolkit.

Subcommands: validate, iaa, score, expand, stats, kfold, round, seg-advise.
Reports go to stdout; diagnostics and progress notes go to stderr.  Exit
status is 0 on success, 1 when the run itself succeeded but produced
findings (validation diagnostics, excluded documents, an unconverged
process), and 2 on usage, I/O, or format errors, and on a bug.

Output is deterministic: stable ordering everywhere, metrics printed with
three decimals and percentages with two.  A JSON configuration file can
supply defaults for most flags, located by --config or the CLINCORP_CONFIG
environment variable; explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError, ParseError, error_line, read_text_file
from .numfmt import fmt_metric, fmt_percent, in_unit_interval, is_finite_number

if TYPE_CHECKING:
    from .agreement import CorpusAgreement
    from .annio import BundlePaths

CONFIG_ENV = "CLINCORP_CONFIG"

# Each subcommand imports the library modules it runs, so that a short
# command such as `round status` starts without the scoring code: at module
# level this file imports only errors and numfmt.  Handlers
# look the functions below up in this module's globals instead, importing
# each on first use (see _library): a caller that replaced one here, for
# instance to time it, has its replacement run.
_LIBRARY = {
    "corpus_agreement": "agreement",
    "expand_all": "groups",
    "load_lexicon": "segadvice",
    "validate_document": "validate",
}


def __getattr__(name: str):
    """Import a _LIBRARY function on first access and bind it here."""
    module = _LIBRARY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _library(name: str):
    """The _LIBRARY function `name` as bound here, replaced or not."""
    return globals().get(name) or __getattr__(name)


# The agreement flags' choices, spelled out here so that building the parser,
# which every command does, loads no tagsets; a test pins them to
# tagsets.LAYERS, the MatchPolicy values and the RelationMode members.
_LAYERS = ("seg", "pos", "chunk", "tree", "entity", "relation")
_POLICIES = ("span", "span_type", "span_type_assertion")
_MODES = {"group": "GROUP_PRESERVED", "one2one": "ONE_TO_ONE"}

# The one layer file each agreement layer or stats report reads.  No score or
# table uses the text, so these commands leave the .txt file unread; only
# validate reads every file of a bundle.
_LAYER_FILES = {
    "seg": ("tok",), "pos": ("tok",), "length": ("tok",),
    "chunk": ("chk",),
    "tree": ("ptb",), "syn": ("ptb",),
    "entity": ("ann",), "relation": ("ann",),
}


def _load_config(explicit: str | None) -> dict:
    path = explicit or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        data = json.loads(read_text_file(path))
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object")
    return data


def _one_of(choices) -> tuple:
    return ((f"be one of {', '.join(sorted(choices))}",
             lambda v: isinstance(v, str) and v in choices),)


_UNIT = (("be a finite number", is_finite_number), ("be in [0, 1]", in_unit_interval))
_COUNT = (("be an integer >= 1", lambda v: type(v) is int and v >= 1),)
_SWITCH = (("be true or false", lambda v: type(v) is bool),)

# Every option a flag or the config file can set: config key (also the
# argparse dest) -> (flag, built-in default, checks).  Each check pairs what
# the value must do with a test of it, applied in order by _check.
_OPTIONS = {
    "policy": ("--policy", "span_type", _one_of(_POLICIES)),
    "mode": ("--mode", "one2one", _one_of(_MODES)),
    "beta": ("--beta", 1.0, (("be a finite number greater than 0",
                             lambda v: is_finite_number(v) and v > 0),)),
    "labeled": ("--unlabeled", True, _SWITCH),
    "include_root": ("--exclude-root", True, _SWITCH),
    "ignore_punct": ("--keep-punct", True, _SWITCH),
    "format": ("--format", "tsv", _one_of(("tsv", "json"))),
    "duplicate_fraction": ("--duplicate-fraction", 1 / 3, _UNIT),
    "window": ("--window", 3, _COUNT),
    "default_tau": ("--tau", 0.9, _UNIT),
}


def _check(where: str, value, checks):
    """`value` if it passes every (requirement, test) pair in `checks`."""
    for want, ok in checks:
        if not ok(value):
            raise InputError(f"{where} must {want}, got {value!r}")
    return value


def _option(args: argparse.Namespace, config: dict, key: str):
    """Option `key`: flag beats config file beats built-in default."""
    flag, default, checks = _OPTIONS[key]
    value = getattr(args, key)
    if value is not None:
        return _check(flag, value, checks)
    return _check(f"config key {key!r}", config.get(key, default), checks)


def _help(key: str, text: str) -> str:
    """Help for option `key`'s flag, naming its config key and default."""
    return f"{text} (config {key}, default {json.dumps(_OPTIONS[key][1])})"


# -------------------------------------------------------------- rendering ---

def _text(value, fmt_float=fmt_percent, *, quote: bool = False) -> str:
    """Fixed-format text of one report value: floats at fixed decimals,
    booleans as JSON, strings JSON-quoted only when `quote` is set."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, str) and quote:
        return json.dumps(value, ensure_ascii=False)
    return str(value)


def _json_object(
    members: dict, fmt_float=fmt_percent, *, one_line: bool = False
) -> str:
    """Fixed-format JSON so identical inputs yield identical bytes: one member
    per line and a final newline, or everything on one line."""
    items = [f'"{k}": {_text(v, fmt_float, quote=True)}' for k, v in members.items()]
    if one_line:
        return "{" + ", ".join(items) + "}"
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def _detail_table(corpus: CorpusAgreement, beta: float) -> str:
    from .agreement import macro_average

    reports = corpus.doc_reports(beta)
    lines = ["doc_id\tagreed\tcount_a\tcount_b\tprecision\trecall\tf"]
    for doc_id in sorted(reports):
        r = reports[doc_id]
        lines.append(
            f"{doc_id}\t{r.agreed}\t{r.count_a}\t{r.count_b}\t"
            f"{fmt_metric(r.precision)}\t{fmt_metric(r.recall)}\t{fmt_metric(r.f)}"
        )
    p, r, f = macro_average(list(reports.values()))
    lines.append(
        f"macro\t-\t-\t-\t{fmt_metric(p)}\t{fmt_metric(r)}\t{fmt_metric(f)}"
    )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- subcommand ---

def _no_bundles(directory: str) -> InputError:
    return InputError(f"no document bundles under {directory}")


def _listing(directory: str) -> dict[str, BundlePaths]:
    """discover's bundles under `directory`, refusing a directory with none.
    A corpus command lists its directories before it parses any file."""
    from . import annio

    bundles = annio.discover(directory)
    if not bundles:
        raise _no_bundles(directory)
    return bundles


def _has_layer(ext: str, *listings: dict[str, BundlePaths]) -> bool:
    """Whether any bundle of the listings has the .`ext` layer file."""
    return any(getattr(bp, ext) for bundles in listings for bp in bundles.values())


def _cmd_validate(args: argparse.Namespace, config: dict) -> int:
    # One document at a time, keeping only the rendered findings; stdout is
    # written only once the whole corpus has been read.
    from . import annio
    from .fanout import fold_slices
    from .validate import Diagnostic

    validate_document = _library("validate_document")
    bundles = _listing(args.directory)

    def findings(doc_id: str) -> list[str]:
        try:
            doc = annio.load_document(bundles[doc_id])
        except ParseError as exc:
            if not args.keep_going:
                raise
            ext = exc.path.rpartition(".")[2]
            return [Diagnostic("parse-error", str(exc), ext, doc_id).render()]
        return [d.render() for d in validate_document(doc)]

    lines = fold_slices(list(bundles), findings, lambda found: [
        line for doc_lines in found for line in doc_lines], [], list.extend)
    sys.stdout.write("".join(line + "\n" for line in lines))
    print(
        f"{len(lines)} finding(s) in {len(bundles)} document(s)", file=sys.stderr
    )
    return 1 if lines else 0


def _agreement_args(args: argparse.Namespace, config: dict):
    from .parseval import EvalParams
    from .tagsets import MatchPolicy, RelationMode

    policy = MatchPolicy(_option(args, config, "policy"))
    mode = RelationMode[_MODES[_option(args, config, "mode")]]
    beta = float(_option(args, config, "beta"))
    params = EvalParams(**{
        key: _option(args, config, key)
        for key in ("labeled", "include_root", "ignore_punct")
    })
    return policy, mode, beta, params


def _cmd_agreement(args: argparse.Namespace, config: dict) -> int:
    # For score, gold (dir_a) plays the reference (recall) role and the
    # predictions (dir_b) the response role.
    from functools import partial

    from . import annio
    from .agreement import CorpusAgreement
    from .fanout import fold_slices

    policy, mode, beta, params = _agreement_args(args, config)
    layers = _LAYER_FILES[args.layer]
    bundles_a, bundles_b = _listing(args.dir_a), _listing(args.dir_b)
    corpus_agreement = _library("corpus_agreement")

    def step(pairs) -> tuple:
        part = corpus_agreement(pairs, args.layer, policy=policy, mode=mode, params=params)
        return part.per_doc, part.excluded_docs, part.excluded_sentences

    corpus = fold_slices(
        annio.paired_ids(bundles_a, bundles_b),
        partial(annio.load_pair, bundles_a, bundles_b, layers=layers),
        step, CorpusAgreement(args.layer, {}, [], {}), CorpusAgreement.join,
    )
    report = corpus.report(beta)
    # Empty layer files agree vacuously; absent ones are no evidence at all.
    (ext,) = layers
    if report.vacuous and not _has_layer(ext, bundles_a, bundles_b):
        raise InputError(f"no .{ext} file under {args.dir_a} or {args.dir_b}")
    out = _json_object(report.to_dict(), fmt_metric)
    if args.details:
        sys.stderr.write(_detail_table(corpus, beta))
    for doc_id in corpus.excluded_docs:
        print(f"excluded document {doc_id}: layer shapes differ", file=sys.stderr)
    for doc_id, sents in sorted(corpus.excluded_sentences.items()):
        idx = ",".join(map(str, sents))
        print(f"excluded sentences in {doc_id}: {idx}", file=sys.stderr)
    sys.stdout.write(out)
    return 1 if corpus.has_exclusions else 0


def _cmd_expand(args: argparse.Namespace, config: dict) -> int:
    from . import annio

    path = Path(args.ann_file)
    ann = annio.parse_ann(annio.read_text_file(path), doc_id=path.stem, path=str(path))
    tid_by_key: dict[tuple, str] = {}
    for tid, ent in ann.entities.items():
        best = tid_by_key.get(ent.key())
        if best is None or int(tid[1:]) < int(best[1:]):
            tid_by_key[ent.key()] = tid
    lines = ["# one-to-one expansion of grouped relations"]
    pairs = sorted(_library("expand_all")(ann), key=lambda p: p.key)
    for i, pair in enumerate(pairs, start=1):
        a1, a2 = tid_by_key[pair.arg1], tid_by_key[pair.arg2]
        lines.append(f"R{i}\t{pair.rtype.value} Arg1:{a1} Arg2:{a2}")
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


def _cmd_stats(args: argparse.Namespace, config: dict) -> int:
    from collections import Counter

    from . import annio, stats
    from .fanout import fold_slices
    from .model import DOC_TYPES

    if args.doc_type is not None and args.doc_type not in DOC_TYPES:
        raise InputError(
            f"unknown doc type {args.doc_type!r}; expected one of {DOC_TYPES}"
        )
    fmt = _option(args, config, "format")
    bundles = _listing(args.directory)
    if args.doc_type is not None:
        # Bundles of the other type are never read.
        bundles = {k: bp for k, bp in bundles.items() if bp.doc_type == args.doc_type}
        if not bundles:
            raise InputError(f"no {args.doc_type} bundles under {args.directory}")
    layers = _LAYER_FILES[args.report]
    (ext,) = layers
    if not _has_layer(ext, bundles):
        raise InputError(f"no .{ext} file under {args.directory}")
    # Only a slice's tally crosses the pipe; the table is made here.
    tally_of, table_of, row_type = stats.REPORTS[args.report]
    table = table_of(fold_slices(
        list(bundles), lambda k: annio.load_document(bundles[k], layers),
        lambda docs: dict(tally_of(docs)), Counter(), Counter.update,
    ))
    if row_type is None:
        if fmt == "tsv":
            out = "".join(f"{k}\t{_text(v)}\n" for k, v in table.items())
        else:
            out = _json_object(table)
        sys.stdout.write(out)
        return 0

    names = row_type.__slots__
    rows = [{n: getattr(r, n) for n in names} for r in table]
    if fmt == "tsv":
        lines = ["\t".join(names)] + ["\t".join(map(_text, r.values())) for r in rows]
        out = "".join(line + "\n" for line in lines)
    elif rows:
        objects = ("  " + _json_object(r, one_line=True) for r in rows)
        out = "[\n" + ",\n".join(objects) + "\n]\n"
    else:
        out = "[]\n"
    sys.stdout.write(out)
    return 0


def _cmd_kfold(args: argparse.Namespace, config: dict) -> int:
    from . import corpusdir, workflow

    k = _check("--k", args.k, (("be an integer >= 2", lambda v: v >= 2),))
    doc_ids = corpusdir.doc_ids(args.directory)
    if not doc_ids:
        raise _no_bundles(args.directory)
    manifest = workflow.kfold(doc_ids, k, args.seed)
    sys.stdout.write(manifest.to_json())
    return 0


def _cmd_seg_advise(args: argparse.Namespace, config: dict) -> int:
    from .segadvice import advise_chain

    lexicon = _library("load_lexicon")(
        read_text_file(args.lexicon), path=str(args.lexicon)
    )
    trail = advise_chain(lexicon, args.term)
    sys.stdout.write("".join(d.render() + "\n" for d in trail))
    return 0


# ------------------------------------------------------------------ round ---

def _cmd_round(args: argparse.Namespace, config: dict) -> int:
    if args.action in ("sample", "record-iaa"):
        from . import workflow

        # These load, change and save the state: the lock keeps a second
        # writer from loading it in between, which would lose one update.
        with workflow.lock_state(args.state):
            return _round(args, config)
    return _round(args, config)


def _round(args: argparse.Namespace, config: dict) -> int:
    from . import workflow

    if args.action == "new":
        if args.pool_from is not None and args.pool is not None:
            raise InputError("round new takes --pool-from or --pool, not both")
        if args.pool_from:
            from . import corpusdir

            pool = corpusdir.doc_ids(args.pool_from)
            if not pool:
                raise _no_bundles(args.pool_from)
        else:
            pool = list(args.pool or [])
            repeat = workflow.first_repeat(pool)
            if repeat is not None:
                raise InputError(f"--pool repeats document id {repeat!r}")
        if not pool:
            raise InputError("round new needs --pool-from or --pool")
        state = workflow.RoundState(round_index=1, pool=pool)
        workflow.save_state(state, args.state)
        sys.stdout.write(state.to_json(indent=2))
        return 0

    # Only sample draws from the pool: the other actions leave its file unread.
    state = workflow.load_state(args.state, pool=args.action == "sample")

    if args.action == "sample":
        if args.n is None or args.seed is None:
            raise InputError("round sample needs --n and --seed")
        _check("--n", args.n, _COUNT)
        fraction = _option(args, config, "duplicate_fraction")
        new_state, sampled = workflow.sample_round(state, args.n, args.seed)
        assignments = workflow.assign_duplicates(sampled, fraction, args.seed)
        for doc, groups in assignments.items():
            new_state.assignments[doc] = sorted(groups)
        workflow.save_state(new_state, args.state)
        sys.stdout.write(
            json.dumps(
                {
                    "round_index": new_state.round_index,
                    "sampled": sampled,
                    "assignments": {d: sorted(g) for d, g in assignments.items()},
                },
                ensure_ascii=False, indent=2, sort_keys=True,
            ) + "\n"
        )
        return 0

    if args.action == "record-iaa":
        if args.task is None or args.value is None:
            raise InputError("round record-iaa needs --task and --value")
        _check("--task", args.task, ((workflow.TASK_NAME, workflow.is_task_name),))
        value = _check("--value", args.value, _UNIT)
        history = state.iaa_history.setdefault(args.task, [])
        history.append(value)
        workflow.save_state(state, args.state)
        sys.stdout.write(
            json.dumps(
                {"task": args.task, "history": history},
                ensure_ascii=False,
            ) + "\n"
        )
        return 0

    # status
    window = _option(args, config, "window")
    tau_map = _check("config key 'tau'", config.get("tau", {}), (
        ("map task names to thresholds", lambda v: isinstance(v, dict)),))
    for task, tau in tau_map.items():
        _check("config key 'tau'", tau, (
            (f"map {task!r} to a finite number", is_finite_number),
            (f"map {task!r} to a number in [0, 1]", in_unit_interval),
        ))
    policy = workflow.ConvergencePolicy(
        window=window,
        tau={k: float(v) for k, v in tau_map.items()},
        default_tau=float(_option(args, config, "default_tau")),
    )
    lines = ["task\trounds\tthreshold\tconverged"]
    all_converged = bool(state.iaa_history)
    for task in sorted(state.iaa_history):
        history = state.iaa_history[task]
        ok = workflow.check_convergence(history, policy, task)
        all_converged = all_converged and ok
        lines.append(
            f"{task}\t{len(history)}\t{fmt_metric(policy.threshold(task))}\t"
            f"{'true' if ok else 'false'}"
        )
    sys.stdout.write("".join(line + "\n" for line in lines))
    if not state.iaa_history:
        print("no agreement history recorded yet", file=sys.stderr)
    return 0 if all_converged else 1


# ------------------------------------------------------------------ parser ---

def _add_agreement_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--layer", required=True,
        choices=_LAYERS,
    )
    sub.add_argument("--policy", choices=_POLICIES,
                     help=_help("policy", "entity match policy"))
    sub.add_argument("--mode", choices=sorted(_MODES),
                     help=_help("mode", "relation comparison mode"))
    sub.add_argument("--beta", type=float, help=_help("beta", "F-measure beta"))
    # Each tree switch turns its option off, so it resolves like any other.
    for key, text in (
        ("labeled", "tree layer: match brackets by span only"),
        ("include_root", "tree layer: skip the root bracket"),
        ("ignore_punct", "tree layer: keep punctuation leaves"),
    ):
        sub.add_argument(_OPTIONS[key][0], action="store_false", default=None,
                         dest=key, help=_help(key, text))
    sub.add_argument("--details", action="store_true",
                     help="per-document table on the diagnostic stream")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clincorp",
        description="Validate, score, and manage multilayer clinical-text annotations.",
    )
    parser.add_argument("--config", default=None,
                        help=f"JSON config file (or set {CONFIG_ENV})")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check one annotated corpus directory")
    p.add_argument("--keep-going", action="store_true",
                   help="report each malformed file as a parse-error finding and go on")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("iaa", help="agreement between two annotation sets")
    _add_agreement_flags(p)
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.set_defaults(func=_cmd_agreement)

    p = subs.add_parser("score", help="score predictions against gold (same math as iaa)")
    _add_agreement_flags(p)
    p.add_argument("dir_a", metavar="gold_dir")
    p.add_argument("dir_b", metavar="pred_dir")
    p.set_defaults(func=_cmd_agreement)

    p = subs.add_parser("expand", help="expand grouped relations to entity pairs")
    p.add_argument("ann_file")
    p.set_defaults(func=_cmd_expand)

    p = subs.add_parser("stats", help="corpus distribution and length reports")
    p.add_argument("--report", required=True,
                   choices=("pos", "syn", "entity", "relation", "length"))
    p.add_argument("--doc-type", default=None)
    p.add_argument("--format", choices=("tsv", "json"), help=_help("format", "report format"))
    p.add_argument("directory")
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("kfold", help="deterministic k-fold split of a corpus")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("directory")
    p.set_defaults(func=_cmd_kfold)

    p = subs.add_parser("round", help="manage the iterative annotation process")
    p.add_argument("action", choices=("new", "sample", "record-iaa", "status"))
    p.add_argument("--state", required=True, help="state file (JSON)")
    p.add_argument("--pool-from", default=None,
                   help="new: fill the pool from a corpus directory")
    p.add_argument("--pool", nargs="*", default=None,
                   help="new: fill the pool with explicit document ids")
    p.add_argument("--n", type=int, default=None, help="sample: documents to draw")
    p.add_argument("--seed", type=int, default=None, help="sample: shuffle seed")
    p.add_argument("--duplicate-fraction", type=float, help=_help(
        "duplicate_fraction", "sample: share assigned to both groups"))
    p.add_argument("--task", default=None, help="record-iaa: task name")
    p.add_argument("--value", type=float, default=None,
                   help="record-iaa: agreement F value")
    p.add_argument("--window", type=int,
                   help=_help("window", "status: rounds that must all pass"))
    p.add_argument("--tau", type=float, dest="default_tau", metavar="TAU",
                   help=_help("default_tau", "status: default threshold"))
    p.set_defaults(func=_cmd_round)

    p = subs.add_parser("seg-advise", help="segmentation advice for a lexicon term")
    p.add_argument("--lexicon", required=True, help="term lexicon (TSV)")
    p.add_argument("term")
    p.set_defaults(func=_cmd_seg_advise)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr; 2 for usage errors.
        code = exc.code or 0
        return code if isinstance(code, int) else 2
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except Exception as exc:
        # A bug too exits 2 with one line, never a traceback, which would
        # exit 1 and read as findings.
        print(f"error: {error_line(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
