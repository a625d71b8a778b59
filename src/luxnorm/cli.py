"""Command-line interface.

Subcommands: dict validate, synth, normalize, align, eval, checklist, run.
Inputs are read as `luxnorm.errors.read_lines` reads them; outputs are
UTF-8 with LF line endings. Exit codes are stable per failure class:
0 success, 2 usage/configuration, 3 data/input, 4 external normalizer
protocol, 1 unexpected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from luxnorm import __version__
from luxnorm.align import GAP, align_triple
from luxnorm.checklist import default_suite_path, load_suite, render_report, run_suite
from luxnorm.config import RunConfig, build_config, effective_workers
from luxnorm.corrupt import CorpusStats, iter_corrupted
from luxnorm.dictionary import load_dictionary
from luxnorm.errors import ConfigError, LuxnormError, ParseError, ProtocolError, read_parallel
from luxnorm.experiment import StageError, build_normalizer, read_lines, run_experiment
from luxnorm.experiment import run_normalizer
from luxnorm.metrics import evaluate_sentences
from luxnorm.tokenizer import is_token, tokenize

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROTOCOL = 4

GAP_MARKER = "<GAP>"


def _parse_weights(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated weights v,e,n,f")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"weights are not numbers: {text!r}") from None


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--weights", type=_parse_weights)
    parser.add_argument("--ngram-n", type=int)
    parser.add_argument("--topk", type=int)
    parser.add_argument("--max-edit-distance", type=int)


def _add_scheme_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--match-bonus", type=float)
    parser.add_argument("--mismatch-penalty", type=float)
    parser.add_argument("--gap-penalty", type=float)


def _config(args: argparse.Namespace, config_file: Path | None = None) -> RunConfig:
    """The subcommand's settings: its flags over the config file over the
    defaults. Output directories are checked too, before any input is read."""
    names = (spec.name for spec in dataclasses.fields(RunConfig))
    config = build_config({name: getattr(args, name, None) for name in names}, config_file)
    for flag in ("out", "stats", "dump", "report"):  # output flags, dest == flag name
        path = getattr(args, flag, None)
        if path is not None and not path.parent.is_dir():
            raise ConfigError(f"--{flag}: no such directory: {path.parent}")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luxnorm",
        description="Synthesize, normalize, and evaluate noisy Luxembourgish text.",
    )
    parser.add_argument("--version", action="version", version=f"luxnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    dict_parser = sub.add_parser("dict", help="variant dictionary utilities")
    dict_sub = dict_parser.add_subparsers(dest="dict_command", required=True)
    validate = dict_sub.add_parser("validate", help="validate a dictionary and print statistics")
    validate.add_argument("path", type=Path)
    validate.set_defaults(handler=_cmd_dict_validate)

    synth = sub.add_parser("synth", help="synthesize parallel noisy/standard pairs")
    synth.add_argument("--dict", dest="dictionary", type=Path, required=True)
    synth.add_argument("--corpus", type=Path, required=True)
    synth.add_argument("--out", type=Path, required=True)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--stats", type=Path)
    synth.add_argument("--workers", type=int)
    synth.set_defaults(handler=_cmd_synth)

    normalize = sub.add_parser("normalize", help="normalize sentences with the pipeline")
    normalize.add_argument("--dict", dest="dictionary", type=Path, required=True)
    normalize.add_argument("--lexicon", type=Path, required=True)
    normalize.add_argument("--in", dest="input", type=Path, required=True)
    normalize.add_argument("--out", type=Path, required=True)
    normalize.add_argument("--workers", type=int)
    normalize.set_defaults(handler=_cmd_normalize)
    _add_pipeline_flags(normalize)

    align = sub.add_parser("align", help="dump a 3-way word alignment for inspection")
    align.add_argument("--orig", type=Path, required=True)
    align.add_argument("--pred", type=Path, required=True)
    align.add_argument("--gold", type=Path, required=True)
    align.add_argument("--dump", type=Path, required=True)
    align.set_defaults(handler=_cmd_align)
    _add_scheme_flags(align)

    evaluate = sub.add_parser("eval", help="score predictions against gold references")
    evaluate.add_argument("--orig", type=Path, required=True)
    evaluate.add_argument("--pred", type=Path, required=True)
    evaluate.add_argument("--gold", type=Path, required=True)
    evaluate.add_argument("--report", type=Path)
    evaluate.add_argument("--format", choices=("json", "tsv"), default="json")
    evaluate.add_argument("--verbose", action="store_true", help="per-sentence breakdown")
    evaluate.add_argument("--double-count-miscorrections", action="store_true")
    evaluate.set_defaults(handler=_cmd_eval)
    _add_scheme_flags(evaluate)

    checklist = sub.add_parser("checklist", help="run the minimum-functionality suite")
    checklist.add_argument("--suite", type=Path)
    checklist.add_argument("--normalizer", help="pipeline, identity, or cmd:<command line>")
    checklist.add_argument("--dict", dest="dictionary", type=Path)
    checklist.add_argument("--lexicon", type=Path)
    checklist.add_argument("--report", type=Path)
    checklist.add_argument("--format", choices=("tsv", "table"), default="table")
    checklist.add_argument("--workers", type=int)
    checklist.set_defaults(handler=_cmd_checklist)
    _add_pipeline_flags(checklist)

    run = sub.add_parser("run", help="full experiment: normalize, evaluate, checklist")
    run.add_argument("--config", type=Path, help="JSON config file; flags override it")
    run.add_argument("--dict", dest="dictionary", type=Path)
    run.add_argument("--lexicon", type=Path)
    run.add_argument("--eval-orig", dest="eval_original", type=Path)
    run.add_argument("--eval-gold", dest="eval_gold", type=Path)
    run.add_argument("--suite", type=Path)
    run.add_argument("--pred", dest="predictions", type=Path)
    run.add_argument("--out-dir", dest="output_dir", type=Path)
    run.add_argument("--seed", type=int)
    run.add_argument("--normalizer")
    run.add_argument("--workers", type=int)
    run.set_defaults(handler=_cmd_run)
    _add_pipeline_flags(run)
    return parser


def _cmd_dict_validate(args: argparse.Namespace) -> int:
    dictionary = load_dictionary(args.path)
    rows = [dictionary.variants(lemma) for lemma in dictionary.lemmas()]
    print(f"lemmas\t{len(dictionary)}")
    print(f"variant_entries\t{sum(map(len, rows))}")
    print(f"total_count\t{sum(dictionary.total_count(lemma) for lemma in dictionary.lemmas())}")
    print(f"max_variants\t{max(map(len, rows))}")
    # synth leaves the token as written when it draws one of these
    print(f"unwritable_variants\t{sum(not is_token(variant) for row in rows for variant in row)}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _config(args)
    dictionary = load_dictionary(config.dictionary)
    workers = effective_workers(config.workers)
    lines = read_lines(args.corpus)
    # checked before --out is opened, so a failed run leaves it untouched
    if not any(line.strip() for line in lines):
        raise ParseError("corpus contains no non-blank sentences", path=str(args.corpus))
    stats = CorpusStats()
    with open(args.out, "w", encoding="utf-8", newline="\n") as out:
        for pair in iter_corrupted(lines, dictionary, config.seed, workers=workers, stats=stats):
            out.write(pair.to_json() + "\n")
    if args.stats is not None:
        args.stats.write_text(
            json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(
        f"synthesized {stats.pair_count} pairs "
        f"(replacement rate {float(stats.replacement_rate):.3f})"
    )
    return EXIT_OK


def _cmd_normalize(args: argparse.Namespace) -> int:
    normalizer = build_normalizer(_config(args))
    lines = read_lines(args.input)
    outputs = normalizer(lines)
    args.out.write_text("".join(line + "\n" for line in outputs), encoding="utf-8")
    print(f"normalized {len(lines)} sentences")
    return EXIT_OK


def _cmd_align(args: argparse.Namespace) -> int:
    scheme = _config(args).scheme()
    original, predicted, gold = read_parallel(args.orig, args.pred, args.gold)
    rows = ["original\tpredicted\tgold"]
    for orig, pred, ref in zip(original, predicted, gold):
        triple = align_triple(tokenize(orig), tokenize(pred), tokenize(ref), scheme)
        for x, y, z in triple.columns:
            rows.append(
                "\t".join(GAP_MARKER if t is GAP else t for t in (x, y, z))
            )
        rows.append("")  # blank row between sentences
    args.dump.write_text("\n".join(rows).rstrip("\n") + "\n", encoding="utf-8")
    print(f"aligned {len(original)} sentence triples")
    return EXIT_OK


def _eval_report_dict(args: argparse.Namespace, scheme, report, rows) -> dict:
    data = {
        "metrics": report.to_dict(),
        "scoring_scheme": dataclasses.asdict(scheme),
        "double_count_miscorrections": args.double_count_miscorrections,
    }
    if args.verbose:
        sentences = []
        for row in rows:
            counts = {j: 0 for j in ("tp", "fp", "fn", "tn")}
            for judgment in row.judgments:
                counts[judgment.value] += 1
            sentences.append({"index": row.index, **counts})
        data["sentences"] = sentences
    return data


def _cmd_eval(args: argparse.Namespace) -> int:
    scheme = _config(args).scheme()
    original, predicted, gold = read_parallel(args.orig, args.pred, args.gold)
    report, rows = evaluate_sentences(
        original,
        predicted,
        gold,
        scheme,
        double_count_miscorrections=args.double_count_miscorrections,
    )
    data = _eval_report_dict(args, scheme, report, rows)
    if args.format == "json":
        text = json.dumps(data, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"{key}\t{value}" for key, value in data["metrics"].items()]
        if args.verbose:
            lines.append("sentence\ttp\tfp\tfn\ttn")
            for row in data["sentences"]:
                lines.append(
                    f"{row['index']}\t{row['tp']}\t{row['fp']}\t{row['fn']}\t{row['tn']}"
                )
        text = "\n".join(lines) + "\n"
    if args.report is not None:
        args.report.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    err = report.to_dict()["err"]
    print(f"ERR {err if err is not None else 'undefined'}", file=sys.stderr)
    return EXIT_OK


def _cmd_checklist(args: argparse.Namespace) -> int:
    config = _config(args)
    suite = load_suite(config.suite)
    normalizer = build_normalizer(config)
    report = run_suite(suite, run_normalizer(normalizer, [u.sentence for u in suite.units]))
    rendered = render_report(report, args.format)
    if args.report is not None:
        args.report.write_text(rendered + "\n", encoding="utf-8")
    print(rendered)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args, args.config)
    if config.suite is None:
        config.suite = default_suite_path()
    for key in ("eval_original", "eval_gold"):
        if getattr(config, key) is None:
            raise ConfigError(f"missing required option {key!r}")
    report = run_experiment(config)
    err = report.metrics.err
    err_text = "undefined" if err is None else f"{float(err):.4f}"
    print(f"report written to {config.output_dir / 'report.json'} (ERR {err_text})")
    return EXIT_OK


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, StageError):
        return _exit_code_for(exc.cause)
    if isinstance(exc, (ConfigError, FileNotFoundError)):
        return EXIT_CONFIG
    if isinstance(exc, ProtocolError):
        return EXIT_PROTOCOL
    if isinstance(exc, (ParseError, LuxnormError, OSError, ValueError)):
        return EXIT_DATA
    return EXIT_UNEXPECTED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - single exit point maps error classes
        print(f"luxnorm: error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
