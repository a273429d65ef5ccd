"""tagmt command line: a subcommand per pipeline step, calling that step's
function and file writer, plus corpus statistics and BLEU scoring. Every
setting comes from the --config file; no flag overrides a config key.

Exit codes: 0 success, a tagmt error's `exit_code` (see errors.py), and 1 for
an OSError, output stdout cannot encode or an allocation failure. Any other
exception is a bug and propagates with its traceback.
"""

import argparse
import sys

import numpy as np

from .config import ExperimentConfig, in_section, load_experiment_config
from .corpus import corpus_stats, load_bitext, load_vg_corpus, read_pairs_tsv, write_pairs_tsv
from .errors import ConfigError, DataError, TagmtError
from .evaluation import (
    REPORT_FORMATS,
    bleu_from_texts,
    read_scores_tsv,
    render_report,
    report_delta,
    write_report,
)
from .fileio import read_lines, write_lines
from .mt.decode import check_beam_width, translate_corpus
from .mt.train import Checkpoint, train
from .pipeline import run_pipeline
from .synth import build_synth_pairs, enrich_corpus, train_synthesizer
from .tagging import load_tag_vocabulary, make_detector, tag_corpus


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_config(args):
    """The --config file's experiment (the defaults without one), validated
    whole before the command reads any input."""
    config = load_experiment_config(args.config) if args.config else ExperimentConfig()
    return config.validate()


def _kv_lines(pairs, fmt):
    if fmt == "tsv":
        return "\n".join(f"{key}\t{value}" for key, value in pairs)
    width = max(len(key) for key, _ in pairs)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in pairs)


# -- corpus ------------------------------------------------------------------


def _load_corpus_args(args):
    """The (source, target) pairs of --vg, or of --source and --target."""
    if args.vg and (args.source or args.target):
        raise ConfigError("--vg cannot be combined with --source or --target")
    if args.vg:
        return [(source, target) for _, source, target in load_vg_corpus(args.vg)]
    if args.source and args.target:
        return load_bitext(args.source, args.target)
    raise ConfigError("need --vg or both --source and --target")


def cmd_corpus_stats(args):
    sentences, source_tokens, target_tokens = corpus_stats(_load_corpus_args(args))
    fields = [
        ("sentences", sentences),
        ("source_tokens", source_tokens),
        ("target_tokens", target_tokens),
    ]
    print(_kv_lines(fields, args.format))
    return 0


# -- tags --------------------------------------------------------------------


def cmd_tags_extract(args):
    config = _load_config(args)
    corpus = load_vg_corpus(args.corpus)
    vocabulary = load_tag_vocabulary(config.paths.get("tag_vocabulary"))
    detector = make_detector(vocabulary, config.seed, config.paths.get("detections"))
    pairs = tag_corpus(corpus, detector, k=config.top_k)
    write_pairs_tsv(pairs, args.output)
    print(f"wrote {len(pairs)} tagged pairs to {args.output}")
    return 0


# -- synth -------------------------------------------------------------------


def cmd_synth_build_pairs(args):
    pairs = build_synth_pairs(read_pairs_tsv(args.tagged))
    write_pairs_tsv(pairs, args.output)
    print(f"wrote {len(pairs)} synthesizer pairs to {args.output}")
    return 0


def cmd_synth_train(args):
    model_config = _load_config(args).synthesizer
    pairs = read_pairs_tsv(args.pairs)
    checkpoint = train_synthesizer(pairs, model_config, log=_log)
    checkpoint.save(args.output)
    fit = checkpoint.training_meta.get("synth_fit")
    fit_text = "n/a" if fit is None else f"{fit:.3f}"
    print(f"saved synthesizer to {args.output} (held-out exact match {fit_text})")
    return 0


def cmd_synth_enrich(args):
    config = _load_config(args)
    checkpoint = Checkpoint.load(args.checkpoint)
    bitext = load_bitext(args.source, args.target)
    vocabulary = load_tag_vocabulary(config.paths.get("tag_vocabulary"))
    enriched = enrich_corpus(bitext, checkpoint, k=config.top_k, vocabulary=vocabulary)
    write_pairs_tsv(enriched, args.output)
    print(f"wrote {len(enriched)} enriched pairs to {args.output}")
    return 0


# -- mt ----------------------------------------------------------------------


def cmd_mt_train(args):
    model_config = _load_config(args).translator
    pairs = read_pairs_tsv(args.train)
    valid = read_pairs_tsv(args.valid) if args.valid else []
    checkpoint = train(model_config, pairs, valid, log=_log)
    checkpoint.save(args.output)
    meta = checkpoint.training_meta
    print(
        f"saved checkpoint to {args.output} "
        f"(steps {meta['steps']}, best step {meta['best_step']})"
    )
    return 0


def cmd_mt_translate(args):
    config = _load_config(args)
    checkpoint = Checkpoint.load(args.checkpoint)
    in_section("decode", check_beam_width, config.beam_width, checkpoint.vocab)
    hypotheses = translate_corpus(checkpoint, read_lines(args.input), **config.decode_kwargs)
    if args.output:
        write_lines(hypotheses, args.output)
        print(f"wrote {len(hypotheses)} translations to {args.output}")
    else:
        for line in hypotheses:
            print(line)
    return 0


# -- eval --------------------------------------------------------------------


def cmd_eval_bleu(args):
    hyps = read_lines(args.hypotheses)
    refs = read_lines(args.references)
    if len(hyps) != len(refs):
        raise DataError(
            f"{args.hypotheses} has {len(hyps)} lines, {args.references} has {len(refs)}"
        )
    score = bleu_from_texts(hyps, refs, smooth="add1" if args.smooth else "none")
    if args.format == "tsv":
        # machine-readable: full precision so downstream deltas never suffer
        # double rounding; the table format presents one decimal
        fields = [
            ("bleu", repr(score.score)),
            ("precisions", "/".join(repr(p) for p in score.ngram_precisions)),
            ("brevity_penalty", repr(score.brevity_penalty)),
            ("hyp_length", score.hyp_length),
            ("ref_length", score.ref_length),
        ]
        print(_kv_lines(fields, "tsv"))
    else:
        print(score)
    return 0


def cmd_eval_report(args):
    text_only = read_scores_tsv(read_lines(args.text_only))
    multimodal = read_scores_tsv(read_lines(args.multimodal))
    report = report_delta(text_only, multimodal, corpus_name=args.corpus_name, split=args.split)
    if args.output:
        write_report(report, args.output, fmt=args.format)
        print(f"wrote report to {args.output}")
    else:
        print(render_report(report, args.format), end="")
    return 0


# -- pipeline ----------------------------------------------------------------


def cmd_pipeline_run(args):
    run_pipeline(_load_config(args), log=_log)
    return 0


def _log(message):
    print(message, file=sys.stderr)


# -- parser ------------------------------------------------------------------


def _add_config_flags(p, required=False):
    """--config, the experiment config every setting of the command comes from."""
    p.add_argument("--config", required=required, help="experiment config file (INI)")


def build_parser():
    parser = _Parser(prog="tagmt", description=__doc__)
    groups = parser.add_subparsers(dest="group", metavar="GROUP")

    def sub(group_parser, name, func, help_text):
        p = group_parser.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    corpus = parser_group(groups, "corpus", "corpus checks and statistics")
    p = sub(corpus, "stats", cmd_corpus_stats, "check a corpus; print its sentence and token counts")
    p.add_argument("--vg", default=None, help="VG TSV corpus file")
    p.add_argument("--source", default=None, help="bitext source file")
    p.add_argument("--target", default=None, help="bitext target file")
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")

    tags = parser_group(groups, "tags", "object-tag extraction and fusion")
    p = sub(tags, "extract", cmd_tags_extract, "tag each source with its image's top-k tags")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True, help="VG TSV corpus")
    p.add_argument("--output", required=True, help="tagged corpus TSV")

    synth = parser_group(groups, "synth", "synthetic tag features for text-only data")
    p = sub(synth, "build-pairs", cmd_synth_build_pairs, "invert a tagged corpus into synthesizer pairs")
    p.add_argument("--tagged", required=True, help="tagged corpus TSV")
    p.add_argument("--output", required=True)
    p = sub(synth, "train", cmd_synth_train, "train the tag synthesizer")
    _add_config_flags(p)
    p.add_argument("--pairs", required=True, help="synthesizer pairs TSV")
    p.add_argument("--output", required=True)
    p = sub(synth, "enrich", cmd_synth_enrich, "decode synthetic tags for a bitext")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--output", required=True)

    mt = parser_group(groups, "mt", "translator training and decoding")
    p = sub(mt, "train", cmd_mt_train, "train a translator")
    _add_config_flags(p)
    p.add_argument("--train", required=True, help="training pairs TSV (source, target)")
    p.add_argument("--valid", default=None, help="validation pairs TSV")
    p.add_argument("--output", required=True)
    p = sub(mt, "translate", cmd_mt_translate, "translate a file of sentences")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)

    ev = parser_group(groups, "eval", "BLEU scoring and comparison reports")
    p = sub(ev, "bleu", cmd_eval_bleu, "corpus BLEU of hypotheses against references")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--smooth", action="store_true", help="add-one smoothing for orders >= 2")
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p = sub(ev, "report", cmd_eval_report, "text-only vs multimodal delta table")
    p.add_argument("--text-only", required=True, help="TSV of (task, score)")
    p.add_argument("--multimodal", required=True, help="TSV of (task, score)")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p.add_argument("--corpus-name", default="")
    p.add_argument("--split", default="")

    pipe = parser_group(groups, "pipeline", "end-to-end experiment")
    p = sub(pipe, "run", cmd_pipeline_run, "run the full multimodal experiment from --config")
    _add_config_flags(p, required=True)

    return parser


def parser_group(groups, name, help_text):
    group = groups.add_parser(name, help=help_text)
    return group.add_subparsers(dest="command", metavar="COMMAND")


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error(f"unrecognized arguments: {argv[0]} (a flag goes after the subcommand)")
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return 1
    try:
        # a non-finite value shows as the command's own error, not as numpy's warning text
        with np.errstate(all="ignore"):
            return args.func(args) or 0
    except (TagmtError, OSError, UnicodeEncodeError) as err:
        # UnicodeEncodeError: stdout cannot encode the output (PYTHONIOENCODING=ascii)
        print(f"error: {err}", file=sys.stderr)
        return getattr(err, "exit_code", 1)
    except MemoryError as err:
        # a model or checkpoint size too large to allocate; numpy names the array
        print(f"error: out of memory{f': {err}' if str(err) else ''}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
