"""tagmt command line: each subcommand is one box or arrow of the pipeline.

Exit codes: 0 success, 1 usage/configuration error, 2 data error (with the
offending line or record named), 3 training divergence. Any other exception
is a bug and propagates with its traceback.
"""

import argparse
import sys

import numpy as np

from .config import ExperimentConfig, in_section, load_experiment_config
from .corpus import (
    SPLIT_LABELS, corpus_stats, load_bitext, load_vg_corpus, read_pairs_tsv, write_pairs_tsv
)
from .errors import ConfigError, DataError, Divergence, TagmtError
from .evaluation import (
    REPORT_FORMATS,
    bleu_from_texts,
    read_scores_tsv,
    render_report,
    report_delta,
    write_report,
)
from .fileio import read_lines, write_lines
from .mt.decode import DECODE_METHODS, translate_corpus
from .mt.train import Checkpoint, fine_tune, train
from .pipeline import run_pipeline
from .synth import build_synth_pairs, enrich_corpus, train_synthesizer, write_enriched_corpus
from .tagging import (
    BACKENDS,
    inject_tags,
    load_tag_vocabulary,
    make_detector,
    read_tagged_corpus,
    read_tagsets_file,
    select_corpus_tags,
    write_tagged_corpus,
    write_tagsets_file,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _load_config(args):
    if args.config:
        config = load_experiment_config(args.config)
    else:
        config = ExperimentConfig()
    if args.seed is not None:
        config.with_seed(args.seed)
    if args.output_dir:
        config.paths["output_dir"] = args.output_dir
    return config


def _model_config(args, section):
    model = getattr(_load_config(args), section)
    if getattr(args, "max_steps", None) is not None:
        model = model.override(max_steps=args.max_steps)
    return in_section(section, model.validate)


def _kv_lines(pairs, fmt):
    if fmt == "tsv":
        return "\n".join(f"{key}\t{value}" for key, value in pairs)
    width = max(len(key) for key, _ in pairs)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in pairs)


# -- corpus ------------------------------------------------------------------


def _load_corpus_args(args):
    if args.vg:
        return load_vg_corpus(args.vg, args.split)
    if args.source and args.target:
        return load_bitext(args.source, args.target, args.split)
    raise ConfigError("need --vg or both --source and --target")


def cmd_corpus_stats(args):
    corpus = _load_corpus_args(args)
    stats = corpus_stats(corpus)
    print(
        _kv_lines(
            [
                ("split", corpus.split_label),
                ("sentences", stats.sentence_count),
                ("source_tokens", stats.source_token_count),
                ("target_tokens", stats.target_token_count),
            ],
            args.format,
        )
    )
    return 0


def cmd_corpus_validate(args):
    corpus = _load_corpus_args(args)
    kind = "records" if args.vg else "aligned sentence pairs"
    print(f"OK: {len(corpus)} {kind}")
    return 0


# -- tags --------------------------------------------------------------------


def cmd_tags_extract(args):
    config = _load_config(args)
    corpus = load_vg_corpus(args.corpus)
    vocabulary = load_tag_vocabulary(args.tag_vocabulary)
    detector = make_detector(args.backend, vocabulary, seed=config.seed, detections=args.detections)
    tagsets = select_corpus_tags(corpus, detector, k=args.k)
    write_tagsets_file(tagsets, args.output)
    print(f"wrote {len(tagsets)} tag sets to {args.output}")
    return 0


def cmd_tags_inject(args):
    corpus = load_vg_corpus(args.corpus)
    pairs = inject_tags(corpus, read_tagsets_file(args.tagsets))
    write_tagged_corpus(pairs, args.output)
    print(f"wrote {len(pairs)} tagged pairs to {args.output}")
    return 0


# -- synth -------------------------------------------------------------------


def cmd_synth_build_pairs(args):
    tagged = read_tagged_corpus(args.tagged)
    pairs = build_synth_pairs(tagged)
    write_pairs_tsv(pairs, args.output)
    print(f"wrote {len(pairs)} synthesizer pairs to {args.output}")
    return 0


def cmd_synth_train(args):
    model_config = _model_config(args, "synthesizer")
    pairs = read_pairs_tsv(args.pairs)
    checkpoint = train_synthesizer(pairs, model_config, log=_log)
    checkpoint.save(args.output)
    fit = checkpoint.training_meta.get("synth_fit")
    fit_text = "n/a" if fit is None else f"{fit:.3f}"
    print(f"saved synthesizer to {args.output} (held-out exact match {fit_text})")
    return 0


def cmd_synth_enrich(args):
    checkpoint = Checkpoint.load(args.checkpoint)
    bitext = load_bitext(args.source, args.target)
    vocabulary = load_tag_vocabulary(args.tag_vocabulary)
    enriched = enrich_corpus(bitext, checkpoint, k=args.k, vocabulary=vocabulary)
    write_enriched_corpus(enriched, args.output)
    print(f"wrote {len(enriched)} enriched pairs to {args.output}")
    return 0


# -- mt ----------------------------------------------------------------------


def cmd_mt_train(args):
    model_config = _model_config(args, "translator")
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


def cmd_mt_finetune(args):
    base = Checkpoint.load(args.base)
    overrides = {}
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    if args.seed is not None:
        overrides["seed"] = args.seed
    pairs = read_pairs_tsv(args.train)
    valid = read_pairs_tsv(args.valid) if args.valid else []
    checkpoint = fine_tune(base, overrides, pairs, valid, log=_log)
    checkpoint.save(args.output)
    print(f"saved fine-tuned checkpoint to {args.output}")
    return 0


def cmd_mt_translate(args):
    checkpoint = Checkpoint.load(args.checkpoint)
    sources = read_lines(args.input)
    hypotheses = translate_corpus(
        checkpoint,
        sources,
        decode=args.decode,
        beam_width=args.beam_width,
        max_len=args.max_len,
    )
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
    report = report_delta(
        text_only,
        multimodal,
        corpus_name=args.corpus_name,
        split=args.split,
        timestamp=args.timestamp,
    )
    if args.output:
        write_report(report, args.output, fmt=args.format)
        print(f"wrote report to {args.output}")
    else:
        print(render_report(report, args.format), end="")
    return 0


# -- pipeline ----------------------------------------------------------------


def cmd_pipeline_run(args):
    if not args.config:
        raise ConfigError("pipeline run needs --config")
    config = _load_config(args)
    run_pipeline(config, log=_log)
    return 0


def _log(message):
    print(message, file=sys.stderr)


# -- parser ------------------------------------------------------------------


def _add_global_flags(parser, leaf):
    # Leaf parsers use SUPPRESS so an unset flag never clobbers a value given
    # before the subcommand; the flags work in either position.
    default = argparse.SUPPRESS if leaf else None
    parser.add_argument(
        "--seed", type=int, default=default, help="override the experiment seed"
    )
    parser.add_argument("--config", default=default, help="experiment config file (INI)")
    parser.add_argument(
        "--output-dir", default=default, help="override the configured output directory"
    )


def build_parser():
    parser = _Parser(prog="tagmt", description=__doc__)
    _add_global_flags(parser, leaf=False)
    groups = parser.add_subparsers(dest="group", metavar="GROUP")

    def sub(group_parser, name, func, help_text):
        p = group_parser.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        _add_global_flags(p, leaf=True)
        return p

    corpus = parser_group(groups, "corpus", "corpus parsing, validation, statistics")
    p = sub(corpus, "stats", cmd_corpus_stats, "sentence and token counts")
    _add_corpus_inputs(p)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table")
    p = sub(corpus, "validate", cmd_corpus_validate, "strict structural validation")
    _add_corpus_inputs(p)

    tags = parser_group(groups, "tags", "object-tag extraction and fusion")
    p = sub(tags, "extract", cmd_tags_extract, "detect and select top-k tags per image")
    p.add_argument("--corpus", required=True, help="VG TSV corpus")
    p.add_argument("--backend", choices=BACKENDS, default="stub")
    p.add_argument("--detections", default=None, help="precomputed detections TSV (file backend)")
    p.add_argument("--tag-vocabulary", default=None, help="tag vocabulary file (default: COCO-80)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--output", required=True)
    p = sub(tags, "inject", cmd_tags_inject, "fuse selected tags with source sentences")
    p.add_argument("--corpus", required=True, help="VG TSV corpus")
    p.add_argument("--tagsets", required=True, help="tagsets file from 'tags extract'")
    p.add_argument("--output", required=True)

    synth = parser_group(groups, "synth", "synthetic tag features for text-only data")
    p = sub(synth, "build-pairs", cmd_synth_build_pairs, "invert a tagged corpus into synthesizer pairs")
    p.add_argument("--tagged", required=True, help="tagged corpus TSV")
    p.add_argument("--output", required=True)
    p = sub(synth, "train", cmd_synth_train, "train the tag synthesizer")
    p.add_argument("--pairs", required=True, help="synthesizer pairs TSV")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--output", required=True)
    p = sub(synth, "enrich", cmd_synth_enrich, "decode synthetic tags for a bitext")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--tag-vocabulary", default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--output", required=True)

    mt = parser_group(groups, "mt", "translator training and decoding")
    p = sub(mt, "train", cmd_mt_train, "train a translator from scratch")
    p.add_argument("--train", required=True, help="training pairs TSV (source, target)")
    p.add_argument("--valid", default=None, help="validation pairs TSV")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--output", required=True)
    p = sub(mt, "finetune", cmd_mt_finetune, "continue training from a checkpoint")
    p.add_argument("--base", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--output", required=True)
    p = sub(mt, "translate", cmd_mt_translate, "translate a file of sentences")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--decode", choices=DECODE_METHODS, default="greedy")
    p.add_argument("--beam-width", type=int, default=4)
    p.add_argument("--max-len", type=int, default=None)

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
    p.add_argument("--timestamp", default=None)

    pipe = parser_group(groups, "pipeline", "end-to-end experiment")
    sub(pipe, "run", cmd_pipeline_run, "run the full multimodal experiment from --config")

    return parser


def parser_group(groups, name, help_text):
    group = groups.add_parser(name, help=help_text)
    return group.add_subparsers(dest="command", metavar="COMMAND")


def _add_corpus_inputs(p):
    p.add_argument("--vg", default=None, help="VG TSV corpus file")
    p.add_argument("--source", default=None, help="bitext source file")
    p.add_argument("--target", default=None, help="bitext target file")
    p.add_argument("--split", choices=SPLIT_LABELS, default="unspecified")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return 1
    try:
        # a non-finite value shows as the command's own error, not as numpy's warning text
        with np.errstate(all="ignore"):
            return args.func(args) or 0
    except Divergence as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TagmtError, OSError, UnicodeEncodeError) as err:
        # UnicodeEncodeError: stdout cannot encode the output (PYTHONIOENCODING=ascii)
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
