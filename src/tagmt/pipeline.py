"""End-to-end experiment: tag, train, synthesize, enrich, translate, report.

Every stage writes its artifact atomically under the output directory. Each
stage calls the same public function (and the same file writer) as its
standalone CLI subcommand, and reads the same config, so running the
pipeline equals composing the subcommands by hand. A tagged corpus is held
as the ``(rendered source, target)`` pairs its TSV holds, so
`write_pairs_tsv` writes each one, and step 5 trains on
``tagged_train.tsv`` followed by ``enriched.tsv``. The reports hold one row,
named by [experiment] task, and one metadata line, ``bleu_tokenization:
whitespace``, since the pipeline computed both scores; they carry no
timestamp, which keeps repeated runs byte-identical. The stage log gives the
synthesizer's held-out fit and, below [synthesizer] synth_fit_threshold, the
sentence `synth train` logs for it (`synth.low_fit`).

The text-only translator reads nothing the synthesizer chain produces, so when
the process may use two CPUs it trains in a forked child (`forking.alongside`)
while the parent runs the synthesizer, enrichment and multimodal stages, whose
decodes therefore stay in the parent. The child logs nothing, and the
artifacts and the error raised are those of the serial order. Step 6's two
decodes may each fork a child of their own (`translate_corpus`). A beam wider
than the smaller, text-only vocabulary, and a translator or synthesizer too
large for memory at a lower bound of its vocabulary, fail before step 2.
"""

import os

from .config import in_section
from .corpus import load_bitext, load_vg_corpus, write_pairs_tsv
from .errors import ConfigError, DataError
from .evaluation import bleu_from_texts, report_delta, write_report
from .fileio import write_lines
from .forking import alongside
from .mt.decode import check_beam_width, translate_corpus
from .mt.model import check_fits
from .mt.train import Checkpoint, train
from .mt.vocab import vocab_from_pairs
from .synth import build_synth_pairs, enrich_corpus, low_fit, split_heldout, train_synthesizer
from .tagging import load_tag_vocabulary, make_detector, tag_corpus


def run_pipeline(config, log=print):
    """Run the full multimodal-vs-text-only experiment described by config.

    Returns a summary dict with the artifact paths and both BLEU scores.
    """
    config.validate()
    for key in ("train_corpus", "test_corpus"):
        if key not in config.paths:
            raise ConfigError(f"[paths] {key} is required")
    out_dir = config.paths.get("output_dir", "out")
    os.makedirs(out_dir, exist_ok=True)

    def artifact(name):
        return os.path.join(out_dir, name)

    backend = "file" if "detections" in config.paths else "stub"
    log(f"[1/7] corpora + tags (backend={backend}, k={config.top_k})")
    vocabulary = load_tag_vocabulary(config.paths.get("tag_vocabulary"))
    detector = make_detector(vocabulary, config.seed, config.paths.get("detections"))
    train_rows = load_vg_corpus(config.paths["train_corpus"])
    test_rows = load_vg_corpus(config.paths["test_corpus"])
    for key, rows in (("train_corpus", train_rows), ("test_corpus", test_rows)):
        if not rows:
            raise DataError(f"[paths] {key}: {config.paths[key]} holds no record")
    valid_rows = []
    if "valid_corpus" in config.paths:
        valid_rows = load_vg_corpus(config.paths["valid_corpus"])
    bitext = None
    if "bitext_source" in config.paths:  # and so bitext_target (config.validate)
        bitext = load_bitext(config.paths["bitext_source"], config.paths["bitext_target"])

    tagged_train = tag_corpus(train_rows, detector, k=config.top_k)
    tagged_test = tag_corpus(test_rows, detector, k=config.top_k)
    tagged_valid = tag_corpus(valid_rows, detector, k=config.top_k)
    write_pairs_tsv(tagged_train, artifact("tagged_train.tsv"))
    write_pairs_tsv(tagged_test, artifact("tagged_test.tsv"))

    text_train = [(source, target) for _, source, target in train_rows]
    text_valid = [(source, target) for _, source, target in valid_rows]
    text_vocab = vocab_from_pairs(text_train)
    in_section("decode", check_beam_width, config.beam_width, text_vocab)
    # the multimodal vocabulary holds every text-only token: a lower bound on its size
    in_section("translator", check_fits, config.translator, len(text_vocab))
    # the synthesizer's holds every token of the rows it trains on, whose
    # inputs are `source <sep> target`: a lower bound on its size
    synth_rows, _ = split_heldout(text_train)
    in_section("synthesizer", check_fits, config.synthesizer, len(vocab_from_pairs(synth_rows)))

    log("[2/7] text-only translator")
    text_path = artifact("translator_text.ckpt")
    with alongside(lambda: train(config.translator, text_train, text_valid, text_vocab).save(text_path)):
        log("[3/7] tag synthesizer")
        synth_pairs = build_synth_pairs(tagged_train)
        write_pairs_tsv(synth_pairs, artifact("synth_pairs.tsv"))
        synth_ckpt = train_synthesizer(synth_pairs, config.synthesizer)
        synth_ckpt.save(artifact("synthesizer.ckpt"))
        fit = synth_ckpt.training_meta.get("synth_fit")
        if fit is not None:
            log(f"      synthesizer held-out exact match: {fit:.3f}")
        warning = low_fit(synth_ckpt, config.synthesizer)
        if warning:
            log(f"      {warning}")

        log("[4/7] enrich text-only bitext with synthetic tags")
        enriched = []
        if bitext is not None:
            enriched = enrich_corpus(bitext, synth_ckpt, k=config.top_k, vocabulary=vocabulary)
            write_pairs_tsv(enriched, artifact("enriched.tsv"))
        else:
            log("      no bitext configured; multimodal training uses natural data only")

        log("[5/7] multimodal translator (natural + synthetic tags)")
        mm_ckpt = train(config.translator, tagged_train + enriched, tagged_valid)
        mm_ckpt.save(artifact("translator_multimodal.ckpt"))
    text_ckpt = Checkpoint.load(text_path)

    log("[6/7] translate the test split with both systems")
    text_sources = [source for _, source, _ in test_rows]
    text_hyp = translate_corpus(text_ckpt, text_sources, beam_width=config.beam_width)
    mm_hyp = translate_corpus(mm_ckpt, [source for source, _ in tagged_test], beam_width=config.beam_width)
    write_lines(text_hyp, artifact("hypotheses_text.txt"))
    write_lines(mm_hyp, artifact("hypotheses_multimodal.txt"))

    references = [target for _, _, target in test_rows]
    text_bleu = bleu_from_texts(text_hyp, references)
    mm_bleu = bleu_from_texts(mm_hyp, references)

    log("[7/7] report")
    report = report_delta({config.task_label: text_bleu.score}, {config.task_label: mm_bleu.score})
    # the pipeline computed both scores, so it can name their tokenization
    report.metadata["bleu_tokenization"] = "whitespace"
    write_report(report, artifact("report.tsv"), fmt="tsv")
    write_report(report, artifact("report.txt"), fmt="table")
    delta = mm_bleu.score - text_bleu.score
    log(
        f"      text-only {text_bleu.score:.1f} | multimodal {mm_bleu.score:.1f} "
        f"| delta {delta:+.1f}"
    )
    return {
        "output_dir": out_dir,
        "text_bleu": text_bleu.score,
        "multimodal_bleu": mm_bleu.score,
        "delta": delta,
        "synth_fit": fit,
        "artifacts": sorted(os.listdir(out_dir)),
    }
