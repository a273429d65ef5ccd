"""End-to-end experiment: tag, train, synthesize, enrich, translate, report.

Every stage writes its artifact atomically under the output directory. Each
stage calls the same public function (and the same file writer) as its
standalone CLI subcommand, so running the pipeline equals composing the
subcommands by hand. Reports carry no timestamp, which keeps repeated runs
byte-identical.

The text-only translator reads nothing the synthesizer chain produces, so
when the CPUs hold two processes' BLAS threads it trains in a forked child
(`forking.alongside`) while the parent runs the synthesizer, enrichment and
multimodal stages, whose decodes therefore stay in the parent. The child
logs nothing, and the artifacts and the error raised are those of the serial
order. Step 6's two decodes may each fork a child of their own
(`translate_corpus`).
"""

import os

from .corpus import load_bitext, load_vg_corpus, write_pairs_tsv
from .evaluation import bleu_from_texts, report_delta, write_report
from .fileio import write_lines
from .forking import alongside
from .mt.decode import translate_corpus
from .mt.train import Checkpoint, train
from .synth import build_synth_pairs, enrich_corpus, train_synthesizer, write_enriched_corpus
from .tagging import load_tag_vocabulary, make_detector, tag_corpus, write_tagged_corpus


def run_pipeline(config, log=print):
    """Run the full multimodal-vs-text-only experiment described by config.

    Returns a summary dict with the artifact paths and both BLEU scores.
    """
    config.validate()
    out_dir = config.paths.get("output_dir", "out")
    os.makedirs(out_dir, exist_ok=True)

    def artifact(name):
        return os.path.join(out_dir, name)

    log(f"[1/7] corpora + tags (backend={config.tagging_backend}, k={config.top_k})")
    vocabulary = load_tag_vocabulary(config.paths.get("tag_vocabulary"))
    detector = make_detector(
        config.tagging_backend, vocabulary, seed=config.seed, detections=config.paths.get("detections")
    )
    train_corpus = load_vg_corpus(config.paths["train_corpus"], "train")
    test_corpus = load_vg_corpus(config.paths["test_corpus"], "etest")
    valid_corpus = None
    if "valid_corpus" in config.paths:
        valid_corpus = load_vg_corpus(config.paths["valid_corpus"], "dtest")
    bitext = None
    if "bitext_source" in config.paths and "bitext_target" in config.paths:
        bitext = load_bitext(config.paths["bitext_source"], config.paths["bitext_target"])

    tagged_train = tag_corpus(train_corpus, detector, k=config.top_k)
    tagged_test = tag_corpus(test_corpus, detector, k=config.top_k)
    tagged_valid = tag_corpus(valid_corpus, detector, k=config.top_k) if valid_corpus else []
    write_tagged_corpus(tagged_train, artifact("tagged_train.tsv"))
    write_tagged_corpus(tagged_test, artifact("tagged_test.tsv"))

    text_train = [(r.source_text, r.target_text) for r in train_corpus.records]
    text_valid = [(r.source_text, r.target_text) for r in valid_corpus.records] if valid_corpus else []

    log("[2/7] text-only translator")
    text_path = artifact("translator_text.ckpt")
    with alongside(lambda: train(config.translator, text_train, text_valid).save(text_path)):
        log("[3/7] tag synthesizer")
        synth_pairs = build_synth_pairs(tagged_train)
        write_pairs_tsv(synth_pairs, artifact("synth_pairs.tsv"))
        synth_ckpt = train_synthesizer(synth_pairs, config.synthesizer)
        synth_ckpt.save(artifact("synthesizer.ckpt"))
        fit = synth_ckpt.training_meta.get("synth_fit")
        if fit is not None:
            log(f"      synthesizer held-out exact match: {fit:.3f}")

        log("[4/7] enrich text-only bitext with synthetic tags")
        mm_train = [(tagged.rendered, target) for tagged, target in tagged_train]
        if bitext is not None:
            enriched = enrich_corpus(bitext, synth_ckpt, k=config.top_k, vocabulary=vocabulary)
            write_enriched_corpus(enriched, artifact("enriched.tsv"))
            mm_train += [(tagged.rendered, target) for tagged, target in enriched.pairs]
        else:
            log("      no bitext configured; multimodal training uses natural data only")

        log("[5/7] multimodal translator (natural + synthetic tags)")
        mm_valid = [(tagged.rendered, target) for tagged, target in tagged_valid]
        mm_ckpt = train(config.translator, mm_train, mm_valid)
        mm_ckpt.save(artifact("translator_multimodal.ckpt"))
    text_ckpt = Checkpoint.load(text_path)

    log("[6/7] translate the test split with both systems")
    decode_kwargs = dict(
        decode=config.decode_method,
        beam_width=config.beam_width,
        max_len=config.decode_max_len,
    )
    text_hyp = translate_corpus(text_ckpt, [r.source_text for r in test_corpus.records], **decode_kwargs)
    mm_hyp = translate_corpus(mm_ckpt, [tagged.rendered for tagged, _ in tagged_test], **decode_kwargs)
    write_lines(text_hyp, artifact("hypotheses_text.txt"))
    write_lines(mm_hyp, artifact("hypotheses_multimodal.txt"))

    references = [r.target_text for r in test_corpus.records]
    text_bleu = bleu_from_texts(text_hyp, references)
    mm_bleu = bleu_from_texts(mm_hyp, references)

    log("[7/7] report")
    report = report_delta(
        {config.task_label: text_bleu.score},
        {config.task_label: mm_bleu.score},
        corpus_name=config.corpus_name,
        split=test_corpus.split_label,
    )
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
