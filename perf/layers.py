"""Per-layer metrics computed from a span dump (see spans.py).

The benchmark opens one root span per phase: ``bench.setup`` around the
workload's set-up and ``bench.op`` around each traced operation. Metrics are
computed for each operation over its own spans plus the set-up spans, and the
median across operations is reported. Totals (``.s``) and counts are per
operation; ``.ms_p50``/``.ms_p90`` are percentiles over the calls in it.

A span's self time is its duration minus the part of it that its child spans
cover. Every metric is reported on every workload; a layer the workload does
not call reads 0. Metrics whose names do not say it all:

- ``pipeline.<stage>.s``: first start to last end of the calls run_pipeline
  makes for that stage (``STAGE_OF_CALL``).
- ``mt.train.self_ms_per_step``: time in ``train`` outside traced calls
  (gradient clipping, shuffling, bookkeeping) per step; ``make_batch`` is
  public and so a span of its own.
- ``mt.decode.tokens_generated``: next-token distributions the decoders asked
  for, one per row of each ``decode_logits`` call; ``useful_position_ratio``
  divides it by the target positions those calls computed.
- ``synth.train_synthesizer.heldout_decode_s``: the held-out decode
  (``translate_corpus``) inside ``train_synthesizer``.

Run on a dump:  python3 perf/layers.py .perf_out/spans/<workload>-seed<n>.json
"""

import json
import statistics
import sys
from collections import defaultdict

STAGES = ("tags", "train_text", "train_synth", "enrich", "train_mm", "translate", "report")

# Stage of each public call run_pipeline makes; a call not listed here belongs
# to the stage of the call before it (Checkpoint.save after a training).
STAGE_OF_CALL = {
    "pipeline.make_detector": "tags",
    "tagging.load_tag_vocabulary": "tags",
    "corpus.load_vg_corpus": "tags",
    "tagging.tag_corpus": "tags",
    "tagging.write_tagged_corpus": "tags",
    "synth.build_synth_pairs": "train_synth",
    "synth.write_synth_pairs": "train_synth",
    "synth.train_synthesizer": "train_synth",
    "corpus.load_bitext": "enrich",
    "synth.enrich_corpus": "enrich",
    "synth.write_enriched_corpus": "enrich",
    "mt.decode.translate_corpus": "translate",
    "evaluation.bleu_from_texts": "report",
    "evaluation.report_delta": "report",
    "evaluation.write_report": "report",
}

TRAIN = "mt.train.train"
FORWARD_BACKWARD = "mt.model.Transformer.forward_backward"
DECODE_LOGITS = "mt.model.Transformer.decode_logits"

# name -> unit of every metric `layer_metrics` returns
UNITS = {
    **{f"pipeline.{stage}.s": "s" for stage in STAGES},
    "mt.train.steps": "count",
    "mt.train.self_ms_per_step": "ms",
    "mt.train.evaluate_loss.s": "s",
    "mt.train.encode_pairs.s": "s",
    "mt.train.checkpoint_save.s": "s",
    "mt.train.checkpoint_load.s": "s",
    "mt.model.forward_backward.ms_p50": "ms",
    "mt.model.forward_backward.ms_p90": "ms",
    "mt.model.forward_backward.self_ms_p50": "ms",
    "mt.model.loss_on.s": "s",
    "mt.model.encode.s": "s",
    "mt.model.decode_logits.calls": "count",
    "mt.model.decode_logits.ms_p50": "ms",
    "mt.model.decode_logits.ms_first": "ms",
    "mt.model.decode_logits.ms_last": "ms",
    "mt.model.decode_logits.positions": "count",
    "mt.kernels.adam_update.calls_per_step": "count",
    "mt.kernels.adam_update.ms_per_step": "ms",
    "mt.kernels.xent_loss_grad.ms_p50": "ms",
    "mt.kernels.scatter_add_rows.ms_p50": "ms",
    "mt.kernels.xent_loss.s": "s",
    "mt.decode.tokens_generated": "count",
    "mt.decode.useful_position_ratio": "ratio",
    "mt.decode.greedy_decode_batch.self_s": "s",
    "mt.decode.beam_decode.self_s": "s",
    "synth.train_synthesizer.heldout_decode_s": "s",
    "synth.enrich_corpus.s": "s",
    "tagging.tag_corpus.s": "s",
    "corpus.load.s": "s",
    "evaluation.bleu.s": "s",
    "evaluation.write_report.s": "s",
}


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _Spans:
    """Index over one operation's spans."""

    def __init__(self, spans):
        self.spans = spans  # {index: span}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for index, span in spans.items():
            self.by_name[span[0]].append(index)
            if span[3] in spans:
                self.children[span[3]].append(index)

    def dur(self, index):
        span = self.spans[index]
        return span[2] - span[1]

    def self_time(self, index):
        """Duration minus the union of the children's intervals."""
        covered, reach = 0.0, None
        for start, end in sorted(self.spans[c][1:3] for c in self.children[index]):
            if reach is None or start > reach:
                covered += end - start
                reach = end
            elif end > reach:
                covered += end - reach
                reach = end
        return self.dur(index) - covered

    def total(self, *names):
        """Seconds in spans with these names, not counting a span nested in
        another one of them (bleu_from_texts calls corpus_bleu)."""
        wanted = set(names)
        seconds = 0.0
        for name in wanted:
            for index in self.by_name[name]:
                parent = self.spans[index][3]
                while parent in self.spans and self.spans[parent][0] not in wanted:
                    parent = self.spans[parent][3]
                if parent not in self.spans:
                    seconds += self.dur(index)
        return seconds

    def durs_ms(self, name):
        return [1e3 * self.dur(i) for i in self.by_name[name]]

    def stage_seconds(self):
        """Wall time of each run_pipeline stage: first call start to last call end."""
        bounds = {}
        for run in self.by_name["pipeline.run_pipeline"]:
            stage = "tags"
            for child in sorted(self.children[run]):
                name = self.spans[child][0]
                if name == TRAIN:
                    stage = "train_mm" if "train_synth" in bounds else "train_text"
                else:
                    stage = STAGE_OF_CALL.get(name, stage)
                start, end = self.spans[child][1:3]
                low, high = bounds.get(stage, (start, end))
                bounds[stage] = (min(low, start), max(high, end))
        return {stage: high - low for stage, (low, high) in bounds.items()}


def op_metrics(spans):
    """Every per-layer metric for one operation, from its spans."""
    s = _Spans(spans)
    trains = set(s.by_name[TRAIN])
    steps = sum(1 for i in s.by_name[FORWARD_BACKWARD] if s.spans[i][3] in trains)
    per_step = 1.0 / steps if steps else 0.0
    fb_self = [1e3 * s.self_time(i) for i in s.by_name[FORWARD_BACKWARD]]

    logits = s.by_name[DECODE_LOGITS]
    cols = [s.spans[i][4]["cols"] for i in logits]
    rows = [s.spans[i][4]["rows"] for i in logits]
    positions = sum(r * c for r, c in zip(rows, cols))
    # first and last decoding step of the widest batch (greedy, not beam)
    widest = [(i, c) for i, c, r in zip(logits, cols, rows) if r == max(rows)]
    longest = max((c for _, c in widest), default=0)
    first = [1e3 * s.dur(i) for i, c in widest if c == 1]
    last = [1e3 * s.dur(i) for i, c in widest if c == longest]

    stages = s.stage_seconds()
    metrics = {f"pipeline.{stage}.s": stages.get(stage, 0.0) for stage in STAGES}
    metrics.update(
        {
            "mt.train.steps": steps,
            "mt.train.self_ms_per_step": 1e3 * sum(s.self_time(i) for i in trains) * per_step,
            "mt.train.evaluate_loss.s": s.total("mt.train.evaluate_loss"),
            "mt.train.encode_pairs.s": s.total("mt.train.encode_pairs"),
            "mt.train.checkpoint_save.s": s.total("mt.train.Checkpoint.save"),
            "mt.train.checkpoint_load.s": s.total("mt.train.Checkpoint.load"),
            "mt.model.forward_backward.ms_p50": _percentile(s.durs_ms(FORWARD_BACKWARD), 0.5),
            "mt.model.forward_backward.ms_p90": _percentile(s.durs_ms(FORWARD_BACKWARD), 0.9),
            "mt.model.forward_backward.self_ms_p50": _percentile(fb_self, 0.5),
            "mt.model.loss_on.s": s.total("mt.model.Transformer.loss_on"),
            "mt.model.encode.s": s.total("mt.model.Transformer.encode"),
            "mt.model.decode_logits.calls": len(logits),
            "mt.model.decode_logits.ms_p50": _percentile(s.durs_ms(DECODE_LOGITS), 0.5),
            "mt.model.decode_logits.ms_first": statistics.median(first) if first else 0.0,
            "mt.model.decode_logits.ms_last": statistics.median(last) if last else 0.0,
            "mt.model.decode_logits.positions": positions,
            "mt.kernels.adam_update.calls_per_step": len(s.by_name["mt.kernels.adam_update"]) * per_step,
            "mt.kernels.adam_update.ms_per_step": 1e3 * s.total("mt.kernels.adam_update") * per_step,
            "mt.kernels.xent_loss_grad.ms_p50": _percentile(s.durs_ms("mt.kernels.xent_loss_grad"), 0.5),
            "mt.kernels.scatter_add_rows.ms_p50": _percentile(s.durs_ms("mt.kernels.scatter_add_rows"), 0.5),
            "mt.kernels.xent_loss.s": s.total("mt.kernels.xent_loss"),
            # one next-token distribution per row per call is all a decoder
            # with a K/V cache would compute
            "mt.decode.tokens_generated": sum(rows),
            "mt.decode.useful_position_ratio": sum(rows) / positions if positions else 0.0,
            "mt.decode.greedy_decode_batch.self_s": sum(
                s.self_time(i) for i in s.by_name["mt.decode.greedy_decode_batch"]
            ),
            "mt.decode.beam_decode.self_s": sum(s.self_time(i) for i in s.by_name["mt.decode.beam_decode"]),
            "synth.train_synthesizer.heldout_decode_s": sum(
                s.dur(c)
                for i in s.by_name["synth.train_synthesizer"]
                for c in s.children[i]
                if s.spans[c][0] == "mt.decode.translate_corpus"
            ),
            "synth.enrich_corpus.s": s.total("synth.enrich_corpus"),
            "tagging.tag_corpus.s": s.total("tagging.tag_corpus"),
            "corpus.load.s": s.total("corpus.load_vg_corpus", "corpus.load_bitext"),
            "evaluation.bleu.s": s.total("evaluation.bleu_from_texts", "evaluation.corpus_bleu"),
            "evaluation.write_report.s": s.total("evaluation.write_report"),
        }
    )
    return metrics


def layer_metrics(spans):
    """Median over the traced operations of each one's per-layer metrics."""
    root = []
    for span in spans:
        root.append(len(root) if span[3] is None else root[span[3]])
    setup = {i: span for i, span in enumerate(spans) if spans[root[i]][0] == "bench.setup"}
    per_op = []
    for op in (i for i, span in enumerate(spans) if span[3] is None and span[0] == "bench.op"):
        own = {i: span for i, span in enumerate(spans) if root[i] == op}
        per_op.append(op_metrics({**setup, **own}))
    if not per_op:
        raise ValueError("span dump holds no bench.op span")
    return {name: statistics.median(m[name] for m in per_op) for name in UNITS}


def main(path):
    with open(path, encoding="utf-8") as dump:
        spans = json.load(dump)["spans"]
    for name, value in layer_metrics(spans).items():
        print(f"{name:<40} {value:>14.6g} {UNITS[name]}")


if __name__ == "__main__":
    main(sys.argv[1])
