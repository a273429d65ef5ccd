"""Span tracing applied from outside the program.

`Tracer.active()` wraps every public function, and every public method of
every public class, defined in the traced tagmt modules. A name that another
tagmt module bound with ``from ... import`` (``tagmt.pipeline.train``,
``tagmt.synth.translate_corpus``) is patched to the same wrapper, so calls
through it are seen too. Leaving the context restores every original, so an
untraced call runs the program exactly as shipped.

A span is ``[name, start, end, parent, attrs]``: ``start``/``end`` come from
``time.perf_counter``, ``parent`` is the index of the span that was open when
the call began (``None`` for a root), and ``attrs`` holds per-call work counts
for the few functions listed in ``ATTRS``. Span names are the layer (the
module path below ``tagmt``) plus the qualified name, e.g.
``mt.model.Transformer.forward_backward``. The benchmark is single-threaded,
so one stack of open spans gives every parent.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

# The layers: tagmt modules whose public calls become spans.
LAYERS = (
    "pipeline",
    "mt.train",
    "mt.model",
    "mt.kernels",
    "mt.decode",
    "synth",
    "tagging",
    "corpus",
    "evaluation",
)


def _decode_logits_attrs(args, kwargs):
    # Transformer.decode_logits(self, tgt_in, memory, src_bias): the decoder
    # recomputes every prefix position of every row on each call.
    tgt_in = args[1] if len(args) > 1 else kwargs["tgt_in"]
    return {"rows": int(tgt_in.shape[0]), "cols": int(tgt_in.shape[1])}


ATTRS = {"mt.model.Transformer.decode_logits": _decode_logits_attrs}


class Tracer:
    """Records spans in memory; `dump` writes them out."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one operation."""
        span = self._open(name, None)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name, attrs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _install(self):
        wrapper_of = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tagmt.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper_of[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    self._patch(module, attr, obj, wrapper_of[id(obj)])
                elif inspect.isclass(obj):
                    self._install_methods(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "tagmt" and not name.startswith("tagmt."):
                continue
            # the originals stay alive in self._patches, so their ids are unique
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapper_of:
                    self._patch(module, attr, obj, wrapper_of[id(obj)])

    def _install_methods(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                replacement = self._wrap(name, member)
            elif isinstance(member, (classmethod, staticmethod)):
                replacement = type(member)(self._wrap(name, member.__func__))
            else:
                continue
            self._patch(cls, attr, member, replacement)

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        """Trace every call into the layers made inside this block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def dump(self, path, **header):
        """Write the spans, plus any header fields, as one JSON object."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(dict(header, spans=self.spans), out)
            out.write("\n")
