"""Per-layer tracing of the spadmark modules, done entirely from outside them.

While an op is recorded, every public function named in ``LAYERS`` is
rebound, in each spadmark module that holds a reference to it (the defining
module included, so calls inside a module are seen too), to a wrapper that
records a span: name, start, end, parent span and op id. Spans stay in
memory and are written out once, at the end of the run. Nothing under
``src/`` is edited; the original functions are restored after each op, so
the untimed checks and the untraced ops run the program exactly as shipped.

Self time of a span is its duration minus the time its child spans cover.
The program is single-threaded with no queues, so a span never waits on
another and there is no wait time to record.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import zlib
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = {
    "imager": ("new_chip", "acquire_dcm"),
    "puf": ("rdcm", "fingerprint", "enroll", "puf_query", "save_enrollment",
            "load_enrollment", "load_enrollment_db"),
    "features": ("downsample", "feature_images", "challenge_matrix"),
    "codec": ("read_pgm", "write_pgm", "embed_lsb", "extract_lsb", "assemble",
              "disassemble", "save_watermark"),
    "verifier": ("image_challenge", "generate_watermark", "identify_source",
                 "verify", "psnr", "add_gaussian_noise", "tolerant_flip_frac",
                 "robustness_sweep", "tamper_bitmap"),
    "cli": ("main",),
}

# Time the wrappers spend computing counters. Recorded as a child span so it
# is not charged to the caller's self time, and reported nowhere else.
BOOKKEEPING = "trace.bookkeeping"

# Counter name -> (unit, better). Two are computed from the arguments rather
# than from the work done: features.downsample.pixels (input shapes) and
# verifier.fingerprints_compared (same-shape records in identify_source's
# ``db`` argument, which is what a linear scan compares; an index that
# compares fewer would still report the full count), and so also
# verifier.identify_source.us_per_record. puf.records_parsed counts the
# records load_enrollment_db returns plus load_enrollment calls made outside
# it, so a batch parse inside load_enrollment_db still counts.
COUNTERS = {
    "puf.records_parsed": ("count", "lower"),
    "puf.records_used_frac": ("fraction", "higher"),
    "verifier.fingerprints_compared": ("count", "lower"),
    "verifier.identify_source.us_per_record": ("us", "lower"),
    "features.downsample.pixels": ("count", "lower"),
    "features.downsample.unique_input_frac": ("fraction", "higher"),
    "codec.bytes_read": ("bytes", "lower"),
    "codec.bytes_written": ("bytes", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
}


def per_layer_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    specs = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            specs.append({"name": f"{layer}.{fn}.self_ms", "unit": "ms", "better": "lower"})
            specs.append({"name": f"{layer}.{fn}.calls", "unit": "count", "better": "lower"})
    for layer in LAYERS:
        specs.append({"name": f"{layer}.self_ms", "unit": "ms", "better": "lower"})
    for name, (unit, better) in COUNTERS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and counters for the ops run inside ``recording``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: Counter = Counter()
        self.ops = 0
        self._stack: list[tuple[int, str]] = []  # open spans: (index, name)
        self._op_id = -1
        self._op_inputs: set = set()
        self._op_records: dict[int, object] = {}
        self._sites = self._patch_sites()

    def _patch_sites(self) -> list[tuple[object, str, object, object]]:
        owners = {layer: importlib.import_module(f"spadmark.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spadmark" or n.startswith("spadmark.")]
        sites = []
        for layer, fns in LAYERS.items():
            owner = owners[layer]
            for fn in fns:
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            sites.append((module, attr, original, wrapper))
        return sites

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op_id)
            self._count(name, args, kwargs, result, parent)
            return result
        return traced

    def _count(self, name: str, args: tuple, kwargs: dict, result, parent: int) -> None:
        start = perf_counter()
        c = self.counters
        if name == "features.downsample":
            img = np.ascontiguousarray(_arg(args, kwargs, 0, "img"))
            c["features.downsample.pixels"] += img.size
            self._op_inputs.add((img.shape, img.dtype.str, zlib.crc32(img.data.cast("B"))))
        elif name == "codec.read_pgm":
            c["codec.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        elif name in ("codec.write_pgm", "codec.save_watermark"):
            c["codec.bytes_written"] += os.path.getsize(result)
        elif name == "puf.load_enrollment_db":
            c["puf.records_parsed"] += len(result)
        elif name == "puf.load_enrollment":
            if all(open_name != "puf.load_enrollment_db" for _, open_name in self._stack):
                c["puf.records_parsed"] += 1
        elif name == "puf.puf_query":
            record = _arg(args, kwargs, 0, "record")
            self._op_records[id(record)] = record
        elif name == "verifier.identify_source":
            fp = _arg(args, kwargs, 0, "fp")
            db = _arg(args, kwargs, 1, "db")
            c["verifier.fingerprints_compared"] += sum(
                1 for rec in db if rec.fingerprint.bits.shape == fp.bits.shape)
        else:
            return
        self.spans.append((BOOKKEEPING, start, perf_counter(), parent, self._op_id))

    @contextmanager
    def recording(self, op_id: int):
        """Rebind the traced functions for the duration of one op."""
        self._op_id = op_id
        for module, attr, _original, wrapper in self._sites:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _wrapper in self._sites:
                setattr(module, attr, original)
            self.ops += 1
            self.counters["downsample_unique_inputs"] += len(self._op_inputs)
            self.counters["records_used"] += len(self._op_records)
            self._op_inputs.clear()
            self._op_records.clear()
            self._stack.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self seconds and call count per traced function."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span is None or span[0] == BOOKKEEPING:
                continue
            self_s[span[0]] = self_s.get(span[0], 0.0) + (span[2] - span[1]) - covered[i]
            calls[span[0]] += 1
        return self_s, calls

    def metrics(self, overhead_frac: float) -> dict[str, dict]:
        """Per-layer metrics, normalised per recorded op."""
        ops = max(self.ops, 1)
        self_s, calls = self.self_times()
        c = self.counters
        values: dict[str, float] = {}
        for layer, fns in LAYERS.items():
            layer_s = 0.0
            for fn in fns:
                name = f"{layer}.{fn}"
                layer_s += self_s.get(name, 0.0)
                values[f"{name}.self_ms"] = self_s.get(name, 0.0) * 1e3 / ops
                values[f"{name}.calls"] = calls[name] / ops
            values[f"{layer}.self_ms"] = layer_s * 1e3 / ops
        compared = c["verifier.fingerprints_compared"]
        ds_calls = calls["features.downsample"]
        values.update({
            "puf.records_parsed": c["puf.records_parsed"] / ops,
            # 0 when the workload parses no records at all
            "puf.records_used_frac": (c["records_used"] / c["puf.records_parsed"]
                                      if c["puf.records_parsed"] else 0.0),
            "verifier.fingerprints_compared": compared / ops,
            "verifier.identify_source.us_per_record":
                (self_s.get("verifier.identify_source", 0.0) * 1e6 / compared
                 if compared else 0.0),
            "features.downsample.pixels": c["features.downsample.pixels"] / ops,
            "features.downsample.unique_input_frac":
                c["downsample_unique_inputs"] / ds_calls if ds_calls else 0.0,
            "codec.bytes_read": c["codec.bytes_read"] / ops,
            "codec.bytes_written": c["codec.bytes_written"] / ops,
            "trace_overhead_frac": overhead_frac,
        })
        units = {spec["name"]: spec["unit"] for spec in per_layer_specs()}
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op = span
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
