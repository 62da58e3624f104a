"""Which of the program's functions the traced run wraps, and the per-layer
metrics derived from the spans and counts.

Only coarse public functions are wrapped. Per-element helpers
(``cyclotomy.class_index``, ``residue_class``, ``gf2poly.mul``/``mod``,
``BinaryField.mul``) run millions of times and a wrapper would cost more
than they do; their work shows through the ``.bits`` and ``.evals`` counts.
"""

from __future__ import annotations

from statistics import median

from tracer import Target, layer_stats

# Layers in call order: cli -> numtheory -> cyclotomy -> sequence -> gf2poly
# -> lincomp -> theorems (errors holds no work).
FUNCTIONS = [
    ("cli", "main"),
    ("cli", "survey_row"),
    ("numtheory", "enumerate_valid_moduli"),
    ("numtheory", "validate_modulus"),
    ("numtheory", "order_of_two"),
    ("cyclotomy", "generalized_classes"),
    ("sequence", "generate"),
    ("sequence", "parse_bit_line"),
    ("gf2poly", "from_bits"),
    ("gf2poly", "gcd"),
    ("gf2poly", "berlekamp_massey"),
    ("gf2poly", "build_field"),
    ("gf2poly", "BinaryField.subset_eval"),
    ("gf2poly", "BinaryField.alpha_powers"),
    ("lincomp", "spectral_values"),
    ("theorems", "check_lemma1"),
    ("theorems", "check_lemma2"),
    ("theorems", "check_lemma3"),
    ("theorems", "check_lemma4"),
    ("theorems", "check_theorem1"),
    ("theorems", "check_corollary"),
]
NAMES = [f"{module}.{attr}" for module, attr in FUNCTIONS]
# check_lemma2 spends most of its time in its subset_eval children, so its
# share is reported with them included as well.
TOTAL_TIME = ["cli.survey_row", "numtheory.enumerate_valid_moduli", "numtheory.validate_modulus",
              "theorems.check_lemma2", "theorems.check_lemma3"]
COUNTS = ["sequence.generate.bits", "gf2poly.from_bits.bits", "lincomp.spectral_values.evals",
          "gf2poly.build_field.skipped"]


def targets(dhseq_modules) -> list[Target]:
    """``dhseq_modules`` maps a module name (``"gf2poly"``) to the module.

    A function the program no longer has is left out; its metrics read 0.
    """
    from dhseq.errors import DegreeCapExceeded

    work = {
        "sequence.generate": ("bits", lambda args, seq: seq.n),
        "gf2poly.from_bits": ("bits", lambda args, poly: len(args[0])),
        "lincomp.spectral_values": ("evals", lambda args, values: len(values)),
    }
    out = []
    for module, attr in FUNCTIONS:
        name = f"{module}.{attr}"
        owner = dhseq_modules[module]
        *classes, leaf = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if leaf not in getattr(owner, "__dict__", {}):
            continue
        unit, count = work.get(name, (None, None))
        raises = (DegreeCapExceeded,) if name == "gf2poly.build_field" else ()
        out.append(Target(owner, leaf, name, unit, count, raises))
    return out


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    }
    for name in NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
    for name in TOTAL_TIME:
        units[f"{name}.total_pct"] = "%"
    for name in COUNTS:
        units[name] = "count"
    units["gf2poly.build_field.useful_frac"] = "ratio"
    units["survey.generate_per_row"] = "ratio"
    return units


def per_layer_metrics(traced_passes, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced passes of one run.

    ``traced_passes`` holds (wall_s, spans, counts) per traced pass. Counts and
    calls repeat exactly from pass to pass, so they come from the first pass;
    shares of time are medians over passes. Shares are of the traced pass
    wall time, so layers that never run read 0 rather than an empty value.
    """
    wall_s = median(w for w, _, _ in traced_passes)
    stats = [layer_stats(spans) for _, spans, _ in traced_passes]
    first = stats[0]
    counts = traced_passes[0][2]
    m = {
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.spans": len(traced_passes[0][1]),
    }

    def share(name, key):
        return median(100.0 * s.get(name, {}).get(key, 0.0) / w
                      for s, (w, _, _) in zip(stats, traced_passes))

    for name in NAMES:
        m[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
        m[f"{name}.self_pct"] = share(name, "self_s")
    for name in TOTAL_TIME:
        m[f"{name}.total_pct"] = share(name, "total_s")
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    calls = m["gf2poly.build_field.calls"]
    m["gf2poly.build_field.useful_frac"] = (
        (calls - m["gf2poly.build_field.skipped"]) / calls if calls else 0.0
    )
    rows = m["cli.survey_row.calls"]
    m["survey.generate_per_row"] = m["sequence.generate.calls"] / rows if rows else 0.0
    return m


def self_time_table(traced_passes) -> str:
    """Human-readable self times of the last traced pass, largest first."""
    wall_s, spans, _ = traced_passes[-1]
    stats = layer_stats(spans)
    lines = [f"{'function':40} {'calls':>8} {'self_s':>9} {'total_s':>9} {'self%':>6}"]
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:40} {s['calls']:8d} {s['self_s']:9.3f} {s['total_s']:9.3f} "
                     f"{100 * s['self_s'] / wall_s:6.1f}")
    return "\n".join(lines)
