"""Loading and validating the benchmark definition in ``BENCHMARK.json``."""

from __future__ import annotations

import json
import re
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
MAX_BOUND = 0.25
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


class SpecError(ValueError):
    pass


def validate(spec: dict) -> dict:
    """Check the shape, names, units and limits of a benchmark definition."""
    if set(spec) != TOP_KEYS:
        raise SpecError(f"keys must be exactly {sorted(TOP_KEYS)}, got {sorted(spec)}")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        raise SpecError(f"run_seconds must be a whole number in 1..60, got {seconds!r}")
    if not 2 <= len(spec["workloads"]) <= 8:
        raise SpecError("need 2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= MAX_END_TO_END:
        raise SpecError(f"need 1 to {MAX_END_TO_END} end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= MAX_PER_LAYER:
        raise SpecError(f"need 1 to {MAX_PER_LAYER} per-layer metrics")
    names: set[str] = set()
    groups = (("workloads", {"name", "why"}), ("end_to_end", {"name", "unit", "better", "bound"}),
              ("per_layer", {"name", "unit", "better"}))
    for group, keys in groups:
        for entry in spec[group]:
            if set(entry) != keys:
                raise SpecError(f"{group} entry {entry!r} must have keys {sorted(keys)}")
            name = entry["name"]
            if not NAME_RE.fullmatch(name):
                raise SpecError(f"bad name {name!r}")
            if name in names:
                raise SpecError(f"name {name!r} used twice")
            names.add(name)
            if group == "workloads":
                why = entry["why"]
                if not why or len(why) > 200 or "\n" in why:
                    raise SpecError(f"workload {name!r} needs a one-line why of <= 200 chars")
                continue
            if not UNIT_RE.fullmatch(entry["unit"]):
                raise SpecError(f"bad unit {entry['unit']!r} for {name!r}")
            if entry["better"] not in ("higher", "lower"):
                raise SpecError(f"better must be higher or lower for {name!r}")
            if group == "end_to_end" and not 0 < entry["bound"] <= MAX_BOUND:
                raise SpecError(f"bound for {name!r} must be in (0, {MAX_BOUND}]")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end needs setup_s in s, lower is better")
    return spec


def load(path: Path) -> dict:
    with open(path) as fh:
        return validate(json.load(fh))


def result_line(spec: dict, trace: bool, correct: bool, attempted: int, failed: int,
                values: dict[str, float]) -> str:
    """The final JSON line, carrying exactly the metrics the definition lists."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    wanted = {entry["name"] for entry in group}
    if set(values) != wanted:
        raise SpecError(
            f"measured metrics differ from the definition: missing "
            f"{sorted(wanted - set(values))}, extra {sorted(set(values) - wanted)}"
        )
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in group
    }
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )
