"""Profile export: rocProf-style CSV and structured JSON.

The paper's raw material is a profiler kernel table (Sec. 3.1.4).  These
exporters write our simulated equivalent so results can be inspected with
the same spreadsheet/pandas workflows people use on real rocprof output,
or re-loaded programmatically.
"""

from __future__ import annotations

import csv
import io
import json

from repro.profiler.profiler import Profile

#: Bumped when the export layout changes.  Version 2 stamps the JSON
#: payload with this field and writes un-attributed kernels as
#: ``layer=-1`` (the columnar engine's absent code) instead of an empty
#: CSV cell, so ``int(row["layer"])`` is always well-defined.
EXPORT_SCHEMA_VERSION = 2

#: CSV ``layer`` value of kernels outside any encoder layer.
NO_LAYER = -1

#: Column order of the CSV export (a superset of rocprof's essentials).
CSV_COLUMNS = ("index", "kernel_name", "op_class", "phase", "component",
               "region", "layer", "duration_us", "flops", "bytes_read",
               "bytes_written", "arithmetic_intensity",
               "achieved_gbps", "dtype", "gemm_shape")


def _rows(profile: Profile):
    """One export row per kernel, read from the table's columns."""
    table = profile.table
    columns = zip(table.labels("name_code"), table.labels("op_class"),
                  table.labels("phase"), table.labels("component"),
                  table.labels("region"), table.layer.tolist(),
                  profile.times.tolist(), table.flops.tolist(),
                  table.bytes_read.tolist(), table.bytes_written.tolist(),
                  table.labels("dtype"), table.labels("gemm_code"))
    for index, (name, op_class, phase, component, region, layer, time_s,
                flops, read, written, dtype, gemm_shape) in enumerate(columns):
        moved = read + written
        yield {
            "index": index,
            "kernel_name": name,
            "op_class": op_class,
            "phase": phase,
            "component": component,
            "region": region,
            "layer": layer,  # the column's absent code is NO_LAYER
            "duration_us": round(time_s * 1e6, 3),
            "flops": flops,
            "bytes_read": read,
            "bytes_written": written,
            "arithmetic_intensity": round(flops / moved if moved else 0.0,
                                          4),
            "achieved_gbps": round(
                (moved / time_s if time_s else 0.0) / 1e9, 2),
            "dtype": dtype,
            "gemm_shape": "" if gemm_shape is None else gemm_shape,
        }


def to_csv(profile: Profile) -> str:
    """Render the profile as a rocprof-like CSV string."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in _rows(profile):
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(profile: Profile, path: str) -> None:
    """Write the CSV export to ``path``."""
    with open(path, "w", newline="") as handle:
        handle.write(to_csv(profile))


def profile_summary(profile: Profile) -> dict[str, object]:
    """Aggregate JSON-ready stats of one profile: the ``summary`` block
    of :func:`to_json`, reduced over the table's columns."""
    table = profile.table
    return {
        "kernels": len(profile),
        "total_time_s": profile.total_time,
        "gemm_time_s": profile.gemm_time(),
        "flops": int(table.flops.sum()),
        "bytes": int(table.bytes_total.sum()),
    }


def to_json(profile: Profile) -> str:
    """Render the profile as JSON: device header, summary, kernel rows."""
    payload = {
        "schema": EXPORT_SCHEMA_VERSION,
        "device": {
            "name": profile.device.name,
            "mem_bandwidth_gbps": profile.device.mem_bandwidth_gbps,
            "compute_units": profile.device.compute_units,
        },
        "total_time_s": profile.total_time,
        "summary": profile_summary(profile),
        "kernels": list(_rows(profile)),
    }
    return json.dumps(payload, indent=2)


def write_json(profile: Profile, path: str) -> None:
    """Write the JSON export to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_json(profile))
