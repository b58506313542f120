"""One-call characterization, roofline plot, and rocprof-style export.

Uses the high-level `repro.core.characterize` API to analyze an operating
point end to end, draws the roofline with the paper's operation groups
placed on it, compares the analytical and event-driven timing backends,
and writes the full kernel profile as CSV/JSON for spreadsheet analysis.

Run:
    python examples/characterize_and_export.py [output_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro import BERT_LARGE, Precision, training_point
from repro.core import characterize
from repro.experiments import fig7
from repro.hw import compare_backends, mi100
from repro.profiler import write_csv, write_json
from repro.report.roofline_plot import roofline_plot


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro-profile-"))
    out_dir.mkdir(parents=True, exist_ok=True)

    result = characterize(BERT_LARGE,
                          training_point(1, 32, Precision.FP32))
    print(result.report())
    print()

    print("roofline — where each operation group lives")
    points = [(r.label, r.intensity) for r in fig7.run()]
    print(roofline_plot(points, mi100()))
    print()

    comparison = compare_backends(result.trace.kernels, mi100())
    print("timing-backend cross-check: analytical "
          f"{comparison.analytical_s * 1e3:.1f} ms vs event-driven "
          f"{comparison.simulated_s * 1e3:.1f} ms "
          f"(ratio {comparison.ratio:.3f})")
    print()

    csv_path = out_dir / "bert_large_ph1_b32.csv"
    json_path = out_dir / "bert_large_ph1_b32.json"
    write_csv(result.profile, str(csv_path))
    write_json(result.profile, str(json_path))
    print(f"kernel profile written to:\n  {csv_path}\n  {json_path}")
    print(f"({len(result.trace)} kernels; load the CSV in pandas or a "
          "spreadsheet to slice it like a rocprof trace)")


if __name__ == "__main__":
    main()
