"""Text rendering of experiment results.

:mod:`repro.report.roofline_plot` needs the device model, so it is not
re-exported: the package itself loads no engine code.
"""

from repro.report.bars import bar_chart, horizontal_bar, stacked_bar
from repro.report.tables import format_percent, format_table

__all__ = ["bar_chart", "format_percent", "format_table", "horizontal_bar",
           "stacked_bar"]
