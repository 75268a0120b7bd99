"""CSV text of a header and rows, and the one float formatter behind
every CSV and JSON output."""
from __future__ import annotations

import csv
import io


def float_text(value: float, precision: int = 17) -> str:
    """value to ``precision`` significant digits; 17 round-trips every double."""
    return format(value, f".{precision}g")


def csv_text(header, rows, precision: int = 17) -> str:
    """A header line, then one line per row: floats by :func:`float_text`,
    every other value as its ``str``."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([float_text(v, precision) if isinstance(v, float) else v for v in row]
                for row in rows)
    return buf.getvalue()
