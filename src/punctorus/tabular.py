"""CSV text of a header and rows: the one writer behind every CSV output."""
from __future__ import annotations

import csv
import io


def csv_text(header, rows, precision: int = 17) -> str:
    """A header line, then one line per row.

    Floats are written to ``precision`` significant digits (the default
    17 round-trips every double); every other value as its ``str``.
    """
    fmt = f".{precision}g"
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows([format(v, fmt) if isinstance(v, float) else v for v in row]
                for row in rows)
    return buf.getvalue()
