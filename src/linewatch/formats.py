"""The text ``json`` and the ``csv`` module write for plain values, made
directly.

A run's per-poll outputs (``report.json``'s ``indicator_trace``,
``telemetry.csv`` and ``rtm_trace.csv``) are thousands of numbers and a
few distinct strings.  json's indented encoder is pure Python and
``csv.writer`` converts cell by cell, so their writers format the columns
that hold them here instead, to the same bytes: a float is its
``float.__repr__``, the text both modules write for it (json spells NaN and
the infinities its own way), and each distinct string is quoted once, by
``json.dumps`` or by the ``csv`` module itself.
"""

import csv
import io

# json's spelling of the floats whose repr it does not write
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def pieces(n, size):
    """(start, stop) of each run of at most ``size`` of ``n`` items."""
    return ((start, min(start + size, n)) for start in range(0, n, size))


def json_floats(values):
    """``json.dumps``'s text of each float in ``values``."""
    get = _JSON_NONFINITE.get
    return [get(text, text) for text in map(float.__repr__, values)]


def masked(texts, none, empty):
    """``texts``, with ``empty`` where the matching flag in ``none`` is set:
    the text of a column of optional floats."""
    return [empty if flag else text for text, flag in zip(texts, none)]


def csv_line(row):
    """``csv.writer``'s line for ``row``."""
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue()


def csv_cell(text):
    """The string ``text`` as ``csv.writer`` writes it in a row of two or
    more cells, quoted where the csv module's rules quote it."""
    return csv_line((text, None))[:-3]   # without the empty cell's ",\r\n"
