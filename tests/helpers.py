"""Shared test helpers."""

import csv


def read_trace_csv(path: str) -> list[dict]:
    """Read a trace table back into a list of dicts with parsed floats."""
    rows: list[dict] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            parsed: dict = {"n": int(row["n"])}
            for key, val in row.items():
                if key == "n":
                    continue
                parsed[key] = float(val) if val != "" else None
            rows.append(parsed)
    return rows
