"""Bundled golden tables and verification against search output.

The two CSV fixtures list every certified d = 2 surgery datum (p, q, h, g)
up to slope 711 and in 712..2007, with q and h in canonical form
(q = min of the inverse pair, h = minimal class representative).
"""

from importlib import resources

__all__ = ["load_fixture", "fixture_text", "verify_rows", "TABLE_FILES"]

TABLE_FILES = {"table1": "table1.csv", "table2": "table2.csv"}


def fixture_text(name: str) -> str:
    fname = TABLE_FILES.get(name, name)
    return resources.files("lenssurg.data").joinpath(fname).read_text()


def load_fixture(name: str) -> list:
    """Rows (p, q, h, g) from a bundled fixture or a CSV path."""
    try:
        text = fixture_text(name)
    except (FileNotFoundError, ModuleNotFoundError):
        with open(name) as fh:
            text = fh.read()
    return parse_rows(text)


def parse_rows(text: str) -> list:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines and lines[0] == "p,q,h,g":
        lines = lines[1:]
    return [tuple(int(x) for x in ln.split(",")) for ln in lines]


def verify_rows(search_rows, fixture_rows) -> list:
    """Diff two row lists; returns human-readable mismatch lines (empty = ok)."""
    missing = sorted(set(fixture_rows) - set(search_rows))
    extra = sorted(set(search_rows) - set(fixture_rows))
    out = [f"missing from search: {r}" for r in missing]
    out += [f"not in fixture: {r}" for r in extra]
    if not out and list(search_rows) != list(fixture_rows):
        out.append("row order differs")
    return out
