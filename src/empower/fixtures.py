"""Access to the bundled demo instance.

The textbook instance is the classic two-source system with recycling loops:
twelve nodes, sixteen arcs, two co-products. Its empower at arc (4, 7) is a
known sore spot: the published account of the example reports 303.75 sej by
treating all three cycle-running paths from source 1 as mutually exclusive,
while the split-divergence compatibility rule accepts the two pairs that
part ways at split node 8, giving 315.
"""

from __future__ import annotations

from pathlib import Path

from .graph import EmergyGraph, parse_graph


def textbook_path() -> Path:
    # the package is installed from source, so the data file is a real path
    return Path(__file__).with_name("data") / "textbook.eg"


def load_textbook() -> EmergyGraph:
    return parse_graph(textbook_path().read_text(encoding="utf-8"))


TEXTBOOK_NOTICE = (
    "note: the published account of this instance reports 303.75 sej at arc 4,7; "
    "it treats the three cycle paths from source 1 as mutually exclusive, but the "
    "pairs parting ways at split node 8 are compatible, which adds path "
    "1,2,3,7,8,6,4,7 (value 45/4) and yields 315."
)
