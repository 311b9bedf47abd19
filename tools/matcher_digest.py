"""Print a digest of both case matchers' tags on every block graph of some splits.

For each split p,q,w the script walks connected_block_graphs(p, q, w) in
generation order and hashes, graph by graph, repr() of the to_json() of
every tag match_theorem61 returns and of recognize_family's tag. It prints
one line per split (graph count and SHA-256) and a last line over all the
splits in the order given, so two trees that print the same last line
gave the same tags on every graph.

Usage: python tools/matcher_digest.py [p,q,w ...]
Defaults: the nine splits 1,3,2 2,2,2 3,1,2 2,3,2 1,4,2 1,4,1 2,3,1 3,2,1
4,1,1, 1,896,064 graphs (about three minutes on one core). Stdlib only;
parklab is imported from the src directory beside this script's parent,
through names that older trees have too.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from parklab import match_theorem61, recognize_family  # noqa: E402
from parklab.classify import connected_block_graphs  # noqa: E402

DEFAULT_SPLITS = [
    (1, 3, 2), (2, 2, 2), (3, 1, 2), (2, 3, 2), (1, 4, 2),
    (1, 4, 1), (2, 3, 1), (3, 2, 1), (4, 1, 1),
]


def split_digest(p: int, q: int, w: int, total) -> tuple[int, str]:
    """(graphs, SHA-256) of one split's tags; the hash total is fed them too."""
    count, digest = 0, hashlib.sha256()
    for g in connected_block_graphs(p, q, w):
        count += 1
        tags = [t.to_json() for t in match_theorem61(g)]
        row = repr((tags, recognize_family(g).to_json())).encode()
        digest.update(row)
        total.update(row)
    return count, digest.hexdigest()


def main(argv: list[str]) -> None:
    splits = [tuple(map(int, arg.split(","))) for arg in argv[1:]] or DEFAULT_SPLITS
    graphs, total = 0, hashlib.sha256()
    for p, q, w in splits:
        count, digest = split_digest(p, q, w, total)
        graphs += count
        print(f"{p},{q},{w} {count} {digest}", flush=True)
    print(f"all {graphs} {total.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv)
