"""Seeded long words on the quiver of a functional file, as path texts.

    python -S tests/long_words.py FUNCTIONAL LENGTH SEED

prints one word of LENGTH letters: its first vertex, among the vertices
that some letter leaves, and each next letter drawn by
`random.Random(SEED)` among the letters that compose.  Standard
library only, so it runs without site-packages.
"""

import json
import random
import sys


def long_word(quiver: dict, length: int, seed: int) -> str:
    rng = random.Random(seed)
    letters = [(a["name"], a["from"], a["to"]) for a in quiver["arrows"]]
    letters += [(name + "*", dst, src) for name, src, dst in letters]
    at, word = rng.choice([v for v in quiver["vertices"] if any(l[1] == v for l in letters)]), []
    for _ in range(length):
        name, _, at = rng.choice([l for l in letters if l[1] == at])
        word.append(name)
    return " ".join(word)


if __name__ == "__main__":
    path, length, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    with open(path, encoding="utf-8") as fh:
        print(long_word(json.load(fh)["quiver"], length, seed))
