"""Count the bytes that decoded episode records or examples hold, by type.

Decodes one or more records JSONL files (or, with `--examples`, examples
files; plain or .gz) through `reflect_lab.corpus`, in order, each while the
items of the files before it are alive, and walks everything the decoded
objects hold: the items of tuples, lists, sets and dicts, instance dicts
and filled slots.  Each object counts once, at `sys.getsizeof`, even when
items of two files hold it, so the same file given twice shows what a
second decoding shares with the first (for Sudoku, every board).  Shared
objects are skipped, since no record owns them: None, bools, the small ints
the interpreter caches, enum members and types.  Prints the objects and
bytes of each type, largest first, then the total and the bytes per
decoded item.  Reading an instance's `__dict__` builds it where the
interpreter keeps a plain instance's attributes inline (3.11 and later), so
for a class without slots the count is an upper bound.

    python3 tools/retained_bytes.py records.jsonl
    python3 tools/retained_bytes.py records.jsonl records.jsonl
    python3 tools/retained_bytes.py --examples corpus.jsonl
"""

import argparse
import enum
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from reflect_lab.corpus import read_examples, read_records  # noqa: E402


def _shared(obj: object) -> bool:
    if obj is None or type(obj) is bool or isinstance(obj, (enum.Enum, type)):
        return True
    return type(obj) is int and -5 <= obj <= 256


def _held(obj: object) -> list:
    """The objects obj refers to: container items, its instance dict and
    its filled slots (read through the slot, so nothing fills one)."""
    if isinstance(obj, (tuple, list, set, frozenset)):
        return list(obj)
    if isinstance(obj, dict):
        return [*obj.keys(), *obj.values()]
    held = []
    instance_dict = getattr(obj, "__dict__", None)
    if isinstance(instance_dict, dict):
        held.append(instance_dict)
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name in ("__dict__", "__weakref__"):
                continue
            try:
                held.append(cls.__dict__[name].__get__(obj, cls))
            except AttributeError:
                pass
    return held


def retained(roots: list) -> tuple[Counter, Counter]:
    """(objects, bytes) per type name over everything the roots hold."""
    seen: set[int] = set()
    count: Counter = Counter()
    size: Counter = Counter()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if _shared(obj) or id(obj) in seen:
            continue
        seen.add(id(obj))
        name = type(obj).__name__
        count[name] += 1
        size[name] += sys.getsizeof(obj)
        stack.extend(_held(obj))
    return count, size


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="JSONL files, plain or .gz")
    parser.add_argument("--examples", action="store_true", help="the files hold examples")
    args = parser.parse_args()
    read = read_examples if args.examples else read_records
    items = [item for path in args.paths for item in read(path)]
    count, size = retained(items)
    print(f"{'type':<16} {'objects':>9} {'bytes':>11}")
    for name, total in size.most_common():
        print(f"{name:<16} {count[name]:>9} {total:>11}")
    total = sum(size.values())
    print(f"{'total':<16} {sum(count.values()):>9} {total:>11}")
    kind = "examples" if args.examples else "records"
    print(f"{kind}: {len(items)}, bytes per item: {total / max(1, len(items)):.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
