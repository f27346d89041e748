"""Known-bad MEM001 fixture: nested functions on a closure cycle."""

from typing import Dict, List


def depth(tree: Dict[str, List[str]], root: str) -> int:
    def walk(node: str) -> int:             # line 7: MEM001 (self)
        return 1 + max((walk(child) for child in tree[node]), default=0)

    return walk(root)


def parity(n: int) -> bool:
    def even(k: int) -> bool:               # line 14: MEM001 (mutual)
        return k == 0 or odd(k - 1)

    def odd(k: int) -> bool:                # line 17: MEM001 (mutual)
        return k != 0 and even(k - 1)

    return even(n)


class Walker:
    def leaves(self, tree: Dict[str, List[str]], root: str) -> List[str]:
        found: List[str] = []

        def visit(node: str) -> None:       # line 27: MEM001 (in a method)
            children = tree[node]
            if not children:
                found.append(node)
            for child in children:
                helper = visit              # a reference is enough
                helper(child)

        visit(root)
        return found
