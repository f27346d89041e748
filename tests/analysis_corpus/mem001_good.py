"""Known-good MEM001 fixture: recursion without closure cycles."""

from typing import Dict, List


def _walk(tree: Dict[str, List[str]], node: str) -> int:
    return 1 + max((_walk(tree, child) for child in tree[node]), default=0)


def depth(tree: Dict[str, List[str]], root: str) -> int:
    return _walk(tree, root)                # module-level recursion


def leaves(tree: Dict[str, List[str]], root: str) -> List[str]:
    found: List[str] = []
    stack = [root]                          # explicit stack
    while stack:
        node = stack.pop()
        children = tree[node]
        if not children:
            found.append(node)
        stack += reversed(children)
    return found


def scaled(values: List[int], factor: int) -> List[int]:
    def scale(value: int) -> int:           # a closure that does not recurse
        return value * factor

    def both(value: int) -> int:            # calls a sibling, no way back
        return scale(scale(value))

    return [both(value) for value in values]


class Tree:
    def size(self, tree: Dict[str, List[str]], node: str) -> int:
        return 1 + sum(self.size(tree, child) for child in tree[node])
