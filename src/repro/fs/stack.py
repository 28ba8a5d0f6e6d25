"""Stack introspection helpers.

Used by the figure reproductions to print/verify the shape of a
configuration (Figure 3/9/10 style diagrams) and by tests to assert on
layer placement.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fs.fs_interfaces import StackableFs


def stack_layers(top: StackableFs) -> List[StackableFs]:
    """All layers reachable from ``top``, depth-first, top first."""
    layers: List[StackableFs] = []
    stack = [top]
    while stack:
        layer = stack.pop(0)
        if layer in layers:
            continue
        layers.append(layer)
        stack.extend(layer.under_layers())
    return layers


def stack_depth(top: StackableFs) -> int:
    """Length of the longest chain from ``top`` to a base layer."""
    unders = top.under_layers()
    if not unders:
        return 1
    return 1 + max(stack_depth(under) for under in unders)


def describe_stack(top: StackableFs, indent: int = 0) -> str:
    """Human-readable rendering of a stack, with domain placement —
    what Figure 3/9/10 draw as boxes."""
    domain = top.domain
    line = (
        " " * indent
        + f"{top.fs_type()} (domain {domain.name!r} on node "
        f"{domain.node.name!r})"
    )
    parts = [line]
    for under in top.under_layers():
        parts.append(describe_stack(under, indent + 2))
    return "\n".join(parts)


def domains_of(top: StackableFs) -> List[str]:
    """Distinct domains the stack's layers run in, top-down."""
    seen: List[str] = []
    for layer in stack_layers(top):
        name = f"{layer.domain.node.name}/{layer.domain.name}"
        if name not in seen:
            seen.append(name)
    return seen


def layer_op_breakdown(
    top: StackableFs,
) -> List[Tuple[str, int, Dict[str, Tuple[int, int]]]]:
    """Per-layer channel-op telemetry, top layer first.

    Every op dispatched through the spine is recorded exactly once under
    its layer's ``<layer>.<op>`` counter (plus ``<layer>.<op>.bytes`` for
    data-carrying ops), so this is a complete census of the channel
    traffic each layer saw.  Returns ``(fs_type, depth, ops)`` rows where
    ``ops`` maps op name to ``(count, bytes)``; ops never dispatched are
    omitted.
    """
    from repro.fs.base import BaseLayer

    rows: List[Tuple[str, int, Dict[str, Tuple[int, int]]]] = []
    for layer in stack_layers(top):
        if not isinstance(layer, BaseLayer):
            continue
        counters = layer.world.counters
        runtime = layer.runtime
        ops: Dict[str, Tuple[int, int]] = {}
        for op, key in runtime.count_keys.items():
            count = counters.get(key)
            if count:
                ops[op] = (count, counters.get(runtime.byte_keys[op]))
        rows.append((layer.fs_type(), runtime.depth, ops))
    return rows


def render_layer_breakdown(top: StackableFs) -> str:
    """The per-layer op/byte breakdown as a printable table — one block
    per layer, one line per channel op it dispatched."""
    lines: List[str] = []
    for fs_type, depth, ops in layer_op_breakdown(top):
        lines.append(f"{fs_type} (depth {depth})")
        if not ops:
            lines.append("    (no channel traffic)")
        for op in sorted(ops):
            count, nbytes = ops[op]
            line = f"    {fs_type + '.' + op:<34} {count:>8}"
            if nbytes:
                line += f"  {nbytes:>12} bytes"
            lines.append(line)
    return "\n".join(lines)
