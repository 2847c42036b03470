"""Model persistence: save and load fitted prediction trees.

A prefetching server rebuilds its model nightly but must survive restarts
in between; this module serialises any :class:`~repro.core.base.PPMModel`
forest to a compact JSON document and restores it losslessly — node
structure, counts, usage flags and PB-PPM special links included.

The format is deliberately model-agnostic: the forest is stored together
with the model's class name and constructor-relevant attributes, and
:func:`load_model` reconstructs the right class.  Popularity tables are
embedded for PB-PPM so a loaded model predicts identically to the fitted
one.
"""

from __future__ import annotations

import json
from typing import Any, IO

from repro.core.base import PPMModel
from repro.core.extras import FirstOrderMarkov, TopNPush
from repro.core.lrs import LRSPPM
from repro.core.node import TrieNode
from repro.core.pb import PopularityBasedPPM
from repro.core.popularity import PopularityTable
from repro.core.standard import StandardPPM
from repro.errors import ModelError
from repro.kernel.compact import CompactTrie
from repro.kernel.symbols import SymbolTable
from repro.validation import require_version

#: Format version written into every document.
FORMAT_VERSION = 1


def _node_to_dict(node: TrieNode, link_paths: dict[int, list[str]]) -> dict:
    """Serialise one subtree; special links are recorded as paths."""
    payload: dict[str, Any] = {"u": node.url, "c": node.count}
    if node.used:
        payload["used"] = True
    if node.children:
        payload["ch"] = [
            _node_to_dict(node.children[url], link_paths)
            for url in sorted(node.children)
        ]
    return payload


def _collect_link_paths(roots: dict[str, TrieNode]) -> dict[str, list[list[str]]]:
    """Special links per root, each encoded as the linked node's path."""
    paths: dict[str, list[list[str]]] = {}

    def find_path(root: TrieNode, target: TrieNode) -> list[str] | None:
        stack: list[tuple[TrieNode, list[str]]] = [(root, [root.url])]
        while stack:
            node, path = stack.pop()
            if node is target:
                return path
            for child in node.children.values():
                stack.append((child, path + [child.url]))
        return None

    for url in sorted(roots):
        root = roots[url]
        if root.special_links:
            encoded = []
            for linked in root.special_links:
                path = find_path(root, linked)
                if path is not None:
                    encoded.append(path)
            if encoded:
                paths[url] = encoded
    return paths


def _node_from_dict(payload: dict) -> TrieNode:
    node = TrieNode(payload["u"], payload.get("c", 0))
    node.used = bool(payload.get("used", False))
    for child_payload in payload.get("ch", ()):
        child = _node_from_dict(child_payload)
        node.children[child.url] = child
    return node


def _model_metadata(model: PPMModel) -> dict[str, Any]:
    """Constructor-relevant attributes per model class."""
    if isinstance(model, StandardPPM):
        return {"max_height": model.max_height}
    if isinstance(model, LRSPPM):
        return {"min_repeats": model.min_repeats, "max_length": model.max_length}
    if isinstance(model, PopularityBasedPPM):
        return {
            "grade_heights": list(model.grade_heights),
            "absolute_max_height": model.absolute_max_height,
            "prune_relative_probability": model.prune_relative_probability,
            "prune_absolute_count": model.prune_absolute_count,
            "special_link_threshold": model.special_link_threshold,
            "popularity_counts": {
                url: model.popularity.count(url)
                for url in model.popularity.ranked_urls()
            },
        }
    if isinstance(model, TopNPush):
        return {"n": model.n, "push_set": list(model._push_set)}
    return {}


def dump_model(model: PPMModel) -> dict[str, Any]:
    """Serialise a fitted model to a JSON-compatible dict.

    The store is exported node for node through
    :meth:`~repro.core.base.PPMModel.to_node_forest`: children sorted by
    URL, special links in creation order.
    """
    if not model.is_fitted:
        raise ModelError("cannot serialise an unfitted model")
    forest = model.to_node_forest()
    return {
        "format": FORMAT_VERSION,
        "class": type(model).__name__,
        "meta": _model_metadata(model),
        "roots": [_node_to_dict(forest[url], {}) for url in sorted(forest)],
        "special_links": _collect_link_paths(forest),
    }


def dumps_model(model: PPMModel) -> str:
    """Serialise a fitted model to a JSON string."""
    return json.dumps(dump_model(model), separators=(",", ":"))


def save_model(model: PPMModel, handle: IO[str]) -> None:
    """Write a fitted model to an open text handle."""
    json.dump(dump_model(model), handle, separators=(",", ":"))


_CLASSES = {
    cls.__name__: cls
    for cls in (StandardPPM, LRSPPM, PopularityBasedPPM, FirstOrderMarkov, TopNPush)
}


def _construct(class_name: str, meta: dict[str, Any]) -> PPMModel:
    if class_name == "StandardPPM":
        return StandardPPM(max_height=meta.get("max_height"))
    if class_name == "LRSPPM":
        return LRSPPM(
            min_repeats=meta.get("min_repeats", 2),
            max_length=meta.get("max_length"),
        )
    if class_name == "PopularityBasedPPM":
        popularity = PopularityTable(meta.get("popularity_counts", {}))
        return PopularityBasedPPM(
            popularity,
            grade_heights=tuple(meta.get("grade_heights", (1, 3, 5, 7))),
            absolute_max_height=meta.get("absolute_max_height", 9),
            prune_relative_probability=meta.get("prune_relative_probability"),
            prune_absolute_count=meta.get("prune_absolute_count"),
            special_link_threshold=meta.get("special_link_threshold", 0.05),
        )
    if class_name == "FirstOrderMarkov":
        return FirstOrderMarkov()
    if class_name == "TopNPush":
        model = TopNPush(n=meta.get("n", 10))
        model._push_set = [tuple(entry) for entry in meta.get("push_set", [])]
        return model
    raise ModelError(f"unknown model class in document: {class_name!r}")


def load_model(payload: dict[str, Any]) -> PPMModel:
    """Reconstruct a model from a dict produced by :func:`dump_model`.

    The document's node forest is loaded into the model's compact store
    (:meth:`~repro.kernel.compact.CompactTrie.from_node_forest`), so a
    restored model predicts through a compiled table exactly like a
    freshly fitted one.  Every malformation — wrong top-level type, missing keys, wrong
    ``FORMAT_VERSION``, broken node payloads — surfaces as
    :class:`~repro.errors.ModelError`, so callers restoring persisted
    state (the serving boot path in particular) fail with one clear error
    type instead of a raw ``KeyError``/``TypeError``.
    """
    if not isinstance(payload, dict):
        raise ModelError(
            f"model document must be a JSON object, got {type(payload).__name__}"
        )
    require_version(payload.get("format"), FORMAT_VERSION, "model format")
    if "class" not in payload:
        raise ModelError("model document is missing its 'class' entry")
    try:
        model = _construct(payload["class"], payload.get("meta", {}))
        roots: dict[str, TrieNode] = {}
        for root_payload in payload.get("roots", ()):
            root = _node_from_dict(root_payload)
            roots[root.url] = root
        # Re-wire special links from their recorded paths.
        for root_url, paths in payload.get("special_links", {}).items():
            root = roots.get(root_url)
            if root is None:
                continue
            for path in paths:
                node: TrieNode | None = root
                for url in path[1:]:
                    node = node.child(url) if node is not None else None
                if node is not None:
                    root.special_links.append(node)
        symbols = SymbolTable()
        model._store = CompactTrie.from_node_forest(roots, symbols)
        model._symbols = symbols
    except ModelError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ModelError(f"malformed model document: {exc!r}") from exc
    model._fitted = True
    return model


def loads_model(text: str) -> PPMModel:
    """Reconstruct a model from a JSON string.

    Raises :class:`~repro.errors.ModelError` when ``text`` is not valid
    JSON or not a valid model document.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ModelError(f"model document is not valid JSON: {exc}") from exc
    return load_model(payload)


def read_model(handle: IO[str]) -> PPMModel:
    """Read a model from an open text handle.

    Raises :class:`~repro.errors.ModelError` when the stream is not valid
    JSON or not a valid model document.
    """
    try:
        payload = json.load(handle)
    except ValueError as exc:
        raise ModelError(f"model document is not valid JSON: {exc}") from exc
    return load_model(payload)
