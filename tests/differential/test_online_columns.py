"""Differential testing: online maintenance over columns vs objects.

:class:`~repro.core.online.RollingModelManager` keeps a session view
(:class:`~repro.trace.columnar.SessionView`) as columns everywhere: in its
window, in the refit (one :class:`~repro.trace.columnar.SessionPaths` over
every window day) and in the incremental fold.  A day of
:class:`~repro.trace.sessions.Session` objects goes through the same code
after interning.  This suite feeds a manager the same days as views, as
object tuples, as one-shot iterators, and as the server's mixture (view
days and object days alternating, so the refit merges URL tables), and
requires bit-identical state after every day:

* store arrays (``syms``, ``counts``, ``parents``, ``first_child``,
  ``next_sibling``) byte for byte, special links and the symbol table;
* popularity counts in first-seen order;
* refit and incremental counts, and ``window_sessions``.

The schedule holds empty days and rolls a three-day window over, under
every refit cadence.  The serving leg bootstraps a
:class:`~repro.serve.server.PrefetchServer` from a view and from objects,
folds and refreshes both, and requires equal models with no object built
for the bootstrap view.
"""

from __future__ import annotations

import asyncio
import functools

import pytest

from repro.core.lrs import LRSPPM
from repro.core.online import RollingModelManager
from repro.core.pb import PopularityBasedPPM
from repro.core.standard import StandardPPM
from repro.serve.server import PrefetchServer
from repro.synth import generate_trace
from repro.trace.columnar import RequestColumns, SessionLayout

SEEDS = (3, 11)
SCALE = 0.1
TRACE_DAYS = 6
WINDOW_DAYS = 3
#: Trace days fed in order; None is an empty (quiet) day, first too.
SCHEDULE = (None, 0, 1, None, 2, 3, 4, None, None, 5)
WAYS = ("view", "tuple", "iter", "mixed")

FACTORIES = {
    "pb": lambda popularity: PopularityBasedPPM(popularity),
    "pb-unpruned": lambda popularity: PopularityBasedPPM(
        popularity, prune_relative_probability=None
    ),
    "standard": lambda popularity: StandardPPM(),
    "standard3": lambda popularity: StandardPPM.order_3(),
    "lrs": lambda popularity: LRSPPM(),
}

_STORE_ARRAYS = ("syms", "counts", "parents", "first_child", "next_sibling")

@functools.cache
def _trace(seed: int):
    return generate_trace("nasa-like", days=TRACE_DAYS, seed=seed, scale=SCALE)


def _day(trace, day, way: str, position: int):
    view = trace.sessions_for_days(() if day is None else (day,))
    if way == "mixed":
        way = "view" if position % 2 == 0 else "tuple"
    if way == "view":
        return view
    if way == "tuple":
        return tuple(view)
    return iter(tuple(view))


def model_state(model) -> dict:
    """Everything a fitted model's predictions depend on, as plain data."""
    store = model._store
    state = {
        name: bytes(getattr(store, name)) for name in _STORE_ARRAYS
    }
    state["special_links"] = [
        (root, list(links)) for root, links in store.special_links.items()
    ]
    state["symbols"] = model._symbols.urls()
    popularity = getattr(model, "popularity", None)
    if popularity is not None:
        state["grading"] = list(popularity._counts.items())
    return state


def manager_state(manager: RollingModelManager) -> dict:
    state = model_state(manager.model)
    state["popularity"] = list(manager.popularity._counts.items())
    state["refits"] = manager.refit_count
    state["incremental"] = manager.incremental_count
    state["days_retained"] = manager.days_retained
    state["window_sessions"] = manager.window_sessions
    return state


def _replay(seed: int, factory: str, refit_every: int, way: str) -> list[dict]:
    manager = RollingModelManager(
        FACTORIES[factory], window_days=WINDOW_DAYS, refit_every=refit_every
    )
    trace = _trace(seed)
    states = []
    for position, day in enumerate(SCHEDULE):
        manager.advance_day(_day(trace, day, way, position))
        states.append(manager_state(manager))
    return states


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("refit_every", (1, 2, 4))
@pytest.mark.parametrize("factory", sorted(FACTORIES))
def test_every_way_of_feeding_a_day_gives_identical_state(
    seed, refit_every, factory
):
    runs = {way: _replay(seed, factory, refit_every, way) for way in WAYS}
    reference = runs["tuple"]
    assert reference[-1]["refits"] >= 2  # the window rolled over
    if refit_every > 1 and factory != "lrs":
        assert reference[-1]["incremental"] >= 1
    for way, states in runs.items():
        for position, (state, expected) in enumerate(zip(states, reference)):
            for key in expected:
                assert state[key] == expected[key], (
                    f"{way} day {position} ({SCHEDULE[position]}): {key} differs"
                )


def _serve(bootstrap, completed) -> list[dict]:
    """Boot a server, fold ``completed`` in, refresh: the models published."""
    server = PrefetchServer(bootstrap_sessions=bootstrap)
    states = [model_state(server.ref.model)]
    server.updater.add_sessions(list(completed))
    assert server.updater.fold_pending() == len(completed)
    states.append(model_state(server.ref.model))
    version = server.ref.version
    assert asyncio.run(server.updater.refresh()) == version + 1
    states.append(model_state(server.ref.model))
    return states


@pytest.mark.parametrize("seed", SEEDS)
def test_view_bootstrap_builds_no_objects_and_serves_the_same_models(
    seed, monkeypatch
):
    trace = _trace(seed)
    view = trace.sessions_for_days((0, 1))
    completed = tuple(trace.sessions_for_days((2,)))
    expected = _serve(tuple(view), completed)

    def refuse(*_args, **_kwargs):
        raise AssertionError("the bootstrap view was built into objects")

    # Every Session and Request a view hands out is built by these two.
    monkeypatch.setattr(SessionLayout, "build", refuse)
    monkeypatch.setattr(RequestColumns, "build", refuse)
    assert _serve(view, completed) == expected
