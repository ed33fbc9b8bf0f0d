"""Reference oracles the tests check the package against: finite-difference
gradients and an exhaustive action-value solver for tiny worlds. Nothing in
``fewview`` calls them."""

import itertools
from typing import Callable

import numpy as np

from fewview.errors import ShapeError, StateError
from fewview.training import _predict_sets

Array = np.ndarray


def numeric_gradient(loss_fn: Callable[[], float], param: Array, step: float = 1e-5) -> Array:
    """Central finite differences of ``loss_fn`` w.r.t. ``param``, entry by entry.

    ``loss_fn`` must read ``param`` in place; it is restored after probing.
    This is the independent oracle for backward passes and never calls them.
    """
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn()
        flat[i] = orig - step
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: Array, numeric: Array, floor: float = 1e-6) -> float:
    """Worst-case elementwise relative error between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ShapeError("gradient arrays must share a shape")
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


def exact_q_table(world, task_net, T: int, split: str = "train",
                  gamma: float = 0.99) -> dict:
    """Exhaustive optimal action values for tiny worlds.

    Keys are (instance index, frozenset of chosen views, action). A value is
    the terminal task reward of the best completion, discounted by gamma per
    remaining step. Only meant for layouts small enough to enumerate."""
    n = world.split_size(split)
    n_cams = world.n_cameras
    disabled = world.layout.disabled
    table: dict = {}
    for i in range(n):
        inst = world.instance(split, i)
        feats = task_net.features_cache(inst.observations)[0]
        truth = task_net.truth(inst)

        def reward_of(view_set: frozenset) -> float:
            pred = _predict_sets(task_net, feats, np.array([sorted(view_set)]))[0]
            return float(task_net.reward(pred, truth))

        def q_star(chosen: frozenset, action: int) -> float:
            key = (i, chosen, action)
            if key in table:
                return table[key]
            nxt = chosen | {action}
            if len(nxt) == T:
                value = reward_of(nxt)
            else:
                options = [a for a in range(n_cams) if a not in nxt and a not in disabled]
                value = gamma * max(q_star(nxt, a) for a in options)
            table[key] = value
            return value

        for size in range(1, T):
            for combo in itertools.combinations(range(n_cams), size):
                chosen_set = frozenset(combo)
                for a in range(n_cams):
                    if a not in chosen_set and a not in disabled:
                        q_star(chosen_set, a)
    return table


def optimal_actions(table: dict, instance_index: int, chosen) -> set[int]:
    """Actions attaining the optimal value from a chosen-set (tie set)."""
    chosen_set = frozenset(chosen)
    vals = {a: v for (i, s, a), v in table.items()
            if i == instance_index and s == chosen_set}
    if not vals:
        raise StateError("chosen-set missing from the exact table")
    best = max(vals.values())
    return {a for a, v in vals.items() if v == best}
