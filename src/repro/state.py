"""Application state — the variables that drive constrained dynamism.

Section 2.1 of the paper defines a *state* as "the set of variables that
influence the scheduling decision".  For the color tracker the state is the
number of people (target models) currently in front of the kiosk; other
applications may add variables (e.g. number of active cameras for the
surveillance app).

:class:`State` is a small, immutable, hashable mapping so it can key
schedule tables and decomposition tables directly.  :class:`StateSpace`
enumerates the "small number of states" that constrained dynamism requires.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

__all__ = ["State", "StateSpace"]


class State(Mapping[str, Any]):
    """An immutable, hashable set of state variables.

    >>> s = State(n_models=3)
    >>> s.n_models
    3
    >>> s == State(n_models=3)
    True
    >>> {s: "schedule"}[State(n_models=3)]
    'schedule'
    """

    __slots__ = ("_vars", "_hash")

    def __init__(self, **variables: Any) -> None:
        if not variables:
            raise ValueError("a State needs at least one variable")
        object.__setattr__(self, "_vars", dict(sorted(variables.items())))
        object.__setattr__(self, "_hash", hash(tuple(self._vars.items())))

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        return self._vars[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def __getattr__(self, key: str) -> Any:
        if key == "_vars":  # unset slot: a copy or unpickle bypassed __init__
            raise AttributeError(key)
        try:
            return self._vars[key]
        except KeyError:
            raise AttributeError(f"state has no variable {key!r}") from None

    def __setattr__(self, key: str, value: Any) -> None:
        raise AttributeError("State is immutable")

    # -- identity -------------------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, State):
            return self._vars == other._vars
        return NotImplemented

    def replace(self, **changes: Any) -> "State":
        """A copy with some variables changed (new variables allowed)."""
        merged = dict(self._vars)
        merged.update(changes)
        return State(**merged)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._vars.items())
        return f"State({inner})"


class StateSpace:
    """An explicit, finite enumeration of application states.

    Constrained dynamism requires the system to move among a *small* set of
    states; a StateSpace is that set, with helpers to build the common
    single-variable ranges.

    >>> space = StateSpace.range("n_models", 1, 5)
    >>> len(space)
    5
    >>> State(n_models=3) in space
    True
    """

    def __init__(self, states: Iterable[State]) -> None:
        self._states: tuple[State, ...] = tuple(states)
        if not self._states:
            raise ValueError("a StateSpace needs at least one state")
        if len(set(self._states)) != len(self._states):
            raise ValueError("duplicate states in StateSpace")
        self._index = {s: i for i, s in enumerate(self._states)}

    @classmethod
    def range(cls, variable: str, lo: int, hi: int) -> "StateSpace":
        """States where ``variable`` takes each integer value in [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return cls(State(**{variable: v}) for v in range(lo, hi + 1))

    @classmethod
    def product(cls, **ranges: Iterable[Any]) -> "StateSpace":
        """Cartesian product of per-variable value lists."""
        names = sorted(ranges)
        states: list[State] = []

        def rec(i: int, acc: dict[str, Any]) -> None:
            if i == len(names):
                states.append(State(**acc))
                return
            for v in ranges[names[i]]:
                acc[names[i]] = v
                rec(i + 1, acc)
                del acc[names[i]]

        rec(0, {})
        return cls(states)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[State]:
        return iter(self._states)

    def __contains__(self, state: object) -> bool:
        return state in self._index

    def __getitem__(self, i: int) -> State:
        return self._states[i]

    def index(self, state: State) -> int:
        """Position of ``state`` in the enumeration order."""
        return self._index[state]

    def __repr__(self) -> str:
        return f"StateSpace({len(self._states)} states)"
