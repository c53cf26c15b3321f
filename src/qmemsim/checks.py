"""Field checks of the value objects: one rule per call, and NaN fails every rule."""
import math

import numpy as np

_RULES = {  # elementwise on a number or an array; every comparison with NaN is False
    "finite": lambda x: abs(x) < math.inf,
    "positive": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    "at least 1": lambda x: x >= 1,
}


def require(obj, rule: str, *names: str) -> None:
    """Raise ValueError("Class.field must be <rule>") at the first named field
    of obj that fails rule in any element (a batch of cells is an array); a
    None field is skipped.  A Python or numpy float skips the array calls."""
    test = _RULES[rule]
    for name in names:
        v = getattr(obj, name)
        if v is not None and not (test(v) if isinstance(v, (int, float))
                                  else test(np.asarray(v, dtype=float)).all()):
            raise ValueError(f"{type(obj).__name__}.{name} must be {rule}")
