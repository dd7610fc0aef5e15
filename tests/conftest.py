import importlib.util
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

# An installed rainbowk, or one on PYTHONPATH, is the one under test; this
# checkout's `src` is only the fallback, so it never shadows either.
if importlib.util.find_spec("rainbowk") is None:
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from rainbowk.core import Coloring, PartitionSpec  # noqa: E402

settings.register_profile("default", deadline=None)
settings.load_profile("default")

small_specs = st.lists(st.integers(1, 3), min_size=2, max_size=4).map(
    lambda sizes: PartitionSpec(tuple(sizes))
)


@st.composite
def small_colorings(draw, max_colors: int = 4):
    spec = draw(small_specs)
    num_colors = draw(st.integers(1, max_colors))
    assignment = {
        e: draw(st.integers(1, num_colors)) for e in spec.edges()
    }
    return Coloring(spec, num_colors, assignment)
