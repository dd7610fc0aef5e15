import hypothesis.strategies as st
from hypothesis import settings

from rainbowk.core import Coloring, PartitionSpec

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
