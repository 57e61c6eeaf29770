import pytest
from hypothesis import settings
from hypothesis import strategies as st

from seqsurprise.analyzer import move_table
from seqsurprise.costmodel import CostModel

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")

charges = st.floats(min_value=0.0, max_value=4.0)
# Random cost models: every charge 0-4 (zero included), every short-term
# memory capacity up to 4 and up to three allowed steps from 1-9.
cost_models = st.builds(
    CostModel,
    copy_cost=charges,
    dup_cost=charges,
    segment_start_cost=charges,
    mirror_cost=charges,
    zero_after_nine_cost=charges,
    stm_capacity=st.integers(min_value=0, max_value=4),
    allowed_increments=st.frozensets(st.integers(min_value=1, max_value=9),
                                     min_size=1, max_size=3),
)


@pytest.fixture(autouse=True)
def no_shared_move_tables():
    """Start and end every test with no move table, so no test reads a
    price that another test made, perhaps under monkeypatched pricing."""
    move_table.cache_clear()
    yield
    move_table.cache_clear()


def op_tuples(ops):
    return tuple((op.kind, op.args, op.charged_cost, op.free) for op in ops)
