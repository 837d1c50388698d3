"""Memory bounds of the exhaustive sweeps, traced with tracemalloc: a sweep
holds a chunk of its class or a small table, never the whole class, and
leaves nothing behind when it returns. Each bound is about twice what the
sweep traces (CPython 3.11) and well below what a sweep that keeps the
whole class traces."""
import gc
import tracemalloc

from eulerian import transforms as tr
from eulerian.permutations import ALL, position_sum_counts
from eulerian.registry import _transport
from eulerian.series import (
    SquareMatrix,
    biexcedent_weight,
    cycle_indicator_weight,
    determinant,
    matrix_entry_weight,
    weighted_permutation_sums,
)

KIB = 1024


def traced_peak(run):
    """What run() returns, and the peak of the memory traced while it runs,
    in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_one_to_one_transport_keeps_one_int_key_per_image():
    # S_8: about 2.1 MiB for 40,320 int keys; a set of the image tuples traces 6.1 MiB
    outcome, peak = traced_peak(lambda: _transport(tr.fundamental, ALL, onto=ALL)(8))
    assert outcome.ok
    assert peak < 4096 * KIB


def test_the_position_sum_sweep_keeps_one_small_suffix_table():
    # S_9: about 37 KiB with one 120-entry table per set of first letters; a
    # table of all 15,120 suffixes traces 1.7 MiB
    weight = [[10 if j == i else int(j > i) for j in range(9)] for i in range(9)]
    counts, peak = traced_peak(lambda: position_sum_counts(9, weight))
    assert sum(counts.values()) == 362880
    assert peak < 80 * KIB


def left_for_the_collector(run):
    """With the collector off, how many objects run() leaves for the cyclic
    collector after it returns, and the bytes still traced then. The
    collection keeps its cyclic garbage in gc.garbage and only empties the
    interpreter's free lists, which are not the call's."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        garbage = gc.collect()
        return garbage, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_the_exponential_formula_sweep_leaves_nothing_for_the_cyclic_collector():
    # a sweep whose recursive closures refer to themselves leaves about
    # 127 KiB, in 1072 objects, at order 8; this one leaves none
    fns = [cycle_indicator_weight(list(range(1, 9))), biexcedent_weight, matrix_entry_weight(2, 1, 3)]
    garbage, left = left_for_the_collector(lambda: weighted_permutation_sums(fns, 8))
    assert garbage == 0
    assert left < 4 * KIB


def test_the_determinant_leaves_nothing_for_the_cyclic_collector():
    # a memoizing closure that refers to itself keeps its memo until the
    # collector runs; at size 8 the determinant leaves none
    garbage, left = left_for_the_collector(lambda: determinant(SquareMatrix.banded(8, 2, 1, 3)))
    assert garbage == 0
    assert left < 4 * KIB
