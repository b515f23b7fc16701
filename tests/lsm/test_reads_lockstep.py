"""The LSM's reads in lockstep with the reference reads (DESIGN.md §13.4).

Over drawn streams of writes, gets, scans and their batch forms on the
multi-level ``populate()`` tree, with bloom filters on, nearly useless
and off: every read returns what ``reference_reads`` says and pays
exactly its ``(file, offset, nbytes)`` reads, in order — a batch the
concatenation of its ops'.  Run it after any change to an engine's
read path.

CI also runs this file under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kv.values import Value
from tests.lsm import reference_reads
from tests.lsm.test_scan_kernel import make_store, populate

key = st.integers(-5, 450)  # populate() writes 0..399
written = st.integers(0, 450)  # a negative key cannot be scanned over
count = st.sampled_from([0, 1, 7, 100])
ops = st.lists(st.one_of(
    st.tuples(st.just("put"), written, st.sampled_from([24, 48, 5000])),
    st.tuples(st.just("delete"), written),
    st.tuples(st.just("get"), key),
    # Nine keys and up: the planned path (LSMStore.BULK_PROBE_MIN).
    st.tuples(st.just("get_many"), st.lists(key, min_size=9, max_size=20)),
    st.tuples(st.just("scan"), key, count),
    st.tuples(st.just("scan_many"), st.lists(key, min_size=1, max_size=6), count),
), min_size=1, max_size=40)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bloom_bits=st.sampled_from([0, 2, 10]), ops=ops)
def test_reads_return_and_pay_what_the_reference_says(bloom_bits, ops):
    store = make_store(bloom_bits_per_key=bloom_bits)
    populate([store])
    key_bytes = store.config.key_bytes
    for i, (name, arg, *rest) in enumerate(ops):
        if name == "put":
            store.put(arg, Value(i, rest[0]))
            continue
        if name == "delete":
            store.delete(arg)
            continue
        mark, before = len(store.preads), store.stats.user_bytes_read
        if name == "get":
            value, reads = reference_reads.get(store, arg)
            assert store.get(arg)[1] == value
            values = [value]
        elif name == "get_many":
            expected = [reference_reads.get(store, k) for k in arg]
            assert store.get_many(arg) == len(arg)
            values = [value for value, _reads in expected]
            reads = [read for _value, op_reads in expected for read in op_reads]
        elif name == "scan":
            pairs, reads = reference_reads.scan(store, arg, rest[0])
            assert store.scan(arg, rest[0])[1] == pairs
            values = [value for _key, value in pairs]
        else:
            expected = [reference_reads.scan(store, k, rest[0]) for k in arg]
            assert store.scan_many(arg, rest[0]) == len(arg)
            values = [value for pairs, _reads in expected for _key, value in pairs]
            reads = [read for _pairs, op_reads in expected for read in op_reads]
        assert store.preads[mark:] == reads
        assert store.stats.user_bytes_read - before == sum(
            key_bytes + value.length for value in values if value is not None)
    store.check_invariants()
