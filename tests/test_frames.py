import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_view
from spon import frames
from spon.frames import Frame, FrameError, decode
from spon.overlay import PRI, NodeState, ServiceClass, Transmit
from spon.topology import Change, apply_fault, k_disjoint_paths, shortest_path


def hand_encode(kind, service, k, src, dst, seq, priority, deadline_us, routes, payload):
    """Independent byte builder following the documented layout."""
    out = bytes([1, kind, service, k])
    out += bytes([len(src)]) + src.encode()
    out += bytes([len(dst)]) + dst.encode()
    out += struct.pack(">Q", seq) + bytes([priority]) + struct.pack(">Q", deadline_us)
    out += bytes([len(routes)])
    for route in routes:
        out += bytes([len(route)])
        for hop in route:
            out += bytes([len(hop)]) + hop.encode()
    out += struct.pack(">I", len(payload)) + payload
    return out


def test_golden_data_frame_bytes():
    frame = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=2,
                  src="1", dst="5", seq=7, priority=1, deadline_us=160000,
                  routes=(("1", "12", "13", "14", "5"), ("1", "9", "10", "11", "5")),
                  payload=b"pay")
    expected = hand_encode(1, 1, 2, "1", "5", 7, 1, 160000,
                           (("1", "12", "13", "14", "5"), ("1", "9", "10", "11", "5")),
                           b"pay")
    got = frame.encode()
    assert got == expected
    assert frame.wire_size() == len(got)


def test_golden_minimal_frame_hex():
    frame = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=0,
                  src="a", dst="b", seq=2, priority=1, payload=b"hi")
    assert frame.encode().hex() == (
        "0101010001610162"          # version kind service k, src, dst
        "0000000000000002"          # seq
        "01"                        # priority
        "0000000000000000"          # deadline
        "00"                        # route count
        "00000002" "6869"           # payload
    )


def test_golden_flood_frame_bytes():
    frame = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_REL, k=0,
                  src="FRA", dst="HKG", seq=1, priority=0, deadline_us=0,
                  payload=b"")
    assert frame.encode() == hand_encode(1, 2, 0, "FRA", "HKG", 1, 0, 0, (), b"")


def test_roundtrip_all_kinds():
    for kind in (frames.KIND_DATA, frames.KIND_ACK, frames.KIND_HOP_NACK):
        frame = Frame(kind=kind, service=frames.SERVICE_REL, k=1, src="a",
                      dst="b", seq=42, priority=3, deadline_us=12,
                      routes=(("a", "x", "b"),), payload=b"\x00\xff")
        back = decode(frame.encode())
        assert back == frame


def test_hop_data_nests_a_frame():
    inner = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=0,
                  src="1", dst="5", seq=9, priority=1, payload=b"xyz")
    wrapper = Frame(kind=frames.KIND_HOP_DATA, src="12", dst="13", seq=3,
                    inner=inner)
    raw = wrapper.encode()
    assert wrapper.wire_size() == len(raw)
    back = decode(raw)
    assert back.kind == frames.KIND_HOP_DATA
    assert back.seq == 3
    assert back.inner is not None
    assert back.inner.payload == b"xyz"
    assert back.inner.src == "1"


def test_decoded_hop_data_wire_size_counts_its_inner_frame():
    inner = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_REL, k=1,
                  src="1", dst="5", seq=9, priority=1,
                  routes=(("1", "12", "13", "14", "5"),), payload=b"xyz")
    raw = Frame(kind=frames.KIND_HOP_DATA, src="12", dst="13", seq=3,
                inner=inner).encode()
    back = decode(raw)
    assert back.wire_size() == len(raw)
    assert back.wire_size() == len(back.encode())
    assert back.inner.wire_size() == len(inner.encode())


def wrapped(src, dst, inner, seq, waiting=False, owed=0):
    """The wrapper of link seq `seq` around `inner` that src's record of dst
    builds: k is 0 if a data frame waits behind it in the port, and a
    nonzero `owed` is the next seq due from dst, which the wrapper acks."""
    node = NodeState(src, build_view((src, dst), [(src, dst, 2.0)]))
    for _ in range(seq):
        node.wrap_for_link(inner, dst, 0.0, [])
    hop = node.hops[dst]
    if waiting:
        hop.port.enqueue(inner)
    hop.expected = owed
    return node.wrap_for_link(inner, dst, 0.0, [])


def test_wrapped_frame_is_sized_as_it_encodes():
    inner = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=1,
                  src="1", dst="5", seq=9, priority=2, deadline_us=160000,
                  routes=(("1", "12", "13", "14", "5"),), payload=b"xyz")
    for src, dst in [("12", "13"), ("FRA", "HKG"), ("é", "ü-relay")]:
        for waiting, k in ((True, 0), (False, frames.HOP_ACK_REQ)):
            wrapper = wrapped(src, dst, inner, 3, waiting)
            raw = wrapper.encode()
            assert wrapper.wire_size() == len(raw)
            back = decode(raw)
            assert (back.k, back.seq, back.inner) == (k, 3, inner)


def test_hop_data_round_trips_a_nonzero_ack():
    inner = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=1,
                  src="13", dst="12", seq=4, routes=(("13", "12"),),
                  payload=b"pong")
    ack = (1 << 40) + 7
    wrapper = wrapped("13", "12", inner, 5, owed=ack)
    raw = wrapper.encode()
    # the ack rides the deadline field: it costs no byte
    assert len(raw) == wrapper.wire_size() \
        == wrapped("13", "12", inner, 5).wire_size()
    back = decode(raw)
    assert (back.k, back.seq, back.deadline_us, back.inner) == \
        (frames.HOP_ACK_REQ, 5, ack, inner)


def test_replaced_frame_is_sized_afresh():
    frame = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=1,
                  src="1", dst="5", seq=7, routes=(("1", "9", "10", "11", "5"),),
                  payload=b"pay")
    assert frame.wire_size() == len(frame.encode())
    for routes in [(("1", "12", "13", "14", "5"), ("1", "9", "10", "11", "5")),
                   (), (("1", "2", "3", "4", "5", "6", "7"),)]:
        copy = replace(frame, k=len(routes), routes=routes)
        assert copy.wire_size() == len(copy.encode())
        assert copy.wire_size() != frame.wire_size()
    assert frame.wire_size() == len(frame.encode())


def sent_frames(effects):
    return [e.frame for e in effects if isinstance(e, Transmit)]


def sized_as_encoded(frame):
    return frame.wire_size() == len(frame.encode())


# "é" and "ü" encode to two bytes each, so a size counting characters is off
RELAYS = ("src", "é", "ü-relay", "dst")
EDGES = [("src", "é", 1.0), ("é", "dst", 1.0), ("src", "ü-relay", 2.0),
         ("ü-relay", "dst", 2.0), ("é", "ü-relay", 1.0)]


@pytest.mark.parametrize("k", [1, 2])
def test_restamped_routed_frame_is_sized_as_it_encodes(k):
    view = build_view(RELAYS, EDGES)
    sender = NodeState("src", view)
    routed = sent_frames(sender.client_send("dst", b"pay", ServiceClass(PRI, k),
                                            now=0.0))
    assert len(routed) == k and routed[0].k == k
    assert all(sized_as_encoded(frame) for frame in routed)
    unsized = Frame(kind=frames.KIND_DATA, src="src", dst="dst", seq=1,
                    payload=b"pay")
    paths = tuple(k_disjoint_paths(view, "src", "dst", k))
    assert sized_as_encoded(unsized.restamp(k, paths))
    assert sized_as_encoded(routed[0].restamp(0))


def test_rerouted_frame_is_sized_as_it_encodes():
    view = apply_fault(build_view(RELAYS, EDGES), Change.node_down("dst"))
    relay = NodeState("é", view)
    frame = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=1,
                  src="src", dst="ü-relay", seq=3,
                  routes=(("src", "é", "dst", "ü-relay"),), payload=b"pay")
    out = sent_frames(relay.handle_frame("src", frame, now=1.0))
    assert [f.routes for f in out] == [(("é", "ü-relay"),)]
    assert sized_as_encoded(out[0])
    back = shortest_path(build_view(RELAYS, EDGES), "é", "src")
    assert sized_as_encoded(out[0].restamp(1, (back,)))


def test_hop_control_frames_are_sized_as_they_encode():
    view = build_view(("é", "ü-relay"), [("é", "ü-relay", 2.0)])
    a, b = NodeState("é", view), NodeState("ü-relay", view)
    inner = Frame(kind=frames.KIND_DATA, service=frames.SERVICE_PRI, k=1,
                  src="é", dst="ü-relay", seq=1, routes=(("é", "ü-relay"),))
    wires = [a.wrap_for_link(inner, "ü-relay", float(i), []) for i in range(3)]
    controls = {}
    # wire 0 lost, wire 2 arrives: the gap is nacked
    b.handle_frame("é", wires[2], 1.0)
    controls["nack"] = sent_frames(b.handle_timer(("nack", "é"), None, 2.0))[0]
    # the tail probe announces the high-water seq
    controls["announce"] = sent_frames(a.handle_timer(("ann", "ü-relay"),
                                                      None, 3.0))[0]
    # a nack for a seq the sender never cached is answered by a tombstone
    gone = Frame(kind=frames.KIND_HOP_NACK, src="ü-relay", dst="é",
                 payload=struct.pack(">Q", 7))
    controls["tombstone"] = sent_frames(a.handle_frame("ü-relay", gone, 4.0))[0]
    # the recovered frames close the gap, and an announce is confirmed
    for wire in wires[:2]:
        b.handle_frame("é", wire, 5.0)
    controls["confirm"] = sent_frames(b.handle_frame("é", controls["announce"],
                                                     6.0))[0]
    assert controls["nack"].payload and controls["tombstone"].inner is None
    assert (controls["announce"].k, controls["confirm"].k) == (
        frames.HOP_ANNOUNCE, frames.HOP_CONFIRM)
    for name, frame in controls.items():
        assert sized_as_encoded(frame), name


def test_decode_rejects_malformed():
    good = Frame(kind=frames.KIND_DATA, src="a", dst="b", seq=1).encode()
    with pytest.raises(FrameError):
        decode(good[:-1])
    with pytest.raises(FrameError):
        decode(good + b"\x00")
    with pytest.raises(FrameError):
        decode(b"\x02" + good[1:])          # bad version
    bad_kind = bytes([good[0], 99]) + good[2:]
    with pytest.raises(FrameError):
        decode(bad_kind)
    with pytest.raises(FrameError):
        Frame(kind=frames.KIND_DATA, src="x" * 300, dst="b").encode()


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([frames.KIND_DATA, frames.KIND_ACK,
                          frames.KIND_HOP_NACK]),
    service=st.integers(0, 2),
    k=st.integers(0, 255),
    src=st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8),
    dst=st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8),
    seq=st.integers(0, 2 ** 64 - 1),
    priority=st.integers(0, 255),
    deadline=st.integers(0, 2 ** 64 - 1),
    routes=st.lists(st.lists(st.text(st.characters(min_codepoint=48, max_codepoint=122),
                                     min_size=1, max_size=4),
                             min_size=1, max_size=6).map(tuple),
                    max_size=4).map(tuple),
    payload=st.binary(max_size=64),
)
def test_roundtrip_property(kind, service, k, src, dst, seq, priority, deadline,
                            routes, payload):
    frame = Frame(kind=kind, service=service, k=k, src=src, dst=dst, seq=seq,
                  priority=priority, deadline_us=deadline, routes=routes,
                  payload=payload)
    raw = frame.encode()
    assert len(raw) == frame.wire_size()
    assert decode(raw) == frame
