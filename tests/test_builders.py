"""The link path builds its frames and effects without calling their classes:
`frames.new_frame` (behind Frame.restamp, the frames NodeState.client_send
builds, and the hop record's wrappers and control frames: confirm, announce,
nack and tombstone) and the effect builders of `spon.overlay`.  Each built
object must equal the one its class builds on every dataclass field, the
encoded size included, so a field added to a class and left out of its
builder fails here."""

import dataclasses
import struct

import pytest

from helpers import build_view
from spon import overlay
from spon.frames import (
    Frame,
    HOP_ACK_REQ,
    HOP_ANNOUNCE,
    HOP_CONFIRM,
    KIND_DATA,
    KIND_HOP_DATA,
    KIND_HOP_NACK,
    SERVICE_NONE,
    SERVICE_PRI,
    SERVICE_REL,
    new_frame,
)
from spon.overlay import Deliver, NodeState, ServiceClass, Transmit
from spon.topology import k_disjoint_paths

# two node-disjoint routes from src to dst; the ids encode to more bytes
# than they have characters
RELAYS = ("src", "é", "ü-relay", "dst")
EDGES = [("src", "é", 1.0), ("é", "dst", 1.0), ("src", "ü-relay", 2.0),
         ("ü-relay", "dst", 2.0)]


def assert_same_fields(built, expected):
    """Every dataclass field of `built` equals `expected`'s; a frame's size
    is compared with the one `expected` works out from its fields."""
    assert type(built) is type(expected)
    if isinstance(expected, Frame):
        expected.wire_size()
    for spec in dataclasses.fields(expected):
        assert getattr(built, spec.name) == getattr(expected, spec.name), \
            spec.name


def test_new_frame_sets_every_field():
    inner = Frame(KIND_DATA, SERVICE_PRI, 1, "a", "b", 3, 2, 9000,
                  (("a", "b"),), b"in")
    fields = (KIND_HOP_DATA, SERVICE_NONE, HOP_ACK_REQ, "a", "b", 7, 0, 4,
              (), b"", inner)
    expected = Frame(*fields)
    assert_same_fields(new_frame(*fields, expected.wire_size()), expected)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("service", [SERVICE_PRI, SERVICE_REL])
def test_client_send_builds_the_frame_and_transmits_of_the_class(service, k):
    view = build_view(RELAYS, EDGES)
    sender = NodeState("src", view)
    fx = sender.client_send("dst", b"pay", ServiceClass(service, k), now=1.0,
                            deadline_ms=50.0, priority=2)
    routes = tuple(path.hops
                   for path in k_disjoint_paths(view, "src", "dst", k)) \
        if k else ()
    deadline_us = 51_000 if service == SERVICE_PRI else 0
    expected = Frame(KIND_DATA, service, len(routes), "src", "dst", 1, 2,
                     deadline_us, routes, b"pay")
    sent = [eff for eff in fx if isinstance(eff, Transmit)]
    assert [t.neighbor for t in sent] == (
        [route[1] for route in routes] if k else ["é", "ü-relay"])
    for t in sent:
        assert_same_fields(t, Transmit(t.neighbor, expected))
        assert_same_fields(t.frame, expected)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("service", [SERVICE_PRI, SERVICE_REL])
def test_restamp_builds_the_frame_of_the_class(service, k):
    view = build_view(RELAYS, EDGES)
    paths = k_disjoint_paths(view, "src", "dst", k) if k else []
    frame = Frame(KIND_DATA, service, 1, "src", "dst", 5, 1, 77,
                  (("src", "é", "dst"),), b"body")
    expected = Frame(KIND_DATA, service, k, "src", "dst", 5, 1, 77,
                     tuple(path.hops for path in paths), b"body")
    assert_same_fields(frame.restamp(k, paths), expected)


def test_hop_wrappers_match_the_class():
    # A wraps two frames for B: the first leaves one waiting (k = 0), the
    # second empties the port and asks for a confirm; B's wrapper back to A
    # carries the confirm it owes as its ack
    view = build_view(("A", "B"), [("A", "B", 2.0)])
    a, b = NodeState("A", view), NodeState("B", view)

    def wrap_next(sender, nbr, now):
        frame, out = sender.scheduler_dequeue(nbr, now)
        return frame, sender.wrap_for_link(frame, nbr, now, out)

    for body in (b"m0", b"m1"):
        a.client_send("B", body, ServiceClass(SERVICE_PRI, 1), now=0.0)
    sent = [wrap_next(a, "B", 0.0) for _ in range(2)]
    for wire in (w for _, w in sent):
        b.handle_frame("A", wire, 1.0)
    b.client_send("A", b"back", ServiceClass(SERVICE_REL, 1), now=1.0)
    sent.append(wrap_next(b, "A", 1.0))
    wanted = [("A", "B", 0, 0, 0), ("A", "B", 1, HOP_ACK_REQ, 0),
              ("B", "A", 0, HOP_ACK_REQ, 2)]
    for (inner, wire), (src, dst, seq, k, ack) in zip(sent, wanted):
        assert_same_fields(wire, Frame(KIND_HOP_DATA, SERVICE_NONE, k, src,
                                       dst, seq, 0, ack, (), b"", inner))


@pytest.mark.parametrize("kind, k, seq, payload", [
    (KIND_HOP_NACK, HOP_CONFIRM, 9, b""),             # confirm
    (KIND_HOP_NACK, HOP_ANNOUNCE, 9, b""),            # announce
    (KIND_HOP_NACK, 0, 0, struct.pack(">QQ", 3, 4)),  # nack
    (KIND_HOP_DATA, 0, 3, b""),                       # tombstone
], ids=["confirm", "announce", "nack", "tombstone"])
def test_hop_control_frames_match_the_class(kind, k, seq, payload):
    sender = NodeState("é", build_view(("é", "ü-relay"),
                                        [("é", "ü-relay", 2.0)]))
    built = sender.hops["ü-relay"]._control(kind, k, seq, payload)
    assert_same_fields(built, Frame(kind, SERVICE_NONE, k, "é", "ü-relay",
                                    seq, 0, 0, (), payload))


def test_effect_builders_match_the_class():
    frame = Frame(KIND_DATA, SERVICE_PRI, 0, "a", "b", 1)
    assert_same_fields(overlay._new_transmit("b", frame), Transmit("b", frame))
    assert_same_fields(overlay._new_deliver(b"x", 40), Deliver(b"x", 40))


def test_a_consumed_frame_is_delivered_as_the_class_builds_it():
    view = build_view(("A", "B"), [("A", "B", 2.0)])
    data = Frame(KIND_DATA, SERVICE_PRI, 1, "A", "B", 1, 0, 0, (("A", "B"),),
                 b"body")
    fx = NodeState("B", view).handle_frame("A", data, 1.0)
    delivered = [eff for eff in fx if isinstance(eff, Deliver)]
    assert len(delivered) == 1
    assert_same_fields(delivered[0], Deliver(b"body", len(data.encode())))
