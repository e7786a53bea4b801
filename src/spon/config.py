"""Tunable parameters shared by the overlay nodes and the simulator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    # scheduler
    buffer_capacity: int = 1024        # frames per fair-queue partition
    control_capacity: int = 4096       # frames in the per-port control queue
    # duplicate suppression
    dedup_window: int = 4096           # remembered seqs per (src, service)
    # hop-by-hop recovery
    hop_cache_frames: int = 16384      # per-neighbor retransmission cache; must
                                       # cover the bandwidth-delay product of the
                                       # nack round trip at full link rate
    hop_cache_expiry_ms: float = 2000.0
    nack_delay_ms: float = 1.0         # gap detection -> first nack
    renack_min_ms: float = 4.0         # floor for the re-nack interval
    announce_delay_ms: float = 2.0     # idle link -> high-water announce
    announce_retries: int = 6          # announces per idle period at most;
                                       # each asks for a confirm, and a
                                       # confirm ends them early
    nack_batch: int = 512              # seqs per nack frame
    # forwarding
    hop_processing_ms: float = 0.15    # per-hop forwarding cost at arrival
    view_propagation_ms: float = 100.0 # fault -> node view update
    deadline_factor: float = 10.0      # PRIORITY deadline = factor x best path
    max_payload_bytes: int = 65536
    # reliable service
    rel_max_retries: int = 8
    rel_route_pool: int = 4            # disjoint paths cycled on retransmit
    default_rtt_ms: float = 1000.0     # RTO seed when no path is known
    # engine
    event_cap: int = 10_000_000


DEFAULT_CONFIG = Config()
