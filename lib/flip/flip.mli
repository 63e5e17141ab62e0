(** The Fast Local Internet Protocol layer (one instance per machine).

    Provides connectionless unicast and multicast datagrams addressed
    to processes/groups rather than hosts.  Destinations of unicast
    packets are located with a broadcast WHOIS exchange and cached, as
    in the real protocol; multicast maps group addresses onto hardware
    multicast.  Packets larger than one Ethernet frame are fragmented
    and reassembled transparently (the paper's experiments cap
    messages at 8000 bytes because multicast flow control for larger
    messages was an open problem; we inherit the cap in the benches
    but not in the layer itself). *)

open Amoeba_net

type t

val create : Machine.t -> t
(** Creates the FLIP instance and installs it as the machine's NIC
    handler. *)

val machine : t -> Machine.t

val fresh_addr : t -> Addr.t

val register : t -> Addr.t -> (Packet.t -> unit) -> unit
(** [register t addr handler] makes [addr] a local endpoint.
    [handler] runs in the receive path after FLIP costs are charged;
    it must not block (hand off to a channel for real work). *)

val unregister : t -> Addr.t -> unit

val register_group : t -> Addr.t -> (Packet.t -> unit) -> unit
(** Like {!register} but also subscribes the NIC to the group's
    hardware multicast address. *)

val unregister_group : t -> Addr.t -> unit

val send : t -> Packet.t -> [ `Sent | `No_route | `Dropped ]
(** Blocking unicast.  [`No_route] after the locate protocol fails
    (destination crashed or unregistered); [`Dropped] if the wire gave
    up (excessive collisions) — reliability is the caller's job. *)

val multicast : t -> Packet.t -> [ `Sent | `Dropped ]
(** Blocking multicast of one packet to a group address, delivered to
    remote subscribers via hardware multicast.  As with the Lance
    hardware, the sending station does not receive its own multicast;
    a kernel that needs its own message already has it. *)

val add_route : t -> Addr.t -> station:int -> unit
(** [add_route t addr ~station] caches [station] as the route to
    [addr], as a successful locate would: a caller already told where
    an address lives sends to it without broadcasting a WHOIS. *)

val max_fragment : t -> int
(** Largest packet size that still fits one Ethernet frame. *)

val locate_cache_size : t -> int
(** Number of cached address-to-station routes (for tests). *)

(** {1 Adversarial-delivery counters}

    The receive path tolerates frames a hostile network hands it:
    header-corrupt frames fail the FLIP header checksum and are
    dropped whole; payload-corrupt Data fragments travel up wrapped in
    {!Packet.Corrupt} for the layer above to reject; duplicated and
    metadata-invalid fragments are discarded without advancing
    reassembly. *)

val corrupt_dropped : t -> int
(** Frames dropped because the header checksum failed on receipt. *)

val dup_fragments : t -> int
(** Duplicate fragments discarded by the reassembly bitmap. *)

val invalid_fragments : t -> int
(** Fragments with out-of-range metadata, or a fragment count that
    disagreed with the entry their siblings created. *)

val partial_count : t -> int
(** Reassembly entries currently buffered (for the purge tests). *)

val packet_of_frame : Amoeba_net.Frame.t -> Packet.t option
(** Peeks at the FLIP packet inside a data frame (any fragment), for
    fault-injection filters in tests and benchmarks. *)
