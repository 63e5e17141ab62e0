(** Shared 10 Mbit/s Ethernet segment with CSMA/CD.

    Stations that begin transmitting within one slot time of each
    other collide, jam, and retry after binary exponential backoff —
    the mechanism behind Figure 6's throughput collapse when many
    uncoordinated groups share the wire.  Transmission is modelled at
    frame granularity; propagation delay within the segment is folded
    into the slot time. *)

open Amoeba_sim

type t

type port

val create : Engine.t -> Cost_model.t -> t

val attach : ?id:int -> t -> rx:(Frame.t -> unit) -> port
(** [attach t ~rx] connects a station.  [rx] is invoked (outside any
    process; it must not block) for every frame another station
    finishes transmitting.  [id] fixes the station id explicitly — a
    restarted machine re-attaches a fresh NIC under its old station id
    so partitions and self-suppression keep working; by default ids
    are assigned sequentially. *)

val port_id : port -> int

val transmit : t -> port -> Frame.t -> [ `Sent | `Dropped ]
(** Blocking send with carrier sense, collision detection and
    exponential backoff.  Returns [`Dropped] after 16 failed attempts
    (excessive collisions); reliability above that is the protocols'
    job.  Must be called from a process. *)

val impair : t -> Impair.t
(** The segment's hostile-link model: whole-frame loss applies where a
    transmission ends, partitions, cuts and link conditions per
    receiving station. *)

(** {1 Statistics} *)

val collisions : t -> int

val frames_delivered : t -> int

val bytes_delivered : t -> int
(** Wire bytes (including headers, excluding preamble/CRC) of
    successfully transmitted frames. *)

val excessive_collision_drops : t -> int

val utilisation : t -> float
(** Fraction of the current measurement window the medium was carrying
    bits.  The window opens at creation and restarts at each
    {!reset_utilisation_window}; a report that resets the window when
    its warmup ends measures the steady state instead of a reading
    diluted by setup and idle time. *)

val reset_utilisation_window : t -> unit
(** Starts a fresh utilisation window at the current simulated time.
    Counters ({!collisions}, {!frames_delivered}, ...) are unaffected. *)
