(** Switched full-duplex fabric: per-host private links into a
    store-and-forward switch.

    The modern counterpart of the shared {!Ether} segment: no carrier
    sense and no collisions — contention shows up as queueing instead.
    Every port has a bounded ingress and egress FIFO and every segment
    uplink a bounded FIFO per direction; a full queue tail-drops the
    frame (the sender still observed [`Sent]), which is exactly the
    silent-loss model the group layer's NACK machinery recovers from.
    Frame serialization uses {!Cost_model.frame_time} on the host
    links and [1/uplink_mult] of it on the uplinks; each forwarded
    frame additionally pays [switch_fwd_ns] lookup latency.
    Broadcasts flood; multicasts go only where a port joined the group
    (see {!join_multicast}).

    All queue drains and deliveries run in the engine's root group:
    frames inside the fabric outlive a crashed sender, mirroring the
    Ether's bits-on-the-wire rule. *)

open Amoeba_sim

type profile = {
  segments : int;  (** leaf segments joined through the core *)
  segment_size : int;
      (** station ids per segment: station [i] lives on segment
          [min (i / segment_size) (segments - 1)] *)
  uplink_mult : int;
      (** uplink bandwidth as a multiple of one host link; a segment
          of [segment_size] hosts is oversubscribed
          [segment_size / uplink_mult] : 1 *)
}

val flat : profile
(** One segment, no uplinks: every port at full bisection bandwidth. *)

val profile_of_string : string -> (profile, string) result
(** ["switch"] is {!flat}; ["switch:2x48\@10"] is 2 segments of 48
    stations with 10x uplinks (["switch:2x48"] defaults the uplink
    multiplier to 10). *)

val profile_to_string : profile -> string

type t

type port

val create : Engine.t -> Cost_model.t -> profile -> t

val profile : t -> profile

val attach : ?id:int -> t -> rx:(Frame.t -> unit) -> port
(** Same contract as {!Ether.attach}: [rx] runs outside any process
    and must not block; [id] pins the station id so a restarted
    machine reclaims its port. *)

val port_id : port -> int

(** {1 Multicast snooping}

    The switch forwards a [Frame.Multicast g] only to stations whose
    port joined [g], and across an uplink only toward segments with
    such a station — IGMP snooping, with the NIC's join/leave standing
    in for the membership reports.  [Frame.Broadcast] still floods
    every port.  Re-attaching under a station id (a restarted machine)
    forgets what the old port had joined. *)

val join_multicast : t -> port -> int -> unit

val leave_multicast : t -> port -> int -> unit

val transmit : t -> port -> Frame.t -> [ `Sent | `Dropped ]
(** Blocking send: sleeps the frame's serialization time on the
    private host uplink, with arrival at the switch committed as a
    root-group event (a sender crash mid-serialization does not claw
    the frame back).  Full duplex never collides, so the result is
    always [`Sent]; loss happens inside the fabric, visible in the
    drop counters.  Must be called from a process. *)

val impair : t -> Impair.t
(** The fabric's hostile-link model, the same one the shared wire
    uses: whole-frame loss applies at store-and-forward arrival,
    partitions, cuts and link conditions where the egress port hands
    a copy to its station, so the fault DSL and chaos swarms behave
    identically on both fabrics. *)

(** {1 Statistics} *)

val frames_delivered : t -> int
(** Frames the fabric accepted from hosts (store-and-forward arrival
    survived loss injection). *)

val bytes_delivered : t -> int

val uplink_frames : t -> int
(** Frames serialized on segment uplinks, both directions; always 0
    on {!flat}. *)

val ingress_drops : t -> int
(** Tail drops on full per-port ingress FIFOs. *)

val egress_drops : t -> int
(** Tail drops on full per-port egress FIFOs — a fan-in hotspot. *)

val uplink_drops : t -> int
(** Tail drops on segment uplinks, both directions — oversubscription
    loss. *)

val queue_drops : t -> int
(** All tail drops: ingress + egress + uplink. *)

val utilisation : t -> float
(** Mean downlink (egress) utilisation across all ports over the
    current measurement window — same window semantics as
    {!Ether.utilisation}. *)

val reset_utilisation_window : t -> unit
