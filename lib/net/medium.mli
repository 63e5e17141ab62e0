(** The shared medium interface {!Nic}, {!Machine} and the harness
    talk to: either the paper's shared CSMA/CD {!Ether} segment or the
    switched full-duplex {!Switch} fabric.

    A first-class variant rather than a functor so a cluster can be
    built over either fabric at runtime ([--net switch:2x48\@10]) and
    so the Ether path stays {e bit-identical}: dispatch adds one match
    per call, no RNG draws and no timing. *)

open Amoeba_sim

type t =
  | Ether of Ether.t
  | Switch of Switch.t

type port

(** How to build the medium for a cluster. *)
type spec =
  | Shared  (** one CSMA/CD Ether segment — the paper's testbed *)
  | Switched of Switch.profile

(** Re-exported from {!Impair} (type-equal). *)
type gilbert = Impair.gilbert = {
  p_gb : float;
  p_bg : float;
  loss_good : float;
  loss_bad : float;
}

type conditions = Impair.conditions = {
  gilbert : gilbert option;
  dup_prob : float;
  jitter_ns : int;
  corrupt_prob : float;
}

val clean : conditions

val create : Engine.t -> Cost_model.t -> spec -> t

val shared : Ether.t -> t

val switched : Switch.t -> t

val ether : t -> Ether.t option

val switch : t -> Switch.t option

val spec_of_string : string -> (spec, string) result
(** ["ether"] (also ["shared"], ["bus"]) and ["switch"],
    ["switch:SxH\@U"] (see {!Switch.profile_of_string}). *)

val spec_to_string : spec -> string

val condition_profiles : (string * conditions) list
(** Named impairment profiles — [clean], [bursty-light], [bursty],
    [bursty-heavy] (Gilbert–Elliott loss), [dup], [reorder] (delivery
    jitter), [corrupt], [adversarial] (all of them, moderate).  The one
    table behind [--net], the adversarial swarm test and the loadgen
    sweep. *)

val net_of_string : string -> (spec * conditions, string) result
(** Parses a full ['+']-separated net description: each component is a
    fabric (as {!spec_of_string}) or a profile name from
    {!condition_profiles}.  ["switch:2x48\@10+bursty"] = two 48-port
    segments, 10x-oversubscribed uplink, bursty loss on every link.
    Defaults: [Shared] fabric, [clean] conditions. *)

val net_to_string : spec * conditions -> string
(** Inverse of {!net_of_string} for named profiles; a conditions record
    matching no profile prints as ["+<custom>"]. *)

val attach : ?id:int -> t -> rx:(Frame.t -> unit) -> port

val port_id : port -> int

val transmit : t -> port -> Frame.t -> [ `Sent | `Dropped ]

val join_multicast : t -> port -> int -> unit
(** Reports that the NIC behind [port] now accepts multicast group
    [g] — the IGMP membership report a snooping switch listens for.
    The switch forwards [g]'s frames only toward ports that joined it;
    on the shared wire every station hears every frame anyway, so the
    call is a no-op there. *)

val leave_multicast : t -> port -> int -> unit
(** The matching leave report; a no-op on the shared wire. *)

val impair : t -> Impair.t
(** The fabric's hostile-link model (see {!Impair}). *)

val set_conditions : t -> conditions -> unit
(** [Impair.set_conditions (impair t)].  Kept, with {!clean} and the
    record types above, for the benchmark in [perfbench/], which builds
    against this interface. *)

(** {1 Statistics} *)

val collisions : t -> int
(** Always 0 on a switched fabric (full duplex). *)

val frames_delivered : t -> int

val bytes_delivered : t -> int

val excessive_collision_drops : t -> int

val queue_drops : t -> int
(** Switch tail drops (ingress + egress + uplink); always 0 on the
    shared wire, which has no queues. *)

val utilisation : t -> float

val reset_utilisation_window : t -> unit
