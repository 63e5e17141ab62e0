(** The per-machine group kernel.

    One kernel instance per (machine, group) pair, playing the member
    role and — on exactly one machine per incarnation — the sequencer
    role.  The kernel owns all protocol state; it is driven by a
    single process reading an inbox of network messages, application
    operations and timer ticks, so no state is ever touched
    concurrently.

    Protocol summary (paper sections 2-3):
    - PB: sender -> sequencer point-to-point, sequencer multicasts the
      sequence-numbered message.
    - BB: sender multicasts the data; the sequencer multicasts a short
      accept carrying the sequence number.
    - Lost messages are repaired with negative acknowledgements
      against the sequencer's history buffer; acknowledgements ride
      piggyback on requests, so the failure-free path stays at two
      messages per broadcast.
    - With resilience degree r > 0, the sequencer broadcasts
      tentatively, waits for r member acknowledgements, then
      broadcasts an accept; members deliver only accepted messages.
    - Joins, leaves and recoveries are themselves totally ordered
      events in the message stream. *)

open Amoeba_sim
open Amoeba_flip
open Types

type t

type config = {
  resilience : int;
  method_ : send_method;
  history_capacity : int;
  auto_heal : bool;
      (** in-kernel failure detection: members watch the sequencer on a
          heartbeat whose period they learn from its traffic, and run
          the recovery themselves (majority quorum) when it falls
          silent, instead of waiting for the application to call
          {!reset} *)
  pipeline_depth : int;
      (** unacknowledged sequencer rounds this member may keep in
          flight (default 1 = the paper's lock-step
          send->deliver->next).  Clamped to at least 1.  Each round
          still respects the delivery window and resilience degree;
          depth only overlaps the wait for sequencing. *)
}

val default_config : config

type stats = {
  mutable nacks_sent : int;
  mutable retransmissions : int;  (** repairs served by the sequencer *)
  mutable duplicates_dropped : int;
      (** duplicated or stale frames refused by the receive paths *)
  mutable stale_refused : int;
      (** of those, sequencer requests refused because a later msgid
          from the same sender was already sequenced and the request
          itself is not held (a late copy of a held one is a plain
          duplicate): the send behind such a request can only fail *)
  mutable acks_collected : int;  (** resilience acks at the sequencer *)
  mutable status_solicitations : int;
      (** status requests multicast to unblock a full history *)
  mutable resets_survived : int;
      (** recovery incarnations this member installed (as coordinator
          or by accepting a new configuration) *)
  mutable corrupt_dropped : int;
      (** packets whose group-header checksum rejected payload damaged
          in flight *)
  mutable reorders_absorbed : int;
      (** data/accept frames that arrived behind a higher sequence
          number and were slotted into the window instead of refused *)
  mutable batches_sent : int;
      (** sends that carried more than one client op *)
  mutable batched_ops : int;  (** total ops across those batched sends *)
  mutable pipeline_depth_hwm : int;
      (** most unacknowledged rounds this member ever had in flight *)
}

val create_group : Flip.t -> ?config:config -> unit -> t
(** Creates a group: the creator is member 0 and its machine hosts the
    sequencer. *)

val join_group : Flip.t -> ?config:config -> group_addr:Addr.t -> unit ->
  (t, error) result
(** Blocking join.  The join is a totally-ordered event: every member
    (including the joiner) observes it at the same point in the
    message stream. *)

val group_addr : t -> Addr.t

val kernel_addr : t -> Addr.t

val my_mid : t -> mid

val incarnation : t -> int

val sequencer_mid : t -> mid

val is_sequencer : t -> bool

val member_list : t -> (mid * Addr.t) list

val alive : t -> bool
(** False once expelled or left. *)

val send : ?ops:int -> t -> bytes -> (seqno, error) result
(** Blocking totally-ordered broadcast.  Returns the sequence number
    under which every member delivers the message.  With resilience
    degree r, does not return until at least r other kernels hold the
    message.  [ops] (default 1) declares how many client operations
    the body carries, for wire-size and CPU accounting: the payload
    stays opaque, but a batched message is charged its real marginal
    per-op cost at the sequencer and on delivery. *)

val events : t -> event Channel.t
(** The totally-ordered delivery stream (messages and membership
    events).  Consumed by {!Api.receive_from_group}. *)

val leave : t -> (unit, error) result
(** Blocking, totally-ordered leave.  If the sequencer's member
    leaves, sequencing duty passes to the lowest-numbered survivor. *)

val reset : t -> min_members:int -> (int, error) result
(** Rebuilds the group after a processor failure (paper section 2.1):
    probes all members, declares unresponsive ones dead, reconciles
    histories so every survivor can obtain every message stable before
    the failure, elects this kernel sequencer, and installs the new
    incarnation.  Returns the number of surviving members. *)

val config : t -> config

val stats : t -> stats

val next_expected : t -> seqno
(** Next sequence number this member will deliver (for tests). *)
