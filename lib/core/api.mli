(** The Amoeba group communication primitives (paper Table 1).

    {v
    CreateGroup       Create a group and join it.
    JoinGroup         Join a given group.
    LeaveGroup        Leave a given group.
    SendToGroup       Atomically send a message to a group.
    ReceiveFromGroup  Receive a message from a group.
    ResetGroup        Reform the group after a processor failure.
    GetInfoGroup      Return state information about a group.
    ForwardRequest    Forward an RPC request to another group member
                      (provided by the companion Amoeba_rpc library).
    v}

    All primitives are blocking, as in Amoeba; concurrency is obtained
    by calling them from multiple simulated threads
    ({!Amoeba_sim.Engine.spawn}). *)

open Amoeba_flip
open Types

type group

type info = {
  my_mid : mid;
  sequencer : mid;
  incarnation : int;
  members : mid list;
  resilience : int;
  send_method : send_method;
  next_seq : seqno;
  nacks_sent : int;  (** repair requests this member multicast *)
  retransmissions : int;  (** repairs this member served from history *)
  status_solicitations : int;
      (** status requests multicast to unblock a full history *)
  resets_survived : int;  (** recovery incarnations installed *)
  duplicates_dropped : int;
      (** duplicated or stale frames refused by the receive paths *)
  stale_refused : int;
      (** of those, requests this member refused as sequencer because a
          later msgid from the same sender was already sequenced *)
  corrupt_dropped : int;  (** checksum-rejected damaged payloads *)
  reorders_absorbed : int;  (** frames slotted despite arriving late *)
  batches_sent : int;  (** sends carrying more than one client op *)
  ops_per_batch_avg : float;
      (** mean ops per batched send; 1.0 when nothing was batched *)
  pipeline_depth_hwm : int;
      (** most unacknowledged rounds ever in flight at once *)
}

val create_group :
  Flip.t ->
  ?resilience:int ->
  ?send_method:send_method ->
  ?history:int ->
  ?auto_heal:bool ->
  ?pipeline:int ->
  unit ->
  group
(** Creates a group; the creator is member 0 and its machine hosts the
    sequencer.  [resilience] is the paper's [r]: [SendToGroup] returns
    only once at least [r] other kernels hold the message, and the
    group survives any [r] simultaneous processor failures without
    losing delivered messages.  [pipeline] (default 1) is the number
    of unacknowledged sequencer rounds this member may keep in flight;
    1 is the paper's lock-step behaviour. *)

val group_address : group -> Addr.t
(** The group's FLIP address — the "port" a joiner needs.  Distributed
    out of band (in Amoeba, as a capability via the directory
    service). *)

val join_group :
  Flip.t ->
  ?resilience:int ->
  ?send_method:send_method ->
  ?history:int ->
  ?auto_heal:bool ->
  ?pipeline:int ->
  Addr.t ->
  (group, error) result

val leave_group : group -> (unit, error) result

val send_to_group :
  ?copy:bool -> ?ops:int -> group -> bytes -> (seqno, error) result
(** [copy] (default true) mirrors Amoeba's user→kernel copy: the
    message is taken at call time so the caller may reuse its buffer.
    Library layers that frame into a fresh buffer per send pass
    [~copy:false] to hand the buffer over and skip the allocation.
    [ops] (default 1) declares how many client operations the body
    carries so the simulation charges a batched message its real
    per-op wire bytes and CPU; the payload itself stays opaque. *)

val receive_from_group : group -> event
(** Blocks until the next totally-ordered event (message, membership
    change or reset notice). *)

val receive_opt : group -> event option
(** Non-blocking variant. *)

val reset_group : group -> min_members:int -> (int, error) result

val get_info_group : group -> info

val kernel : group -> Kernel.t
(** Escape hatch for tests and benchmarks. *)
