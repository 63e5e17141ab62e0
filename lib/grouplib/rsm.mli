(** Replicated state machines over totally-ordered broadcast, with the
    two pieces of library support the paper's section 5 found missing:

    - {b atomic state transfer} for joiners (as Isis provided): a new
      replica obtains a snapshot positioned exactly in the message
      stream, so it observes the same state sequence as everyone else;
    - {b consistent checkpointing} (reference [15]): because updates
      are totally ordered, a snapshot taken every k-th update is a
      consistent cut; written to stable storage it survives even a
      whole-group failure.

    This is the state-machine approach the paper cites (Schneider
    [28]): keep replicas identical by feeding every replica the same
    totally-ordered update stream. *)

open Amoeba_flip
open Amoeba_core

type sync_policy =
  | Every_commit  (** fsync the WAL after every applied update *)
  | Group_fsync of int  (** fsync every k-th applied update *)
  | Checkpoint_only
      (** never fsync the WAL; only checkpoints (and the trims they
          trigger, which sync) advance the durable frontier *)

type durability = {
  store : Stable_store.t;
  log : string;
      (** this replica's stable identity on its own disk (e.g.
          ["shard0"]) — group addresses change across re-creation, so
          they cannot name durable state that must be found again
          after a whole-cluster restart *)
  sync : sync_policy;
  checkpoint_every : int;
      (** checkpoint (and trim the WAL) every k applied updates; 0
          disables checkpointing — pure WAL *)
}
(** Durable-replica configuration: every applied update is logged to a
    per-record-checksummed WAL, state is checkpointed on the given
    policy, and {!Make.recover} rebuilds the replica from
    checkpoint + WAL replay after a crash — including a whole-cluster
    power loss.  What survives is bounded by the {e durable frontier}:
    the fsync policy decides how many acknowledged-but-unsynced
    updates a power failure may eat. *)

val wal_name : durability -> string
(** The {!Stable_store} log id a durable replica journals to
    (["wal:<log>"]) — exposed for tests and disk-inspection tools. *)

val ckpt_name : durability -> string
(** The {!Stable_store} key its checkpoints live under
    (["ckpt:<log>"]). *)

type recovery_stats = {
  ckpt_count : int;  (** applied count restored from the checkpoint *)
  checkpoint_damaged : bool;
      (** the checkpoint existed but failed its checksum or decode;
          recovery fell back to replaying from the start of the WAL *)
  records_replayed : int;  (** WAL records applied on top *)
  torn_tails : int;  (** incomplete tail records truncated *)
  checksum_rejects : int;  (** damaged records (suffix refused) *)
}

(** The application plugged into the state machine. *)
module type APP = sig
  type state

  type update

  val initial : state

  val apply : state -> update -> state
  (** Must be deterministic: replicas apply the same stream. *)

  val encode_update : update -> bytes

  val decode_update : bytes -> update option

  val encode_state : state -> bytes

  val decode_state : bytes -> state option
end

module Make (App : APP) : sig
  type t

  val create :
    Flip.t ->
    ?resilience:int ->
    ?send_method:Types.send_method ->
    ?auto_heal:bool ->
    ?pipeline:int ->
    ?checkpoint:Stable_store.t * int ->
    ?durable:durability ->
    ?seed:App.state * int ->
    ?tap:(Types.event -> unit) ->
    unit ->
    t
  (** Creates the group with this machine as first replica.
      [?checkpoint:(store, k)] writes a consistent snapshot to stable
      storage every [k] applied updates (the legacy, non-WAL scheme).
      [?durable] makes the replica fully durable: committed updates
      are WAL-logged per the fsync policy, checkpoints trim the log,
      and {!recover} can rebuild the replica after any crash.  Without
      [?seed], the durable log is re-initialised — a fresh group is a
      fresh history; with [?seed] (typically from {!recover}) the WAL
      continues from the seed's update count.  [?auto_heal] turns on
      in-kernel failure detection, so a replicated service recovers
      from a crashed sequencer without application involvement.
      [?tap] observes every raw delivery-stream event before it is
      applied — the hook the chaos checker uses to collect per-replica
      streams.  [?pipeline] is the kernel's in-flight round depth
      ({!Amoeba_core.Api.create_group}); 1 is lock-step. *)

  val join :
    Flip.t ->
    ?resilience:int ->
    ?send_method:Types.send_method ->
    ?auto_heal:bool ->
    ?pipeline:int ->
    ?checkpoint:Stable_store.t * int ->
    ?durable:durability ->
    ?tap:(Types.event -> unit) ->
    Addr.t ->
    (t, Types.error) result
  (** Joins and performs atomic state transfer: blocks until this
      replica holds a snapshot consistent with its position in the
      stream.  The transferred state reflects every update sequenced
      before the transfer point; updates after it are applied
      normally.  With [?durable], the joiner's disk is reconciled
      after the transfer: any previous life of the log is wiped and a
      fresh checkpoint of the transferred state written, so a later
      {!recover} never replays records from a different history (a
      crash mid-reconcile leaves an empty log — the replica recovers
      as applied-0 and re-syncs by state transfer). *)

  val address : t -> Addr.t

  val group : t -> Api.group

  val submit : t -> App.update -> (Types.seqno, Types.error) result
  (** Blocking totally-ordered update. *)

  val submit_batch : t -> App.update list -> (Types.seqno, Types.error) result
  (** Blocking totally-ordered batch: one sequencer round carries the
      whole vector of updates, which every replica applies atomically
      in list order.  A single-element list takes the plain {!submit}
      path (identical bytes on the stream); the empty list is a
      programming error.  Batching amortises the sequencer's
      per-message CPU cost across the ops, the point of the exercise —
      Ring-Paxos-style batching on the paper's protocol. *)

  val submit_batch_pinned :
    t -> App.update list -> (App.state option, Types.error) result
  (** {!submit_batch}, pinned to its round: once this replica's applier
      has reached the round, returns the state the replica held just
      before it, so a caller can answer each read of the batch at its
      own place in the round — that state plus the round's earlier
      updates — however far the applier has got since, or however far
      behind its disk keeps it.  The applier captures that state for
      every round this replica sends; {!submit} and {!submit_batch}
      decline it, so nothing is kept for a round that reads nothing.
      [Ok None]: the round is sequenced but this replica cannot reach
      it, because its applier stopped (the replica was expelled) or
      passed the round without capturing it. *)

  val wire_of_update : App.update -> bytes
  (** The exact on-stream bytes {!submit} broadcasts for an update —
      what a delivery-stream tap will observe as the message body
      (used by checkers to match completed submits against delivered
      events). *)

  val wire_of_batch : App.update list -> bytes
  (** The exact on-stream bytes {!submit_batch} broadcasts for a batch
      of two or more updates (the checker-matching counterpart of
      {!wire_of_update}). *)

  val state : t -> App.state
  (** This replica's current state (reads are local, as in the
      paper's replicated servers). *)

  val applied : t -> int
  (** Number of updates applied so far (identical at any two replicas
      whenever they have delivered the same prefix). *)

  val leave : t -> (unit, Types.error) result

  val reset : t -> min_members:int -> (int, Types.error) result

  val checkpointed : Stable_store.t -> machine_name:string ->
    (App.state * int) option
  (** Reads this machine's last consistent checkpoint back from
      stable storage (usable after a crash, or even after the whole
      group failed — pass it to [create ~seed]).  The legacy scheme;
      durable replicas use {!recover}. *)

  val durable_snapshot : t -> (App.state * int) option
  (** The last durably checkpointed (state, applied count) of this
      replica — the durable frontier a bounded-staleness read may be
      served from without touching the ordered stream.  [None] when
      the replica is not durable or has not checkpointed yet. *)

  type recovered = {
    r_state : App.state;
    r_applied : int;
    r_stats : recovery_stats;
  }

  val recover :
    durability -> Amoeba_net.Machine.t -> (recovered, string) result
  (** Crash-restart recovery from this machine's own disk: load the
      checkpoint (checksum-verified; a damaged one is skipped and
      counted), then replay the WAL from the checkpoint's update
      count, skipping already-covered indices (the
      crash-between-checkpoint-and-trim window) and stopping at a torn
      tail or damaged record.  Blocking and costed — call it from a
      process on the recovering machine, then pass [r_state,
      r_applied] to [create ~seed] (or discard it and re-join by state
      transfer).  [Error] is a loud refusal: the surviving records
      cannot reconstruct any consistent prefix (an index gap, or a
      CRC-valid record that fails to decode); never applies a damaged
      suffix. *)
end
