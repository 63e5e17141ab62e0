(** The server side of the sharded service: one {!Amoeba_grouplib.Rsm}
    key/value replica group per shard, deployed over a
    {!Amoeba_harness.Cluster} according to a {!Shard_map}.

    Each replica exposes an RPC endpoint speaking the {!Kv} request
    protocol; writes are submitted to the shard's totally-ordered
    group (so every replica of a shard applies the same update
    sequence), reads are answered from the local copy.  Every request
    is served as a batch, a lone op as a batch of one, and its writes
    ride one sequencer round.  A batch that both reads and writes
    answers each read at its own place in that round: from the state
    this replica held just before the round plus the round's writes
    laid out ahead of the read, however far the replica's applier has
    got since or however far behind its disk keeps it
    ({!Amoeba_grouplib.Rsm.submit_batch_pinned}); a replica that
    cannot reach its round answers those reads
    [Busy (Submit_failed Not_a_member)].  A batch that only reads, or
    whose round failed, reads the live copy, and one that only writes
    does not wait for the applier.  A [Stale_get] reads the durable
    frontier wherever it sits.  Each host also
    runs a failure-detector responder, which routers probe to tell a
    slow replica from a dead one.  Replica groups are created with
    [auto_heal] on: when a shard's sequencer machine crashes, the
    surviving replicas expel it and elect a new sequencer without any
    help from this layer. *)

open Amoeba_flip
open Amoeba_core
open Amoeba_harness

type endpoint = {
  ep_shard : int;
  ep_host : int;  (** machine index in the cluster *)
  ep_addr : Addr.t;  (** RPC request endpoint *)
  ep_probe : Addr.t;  (** failure-detector responder on that host *)
}

type durable_config = {
  d_store : Amoeba_grouplib.Stable_store.t;
  d_sync : Amoeba_grouplib.Rsm.sync_policy;
  d_checkpoint_every : int;
}
(** Durable-shard configuration: each replica of shard [i] keeps a WAL
    and checkpoints under the stable identity ["shard<i>"] on its own
    host's disk (see {!Amoeba_grouplib.Rsm.durability}). *)

type host_recovery = {
  hr_host : int;
  hr_applied : int;  (** updates its disk could reconstruct; 0 on refusal *)
  hr_error : string option;  (** the loud refusal, when the disk is damaged *)
  hr_stats : Amoeba_grouplib.Rsm.recovery_stats option;
}

type shard_recovery = {
  sr_shard : int;
  sr_creator : int;  (** host whose recovered state won (most applied) *)
  sr_applied : int;  (** the applied count the shard restarted from *)
  sr_hosts : host_recovery list;
}

type t

val deploy :
  Cluster.t ->
  map:Shard_map.t ->
  ?resilience:int ->
  ?send_method:Types.send_method ->
  ?pipeline:int ->
  ?checkpoint:Amoeba_grouplib.Stable_store.t * int ->
  ?durable:durable_config ->
  ?record:bool ->
  ?eps_per_replica:int ->
  unit ->
  t
(** Creates every shard's group and joins its replicas (atomic state
    transfer included), per the map's placement.  Blocking — call it
    from a cluster process; it returns once all replicas are up.
    [resilience] (default 1) is each group's resilience degree.
    [checkpoint] enables consistent checkpointing on every replica.
    [record] (default false) taps every replica's delivery stream and
    logs every completed write, so {!check} can run the chaos
    invariants per shard after a faulted run.  [eps_per_replica]
    (default 4) is the RPC worker pool per replica: endpoints service
    one request at a time and a write occupies its endpoint for the
    whole submit round-trip, so a pool is what lets one replica hold
    several writes in flight.  [pipeline] (default 1) is each replica
    kernel's in-flight sequencer-round depth: with several endpoint
    workers submitting concurrently, depth > 1 lets a replica keep
    that many rounds unacknowledged instead of lock-stepping them.
    [durable] makes every replica log committed updates to a WAL and
    checkpoint per the config's policy, so {!recover} can bring the
    whole service back after a total power loss.  Raises [Failure]
    naming the shard and host when a replica cannot create or join its
    group ({!recover} too). *)

val recover :
  Cluster.t ->
  map:Shard_map.t ->
  durable:durable_config ->
  ?resilience:int ->
  ?send_method:Types.send_method ->
  ?pipeline:int ->
  ?record:bool ->
  ?eps_per_replica:int ->
  ?hosts_for:(int -> int list) ->
  unit ->
  t
(** Whole-cluster power-loss recovery, for a cluster whose machines
    have all been restarted: every host of every shard reads its own
    disk back (checkpoint + WAL replay, with real I/O cost, all hosts
    in parallel), the host that reconstructed the most updates
    re-creates the shard's group seeded with that state, and the
    others join by atomic state transfer — a host whose disk refuses
    recovery (damage) re-syncs that way too.  Blocking; returns once
    every shard serves again.  {!recovery_report} says what each disk
    yielded, and the per-replica [GetInfoGroup] counters account the
    replayed/torn/rejected records.  Endpoint arrays put the new
    creator's pool first — hand them to [Router.update_endpoints].

    [hosts_for] overrides the per-shard host list (default: the map's
    placement) — the mid-migration recovery path.  When the power died
    somewhere inside a {!migrate_shard}, the shard's durable state may
    sit on its old replica set, its new one, or both; pass the union
    and the longest-log election plus joiner disk reconcile restart
    the shard with exactly one owner whatever instant the cut hit. *)

val recovery_report : t -> shard_recovery list
(** Per-shard recovery outcomes ([[]] for a {!deploy}ed service). *)

val map : t -> Shard_map.t

val endpoints : t -> endpoint array array
(** Per shard, the sequencer host's pool first — what a {!Router}
    needs.  Round-robin over the whole array spreads load evenly over
    replicas and over each replica's endpoint pool. *)

val applied : t -> int -> (int * int) list
(** [applied t shard] is [(host, updates applied)] per live replica. *)

val group_info : t -> int -> (int * Api.info) list
(** [group_info t shard] is [(host, GetInfoGroup)] per live replica:
    its group kernel's counters, repair traffic included. *)

val reads : t -> int
(** Reads served, counted as they arrive on the wire: a router sends a
    frame's repeated reads of one key once ({!Router.coalesced}), so
    this counts read requests, not client reads. *)

val writes_ok : t -> int

val writes_busy : t -> int
(** Writes refused with a transient [Busy] reply (submit failed, e.g.
    mid-recovery) — the router retries these. *)

val checker_streams :
  t -> shard:int -> crashed:(int -> bool) -> Checker.stream list
(** Per-replica delivery streams of one shard (empty unless deployed
    with [~record:true]).  [crashed host] marks streams that must not
    be held to the durability invariant. *)

val completed : t -> shard:int -> (Types.mid * string) list
(** Completed writes of one shard, as (member, on-stream bytes) — the
    checker's durability obligations. *)

val check : t -> crashed:int list -> (int * Checker.verdict list) list
(** Runs all four chaos invariants independently per shard.
    Durability applies to a shard only when the crashed machines
    hosting its replicas number at most the resilience degree.  A
    shard a migration touched (completed or rolled back) additionally
    gets the {!Checker.migration_safety} verdict. *)

(** {2 Live migration} *)

type migration = {
  m_shard : int;
  m_from : int list;  (** replica hosts before the attempt *)
  m_to : int list;  (** requested target hosts *)
  m_started : Amoeba_sim.Time.t;
  m_finished : Amoeba_sim.Time.t;
  m_result : (unit, string) result;
}

val migrate_shard :
  t ->
  shard:int ->
  ?timeout:Amoeba_sim.Time.t ->
  hosts:int list ->
  unit ->
  (unit, string) result
(** State-transfers shard [shard]'s group onto [hosts] while the
    workload keeps running.  Blocking — call from a cluster process.

    Phase 1, no interruption: each destination {e joins} the running
    group, an atomic state transfer (the creator's checkpoint at a
    stream cut plus the buffered delta past it) after which the
    joiner's disk is reconciled to the transferred state.  Phase 2,
    the cutover: outgoing replicas retire (answering [Busy] so the
    router walks away), followers leave first and the outgoing
    sequencer leaves {e last} — the kernel's graceful-leave rule hands
    sequencer duty to the lowest-numbered survivor at a fixed point of
    the stream, so ordering is view-synchronous across the handoff —
    and each fully-left source disk is wiped (the durable handoff).
    The map entry is reassigned with the new sequencer's host first;
    hand {!endpoints} to [Router.update_endpoints] to close the
    dual-routing window, during which retried writes are covered by
    fresh-uid idempotence.

    Hosts shared between the old and new set keep their replica —
    moving only the sequencer away is
    [migrate_shard ~hosts:(followers @ [new_host])].

    Crash-safe: [timeout] (default 2 s) bounds every blocking step via
    root-side watchdogs; a destination dying mid-join rolls the whole
    attempt back (destinations retire and leave, the source keeps the
    shard) and returns [Error].  At every instant the shard has
    exactly one owning group — the {!Checker.migration_safety}
    invariant the chaos swarm enforces. *)

val migrations : t -> migration list
(** Every attempt, oldest first — including rolled-back ones. *)

val sequencer_of : t -> int -> int
(** The machine currently hosting shard [i]'s sequencer, per the live
    group's own view (falls back to the map when no replica answers) —
    where the shard's ordering CPU cost lands, which is what a
    {!Rebalancer} balances. *)

val shard_ops : t -> int array
(** Requests handled per shard since deployment (reads + writes +
    batched ops) — the load signal a {!Rebalancer} samples.  Like
    {!reads} it counts the requests on the wire: a read a router
    coalesced into an earlier one of its frame is not counted. *)

val check_migration : t -> shard:int -> crashed:int list -> Checker.verdict
(** Just the {!Checker.migration_safety} verdict for one shard — for
    drivers that need it on a service {!check} would not cover, e.g. a
    freshly {!recover}ed one after a mid-migration power loss. *)
