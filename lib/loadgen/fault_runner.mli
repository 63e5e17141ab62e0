(** The service fault runner: a measured load against a freshly
    deployed sharded service while a plan of timed faults fires, then
    the chaos invariants judge every replica stream.  [amoeba workload]
    turns its fault flags into a plan; [amoeba migration-chaos] is the
    fixed {!chaos} scenario with a seeded plan.

    One rule judges every run.  When the load stops the service gets 5
    simulated seconds to quiesce (nack repair and slow members drain
    the last acked writes into every stream), then each shard is
    checked.  A power cycle ends an epoch: the streams from before the
    cut are held to every invariant but durability (all their replicas
    died), and the recovered service is judged in full, migration-safety
    included.  An empty plan judges nothing. *)

open Amoeba_sim
open Amoeba_harness
open Amoeba_service

type action =
  | Crash of int  (** crash-stop this host, if it is still up *)
  | Migrate of { shard : int; hosts : int list; timeout : Time.t option }
      (** {!Service.migrate_shard}, then repoint the routers *)
  | Sentinels of int
      (** write keys [sentinel-0 ..] through the first router: the acked
          ones are what the next power cycle must not revoke *)
  | Power_cycle
      (** power off every server host, restart them 275 ms later,
          recover each shard from every host that ever held it (the
          deploy placement plus each migration's destinations), repoint
          the routers and read the acked sentinels back *)
  | Rebalance  (** start the {!Rebalancer}; each move repoints the routers *)

type step = { at : Time.t; action : action }
(** [at] is an offset from the start of the load.  Each step runs in a
    fiber of its own, spawned in plan order. *)

type counters = {
  routers : Router.stats list;  (** one per router *)
  reads : int;  (** the deployed service's request counters *)
  writes_ok : int;
  writes_busy : int;
  utilisation : float;  (** the fabric's *)
  frames : int;
  bytes : int;
  collisions : int;
  queue_drops : int;
  storage : Amoeba_grouplib.Stable_store.counters option;  (** with a disk *)
  applied : (int * int) list array;
      (** per shard, (host, updates applied) of the serving service *)
}

type sentinels = {
  acked : int;  (** sentinel writes acked by the time the run is judged *)
  lost : string list;  (** acked before the readback but not read back *)
}

type outcome = {
  measured : (Driver.trial * counters) option;
      (** read when the load stops; [None] when the deploy failed *)
  events : (Time.t * string) list;  (** the faults as they fired *)
  recovery : Service.shard_recovery list;  (** the last power cycle's *)
  sentinels : sentinels option;  (** read back after the last power cycle *)
  failure : string option;
      (** a failed deploy or recovery, or acked sentinels lost under
          fsync-per-commit *)
  verdicts : (string * Checker.verdict) list option;
      (** by shard, primed once per power cycle; [None] for an empty plan *)
}

val run :
  ?disk:Amoeba_net.Cost_model.disk ->
  ?durable:Service.durable_config ->
  ?resilience:int ->
  ?stale_reads:bool ->
  Driver.config ->
  Driver.mode ->
  step list ->
  outcome
(** Deterministic in its arguments; the options are {!Driver.bring_up}'s,
    and the link conditions apply from bring-up on.  A plan with a
    [Power_cycle] needs [durable]. *)

val ok : outcome -> bool
(** Nothing failed and every verdict holds; a judged run with no
    verdict is no pass. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 The mid-migration chaos scenario}

    2 durable shards (replication 2, SSD disks) on 7 server hosts plus
    2 routers, and a Zipf workload with 25 % reads over 200 keys whose
    first 50 ms are warm-up.  A third of the way in, shard 0 migrates to
    the fresh hosts m4 and m5 (600 ms step timeout).  10–150 ms into the
    transfer the plan crashes the source sequencer and/or the
    destination head, and/or power-cycles every server host after 6
    sentinels written at the quarter mark, under fsync-per-commit. *)

type chaos = {
  seed : int;
  net : Amoeba_net.Medium.spec * Amoeba_net.Medium.conditions;
  crash_source : bool;
  crash_dest : bool;
  power_cycle : bool;
  workers : int;
  duration_ms : int;  (** the whole run, warm-up included *)
}

val chaos : seed:int -> chaos
(** Clean shared wire, no faults, 8 workers, 1200 ms. *)

val run_chaos : chaos -> outcome
(** The three fault offsets are drawn from the seed up front, in the
    same order whichever faults are on. *)

val replay_line : chaos -> string
(** The [amoeba migration-chaos] line that replays it ([--workers] and
    [--duration] only when they differ from {!chaos}). *)
