(** The load driver: one measured trial of a YCSB-style mix against a
    freshly deployed sharded service, open-loop at a fixed offered rate
    or closed-loop with N clients.

    Open loop is coordinated-omission-safe by construction: arrivals
    are a Poisson process scheduled on the simulation clock,
    {e independent} of completions — a saturated service cannot slow
    the arrival stream down — and each operation's latency is measured
    from its {e intended arrival time}, so queueing delay a backlogged
    service inflicts is charged to the operation rather than silently
    skipped.  Closed loop is the paper's throughput measurement: every
    client sends back to back, one op at a time.  Both modes run the
    same per-op code into one log-bucketed {!Histogram} (O(1) per
    sample; ≤ [gamma−1] relative error on percentiles).

    Every trial builds its own cluster from the config seed, so a trial
    is a pure function of [(config, mode)] — the property the
    {!Saturation} search needs to be deterministic. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_harness
open Amoeba_service

type config = {
  shards : int;
  hosts : int;  (** replica machines; router machines come extra *)
  routers : int;
  replication : int;
  wire_mbps : int;
  net : Medium.spec * Medium.conditions;
      (** fabric + impairment profile (see {!Medium.net_of_string});
          conditions are applied after deploy, so the measured window
          sees them but cluster bring-up does not (unless
          {!bring_up}'s [impair_bring_up]) *)
  max_batch : int;
  batch_delay_us : int;
  pipeline_depth : int;
  mix : Mix.t;
  keys : int;
  value_dist : Dist.t;
  txn_size : int;  (** keys per multi-key transaction *)
  duration : Time.t;  (** measured window *)
  warmup : Time.t;  (** excluded from every reported figure *)
  seed : int;  (** the cluster's and the workload's *)
}

val default : config
(** 1 shard over 4 hosts + 2 routers, replication 2, 100 Mbit clean
    Ether, batch 32 / depth 4, YCSB-A over 1000 keys, 32-byte values,
    3-key transactions, 2 s window after 500 ms warmup, seed 11. *)

val placement : config -> Shard_map.t
(** The placement {!bring_up} deploys: [shards] groups of [replication]
    replicas over hosts [0 .. hosts-1]. *)

type deployment = {
  cfg : config;
  cluster : Cluster.t;
  map : Shard_map.t;  (** the placement the service was deployed with *)
  service : Service.t;
  routers : Router.t array;  (** one per router machine *)
}

val bring_up :
  ?disk:Cost_model.disk ->
  ?durable:Service.durable_config ->
  ?resilience:int ->
  ?record:bool ->
  ?stale_reads:bool ->
  ?impair_bring_up:bool ->
  config ->
  (deployment -> 'a) ->
  'a
(** [bring_up cfg body] builds the cluster ([hosts + routers] machines,
    [wire_mbps] wire, [disk] on every machine), deploys the service
    ([resilience] default 1, [durable], [record]), starts one router
    per router machine, applies [cfg.net]'s conditions — before the
    deploy instead with [impair_bring_up], as chaos runs want — then
    runs [body] as a cluster process and returns its result.  The
    clock is stepped until [body] returns, however long that takes.
    Raises [Failure] if the simulation runs dry first. *)

type mode =
  | Open of float  (** Poisson arrivals at this many ops/s *)
  | Closed of int
      (** this many clients, each one op at a time, no think time;
          client [i] of [n] starts at [i * warmup / (n - 1)], so the
          herd is complete when the window opens *)

type trial = {
  offered : float;  (** the open-loop rate (ops/s); 0 in closed loop *)
  attempted : int;  (** ops issued inside the measured window *)
  completed : int;
  failed : int;
      (** explicit failures: attempts exhausted, a refused transaction,
          or one whose reads did not return its own writes *)
  throughput : float;  (** completed per second of measured window *)
  completion : float;
      (** completed / attempted — open-loop ops still stuck when the
          drain grace ends count against it, which is how the SLO
          predicate sees a meltdown even when nothing returned
          [Failed] *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  reads : int;
  updates : int;
  inserts : int;
  txns : int;
  per_shard : int array;  (** completed ops by shard *)
}

val drive : deployment -> mode -> trial
(** Blocking — call it from [bring_up]'s body.  Runs [warmup + duration]
    of load, then returns: open loop after a 3 s drain grace, closed
    loop once every client's last op has returned. *)

val run : config -> rate:float -> trial
(** [bring_up] then an open-loop [drive]: deterministic in
    [(config, rate)]. *)

val pp_trial : Format.formatter -> trial -> unit

val trial_to_json : trial -> Bench_json.t
(** Every field of the trial under its own name; a latency with no
    sample behind it is [null]. *)
