(** Seeded mid-migration chaos: a live shard migration under a running
    Zipf workload, with crashes and power loss aimed at the transfer
    window, checked against {!Checker.migration_safety} plus the base
    invariants.

    The fixed scenario: 2 durable shards (replication 2, resilience 1,
    SSD disks) on 7 server hosts plus 2 router machines; a third of
    the way into the run shard 0 live-migrates from its deployed
    replicas to two fresh hosts, and the fault plan fires 10–150 ms
    into the transfer: crash the source sequencer, crash the
    destination head, and/or power off every server host (restarting
    275 ms later into a union-host {!Service.recover} and a sentinel
    readback under fsync-per-commit).  Everything is deterministic in
    the seed; a failing case prints an [amoeba migration-chaos] line
    that replays it exactly. *)

open Amoeba_harness
module Medium = Amoeba_net.Medium

type spec = {
  mc_seed : int;
  mc_net : Medium.spec * Medium.conditions;
      (** fabric + link conditions, as [--net] parses them; the swarm's
          hostile cases use the [adversarial] profile *)
  mc_crash_source : bool;
  mc_crash_dest : bool;
  mc_power_cycle : bool;
  mc_workers : int;
  mc_duration_ms : int;
}

val default : seed:int -> spec
(** Clean shared wire, no faults, 8 workers, 1200 ms. *)

type outcome = {
  o_spec : spec;
  o_migration : (unit, string) result option;
      (** [None] if the run ended before the attempt returned *)
  o_completed : int;  (** workload ops acknowledged *)
  o_failed : int;
  o_crashed : int list;  (** hosts killed (and, sans power cycle, left dead) *)
  o_recovered : bool;  (** a mid-migration power loss was recovered *)
  o_sentinels_acked : int;
  o_sentinels_lost : int;
  o_verdicts : (string * Checker.verdict) list;
      (** per shard; primed labels are the recovered service's *)
}

val run : spec -> outcome
(** One deterministic run; builds its own cluster. *)

val ok : outcome -> bool
(** There are verdicts, every one holds, and no acked sentinel was lost
    across the power cycle (which runs under fsync-per-commit). *)

val replay_line : spec -> string
(** The CLI invocation that replays this spec ([--workers] and
    [--duration] only when they differ from {!default}). *)

val pp_outcome : Format.formatter -> outcome -> unit
