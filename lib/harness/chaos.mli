(** Seeded chaos runs: a workload of concurrent group sends under a
    {!Fault} schedule, with the {!Checker} invariants evaluated over
    every member's delivery log afterwards.

    Everything is deterministic in [seed]: the cluster RNG, the
    workload pacing and (when no explicit schedule is given) the fault
    schedule itself, so any failing run — from the swarm test or the
    [chaos] CLI — replays exactly. *)

open Amoeba_sim
open Amoeba_core

type outcome = {
  seed : int;
  schedule : Fault.schedule;
  verdicts : Checker.verdict list;
  durability_checked : bool;
      (** false when the schedule exceeds the resilience degree *)
  sends_started : int;
  sends_completed : int;
  sends_aborted : int;  (** sends that returned an error *)
  nacks : int;
  retransmissions : int;
  solicitations : int;
  resets : int;  (** recovery incarnations installed, summed over members *)
  frames_lost : int;  (** frames dropped by loss injection *)
  partition_drops : int;  (** receptions suppressed by partitions *)
  queue_drops : int;
      (** switch-fabric tail drops (ingress + egress + uplink FIFOs);
          always 0 on the shared wire *)
  rx_overflows : int;  (** frames lost to full receive rings *)
  machine_restarts : int;
  duplicates_dropped : int;
      (** duplicate/stale frames refused by kernel receive paths *)
  corrupt_dropped : int;
      (** group-checksum rejections of damaged payloads, over kernels *)
  reorders_absorbed : int;  (** late frames slotted instead of refused *)
  flip_checksum_drops : int;
      (** header-corrupt frames dropped whole at the FLIP layer *)
  oneway_drops : int;  (** receptions suppressed by one-way cuts *)
  cond_losses : int;  (** frames lost to Gilbert–Elliott bursts *)
  dups_injected : int;
  corruptions_injected : int;
  batches_sent : int;  (** multi-op sends, summed over members *)
  ops_per_batch_avg : float;  (** mean ops per batched send; 1.0 if none *)
  pipeline_depth_hwm : int;
      (** most unacknowledged rounds any member had in flight *)
  durable : bool;
      (** a disk model was installed and members logged deliveries *)
  power_cycles : int;  (** whole-cluster power losses that fired *)
  wal_appends : int;  (** records logged across all member WALs *)
  disk_writes_dropped : int;  (** I/O lost to dead machines *)
  wal_records_replayed : int;  (** recovered after the power cycle *)
  torn_tails_truncated : int;  (** incomplete tail records dropped by replay *)
  checksum_rejects : int;  (** damaged records (and suffixes) refused *)
}

val run :
  ?n:int ->
  ?groups:int ->
  ?resilience:int ->
  ?send_method:Types.send_method ->
  ?msgs:int ->
  ?horizon:Time.t ->
  ?schedule:Fault.schedule ->
  ?net:Amoeba_net.Ether.conditions ->
  ?fabric:Amoeba_net.Medium.spec ->
  ?pipeline:int ->
  ?ops_per_send:int ->
  ?disk:Amoeba_net.Cost_model.disk ->
  seed:int ->
  unit ->
  outcome
(** [run ~seed ()] builds an [n]-machine cluster (default 4), forms
    [groups] concurrent groups (default 1) with [auto_heal] on — group
    [j] created by machine [j mod n], every machine a member of every
    group, all sharing the one Ethernet — has every member send [msgs]
    tagged messages per group over the first 2/3 of [horizon] (default
    2s) plus one flush message after the faults end (and after that
    member's last tagged send has returned), applies the
    schedule (default: {!Fault.random} from [seed]), runs 8 simulated
    seconds past the horizon so recovery can settle, and checks all
    four invariants {e independently per group} (verdicts are prefixed
    ["g<j>:"] when [groups > 1]): each group is its own total order,
    and traffic on one group must never leak into, duplicate within,
    or reorder another.

    [net] installs persistent link conditions (bursty loss,
    duplication, jitter, corruption) for the whole active phase; they
    are cleared one second after the horizon so tail repair and the
    flush run on a quiet net, like the schedule's bounded bursts.

    [fabric] (default [Medium.Shared]) selects the medium the cluster
    is built on: the paper's shared CSMA/CD wire or a switched
    full-duplex fabric ([Medium.Switched p]).  Schedules, conditions
    and invariants run unchanged on either.

    [pipeline] (default 1) sets every kernel's in-flight round depth;
    [ops_per_send] (default 1) declares each send as a batch of that
    many ops to the kernel's cost accounting — the body stays one
    opaque tagged string, so the checker still matches completed sends
    against delivered bodies.  Together they exercise the invariants
    with batching and pipelining on.

    [disk] turns on durable mode: the cluster's cost model uses that
    disk profile, every member synchronously logs each delivered
    message to a per-stream WAL in a shared
    {!Amoeba_grouplib.Stable_store}, and the run is additionally
    checked with {!Checker.durable_recovery} — on a healthy run the
    disks must agree with the streams; after a [Fault.Power_cycle_all]
    (which {e requires} [disk], at most one per schedule) the pre-cut
    logs are replayed with real I/O cost when power returns, each
    group is re-formed with the longest-log machine as creator, every
    member sends one post-recovery message, and the classic invariants
    run separately on the pre- and post-cut epochs (post verdicts
    prefixed ["post:"]) with I5 bridging them. *)

val ok : outcome -> bool

val durability_applies : resilience:int -> Fault.schedule -> bool
(** Whether a schedule stays within the regime where completed sends
    are guaranteed durable: at most [resilience] crashes and no
    partitions, one-way cuts, pauses or whole-cluster power cycles
    (any can sever a member — or a stalled sequencer — holding
    completed messages the survivors discard; a power cycle downs
    everyone, which is I5's regime, not I3's).  Loss, duplication,
    jitter and corruption do not turn the check off: repairing those
    is the protocol's whole claim. *)

val print_report : outcome -> unit
