(** Declarative fault schedules for chaos testing.

    A schedule is a list of timestamped fault actions applied to a
    {!Cluster.t}: crash/restart, CPU pause/resume (the "live but slow"
    member of the paper's expulsion discussion), network partitions
    and transient loss bursts.  Schedules are plain data — they can be
    generated from a seed, printed, parsed back and replayed exactly,
    which is what lets a failing swarm-test seed be re-run from the
    [chaos] CLI and shrunk to a minimal counterexample. *)

open Amoeba_sim

type action =
  | Crash of int  (** fail-stop machine [i] *)
  | Restart of int
      (** reboot machine [i] if crashed: memory and kernel state are
          fresh, but the machine remounts its disk — durable state in
          the stable store (minus the write cache lost at the crash)
          is readable again *)
  | Pause of int  (** stall machine [i]'s CPU; the wire keeps running *)
  | Resume of int  (** release a pause *)
  | Partition of int list * int list
      (** cut the Ethernet between two sets of station ids *)
  | Heal  (** remove all partition cuts *)
  | Loss_burst of float * Time.t
      (** [(rate, dur)]: random frame loss at [rate] for [dur].  Timed
          steps of one kind stack: while several overlap the newest
          sets the value, and once none is in force the value from
          before the first returns *)
  | Oneway of int * int
      (** [(src, dst)]: directed cut — frames from station [src] never
          reach [dst] while the reverse path stays up.  Removed by
          [Heal], like partitions. *)
  | Burst of float * float * float * Time.t
      (** [(p_gb, p_bg, loss_bad, dur)]: Gilbert–Elliott correlated
          loss on every link for [dur] (good-state loss 0) *)
  | Duplicate of float * Time.t
      (** [(prob, dur)]: each delivered frame arrives twice with
          probability [prob] *)
  | Jitter of int * Time.t
      (** [(ns, dur)]: per-frame delivery delay uniform in [0, ns], so
          frames can overtake each other *)
  | Corrupt of float * Time.t
      (** [(prob, dur)]: each delivered copy has bits flipped at a
          random byte offset with probability [prob]; checksums must
          catch it *)
  | Power_cycle_all of Time.t
      (** total power loss: {e every} machine (already-crashed ones
          included) goes down at once, and after the outage duration
          power returns and all of them reboot together.  Nothing
          survives in memory anywhere — recovery must come from the
          stable store, which is what the durability invariant
          checks. *)

type step = { at : Time.t; action : action }
(** [at] is absolute simulated time. *)

type schedule = step list

val apply :
  ?on_restart:(int -> unit) ->
  ?on_power_down:(unit -> unit) ->
  ?on_power_up:(unit -> unit) ->
  Cluster.t ->
  schedule ->
  unit
(** Schedules every step on the cluster's engine (steps whose time has
    already passed fire immediately).  [on_restart i] runs right after
    machine [i] reboots from a plain [Restart], so the harness can
    rebuild its FLIP stack's group membership.  [Power_cycle_all]
    instead brackets itself with [on_power_down] (the instant before
    everything dies — snapshot what "was acknowledged" means) and
    [on_power_up] (after every machine has rebooted — run durable
    recovery); the per-machine [on_restart] hook does {e not} fire for
    it, because there is no surviving group to rejoin. *)

val random :
  seed:int -> n:int -> ?horizon:Time.t -> ?power_cycles:bool -> unit -> schedule
(** A seeded random schedule for an [n]-machine cluster, with faults
    in [50ms, horizon] (default 2s).  Pure function of [seed]: it uses
    its own RNG, not the engine's.  Pauses are paired with resumes,
    partitions and one-way cuts with heals, and condition bursts
    (Gilbert–Elliott loss, duplication, jitter, corruption) carry
    their own bounded duration; at most [(n-1)/2] machines crash, so a
    majority quorum of the survivors remains for auto-heal recovery.
    With [~power_cycles:true] one [Power_cycle_all] is additionally
    drawn (after the main loop, so the base schedule for a seed is
    unchanged).  The power cycle is exempt from the (n-1)/2 bound —
    that bound protects quorum recovery among survivors, and a total
    power loss deliberately has none; it also makes {!crash_count} an
    undercount of what dies, which is why r-resilience durability
    claims must be gated off for such schedules (see
    [Chaos.durability_applies]). *)

val crash_count : schedule -> int
(** Number of [Crash] steps (restarts not subtracted; a
    [Power_cycle_all] is NOT counted — it downs everything) — used to
    decide whether r-resilience durability is guaranteed for a
    schedule. *)

val to_string : schedule -> string
(** One line, e.g. ["150000000:crash 0; 500000000:part 0,1/2,3; ..."].
    Round-trips exactly through {!of_string}. *)

val of_string : string -> schedule
(** Parses {!to_string}'s format; raises [Invalid_argument] on
    malformed input.  The result is sorted by time. *)

val pp : Format.formatter -> schedule -> unit
(** Multi-line human-readable rendering (times in ms). *)
