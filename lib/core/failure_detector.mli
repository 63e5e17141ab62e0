(** A standalone unreliable failure detector.

    The paper's section 5, on lessons learned: "the failure detection
    in the current system is intertwined with the protocol code for
    sending and receiving messages...  We should have put this
    functionality in a separate module so that we could have reasoned
    about it independently of the rest of the system."  This is that
    module.

    Semantics are the paper's (section 2.1): probe with retries; a
    process that does not respond within the budget is declared dead —
    which may be wrong ("some processes may be declared dead although
    they are functioning fine"), and that is accepted: the recovery
    protocol expels them so they cannot disturb the survivors. *)

open Amoeba_flip

type t

val create : Flip.t -> t
(** Registers a responder endpoint on this machine. *)

val address : t -> Addr.t
(** What other detectors probe. *)

val probe :
  t -> ?retries:int -> ?timeout:Amoeba_sim.Time.t -> Addr.t -> bool
(** [probe t addr] sends up to [retries] probes (default: the cost
    model's) and waits [timeout] for each reply; [false] means
    "declared dead".  Blocking; call from a process. *)

val probe_many :
  t -> ?retries:int -> ?timeout:Amoeba_sim.Time.t -> Addr.t list ->
  (Addr.t * bool) list
(** Probes concurrently; returns verdicts in the input order. *)

val probes_answered : t -> int
(** How many probes this endpoint has answered (for tests). *)

val stop : t -> unit
(** Stops answering (makes this endpoint look dead). *)

(** {1 Timeouts learned from traffic}

    How long a silence means anything depends on the peer: a sequencer
    that multicasts every 2 ms is suspicious after 15 ms of quiet, an
    idle one is not after 100.  The estimator learns that from the
    arrival times of the frames a member already receives, the way
    Jacobson's TCP estimator learns a retransmission timeout from
    round-trip samples. *)

type estimator
(** A pure value: feeding it returns a new one. *)

val estimator : floor:Amoeba_sim.Time.t -> cap:Amoeba_sim.Time.t -> estimator
(** Nothing heard yet: the smoothed gap starts at [cap], so only
    sustained traffic talks the period down — a burst of a few frames
    (a recovery's own traffic, say) cannot. *)

val heard : estimator -> Amoeba_sim.Time.t -> estimator
(** [heard e now] feeds the arrival time of one frame from the peer.
    Each gap since the previous arrival updates the smoothed gap (gain
    1/8) and its mean deviation (gain 1/4). *)

val forget : estimator -> estimator
(** Back to nothing heard, keeping the bounds: for a new peer. *)

val period : estimator -> Amoeba_sim.Time.t
(** [smoothed gap + 4 × deviation], clamped to [[floor, cap]]: how long
    the peer may stay silent before that is news. *)

val silent : estimator -> Amoeba_sim.Time.t -> bool
(** [silent e now]: nothing heard from the peer for a full period
    before [now] (or ever). *)

val wait : estimator -> Amoeba_sim.Time.t -> Amoeba_sim.Time.t
(** How long after [now] to look again: until the peer will have been
    silent for a full period, or a full period if it already has. *)
