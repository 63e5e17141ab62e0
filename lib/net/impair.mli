(** The hostile-link model both fabrics share: injected whole-frame
    loss, partitions, one-way cuts and per-directed-link conditions
    (Gilbert–Elliott bursts, duplication, delivery jitter,
    corruption), with their counters.

    A beyond-paper extension: the paper's testbed was one shared
    segment and only crash failures were modelled, but the recovery
    protocol is also exercised by members that are alive yet
    unreachable, and by links that lose, repeat, reorder or damage
    frames.  A fabric owns one [t] and consults it at two points:
    {!lose} once per transmitted frame (where the Ether's transmission
    ends, at the switch's store-and-forward ingress), and {!deliver}
    once per receiver, where a copy reaches a station.  The sender
    always observes [`Sent]; every impairment is silent.  Draws come
    from the engine's deterministic RNG. *)

open Amoeba_sim

type t

val create : Engine.t -> t

(** {1 The two observation points} *)

val lose : t -> Frame.t -> bool
(** [lose t frame] is true (and counted in {!frames_lost}) when
    injected loss swallows the whole frame before any receiver sees
    it. *)

val quiet : t -> bool
(** No partition, one-way cut or non-clean condition is installed:
    {!deliver} would hand every copy straight to its receiver with no
    RNG draw, so a fabric may skip it.  Two cheap reads. *)

val deliver : t -> dst:int -> (Frame.t -> unit) -> Frame.t -> unit
(** [deliver t ~dst rx frame] applies, in order, the partition, the
    one-way cut and the [frame.src -> dst] link's conditions (burst
    loss, then corruption and jitter per copy, then duplication) and
    calls [rx] with each surviving copy.  A jittered copy calls [rx]
    from a root-group event when its delay expires. *)

(** {1 Whole-frame loss} *)

val set_drop_fun : t -> (Frame.t -> bool) option -> unit
(** [set_drop_fun t (Some f)] silently discards every transmitted frame
    for which [f] returns true — the "lost message" case the
    negative-acknowledgement machinery exists for.  [None] disables
    it. *)

val set_loss_rate : t -> float -> unit
(** Random independent frame loss with the given probability.
    Composes with {!set_drop_fun}. *)

val loss_rate : t -> float
(** Current {!set_loss_rate} setting, so a transient burst can restore
    whatever rate was in force before it. *)

val frames_lost : t -> int
(** Frames discarded by {!set_drop_fun} or {!set_loss_rate}. *)

(** {1 Partitions}

    A partition severs a set of station {e pairs}: delivery to a
    station across a cut is suppressed, as if a bridge between
    segments went down. *)

val partition : t -> int list -> int list -> unit
(** [partition t side_a side_b] severs every pair with one station in
    [side_a] and the other in [side_b].  Pairs are symmetric. *)

val partition_pair : t -> int -> int -> unit

val heal : t -> unit
(** Removes every cut, symmetric and one-way. *)

val partition_drops : t -> int
(** Deliveries suppressed by partitions (counted per receiver, unlike
    {!frames_lost} which counts whole frames). *)

(** {1 One-way cuts}

    A directed partition: frames from [src] never reach [dst] while
    the reverse direction stays up — a failing transceiver or
    asymmetric routing fault.  Nastier than a symmetric cut because
    the deaf side still hears everyone and believes the net healthy. *)

val cut_oneway : t -> src:int -> dst:int -> unit

val heal_oneway : t -> src:int -> dst:int -> unit

val oneway_cut : t -> src:int -> dst:int -> bool

val oneway_drops : t -> int
(** Deliveries suppressed by one-way cuts (counted per receiver). *)

(** {1 Link conditions}

    Adversarial per-link behaviour beyond uniform loss: correlated
    (bursty) loss via a two-state Gilbert–Elliott channel,
    duplication, reordering via per-copy delivery jitter, and payload
    corruption.  Conditions apply per {e directed} link; a default
    applies to every link without an override. *)

type gilbert = {
  p_gb : float;  (** good → bad transition probability, per frame *)
  p_bg : float;  (** bad → good *)
  loss_good : float;  (** loss probability while in the good state *)
  loss_bad : float;  (** loss probability while in the bad state *)
}

type conditions = {
  gilbert : gilbert option;  (** bursty loss; [None] = lossless *)
  dup_prob : float;  (** probability a delivered frame arrives twice *)
  jitter_ns : int;
      (** each delivery is delayed by a uniform draw from
          [0, jitter_ns], so later frames can overtake earlier ones *)
  corrupt_prob : float;
      (** probability a delivered copy has a bit flipped at a random
          byte offset; receivers' checksums must catch it *)
}

val clean : conditions
(** No loss, duplication, jitter or corruption. *)

val set_conditions : t -> conditions -> unit
(** Sets the default conditions for every link without a per-link
    override, and resets the default Gilbert–Elliott channel to the
    good state. *)

val conditions : t -> conditions

val set_link_conditions : t -> src:int -> dst:int -> conditions option -> unit
(** Overrides the conditions on one directed link ([None] removes the
    override, falling back to the default). *)

val link_conditions : t -> src:int -> dst:int -> conditions option

val cond_losses : t -> int
(** Deliveries suppressed by Gilbert–Elliott loss (per receiver). *)

val duplicates_injected : t -> int

val corruptions_injected : t -> int

val frames_jittered : t -> int
