(** Seeded key-popularity generators behind every service workload:
    the loadgen driver's open- and closed-loop modes and the
    benchmark's trials draw keys here — one Zipf implementation.

    A generator owns any precomputed tables (the Zipf cumulative
    weights) and the mutable insert frontier the "latest" distribution
    follows; the caller supplies the [Random.State.t], so one shared
    generator serves many independently-seeded clients without
    coupling their draw sequences. *)

type dist =
  | Uniform
  | Zipf of float  (** skew exponent; 0.99 is the YCSB default *)
  | Latest of float
      (** YCSB-D's read-latest popularity: a Zipf-skewed offset back
          from the newest inserted key, so recent inserts are hot and
          popularity decays with age.  The frontier starts at [keys]
          and advances with {!insert}. *)

type t

val create : keys:int -> dist -> t
(** A generator over key indices [0 .. keys-1] (the initial key space;
    {!insert} can extend it).  Building a Zipf/Latest generator
    precomputes the cumulative weight table once — O(keys). *)

val sample : t -> Random.State.t -> int
(** Draw one key index.  Uniform: O(1).  Zipf/Latest: O(log keys) by
    inverse-CDF binary search over the precomputed table — exact, no
    rejection loop.  Latest indices count back from the current
    frontier, newest first. *)

val insert : t -> int
(** Allocate the next key index (the current frontier) and advance the
    frontier — the "insert" op of a YCSB-D-style workload.  Returns
    the allocated index.  Affects only where {!sample} aims a [Latest]
    generator; Uniform/Zipf keep drawing from the initial space. *)

val frontier : t -> int
(** Keys allocated so far (initially [keys]). *)

val key : int -> string
(** The wire key for an index: [key 7 = "k7"] — the convention every
    service workload uses. *)
