(** Simple descriptive statistics for experiment results.  Percentiles
    live in the loadgen [Histogram]; this accumulator keeps only what
    the paper's tables report. *)

type t
(** A mutable accumulator of float samples. *)

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float

val max_value : t -> float
