(** Value-size distributions for generated writes. *)

type t =
  | Fixed of int  (** every value exactly this many bytes *)
  | Uniform of int * int  (** inclusive [min, max] *)
  | Lognormal of float * float
      (** [(median, sigma)]: sizes are [median · exp(σZ)], Z standard
          normal — the classic heavy-tailed object-size shape (most
          values small, a fat tail of large ones) *)

val of_string : string -> (t, string) result
(** ["fixed:32"], ["uniform:16:256"], ["lognormal:64:1.0"].  A
    distribution that can draw a value above 1 MiB is an error; for
    [Lognormal] the largest draw is [median·exp(8.57σ)]. *)

val to_string : t -> string

val draw : t -> Random.State.t -> int
(** A size in bytes, always >= 1.  Each draw consumes a fixed number
    of rng draws per constructor, so a seeded stream is reproducible
    independent of the values drawn. *)

val mean : t -> float
(** The distribution's expected size (exact for [Fixed]/[Uniform],
    the analytic [median·exp(σ²/2)] for [Lognormal]). *)
