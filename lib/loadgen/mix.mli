(** YCSB-style operation mixes.

    A mix is the probability split over operation kinds plus the key
    popularity shape the generator samples from (see
    {!Amoeba_service.Keygen}). *)

type t = {
  name : string;  (** for tables and JSON rows, e.g. ["ycsb-a"] *)
  read : float;  (** P(single-key read) *)
  insert : float;  (** P(insert of a brand-new key) — YCSB-D *)
  txn : float;  (** P(multi-key read-modify-write transaction) *)
  dist : Amoeba_service.Keygen.dist;
}
(** The remaining probability mass, [1 - read - insert - txn], is
    single-key updates. *)

type op_kind = Read | Update | Insert | Txn

val ycsb_a : t
(** 50 % reads / 50 % updates, Zipf 0.99 — update-heavy. *)

val ycsb_b : t
(** 95 % reads / 5 % updates, Zipf 0.99 — read-mostly. *)

val ycsb_c : t
(** 100 % reads, Zipf 0.99. *)

val ycsb_d : t
(** 95 % reads / 5 % inserts, read-latest popularity: reads skew to
    the most recently inserted keys. *)

val read_write : read:float -> Amoeba_service.Keygen.dist -> t
(** Single-key reads with probability [read], updates otherwise — the
    closed-loop service workloads' shape ([read] 0 is write-only). *)

val of_string : string -> (t, string) result
(** ["a"] | ["b"] | ["c"] | ["d"] (also with a ["ycsb-"] prefix). *)

val with_txn : t -> size_hint:int -> float -> t
(** [with_txn m ratio] moves [ratio] of the probability mass into
    multi-key transactions, taken from the update share first, then
    from reads.  [size_hint] only decorates the name (["+txnR@N"]).
    Raises [Invalid_argument] if [ratio] exceeds the available mass. *)

val draw : t -> Random.State.t -> op_kind
(** One rng draw, always consumed. *)
