(** The replicated application hosted by each shard — a string
    key/value store — plus the request/reply wire protocol spoken
    between routers and replicas over {!Amoeba_rpc.Rpc}.

    Every write carries a service-wide unique [uid], which makes
    updates idempotent to the eye of the chaos checker (two retries of
    the same logical write are distinct stream bodies) and lets the
    at-least-once router retry across a failover without tripping the
    no-duplicates invariant. *)

module Smap : Map.S with type key = string

(** The [Rsm.APP] instance replicated inside each shard's group. *)
module Store : sig
  type state = string Smap.t

  type update =
    | Put of { uid : int; key : string; value : string }
    | Del of { uid : int; key : string }

  val initial : state
  val apply : state -> update -> state
  val encode_update : update -> bytes
  val decode_update : bytes -> update option
  val encode_state : state -> bytes
  val decode_state : bytes -> state option
end

module Rsm_store : module type of Amoeba_grouplib.Rsm.Make (Store)

(** {1 Router/replica request protocol} *)

type request =
  | Get of string
  | Stale_get of string
      (** bounded-staleness read: the replica may answer from its last
          durable checkpoint (the durable frontier) instead of the
          live, totally-ordered state — never newer than the live
          state, never older than the last checkpoint *)
  | Put of string * string
  | Del of string

(** Why a replica refused an op.  On the wire each is its text:
    ["retired"], ["bad-request"], or the submit error as
    {!Amoeba_core.Types.error_to_string} prints it. *)
type refusal =
  | Retired  (** the shard migrated away; its new owners will serve *)
  | Bad_request  (** the request frame did not decode *)
  | Submit_failed of Amoeba_core.Types.error
      (** the group refused the write; [Not_a_member] means this
          replica was expelled and will refuse every write from now
          on, or, on a read, that it cannot reach the round the read
          sits in *)

type reply =
  | Value of string  (** [Get] hit *)
  | Not_found  (** [Get] miss *)
  | Written
      (** write sequenced: its round is in the shard's total order,
          though this replica's applier may not have applied it yet *)
  | Wrong_shard of int  (** contacted replica does not own this key *)
  | Busy of refusal  (** refused; see {!refusal} *)

val request_key : request -> string
val encode_request : request -> bytes
val decode_request : bytes -> request option
val encode_reply : reply -> bytes
val decode_reply : bytes -> reply option
(** [None] on a malformed frame, including a refusal text outside
    {!refusal}. *)

(** {1 Batched request protocol}

    A router that accumulates several client ops for the same shard
    ships them as one RPC ("B" frame) and gets one reply vector back
    ("R" frame), positionally matched to the requests.  The tag bytes
    are disjoint from the single-op frames, so a replica can serve
    both on one endpoint. *)

val encode_batch_request : request list -> bytes
val decode_batch_request : bytes -> request list option
val encode_batch_reply : reply list -> bytes
val decode_batch_reply : bytes -> reply list option
