(** The client front-end of the sharded service.

    A router lives on a client machine.  It hashes each request's key
    through the {!Shard_map}, queues it on that shard's pipeline, and
    a pool of worker processes per shard performs the RPCs — so one
    slow shard never blocks traffic to the others, and each shard
    sustains several in-flight requests at once.

    Requests spread round-robin over the shard's replicas (any replica
    can serve a read from its local copy or submit a write — the
    group's sequencer orders writes regardless of which member submits
    them).  Every request, a {!txn} included, goes through its shard's
    pipeline and takes one path: a shipment retried by one policy, in
    the single-op frame for a lone op and the batch frame otherwise.
    Failure handling is at-least-once with idempotent, uid-tagged
    updates.  What each attempt's outcome makes the router do:
    - no endpoints installed (mid-handoff), or [Busy]: back off
      25 ms × attempt and retry;
    - [Busy] because the replica is no longer a member of its group
      (expelled): suspect its host and fail over at once;
    - [No_route]: suspect the host and back off 5 ms × attempt;
    - RPC timeout: probe the replica's failure detector — a {e slow}
      replica gets a 25 ms × attempt back-off, a {e dead} one is
      suspected and the request fails over at once;
    - [Wrong_shard]: the op fails (the router's map disagrees with the
      replica's, and another try would land on the same shard).

    Back-offs carry ±25 % deterministic jitter.  Only the refused or
    lost ops of a batch are retried; a transaction is retried whole. *)

open Amoeba_sim
open Amoeba_flip

type t

val create :
  Flip.t ->
  ?pipeline:int ->
  ?max_batch:int ->
  ?batch_delay:Time.t ->
  ?timeout:Time.t ->
  ?attempts:int ->
  ?stale_reads:bool ->
  map:Shard_map.t ->
  endpoints:Service.endpoint array array ->
  unit ->
  t
(** The endpoint map seeds the machine's FLIP route cache: every
    [ep_addr] and [ep_probe] routes to its [ep_host] without a WHOIS.

    [pipeline] is the number of concurrent workers per shard: by
    default 4, or 1 when [max_batch] > 1 (one gatherer per shard forms
    the largest batches); [timeout] (default 250 ms) bounds each RPC attempt;
    [attempts] (default 12) bounds retries/failovers per request; a
    dead-host verdict suspects every endpoint on that machine at
    once, so one failover spends one attempt however many endpoints
    the victim served.

    [stale_reads] (default false) makes every {!get} a bounded-
    staleness read ([Kv.Stale_get]): the replica answers from its last
    durable checkpoint when it has one, trading freshness — the read
    may miss updates applied since that checkpoint, but never ones a
    power loss could revoke — for a read that reflects only
    crash-proof state.  Writes are unaffected.

    [max_batch] (default 1) turns on op batching: a worker that takes
    a request off its shard's pipeline takes every request already
    queued behind it, then keeps waiting for more until it holds
    [max_batch] requests — a transaction counts as one — or
    [batch_delay] (default 500 µs, Nagle-style) has passed since the
    first — whichever fires first — and ships the lot as one RPC,
    which the replica submits as one sequencer round.  [max_batch]
    ends the Nagle wait early; it does not cap the batch: a backlog
    that queued up during the previous round trip ships whole, so a
    saturated shard drains its queue in one round.  A batch is laid
    out as its single ops followed by its transactions, each
    transaction's ops together; the replica answers each read at its
    own place in the round, so transactions on a common key share a
    batch.  A batch frame carries each distinct read once: a get (or
    stale get) that repeats an earlier request of the frame, with no
    put or del of its key laid out between them, rides that earlier
    entry, and the entry's reply is copied back to every op riding it
    before the replies are fanned out ({!coalesced} counts them).
    This is exact, not a cache: the replica reads each op at its own
    place in the round, and no write of the key separates an entry
    from the ops riding it, so the replica would have answered them
    alike; a transaction's get of a key it writes sits behind that
    write and never rides a get ahead of it.  At the default 1 every
    request ships alone: a lone op in the single-op frame, a
    transaction in the batch frame.  A timed-out batch is retried
    whole, a partly refused one only its refused single ops and
    transactions, each coalesced afresh; the fresh uid every write
    carries makes the replay safe (idempotent under the checker's
    no-duplicates invariant). *)

type reply =
  | Value of string
  | Not_found
  | Written
  | Failed of string  (** all attempts exhausted *)

val get : t -> string -> reply

val put : t -> string -> string -> reply

val del : t -> string -> reply
(** Blocking operations — call from a process. *)

type op = Get of string | Put of string * string | Del of string

val txn : t -> op list -> (reply list, string) result
(** A multi-key single-shard transaction.  Every key must hash to the
    same shard ([Error] otherwise, nothing sent).  The op list goes on
    its shard's pipeline as one unit and rides a batch whole, so the
    replica submits its writes in {e one} sequencer round
    ({!Amoeba_grouplib.Rsm.submit_batch_pinned}), contiguous on the
    shard's totally-ordered stream — atomic with respect to every other
    client.  The frame lays the transaction's writes before its reads
    (each group in the order given), and the replica answers each read
    at its own place in the round — the state before the round plus the
    round's writes ahead of it — so the reads return the transaction's
    own writes, and keys it only reads as they stood before its writes.
    Replies come back positionally, one per op in the order given, and
    none before all of them: if any op is refused, the
    whole transaction is retried, its reads included; the fresh uid
    each write carries per submission keeps replays idempotent.  With
    one worker per shard (the batching default) a transaction waits
    for the shard's in-flight batch, like any op.  Blocking. *)

type stats = {
  ops : int;  (** operations accepted *)
  retries : int;  (** extra attempts on a live replica *)
  failovers : int;
      (** switched replica after a suspected death or an expulsion *)
  redirects : int;  (** [Wrong_shard] replies, each failing its op *)
  probes_dead : int;  (** failure-detector verdicts of "dead" *)
  batches_sent : int;
      (** RPCs shipped in the batch frame: gathered batches, and
          transactions shipped alone *)
  ops_batched : int;  (** total ops across those batches *)
  partial_flushes : int;
      (** flushes forced by the [batch_delay] timer before the batch
          filled *)
  batch_retries : int;
      (** batch-frame replays of the ops still unanswered, after a
          failure or [Busy] *)
  stale_gets : int;  (** gets issued as bounded-staleness reads *)
  txns : int;  (** multi-key transactions accepted (ops counted in [ops]) *)
}

val stats : t -> stats

val coalesced : t -> int
(** Reads left off the wire because an earlier entry of the same frame
    answers them (see {!create}), summed over every frame sent, a
    retry's included. *)

val update_endpoints : t -> Service.endpoint array array -> unit
(** Swaps in a fresh per-shard endpoint map — the handoff after
    [Service.recover] re-created the groups or [Service.migrate_shard]
    moved one.  Suspicion {e carries over} for hosts present in both
    the old and new map (a swap must not reset the failure detector
    and aim the next request of every untouched shard at a known-dead
    host); hosts new to a shard start trusted.  Round-robin cursors
    reset; the reserve (sequencer-host) set is re-derived from each
    shard's first endpoint, which recovery and migration guarantee
    belongs to the new sequencer's machine.  The new endpoints' routes
    are seeded as in {!create}. *)

val suspected : t -> int -> int list
(** The machine indices shard [i]'s rotation currently suspects dead —
    a test hook for the carry-over contract above. *)

val suspect_host_for_test : t -> int -> int -> unit
(** [suspect_host_for_test t shard host] marks every one of shard
    [shard]'s endpoints on machine [host] suspect, as a dead-host
    verdict would.  Test hook. *)
