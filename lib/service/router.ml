open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Amoeba_core
module Rpc = Amoeba_rpc.Rpc

type reply =
  | Value of string
  | Not_found
  | Written
  | Failed of string

type stats = {
  ops : int;
  retries : int;
  failovers : int;
  redirects : int;
  probes_dead : int;
  batches_sent : int;
  ops_batched : int;
  partial_flushes : int;
  batch_retries : int;
  stale_gets : int;
  txns : int;
}

type op = Get of string | Put of string * string | Del of string

(* What a shard's pipeline carries: a lone op, or a transaction whose
   ops ship in one frame and are settled and retried as one unit. *)
type item = Kv.request * reply Ivar.t
type job = Op of item | Txn of item list

let items = function Op item -> [ item ] | Txn items -> items

type shard_state = {
  queue : job Channel.t;
  turn : unit Channel.t;
      (* one token: the right to gather the next batch off the queue
         (batching mode only) *)
  mutable eps : Service.endpoint array;
  mutable suspect : bool array;
  mutable reserve : bool array;
      (* endpoints on the shard's sequencer host: kept out of the
         rotation while any other replica answers, so the sequencer
         machine spends its cycles ordering, not serving RPCs *)
  mutable rr : int;  (* round-robin cursor over replicas *)
}

type t = {
  engine : Engine.t;
  flip : Flip.t;
  map : Shard_map.t;
  shards : shard_state array;
  det : Failure_detector.t;
  timeout : Time.t;
  attempts : int;
  max_batch : int;
  batch_delay : Time.t;
  stale_reads : bool;
  mutable jseed : int;  (* xorshift state for retry-backoff jitter *)
  mutable s_stale_gets : int;
  mutable s_ops : int;
  mutable s_retries : int;
  mutable s_failovers : int;
  mutable s_redirects : int;
  mutable s_probes_dead : int;
  mutable s_batches_sent : int;
  mutable s_ops_batched : int;
  mutable s_partial_flushes : int;
  mutable s_batch_retries : int;
  mutable s_txns : int;
  mutable s_coalesced : int;
}

(* Next replica to try: round-robin over the ones not currently
   suspected dead, leaving the sequencer host's endpoints in reserve
   while any follower answers.  If every replica is suspect, forgive
   them all — the detector can be wrong, and a healed shard must
   become reachable again. *)
let pick ss =
  let n = Array.length ss.eps in
  if n = 0 then None
    (* a recovery handoff can momentarily leave a shard with no
       endpoints; the caller backs off rather than dividing by zero *)
  else begin
    let usable i = not ss.suspect.(i) in
    if not (Array.exists Fun.id (Array.init n usable)) then
      Array.fill ss.suspect 0 n false;
    let follower_up =
      Array.exists Fun.id
        (Array.init n (fun i -> usable i && not ss.reserve.(i)))
    in
    let want i = usable i && ((not follower_up) || not ss.reserve.(i)) in
    let rec go tries =
      let i = ss.rr mod n in
      ss.rr <- ss.rr + 1;
      if (not (want i)) && tries < 2 * n then go (tries + 1) else i
    in
    Some (go 0)
  end

(* Retry backoff with ±25% jitter.  Clients that all timed out on the
   same drowning replica back off by the same [ms * attempt], wake on
   the same boundary and re-collide forever — the herd just
   resynchronises at each step.  A per-router xorshift spreads them
   out deterministically; the stream is only consumed on a retry, so
   a healthy run sleeps zero times and stays bit-identical. *)
let backoff t ms attempt =
  let s = t.jseed in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  t.jseed <- s land max_int;
  let base = Time.ms (ms * attempt) in
  Engine.sleep t.engine (base / 1000 * (750 + (t.jseed mod 501)))

(* Endpoints on one machine share fate: a dead-host verdict for one
   condemns its whole pool, so the rotation skips them all instead of
   burning a timeout-and-probe cycle per sibling. *)
let suspect_host ss host =
  Array.iteri
    (fun j ep -> if ep.Service.ep_host = host then ss.suspect.(j) <- true)
    ss.eps

(* The single-op frame or the batch frame, chosen once per shipment
   and kept across its retries. *)
type frame = Single | Batch

let encode frame reqs =
  match (frame, reqs) with
  | Single, [ req ] -> Kv.encode_request req
  | _ -> Kv.encode_batch_request reqs

let decode frame bytes =
  match frame with
  | Single -> Option.map (fun rep -> [ rep ]) (Kv.decode_reply bytes)
  | Batch -> Kv.decode_batch_reply bytes

(* What one attempt ended in, for the ops it left unanswered. *)
type outcome =
  | No_endpoint  (* a recovery handoff left the shard none, for now *)
  | Garbled  (* a reply that does not decode, or of the wrong length *)
  | Refused of Service.endpoint * Kv.refusal list
  | No_route of Service.endpoint
  | Timed_out of Service.endpoint

let fail_over t ss ep =
  t.s_failovers <- t.s_failovers + 1;
  suspect_host ss ep.Service.ep_host

(* The retry policy, in one place: what the router does between an
   attempt and the next.  A replica expelled from its group refuses
   every write for good, so it is a dead endpoint; any other refusal
   means a recovering or migrating shard, given a moment.  FLIP failing
   to locate an endpoint looks like a dead host, but so does a
   congested wire eating the locate probes — so step aside briefly
   before hammering another replica.  A timeout asks the failure
   detector, like the group kernel would: alive means congested, the
   request probably still sits in the replica's queue and an immediate
   resend doubles its load exactly when it is drowning, so back off;
   only a dead verdict fails over at once. *)
let react t ss attempt = function
  | Garbled -> ()
  | Refused (ep, why) when List.mem (Kv.Submit_failed Types.Not_a_member) why ->
      fail_over t ss ep
  | No_endpoint | Refused _ -> backoff t 25 attempt
  | No_route ep ->
      fail_over t ss ep;
      backoff t 5 attempt
  | Timed_out ep ->
      if Failure_detector.probe t.det ep.Service.ep_probe then
        backoff t 25 attempt
      else begin
        t.s_probes_dead <- t.s_probes_dead + 1;
        fail_over t ss ep
      end

(* The first [n] elements of [xs], and the rest. *)
let rec split n xs =
  match xs with
  | x :: rest when n > 0 ->
      let mine, rest = split (n - 1) rest in
      (x :: mine, rest)
  | _ -> ([], xs)

(* Fans a reply vector back to its jobs' waiters and returns the jobs
   refused, each with its refusals.  A transaction is settled whole:
   one refused op holds back every reply of it, and the whole
   transaction goes round again, because its reads are its post-image
   only when they come from the round that applied its writes.  A
   [Wrong_shard] reply is final: the router hashes with the same map
   that picked this shard, so another try would land on the replica
   that just refused it. *)
let settle t jobs replies =
  let answer (_, iv) rep =
    let a =
      match rep with
      | Kv.Value v -> Value v
      | Kv.Not_found -> Not_found
      | Kv.Written -> Written
      | Kv.Wrong_shard s ->
          t.s_redirects <- t.s_redirects + 1;
          Failed (Printf.sprintf "wrong shard: owned by shard %d" s)
      | Kv.Busy _ -> assert false (* a job with a refusal is not settled *)
    in
    ignore (Ivar.try_fill iv a)
  in
  let rec go refused jobs replies =
    match jobs with
    | [] -> List.rev refused
    | job :: jobs -> (
        let mine, rest = split (List.length (items job)) replies in
        match
          List.filter_map (function Kv.Busy why -> Some why | _ -> None) mine
        with
        | [] ->
            List.iter2 answer (items job) mine;
            go refused jobs rest
        | why -> go ((job, why) :: refused) jobs rest)
  in
  go [] jobs replies

(* A frame's requests as they go on the wire: each distinct read once.
   A get or stale get that repeats an earlier request of the frame, with
   no put or del of its key between them, rides that earlier entry.
   Returns the wire requests and, per request, the index of the wire
   entry whose reply is its own. *)
let coalesce reqs =
  let seen = Hashtbl.create 16 in
  let (_, wire), slots =
    List.fold_left_map
      (fun (n, wire) req ->
        let ship () = ((n + 1, req :: wire), n) in
        match req with
        | Kv.Get _ | Kv.Stale_get _ -> (
            match Hashtbl.find_opt seen req with
            | Some i -> ((n, wire), i)
            | None ->
                Hashtbl.replace seen req n;
                ship ())
        | Kv.Put (k, _) | Kv.Del k ->
            Hashtbl.remove seen (Kv.Get k);
            Hashtbl.remove seen (Kv.Stale_get k);
            ship ())
      (0, []) reqs
  in
  (List.rev wire, slots)

(* One try at the shard's next replica.  Returns the jobs still
   unanswered and why.  The frame carries each distinct read once
   ([coalesce]) and the reply vector is expanded back to one reply per
   op before [settle].  That is exact: the replica answers every read
   from the state at its own place in the round, and an entry and the
   reads riding it sit at places no write of their key separates, so
   the replica would have given each the entry's reply.  A [Busy] entry
   refuses every op riding it, and each is retried with its job. *)
let attempt_once t client ss frame jobs =
  match pick ss with
  | None -> (jobs, No_endpoint)
  | Some i -> (
      (* Snapshot the arrays [i] indexes before the blocking call: a
         power-cycle recovery may run [update_endpoints] while the RPC is
         in flight, swapping in arrays of a different length, and the
         post-call verdict must land on the endpoint actually tried — not
         index out of bounds in the fresh state. *)
      let eps = ss.eps and suspect = ss.suspect in
      let ep = eps.(i) in
      let sent = List.concat_map (fun job -> List.map fst (items job)) jobs in
      let wire, slots = coalesce sent in
      let n_wire = List.length wire in
      t.s_coalesced <- t.s_coalesced + List.length sent - n_wire;
      match
        Rpc.call client ~dst:ep.Service.ep_addr ~timeout:t.timeout ~retries:1
          (encode frame wire)
      with
      | Ok bytes -> (
          suspect.(i) <- false;
          match decode frame bytes with
          | Some replies when List.length replies = n_wire ->
              let replies = Array.of_list replies in
              let refused =
                settle t jobs (List.map (Array.get replies) slots)
              in
              (List.map fst refused, Refused (ep, List.concat_map snd refused))
          | Some _ | None -> (jobs, Garbled))
      | Error `No_route -> (jobs, No_route ep)
      | Error `Timeout -> (jobs, Timed_out ep))

(* Performs one shipment: a lone op, a gathered batch or a transaction.
   Jobs refused or lost are retried, in the shipment's frame, until each
   has a definitive reply or [attempts] ran out.  A replayed write is
   safe: every write carries a fresh service-wide uid, so a replay is a
   distinct stream body and the no-duplicates invariant is untouched. *)
let rec ship t client ss frame jobs attempt =
  if attempt > t.attempts then
    List.iter
      (fun (_, iv) -> ignore (Ivar.try_fill iv (Failed "attempts exhausted")))
      (List.concat_map items jobs)
  else begin
    if attempt > 1 then begin
      t.s_retries <- t.s_retries + 1;
      if frame = Batch then t.s_batch_retries <- t.s_batch_retries + 1
    end;
    match attempt_once t client ss frame jobs with
    | [], _ -> ()
    | left, outcome ->
        react t ss attempt outcome;
        ship t client ss frame left (attempt + 1)
  end

(* A lone op keeps the single-op frame; anything else, a transaction
   alone included, ships in the batch frame. *)
let dispatch t client ss = function
  | [ Op _ ] as jobs -> ship t client ss Single jobs 1
  | jobs ->
      t.s_batches_sent <- t.s_batches_sent + 1;
      t.s_ops_batched <-
        t.s_ops_batched + List.length (List.concat_map items jobs);
      ship t client ss Batch jobs 1

(* Nagle-style accumulation: starting from one job taken off the queue,
   take every job already queued, then wait for more until the batch
   holds [max_batch] jobs or [batch_delay] expires — whichever fires
   first.  [max_batch] ends the wait, it does not cap the batch: a
   backlog that piled up during the last round trip ships whole, in one
   RPC and one sequencer round, so a saturated shard drains its queue
   instead of letting it grow by whatever exceeds [max_batch] per round
   trip.  A job is a lone op or a whole transaction.  Returns the jobs
   (submission order) and whether the flush was forced by the timer
   rather than by size. *)
let gather t ss first =
  let deadline = Engine.now t.engine + t.batch_delay in
  let rec go acc n =
    match Channel.try_recv ss.queue with
    | Some job -> go (job :: acc) (n + 1)
    | None when n >= t.max_batch -> (List.rev acc, false)
    | None -> (
        let remaining = deadline - Engine.now t.engine in
        if remaining <= 0 then (List.rev acc, true)
        else
          match Channel.recv_timeout t.engine ss.queue ~timeout:remaining with
          | Some job -> go (job :: acc) (n + 1)
          | None -> (List.rev acc, true))
  in
  go [ first ] 1

(* Lays a gathered batch out as its single ops followed by its
   transactions, each kept whole.  The replica answers each read at its
   own place in the batch's round, so a transaction reads its own
   writes wherever it sits, and any number of transactions on one key
   share a batch. *)
let compose jobs =
  let singles, txns =
    List.partition (function Op _ -> true | Txn _ -> false) jobs
  in
  singles @ txns

(* Leader/follower batching: the shard's single [turn] token is the
   right to gather the next batch, and only an {e idle} worker holds
   it.  While every worker is busy shipping, arrivals pile up on the
   queue untouched — they would only be waiting in line anyway — and
   the first worker to free up drains that whole backlog into one
   batch at once, however far past [max_batch] it has grown ([gather]).
   So batches grow exactly when the shard is saturated (where
   amortising the sequencer round matters) and the [batch_delay] Nagle
   timer only ever adds latency when there is spare capacity. *)
let worker t flip ss () =
  let client = Rpc.client flip in
  let rec loop () =
    (if t.max_batch <= 1 then
       (* the pre-batching path: no timer, each job ships alone *)
       dispatch t client ss [ Channel.recv t.engine ss.queue ]
     else begin
       Channel.recv t.engine ss.turn;
       let jobs, timed_out = gather t ss (Channel.recv t.engine ss.queue) in
       (* hand the gathering right to the next idle worker before the
          (long) RPC, so accumulation never stops *)
       Channel.send ss.turn ();
       if timed_out then t.s_partial_flushes <- t.s_partial_flushes + 1;
       dispatch t client ss (compose jobs)
     end);
    loop ()
  in
  loop ()

(* The endpoint map already says which machine serves each address:
   routes from it need no WHOIS.  Broadcast locates from every router
   at once interrupt every host, and the receive-ring drops they cause
   hide live sequencers from their members. *)
let seed_routes flip endpoints =
  Array.iter
    (Array.iter (fun (ep : Service.endpoint) ->
         Flip.add_route flip ep.ep_addr ~station:ep.ep_host;
         Flip.add_route flip ep.ep_probe ~station:ep.ep_host))
    endpoints

let create flip ?pipeline ?(max_batch = 1) ?(batch_delay = Time.us 500)
    ?(timeout = Time.ms 250) ?(attempts = 12) ?(stale_reads = false) ~map
    ~endpoints () =
  (* One worker per shard when batching: a single accumulate-and-ship
     pipeline per (router, shard) forms the largest batches and keeps
     replica endpoints uncontended; concurrency across routers and the
     kernels' pipelining cover the in-flight depth. *)
  let pipeline =
    Option.value pipeline ~default:(if max_batch > 1 then 1 else 4)
  in
  let machine = Flip.machine flip in
  let engine = Machine.engine machine in
  seed_routes flip endpoints;
  let t =
    {
      engine;
      flip;
      map;
      shards =
        Array.mapi
          (fun shard eps ->
            let seq_host = Shard_map.sequencer_host map shard in
            {
              queue = Channel.create ();
              turn = Channel.create ();
              eps;
              suspect = Array.make (Array.length eps) false;
              reserve =
                Array.map
                  (fun ep -> ep.Service.ep_host = seq_host)
                  eps;
              rr = 0;
            })
          endpoints;
      det = Failure_detector.create flip;
      timeout;
      attempts;
      max_batch = max 1 max_batch;
      batch_delay;
      stale_reads;
      jseed = 0x2545F491;
      s_stale_gets = 0;
      s_ops = 0;
      s_retries = 0;
      s_failovers = 0;
      s_redirects = 0;
      s_probes_dead = 0;
      s_batches_sent = 0;
      s_ops_batched = 0;
      s_partial_flushes = 0;
      s_batch_retries = 0;
      s_txns = 0;
      s_coalesced = 0;
    }
  in
  Array.iter
    (fun ss ->
      if t.max_batch > 1 then Channel.send ss.turn ();
      for _ = 1 to pipeline do
        Engine.spawn engine ~group:(Machine.group machine) (worker t flip ss)
      done)
    t.shards;
  t

let request t req =
  t.s_ops <- t.s_ops + 1;
  let s = Shard_map.shard_of_key t.map (Kv.request_key req) in
  let iv = Ivar.create () in
  Channel.send t.shards.(s).queue (Op (req, iv));
  Ivar.read t.engine iv

let get t k =
  if t.stale_reads then begin
    t.s_stale_gets <- t.s_stale_gets + 1;
    request t (Kv.Stale_get k)
  end
  else request t (Kv.Get k)

let put t k v = request t (Kv.Put (k, v))
let del t k = request t (Kv.Del k)

(* A multi-key single-shard transaction: the whole op list goes on its
   shard's pipeline as one job, which rides a batch whole, so its writes
   land in one sequencer round ([Rsm.submit_batch_pinned]), contiguous
   on the shard's totally-ordered stream (atomic: no other client's
   update interleaves them).  Its writes are laid out before its reads,
   and the replica answers each read at its own place in the round, so
   the reads return the transaction's own writes. *)
let txn t ops =
  match ops with
  | [] -> Error "empty transaction"
  | _ -> (
      let reqs =
        List.map
          (function
            | Get k -> Kv.Get k
            | Put (k, v) -> Kv.Put (k, v)
            | Del k -> Kv.Del k)
          ops
      in
      let shard_of r = Shard_map.shard_of_key t.map (Kv.request_key r) in
      let s0 = shard_of (List.hd reqs) in
      match List.find_opt (fun r -> shard_of r <> s0) reqs with
      | Some r ->
          Error
            (Printf.sprintf "transaction spans shards (%S on %d, %S on %d)"
               (Kv.request_key (List.hd reqs))
               s0 (Kv.request_key r) (shard_of r))
      | None ->
          t.s_ops <- t.s_ops + List.length reqs;
          t.s_txns <- t.s_txns + 1;
          let items = List.map (fun r -> (r, Ivar.create ())) reqs in
          let reads, writes =
            List.partition
              (function Kv.Get _, _ -> true | _ -> false)
              items
          in
          Channel.send t.shards.(s0).queue (Txn (writes @ reads));
          Ok (List.map (fun (_, iv) -> Ivar.read t.engine iv) items))

(* Swap in a fresh endpoint map — the recovery or migration handoff.
   The new sequencer host's pool comes first in each shard's array
   (that is [Service.recover] / [Service.migrate_shard]'s contract),
   so the reserve set is re-derived from it rather than from the
   static shard map, whose sequencer placement the swap may have
   changed.  Health state {e carries over} for hosts present in both
   maps: a migration typically moves one shard while the others keep
   their replicas, and resetting their suspicion would send the next
   request of every pinned shard straight back into a known-dead host
   — a spurious timeout-probe-failover wave per swap.  Hosts new to a
   shard start trusted.  Requests already queued simply get performed
   against the new endpoints; in-flight attempts against dead
   addresses fail over normally. *)
let update_endpoints t endpoints =
  seed_routes t.flip endpoints;
  Array.iteri
    (fun shard eps ->
      if shard < Array.length t.shards then begin
        let ss = t.shards.(shard) in
        let bad_host h =
          Array.exists Fun.id
            (Array.mapi
               (fun j ep -> ss.suspect.(j) && ep.Service.ep_host = h)
               ss.eps)
        in
        let suspect = Array.map (fun ep -> bad_host ep.Service.ep_host) eps in
        ss.eps <- eps;
        ss.suspect <- suspect;
        ss.reserve <-
          (if Array.length eps = 0 then [||]
           else
             let seq_host = eps.(0).Service.ep_host in
             Array.map (fun ep -> ep.Service.ep_host = seq_host) eps);
        ss.rr <- 0
      end)
    endpoints

(* Test hook: the hosts shard [i]'s rotation currently suspects. *)
let suspected t shard =
  let ss = t.shards.(shard) in
  List.sort_uniq compare
    (List.concat
       (Array.to_list
          (Array.mapi
             (fun j ep -> if ss.suspect.(j) then [ ep.Service.ep_host ] else [])
             ss.eps)))

let suspect_host_for_test t shard host = suspect_host t.shards.(shard) host

let stats t =
  {
    ops = t.s_ops;
    retries = t.s_retries;
    failovers = t.s_failovers;
    redirects = t.s_redirects;
    probes_dead = t.s_probes_dead;
    batches_sent = t.s_batches_sent;
    ops_batched = t.s_ops_batched;
    partial_flushes = t.s_partial_flushes;
    batch_retries = t.s_batch_retries;
    stale_gets = t.s_stale_gets;
    txns = t.s_txns;
  }

let coalesced t = t.s_coalesced
