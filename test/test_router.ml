(* Tests for the router's retry policy and batch composition.  A
   scripted fake replica — an RPC endpoint plus a failure-detector
   responder on one cluster machine, reached through a hand-built
   [Service.endpoint] — records every frame it decodes and answers each
   op with whatever the test says, so each row of the policy table
   (outcome -> action) is checked on its own, once for a lone op, once
   for a gathered batch and once for a transaction.  Then how a batch
   is laid out around transactions, a transaction retried whole, and
   the two directed fixes: a [Wrong_shard] reply fails the op instead
   of wedging the shard's pipeline, and an expelled replica is treated
   as a dead endpoint. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Amoeba_core
open Amoeba_harness
open Amoeba_service
module Rpc = Amoeba_rpc.Rpc
module Types_rpc = Amoeba_rpc.Types_rpc
module T = Types

(* ---------- the scripted fake replica ---------- *)

type frame = { batched : bool; reqs : Kv.request list }

type fake = {
  ep : Service.endpoint;
  mutable answer : (Kv.request -> Kv.reply) option;
      (* each op's reply, op by op; [None]: silence *)
  mutable frames : frame list;  (* every frame decoded, newest first *)
}

(* Every op gets [rep]; [None]: silence. *)
let uniform rep = Option.map (fun rep _ -> rep) rep

let count f p = List.length (List.filter p f.frames)

let fake_replica cl host =
  let eng = cl.Cluster.engine in
  let iv = Ivar.create () in
  Cluster.spawn_on cl host (fun () ->
      let flip = Cluster.flip cl host in
      let det = Failure_detector.create flip in
      let addr = Flip.fresh_addr flip in
      let f =
        {
          ep =
            {
              Service.ep_shard = 0;
              ep_host = host;
              ep_addr = addr;
              ep_probe = Failure_detector.address det;
            };
          answer = Some (fun _ -> Kv.Written);
          frames = [];
        }
      in
      let serve payload =
        let frame =
          match Kv.decode_batch_request payload with
          | Some reqs -> { batched = true; reqs }
          | None ->
              {
                batched = false;
                reqs = Option.to_list (Kv.decode_request payload);
              }
        in
        f.frames <- frame :: f.frames;
        match f.answer with
        | None ->
            Engine.sleep eng (Time.sec 60);
            Types_rpc.Reply Bytes.empty
        | Some answer ->
            let replies = List.map answer frame.reqs in
            Types_rpc.Reply
              (if frame.batched then Kv.encode_batch_reply replies
               else Kv.encode_reply (List.hd replies))
      in
      let (_ : Rpc.server) = Rpc.serve flip ~addr serve in
      Ivar.fill iv f);
  Ivar.read eng iv

(* ---------- the policy table ---------- *)

type mode = Lone | Gathered | Txn

let mode_name = function
  | Lone -> "lone op"
  | Gathered -> "gathered batch"
  | Txn -> "txn"

type row = {
  name : string;
  a : Kv.reply option;  (* what endpoint A answers; [None]: silent *)
  b : Kv.reply option;
  crash_a : bool;  (* A's machine crashes before the op *)
  ok : Router.reply -> bool;  (* every op's reply must pass *)
  retries : int;
  failovers : int;
  probes_dead : int;
  redirects_per_op : int;
  backed_off : bool option;
      (* whether the router slept a back-off; [None] when a probe's own
         wait hides it *)
  suspects_a : bool;
}

let written = function Router.Written -> true | _ -> false

let show = function
  | Router.Failed m -> "Failed " ^ m
  | Router.Written -> "Written"
  | Router.Value v -> "Value " ^ v
  | Router.Not_found -> "Not_found"

let attempts = 3
let timeout = Time.ms 50

(* The smallest back-off the router can sleep: 25 ms × 0.75 jitter. *)
let min_backoff = Time.us 18_750

let busy e = Some (Kv.Busy (Kv.Submit_failed e))

let rows =
  let base =
    {
      name = "";
      a = None;
      b = Some Kv.Written;
      crash_a = false;
      ok = written;
      retries = 1;
      failovers = 0;
      probes_dead = 0;
      redirects_per_op = 0;
      backed_off = Some false;
      suspects_a = false;
    }
  in
  [
    {
      base with
      name = "busy then written";
      a = busy T.Sequencer_unreachable;
      backed_off = Some true;
    };
    {
      base with
      name = "not a member fails over at once";
      a = busy T.Not_a_member;
      failovers = 1;
      suspects_a = true;
    };
    {
      base with
      name = "silent endpoint on a live host";
      backed_off = Some true;
    };
    {
      base with
      name = "crashed host";
      a = Some Kv.Written;
      crash_a = true;
      backed_off = None;
      failovers = 1;
      probes_dead = 1;
      suspects_a = true;
    };
    {
      base with
      name = "wrong shard fails the op";
      a = Some (Kv.Wrong_shard 1);
      ok = (function Router.Failed _ -> true | _ -> false);
      retries = 0;
      redirects_per_op = 1;
    };
    {
      base with
      name = "busy forever";
      a = Some (Kv.Busy Kv.Retired);
      b = Some (Kv.Busy Kv.Retired);
      ok = (fun r -> r = Router.Failed "attempts exhausted");
      retries = attempts - 1;
      backed_off = Some true;
    };
  ]

(* Sends the mode's ops: one put, two concurrent puts the router
   gathers into one batch, or a two-put transaction. *)
let send_ops cl router = function
  | Lone -> [ Router.put router "k0" "v" ]
  | Gathered ->
      let done_ch = Channel.create () in
      List.iter
        (fun k ->
          Cluster.spawn cl (fun () ->
              Channel.send done_ch (Router.put router k "v")))
        [ "k0"; "k1" ];
      List.init 2 (fun _ -> Channel.recv cl.Cluster.engine done_ch)
  | Txn -> (
      match
        Router.txn router [ Router.Put ("k0", "v"); Router.Put ("k1", "v") ]
      with
      | Ok replies -> replies
      | Error e -> Alcotest.failf "txn refused: %s" e)

let run_row mode row () =
  let cl = Cluster.create ~n:3 ~seed:5 () in
  let eng = cl.Cluster.engine in
  let result = ref None in
  Cluster.spawn cl (fun () ->
      let a = fake_replica cl 0 and b = fake_replica cl 1 in
      (* The map puts the shard's sequencer on the router's own machine,
         so neither fake endpoint is held in reserve. *)
      let map = Shard_map.create ~shards:1 ~replication:1 ~hosts:[ 2 ] () in
      let router =
        Router.create (Cluster.flip cl 2)
          ~max_batch:(if mode = Gathered then 32 else 1)
          ~timeout ~attempts ~map
          ~endpoints:[| [| a.ep; b.ep |] |]
          ()
      in
      (* One put to each endpoint caches both routes and leaves the
         rotation pointing at A again. *)
      List.iter
        (fun k ->
          if not (written (Router.put router k "v")) then
            Alcotest.fail "warm-up put failed")
        [ "w0"; "w1" ];
      a.answer <- uniform row.a;
      b.answer <- uniform row.b;
      if row.crash_a then Machine.crash (Cluster.machine cl 0);
      let s0 = Router.stats router and t0 = Engine.now eng in
      let frames () =
        let n p = count a p + count b p in
        (n (fun f -> not f.batched), n (fun f -> f.batched))
      in
      let singles0, batches0 = frames () in
      let replies = send_ops cl router mode in
      let s1 = Router.stats router in
      let singles1, batches1 = frames () in
      result :=
        Some
          ( replies,
            Engine.now eng - t0,
            s0,
            s1,
            (singles1 - singles0, batches1 - batches0),
            Router.suspected router 0 ));
  Cluster.run ~until:(Time.sec 30) cl;
  match !result with
  | None -> Alcotest.failf "%s: the ops never returned" (mode_name mode)
  | Some (replies, elapsed, s0, s1, (singles, batches), suspected) ->
      let n = List.length replies in
      let chk what = Alcotest.(check int) (mode_name mode ^ ": " ^ what) in
      List.iter
        (fun r ->
          if not (row.ok r) then
            Alcotest.failf "%s: unexpected reply %s" (mode_name mode) (show r))
        replies;
      chk "retries" row.retries (s1.Router.retries - s0.Router.retries);
      chk "failovers" row.failovers (s1.Router.failovers - s0.Router.failovers);
      chk "probes_dead" row.probes_dead
        (s1.Router.probes_dead - s0.Router.probes_dead);
      chk "redirects" (n * row.redirects_per_op)
        (s1.Router.redirects - s0.Router.redirects);
      if mode = Gathered then
        chk "one batch" 1 (s1.Router.batches_sent - s0.Router.batches_sent);
      (* The frame is chosen once per shipment and kept across its
         retries; the fakes count every frame that reached them. *)
      if mode = Lone then chk "batch frames" 0 batches
      else chk "single-op frames" 0 singles;
      chk "frames that reached a replica"
        (row.retries + 1 - if row.crash_a then 1 else 0)
        (singles + batches);
      Option.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: backed off (%.1f ms)" (mode_name mode)
               (Time.to_ms elapsed))
            b (elapsed >= min_backoff))
        row.backed_off;
      Alcotest.(check (list int))
        (mode_name mode ^ ": suspected")
        (if row.suspects_a then [ 0 ] else [])
        suspected

(* ---------- how transactions ride a shard's batches ---------- *)

(* One or two shards, both served by a single fake replica on machine
   0, and a router on machine 2.  The fake answers a get with
   [Value "v"] and a write with [Written] unless the test scripts
   otherwise.  [body] runs as a cluster process and must return. *)
let with_fake_shard ?(shards = 1) ?batch_delay ~max_batch body =
  let cl = Cluster.create ~n:3 ~seed:5 () in
  let finished = ref false in
  Cluster.spawn cl (fun () ->
      let f = fake_replica cl 0 in
      f.answer <-
        Some (function Kv.Get _ -> Kv.Value "v" | _ -> Kv.Written);
      let map = Shard_map.create ~shards ~replication:1 ~hosts:[ 2 ] () in
      let router =
        Router.create (Cluster.flip cl 2) ~max_batch ?batch_delay ~timeout
          ~attempts ~map
          ~endpoints:(Array.make shards [| f.ep |])
          ()
      in
      body cl map router f;
      finished := true);
  Cluster.run ~until:(Time.sec 30) cl;
  Alcotest.(check bool) "scenario finished" true !finished

(* Runs [calls] as concurrent processes, started in list order, and
   returns their results in that order once all have returned. *)
let concurrently cl calls =
  let ivs =
    List.map
      (fun call ->
        let iv = Ivar.create () in
        Cluster.spawn cl (fun () -> Ivar.fill iv (call ()));
        iv)
      calls
  in
  List.map (Ivar.read cl.Cluster.engine) ivs

let txn router ops =
  match Router.txn router ops with
  | Ok replies -> replies
  | Error e -> Alcotest.failf "txn refused: %s" e

let put k v = Router.Put (k, v)

let req_of = function
  | Router.Get k -> Kv.Get k
  | Router.Put (k, v) -> Kv.Put (k, v)
  | Router.Del k -> Kv.Del k

let pp_frame f =
  Printf.sprintf "%s[%s]"
    (if f.batched then "batch" else "single")
    (String.concat "; "
       (List.map
          (function
            | Kv.Get k | Kv.Stale_get k -> "get " ^ k
            | Kv.Put (k, _) -> "put " ^ k
            | Kv.Del k -> "del " ^ k)
          f.reqs))

let check_frames what want f =
  Alcotest.(check (list string))
    what (List.map pp_frame want)
    (List.map pp_frame (List.rev f.frames))

(* A transaction queued first and two single ops behind it ship as one
   batch frame: the singles first, then the transaction's ops, together,
   its writes ahead of its reads so that the reads return them.  The
   replies come back in the transaction's own order. *)
let test_singles_and_txn_share_a_batch () =
  with_fake_shard ~max_batch:32 (fun cl _ router f ->
      let t = [ Router.Get "t0"; put "t0" "x"; put "t1" "y" ] in
      let replies =
        concurrently cl
          [
            (fun () -> txn router t);
            (fun () -> [ Router.put router "s0" "v" ]);
            (fun () -> [ Router.get router "s1" ]);
          ]
      in
      check_frames "one batch frame, singles first"
        [
          {
            batched = true;
            reqs =
              [
                Kv.Put ("s0", "v");
                Kv.Get "s1";
                Kv.Put ("t0", "x");
                Kv.Put ("t1", "y");
                Kv.Get "t0";
              ];
          };
        ]
        f;
      Alcotest.(check (list (list string)))
        "every op answered"
        [ [ "Value v"; "Written"; "Written" ]; [ "Written" ]; [ "Value v" ] ]
        (List.map (List.map show) replies))

(* Transactions on a common key share one frame: the replica reads each
   op at its own place in the round, so none has to wait for the next
   batch. *)
let test_txns_on_a_key_share_a_frame () =
  with_fake_shard ~max_batch:32 (fun cl _ router f ->
      let t1 = [ put "k" "1"; put "a" "1" ]
      and t2 = [ put "k" "2"; put "b" "2" ]
      and t3 = [ put "c" "3"; put "d" "3" ] in
      let replies =
        concurrently cl (List.map (fun t () -> txn router t) [ t1; t2; t3 ])
      in
      check_frames "one frame"
        [ { batched = true; reqs = List.map req_of (t1 @ t2 @ t3) } ]
        f;
      List.iter
        (fun rs ->
          Alcotest.(check bool) "all written" true (List.for_all written rs))
        replies)

(* Unbatched, a lone op keeps the single-op frame and a transaction
   ships alone in the batch frame. *)
let test_unbatched_txn_ships_alone () =
  with_fake_shard ~max_batch:1 (fun cl _ router f ->
      ignore
        (concurrently cl
           [
             (fun () -> [ Router.put router "s0" "v" ]);
             (fun () -> txn router [ put "t0" "x"; put "t1" "y" ]);
           ]);
      Alcotest.(check (list string))
        "one frame each"
        [ "batch[put t0; put t1]"; "single[put s0]" ]
        (List.sort compare (List.map pp_frame f.frames)))

(* A transaction whose keys hash to two shards is refused before
   anything is sent. *)
let test_cross_shard_txn_refused () =
  with_fake_shard ~shards:2 ~max_batch:32 (fun _ map router f ->
      let on s =
        List.find
          (fun k -> Shard_map.shard_of_key map k = s)
          (List.init 100 (fun i -> "k" ^ string_of_int i))
      in
      (match Router.txn router [ put (on 0) "v"; put (on 1) "v" ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a cross-shard txn was accepted");
      Alcotest.(check int) "nothing sent" 0 (List.length f.frames))

(* The first attempt of [get k; put k "new"] reads the pre-image and has
   its write refused; the second commits.  The transaction's reads must
   come from the round that applied its writes, so it is retried whole,
   in the frame [put k; get k], and answers only once every op is. *)
let test_txn_retried_whole () =
  List.iter
    (fun max_batch ->
      with_fake_shard ~max_batch (fun _ _ router f ->
          f.answer <-
            Some
              (fun req ->
                let first = List.length f.frames = 1 in
                match req with
                | Kv.Get _ -> Kv.Value (if first then "old" else "new")
                | _ ->
                    if first then
                      Kv.Busy (Kv.Submit_failed T.Sequencer_unreachable)
                    else Kv.Written);
          let what = Printf.sprintf "max_batch %d" max_batch in
          Alcotest.(check (list string))
            (what ^ ": the post-image") [ "Value new"; "Written" ]
            (List.map show (txn router [ Router.Get "k"; put "k" "new" ]));
          let whole =
            { batched = true; reqs = [ Kv.Put ("k", "new"); Kv.Get "k" ] }
          in
          check_frames (what ^ ": replayed whole") [ whole; whole ] f))
    [ 1; 32 ]

(* ---------- max_batch ends the wait, it does not cap the batch ---------- *)

(* [n] concurrent puts on keys [prefix0] ... *)
let puts router prefix n =
  List.init n (fun i () -> [ Router.put router (prefix ^ string_of_int i) "v" ])

let frame_sizes f =
  List.rev_map (fun fr -> (fr.batched, List.length fr.reqs)) f.frames

(* A burst of exactly [max_batch] puts ships at once, in one batch
   frame, without waiting out a 1 s Nagle timer. *)
let test_full_burst_skips_the_timer () =
  with_fake_shard ~max_batch:4 ~batch_delay:(Time.sec 1)
    (fun cl _ router f ->
      let t0 = Engine.now cl.Cluster.engine in
      let replies = List.concat (concurrently cl (puts router "a" 4)) in
      let elapsed = Engine.now cl.Cluster.engine - t0 in
      Alcotest.(check bool) "all written" true (List.for_all written replies);
      Alcotest.(check (list (pair bool int))) "one batch frame" [ (true, 4) ]
        (frame_sizes f);
      Alcotest.(check int) "no timer flush" 0
        (Router.stats router).Router.partial_flushes;
      Alcotest.(check bool)
        (Printf.sprintf "no Nagle wait (%.1f ms)" (Time.to_ms elapsed))
        true
        (elapsed < Time.ms 100))

(* While one batch is in flight, 3 x [max_batch] puts queue up behind
   it.  The next shipment takes the whole backlog: one batch frame, one
   RPC, one sequencer round, not three [max_batch]-sized ones. *)
let test_backlog_ships_in_one_frame () =
  with_fake_shard ~max_batch:4 ~batch_delay:(Time.sec 1)
    (fun cl _ router f ->
      let eng = cl.Cluster.engine in
      let held = ref false in
      f.answer <-
        Some
          (fun _ ->
            if not !held then begin
              held := true;
              Engine.sleep eng (Time.ms 20)
            end;
            Kv.Written);
      let first = Ivar.create () in
      Cluster.spawn cl (fun () ->
          Ivar.fill first (concurrently cl (puts router "a" 4)));
      Engine.sleep eng (Time.ms 5);
      let t0 = Engine.now eng in
      let backlog = List.concat (concurrently cl (puts router "b" 12)) in
      let elapsed = Engine.now eng - t0 in
      let first = List.concat (Ivar.read eng first) in
      Alcotest.(check bool) "all written" true
        (List.for_all written (first @ backlog));
      Alcotest.(check (list (pair bool int)))
        "the in-flight batch, then the whole backlog in one frame"
        [ (true, 4); (true, 12) ]
        (frame_sizes f);
      Alcotest.(check int) "no timer flush" 0
        (Router.stats router).Router.partial_flushes;
      Alcotest.(check bool)
        (Printf.sprintf "no Nagle wait (%.1f ms)" (Time.to_ms elapsed))
        true
        (elapsed < Time.ms 100))

(* ---------- Wrong_shard cannot wedge a shard's pipeline ---------- *)

(* A router whose endpoint map has the two shards swapped sends a
   shard-0 key to shard 1's replicas, which answer [Wrong_shard 0].
   Re-hashing with the router's own map would re-queue the op onto the
   shard that just refused it, and the waiting workers would block on
   it forever; the op must fail instead, naming the shard. *)
let test_wrong_shard_fails_fast () =
  List.iter
    (fun (max_batch, as_txn) ->
      let cl = Cluster.create ~n:5 ~seed:3 () in
      let result = ref None in
      Cluster.spawn cl (fun () ->
          let map =
            Shard_map.create ~shards:2 ~replication:2 ~hosts:[ 0; 1; 2; 3 ] ()
          in
          let svc = Service.deploy cl ~map ~resilience:0 () in
          let eps = Service.endpoints svc in
          let router =
            Router.create (Cluster.flip cl 4) ~max_batch ~map
              ~endpoints:[| eps.(1); eps.(0) |]
              ()
          in
          let key =
            List.find
              (fun k -> Shard_map.shard_of_key map k = 0)
              (List.init 100 (fun i -> "k" ^ string_of_int i))
          in
          result :=
            Some
              (if as_txn then
                 match Router.txn router [ Router.Put (key, "v") ] with
                 | Ok [ r ] -> r
                 | _ -> Alcotest.fail "txn refused"
               else Router.put router key "v"));
      Cluster.run ~until:(Time.sec 10) cl;
      let what =
        Printf.sprintf "max_batch %d%s" max_batch
          (if as_txn then " txn" else "")
      in
      match !result with
      | Some (Router.Failed m) ->
          Alcotest.(check bool)
            (what ^ ": names the owning shard") true
            (String.ends_with ~suffix:"shard 0" m)
      | Some _ -> Alcotest.failf "%s: a misrouted put succeeded" what
      | None -> Alcotest.failf "%s: the put never returned" what)
    [ (1, false); (32, false); (1, true) ]

(* ---------- an expelled replica is a dead endpoint ----------

   At resilience 2 every write waits for both followers' acks, so a
   follower whose CPU is paused stalls the shard until the sequencer's
   heartbeat starts a recovery that expels it.  Resumed, it is alive
   but no longer a member, and refuses every write.  The router must
   take that refusal as a dead endpoint: suspect the host and fail over
   at once, without backing off on a replica that will never serve. *)
let test_expelled_replica_is_dead () =
  let cl = Cluster.create ~n:4 ~seed:7 () in
  let eng = cl.Cluster.engine in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2 ] ()
      in
      let svc = Service.deploy cl ~map ~resilience:2 () in
      let on h =
        List.filter
          (fun ep -> ep.Service.ep_host = h)
          (Array.to_list (Service.endpoints svc).(0))
      in
      let puts router prefix n =
        for i = 1 to n do
          match Router.put router (prefix ^ string_of_int i) "v" with
          | Router.Written -> ()
          | _ -> Alcotest.failf "put %s%d failed" prefix i
        done
      in
      (* Writes through the other follower only, while host 1 is
         paused, so the router under test has no history with it. *)
      let pinned =
        Router.create (Cluster.flip cl 3) ~map
          ~endpoints:[| Array.of_list (on 2) |]
          ()
      in
      Machine.pause (Cluster.machine cl 1);
      puts pinned "p" 10;
      Machine.resume (Cluster.machine cl 1);
      Engine.sleep eng (Time.sec 3);
      let c = Rpc.client (Cluster.flip cl 3) in
      (match
         Rpc.call c ~dst:(List.hd (on 1)).Service.ep_addr
           (Kv.encode_request (Kv.Put ("probe", "v")))
       with
      | Ok b
        when Kv.decode_reply b
             = Some (Kv.Busy (Kv.Submit_failed T.Not_a_member)) ->
          ()
      | _ -> Alcotest.fail "the paused follower was not expelled");
      (* Host 0 holds the sequencer and is kept in reserve, so the
         rotation starts on host 1. *)
      let router =
        Router.create (Cluster.flip cl 3) ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      let t0 = Engine.now eng in
      puts router "a" 1;
      let first = Engine.now eng - t0 in
      puts router "b" 10;
      let st = Router.stats router in
      Alcotest.(check bool)
        (Printf.sprintf "no back-off on the expelled replica (%.1f ms)"
           (Time.to_ms first))
        true (first < min_backoff);
      Alcotest.(check int) "one failover" 1 st.Router.failovers;
      Alcotest.(check int) "one retry" 1 st.Router.retries;
      Alcotest.(check (list int)) "expelled host suspected" [ 1 ]
        (Router.suspected router 0);
      done_ := true);
  Cluster.run ~until:(Time.sec 30) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* ---------- the endpoint map seeds the route cache ----------

   A router is told which machine serves every endpoint, so it must not
   broadcast a WHOIS to find one: from every router at once, those
   broadcasts interrupt every host.  The endpoints here swallow every
   packet, so nothing ever locates the router's own addresses, and
   every broadcast frame from the router's machine would be one of its
   WHOIS.  The drop function drops nothing; it only counts. *)
let test_router_seeds_routes () =
  let cl = Cluster.create ~n:3 ~seed:5 () in
  let whois = ref 0 and received = ref 0 in
  Impair.set_drop_fun (Medium.impair cl.Cluster.net)
    (Some
       (fun f ->
         if f.Frame.src = 2 && f.Frame.dest = Frame.Broadcast then incr whois;
         false));
  let silent host =
    let flip = Cluster.flip cl host in
    let addr = Flip.fresh_addr flip and probe = Flip.fresh_addr flip in
    Flip.register flip addr (fun _ -> incr received);
    Flip.register flip probe (fun _ -> ());
    { Service.ep_shard = 0; ep_host = host; ep_addr = addr; ep_probe = probe }
  in
  let finished = ref false in
  Cluster.spawn cl (fun () ->
      let map = Shard_map.create ~shards:1 ~replication:1 ~hosts:[ 2 ] () in
      let router =
        Router.create (Cluster.flip cl 2) ~timeout:(Time.ms 20) ~attempts:2
          ~map
          ~endpoints:[| [| silent 0; silent 1 |] |]
          ()
      in
      ignore (Router.put router "k" "v");
      let first = !received in
      Alcotest.(check int) "no WHOIS for the map's endpoints" 0 !whois;
      Router.update_endpoints router [| [| silent 0; silent 1 |] |];
      ignore (Router.put router "k" "v");
      Alcotest.(check int) "none for the swapped-in ones either" 0 !whois;
      Alcotest.(check bool) "both puts reached the endpoints" true
        (first > 0 && !received > first);
      finished := true);
  Cluster.run ~until:(Time.sec 30) cl;
  Alcotest.(check bool) "scenario finished" true !finished

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "router",
    List.concat_map
      (fun row ->
        List.map
          (fun mode ->
            tc (Printf.sprintf "policy: %s (%s)" row.name (mode_name mode))
              (run_row mode row))
          [ Lone; Gathered; Txn ])
      rows
    @ [
        tc "singles and a txn share a batch, singles first"
          test_singles_and_txn_share_a_batch;
        tc "txns on a common key share one frame"
          test_txns_on_a_key_share_a_frame;
        tc "unbatched, a txn ships alone in the batch frame"
          test_unbatched_txn_ships_alone;
        tc "a cross-shard txn is refused, nothing sent"
          test_cross_shard_txn_refused;
        tc "a txn is retried whole" test_txn_retried_whole;
        tc "a full burst ships without the Nagle wait"
          test_full_burst_skips_the_timer;
        tc "a backlog ships whole, in one frame"
          test_backlog_ships_in_one_frame;
        tc "wrong shard fails fast" test_wrong_shard_fails_fast;
        tc "an expelled replica is a dead endpoint"
          test_expelled_replica_is_dead;
        tc "the endpoint map seeds the route cache" test_router_seeds_routes;
      ] )

