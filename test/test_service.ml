(* Tests for the sharded service layer: the shard map, the wire
   codecs, isolation of multiple groups sharing one Ethernet, service
   end-to-end operation, router failover across a sequencer crash, and
   the load driver's closed and open loops against it. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_harness
open Amoeba_service
module T = Types
module Driver = Amoeba_loadgen.Driver
module Mix = Amoeba_loadgen.Mix

(* ---------- shard map ---------- *)

let test_shard_map_placement () =
  let map = Shard_map.create ~shards:4 ~hosts:[ 0; 1; 2; 3; 4; 5; 6; 7 ] () in
  Alcotest.(check int) "shards" 4 (Shard_map.shards map);
  Alcotest.(check (list int))
    "sequencers on distinct machines" [ 0; 1; 2; 3 ]
    (List.init 4 (Shard_map.sequencer_host map));
  for s = 0 to 3 do
    let hosts = Shard_map.replica_hosts map s in
    Alcotest.(check int) "replication" 3 (List.length hosts);
    Alcotest.(check int) "pairwise distinct" 3
      (List.length (List.sort_uniq compare hosts));
    Alcotest.(check int)
      "sequencer host first"
      (Shard_map.sequencer_host map s)
      (List.hd hosts)
  done

let test_shard_map_deterministic_and_covering () =
  let m1 = Shard_map.create ~shards:8 ~hosts:[ 0; 1; 2; 3 ] () in
  let m2 = Shard_map.create ~shards:8 ~hosts:[ 0; 1; 2; 3 ] () in
  let hits = Array.make 8 0 in
  for i = 0 to 9_999 do
    let k = "key-" ^ string_of_int i in
    let s = Shard_map.shard_of_key m1 k in
    if s <> Shard_map.shard_of_key m2 k then
      Alcotest.failf "ring not deterministic for %s" k;
    hits.(s) <- hits.(s) + 1
  done;
  Array.iteri
    (fun s n ->
      if n < 300 then
        Alcotest.failf "shard %d badly underloaded: %d/10000 keys" s n)
    hits

(* ---------- codecs ---------- *)

(* Every refusal a replica can send. *)
let all_busy =
  List.map
    (fun r -> Kv.Busy r)
    [
      Kv.Retired;
      Kv.Bad_request;
      Kv.Submit_failed T.Sequencer_unreachable;
      Kv.Submit_failed T.Not_enough_members;
      Kv.Submit_failed T.Not_a_member;
      Kv.Submit_failed T.Send_aborted;
    ]

let test_kv_codecs () =
  let module S = Kv.Store in
  let ups =
    [
      S.Put { uid = 7; key = "a b"; value = "x y z" };
      S.Put { uid = 123456; key = ""; value = "" };
      S.Del { uid = 9; key = "with space" };
    ]
  in
  List.iter
    (fun u ->
      Alcotest.(check bool)
        "update roundtrip" true
        (S.decode_update (S.encode_update u) = Some u))
    ups;
  let st =
    List.fold_left
      (fun m (k, v) -> Kv.Smap.add k v m)
      S.initial
      [ ("k1", "v1"); ("a key", "a value"); ("empty", ""); ("", "odd") ]
  in
  (match S.decode_state (S.encode_state st) with
  | Some st' -> Alcotest.(check bool) "state roundtrip" true (Kv.Smap.equal ( = ) st st')
  | None -> Alcotest.fail "state did not decode");
  let reqs = [ Kv.Get "k"; Kv.Put ("a b", "v w"); Kv.Del "x" ] in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "request roundtrip" true
        (Kv.decode_request (Kv.encode_request r) = Some r))
    reqs;
  let reps =
    [ Kv.Value "x y"; Kv.Not_found; Kv.Written; Kv.Wrong_shard 3 ] @ all_busy
  in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        "reply roundtrip" true
        (Kv.decode_reply (Kv.encode_reply r) = Some r))
    reps;
  (* Each refusal keeps the exact text it has always sent, and a text
     outside the set is a malformed reply, not a guess. *)
  Alcotest.(check (list string))
    "refusal texts"
    [
      "Eretired";
      "Ebad-request";
      "Esequencer unreachable";
      "Enot enough members";
      "Enot a member";
      "Esend aborted by recovery";
    ]
    (List.map (fun r -> Bytes.to_string (Kv.encode_reply r)) all_busy);
  Alcotest.(check bool)
    "unknown refusal rejected" true
    (Kv.decode_reply (Bytes.of_string "Eno") = None)

let test_kv_batch_codecs () =
  let reqs =
    [
      [ Kv.Get "k" ];
      [ Kv.Put ("a b", "v w"); Kv.Del "x"; Kv.Get "" ];
      List.init 40 (fun i -> Kv.Put ("k" ^ string_of_int i, "v"));
    ]
  in
  List.iter
    (fun rs ->
      Alcotest.(check bool)
        "batch request roundtrip" true
        (Kv.decode_batch_request (Kv.encode_batch_request rs) = Some rs))
    reqs;
  let reps =
    [
      [ Kv.Written ];
      [ Kv.Value "x y"; Kv.Not_found; Kv.Wrong_shard 3 ] @ all_busy;
    ]
  in
  List.iter
    (fun rs ->
      Alcotest.(check bool)
        "batch reply roundtrip" true
        (Kv.decode_batch_reply (Kv.encode_batch_reply rs) = Some rs))
    reps;
  (* A batch frame must not decode as a single request and vice versa,
     and truncation must be rejected, not half-applied. *)
  let b = Kv.encode_batch_request [ Kv.Put ("k", "v"); Kv.Del "d" ] in
  Alcotest.(check bool) "batch is not a single request" true
    (Kv.decode_request b = None);
  Alcotest.(check bool) "single request is not a batch" true
    (Kv.decode_batch_request (Kv.encode_request (Kv.Get "k")) = None);
  Alcotest.(check bool) "truncated batch rejected" true
    (Kv.decode_batch_request (Bytes.sub b 0 (Bytes.length b - 1)) = None);
  Alcotest.(check bool) "padded batch rejected" true
    (Kv.decode_batch_request (Bytes.cat b (Bytes.of_string "x")) = None)

(* ---------- multiple groups on one Ethernet are isolated ---------- *)

(* Two independent groups (two members each) share the wire.  Each
   group broadcasts its own tagged bodies; every member must deliver
   exactly its group's messages, in the same total order as its peer,
   and nothing from the other group — under clean and under
   adversarial link conditions. *)
let run_isolation ~conditions () =
  let cl = Cluster.create ~n:4 ~seed:11 () in
  let logs = Array.init 4 (fun _ -> ref []) in
  let failures = ref [] in
  Cluster.spawn cl (fun () ->
      let ga = Api.create_group (Cluster.flip cl 0) () in
      let ga' =
        match Api.join_group (Cluster.flip cl 1) (Api.group_address ga) with
        | Ok g -> g
        | Error e -> Alcotest.failf "join A: %s" (T.error_to_string e)
      in
      let gb = Api.create_group (Cluster.flip cl 2) () in
      let gb' =
        match Api.join_group (Cluster.flip cl 3) (Api.group_address gb) with
        | Ok g -> g
        | Error e -> Alcotest.failf "join B: %s" (T.error_to_string e)
      in
      let receiver i g =
        Cluster.spawn cl (fun () ->
            let rec loop () =
              (match Api.receive_from_group g with
              | T.Message { body; _ } ->
                  logs.(i) := Bytes.to_string body :: !(logs.(i))
              | _ -> ());
              loop ()
            in
            loop ())
      in
      receiver 0 ga;
      receiver 1 ga';
      receiver 2 gb;
      receiver 3 gb';
      Impair.set_conditions (Medium.impair cl.Cluster.net) conditions;
      let sender g tag =
        Cluster.spawn cl (fun () ->
            for k = 1 to 10 do
              match Api.send_to_group g (Bytes.of_string (Printf.sprintf "%s.%d" tag k)) with
              | Ok _ -> ()
              | Error e ->
                  failures := Printf.sprintf "%s.%d: %s" tag k (T.error_to_string e) :: !failures
            done)
      in
      sender ga "A0";
      sender ga' "A1";
      sender gb "B0";
      sender gb' "B1";
      Engine.sleep cl.Cluster.engine (Time.sec 30);
      Impair.set_conditions (Medium.impair cl.Cluster.net) Impair.clean;
      (* One clean message per group flushes any pending repair. *)
      ignore (Api.send_to_group ga (Bytes.of_string "A0.flush"));
      ignore (Api.send_to_group gb (Bytes.of_string "B0.flush")));
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check (list string)) "all sends accepted" [] !failures;
  let expected prefix =
    List.sort compare
      ((prefix ^ "0.flush")
      :: List.concat_map
           (fun m ->
             List.init 10 (fun k -> Printf.sprintf "%s%d.%d" prefix m (k + 1)))
           [ 0; 1 ])
  in
  let got i = List.rev !(logs.(i)) in
  (* Same total order at both members of a group. *)
  Alcotest.(check (list string)) "group A members agree" (got 0) (got 1);
  Alcotest.(check (list string)) "group B members agree" (got 2) (got 3);
  (* Exactly the group's own messages, nothing from the other wire
     sharer: no cross-group delivery, no duplicates, no losses. *)
  Alcotest.(check (list string))
    "group A delivered exactly its messages" (expected "A")
    (List.sort compare (got 0));
  Alcotest.(check (list string))
    "group B delivered exactly its messages" (expected "B")
    (List.sort compare (got 2))

let test_isolation_clean () = run_isolation ~conditions:Impair.clean ()

let test_isolation_adversarial () =
  run_isolation
    ~conditions:
      {
        Impair.gilbert =
          Some { p_gb = 0.01; p_bg = 0.3; loss_good = 0.002; loss_bad = 0.4 };
        dup_prob = 0.05;
        jitter_ns = Time.ms 2;
        corrupt_prob = 0.01;
      }
    ()

(* ---------- service end-to-end ---------- *)

let test_service_end_to_end () =
  let cl = Cluster.create ~n:5 ~seed:3 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:2 ~replication:2 ~hosts:[ 0; 1; 2; 3 ] ()
      in
      let svc = Service.deploy cl ~map ~resilience:0 () in
      let router =
        Router.create (Cluster.flip cl 4) ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      Alcotest.(check bool)
        "missing key" true
        (Router.get router "nope" = Router.Not_found);
      for i = 0 to 19 do
        let k = "k" ^ string_of_int i in
        match Router.put router k ("v" ^ string_of_int i) with
        | Router.Written -> ()
        | _ -> Alcotest.failf "put %s not written" k
      done;
      (* Let the slower replicas of each shard apply the tail, then
         read everything back (reads round-robin over replicas). *)
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      for i = 0 to 19 do
        let k = "k" ^ string_of_int i in
        match Router.get router k with
        | Router.Value v ->
            Alcotest.(check string) ("get " ^ k) ("v" ^ string_of_int i) v
        | _ -> Alcotest.failf "get %s failed" k
      done;
      (match Router.del router "k0" with
      | Router.Written -> ()
      | _ -> Alcotest.fail "del k0 failed");
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      Alcotest.(check bool)
        "deleted key gone" true
        (Router.get router "k0" = Router.Not_found);
      (* Every replica of a shard applied the same update count, and
         the shards together applied exactly the 21 writes. *)
      let total = ref 0 in
      for s = 0 to 1 do
        match Service.applied svc s with
        | (_, a) :: rest ->
            List.iter
              (fun (_, a') -> Alcotest.(check int) "replicas in step" a a')
              rest;
            total := !total + a
        | [] -> Alcotest.fail "no replicas"
      done;
      Alcotest.(check int) "all writes applied exactly once" 21 !total;
      Alcotest.(check int) "no transient rejections" 0 (Service.writes_busy svc);
      let st = Router.stats router in
      Alcotest.(check int) "no failovers on a healthy service" 0 st.Router.failovers;
      done_ := true);
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* ---------- router failover across a replica crash ----------

   Two crash scenarios, same shape: 10 writes, kill a machine, 15 more
   writes that must all commit, then the per-shard chaos invariants.
   Crashing a serving follower exercises the router's failover path
   (timeout/no-route -> probe -> suspect -> next replica, ultimately
   promoting the reserved sequencer-host endpoints); crashing the
   sequencer exercises the group's auto-heal underneath a router that
   keeps talking to the surviving followers. *)

(* Puts [warm] keys, crashes [crash_host] and has [writers] concurrent
   clients make [puts] puts each; the crash lands [crash_after] into
   the writes (before them at 0).  Every put must commit and the
   shard's invariants must hold; with [expect_reset], every surviving
   replica must also have recorded exactly one reset. *)
let run_crash_scenario ?(seed = 7) ?pipeline ?(warm = 10) ?(writers = 1)
    ?(puts = 15) ?(crash_after = Time.zero) ?(expect_reset = false) ~crash_host
    ~expect_failover () =
  let cl = Cluster.create ~n:5 ~seed () in
  let eng = cl.Cluster.engine in
  let verdicts = ref [] in
  let resets = ref [] in
  let failover_stats = ref None in
  Cluster.spawn cl (fun () ->
      let map = Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2 ] () in
      let svc =
        Service.deploy cl ~map ~resilience:1 ?pipeline ~record:true ()
      in
      let router =
        Router.create (Cluster.flip cl 4) ~attempts:30 ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      for i = 1 to warm do
        match Router.put router ("k" ^ string_of_int i) "before" with
        | Router.Written -> ()
        | _ -> Alcotest.failf "pre-crash put %d failed" i
      done;
      let victim = crash_host map in
      let crash () = Machine.crash (Cluster.machine cl victim) in
      if crash_after = Time.zero then crash ();
      (* The group auto-heals around the dead member; the router must
         ride it out: probe, mark the replica suspect, fail over and
         retry until the write commits. *)
      let results = Channel.create () in
      for w = 1 to writers do
        Cluster.spawn cl (fun () ->
            for i = 1 to puts do
              let k = Printf.sprintf "w%d.%d" w i in
              Channel.send results (k, Router.put router k "after")
            done)
      done;
      if crash_after > Time.zero then begin
        Engine.sleep eng crash_after;
        crash ()
      end;
      for _ = 1 to writers * puts do
        match Channel.recv eng results with
        | _, Router.Written -> ()
        | k, r ->
            Alcotest.failf "post-crash put %s did not commit (%s)" k
              (match r with
              | Router.Failed m -> m
              | Router.Value _ -> "value?"
              | Router.Not_found -> "not found?"
              | Router.Written -> "")
      done;
      Engine.sleep eng (Time.sec 1);
      failover_stats := Some (Router.stats router);
      resets :=
        List.filter_map
          (fun st ->
            if st.Checker.full then
              Some
                (List.length
                   (List.filter
                      (function T.Group_reset _ -> true | _ -> false)
                      st.Checker.events))
            else None)
          (Service.checker_streams svc ~shard:0 ~crashed:(fun h -> h = victim));
      verdicts := Service.check svc ~crashed:[ victim ]);
  Cluster.run ~until:(Time.sec 120) cl;
  (match !failover_stats with
  | None -> Alcotest.fail "scenario did not finish"
  | Some st ->
      if expect_failover then
        Alcotest.(check bool)
          "router failed over at least once" true (st.Router.failovers >= 1));
  if expect_reset then
    Alcotest.(check (list int)) "one reset per surviving replica" [ 1; 1 ] !resets;
  match !verdicts with
  | [ (0, vs) ] ->
      List.iter
        (fun v ->
          if not v.Checker.ok then
            Alcotest.failf "invariant %s violated: %s" v.Checker.invariant
              v.Checker.detail)
        vs
  | _ -> Alcotest.fail "expected verdicts for exactly one shard"

let test_router_failover_on_follower_crash () =
  (* The first follower is in the router's serving rotation (the
     sequencer host's endpoints are reserved), so killing it forces a
     real failover. *)
  run_crash_scenario
    ~crash_host:(fun map ->
      match Shard_map.replica_hosts map 0 with
      | _seq :: follower :: _ -> follower
      | _ -> Alcotest.fail "expected a follower")
    ~expect_failover:true ()

let test_router_failover_on_sequencer_crash () =
  (* The sequencer host is in reserve, so the router sees no endpoint
     loss — only transient Busy while the group heals; no failover is
     required for the writes to commit. *)
  run_crash_scenario
    ~crash_host:(fun map -> Shard_map.sequencer_host map 0)
    ~expect_failover:false ()

let test_router_rides_pipelined_sequencer_crash () =
  (* Regression: the new sequencer starts with a full history, and the
     re-entrant drain of its parked requests refused its own Reset
     control as stale, so no replica ever recorded the reset and the
     replica's pipelined rounds stayed blocked behind it. *)
  List.iter
    (fun seed ->
      run_crash_scenario ~seed ~pipeline:4 ~warm:150 ~writers:16 ~puts:20
        ~crash_after:(Time.ms 20) ~expect_reset:true
        ~crash_host:(fun map -> Shard_map.sequencer_host map 0)
        ~expect_failover:false ())
    [ 5; 7; 11; 23 ]

(* ---------- endpoint swap mid-flight ----------

   Regression for the post-power-cycle failover path: a recovery hands
   the router endpoint arrays of a *different length* (and briefly no
   endpoints at all) while writes are in flight.  The router used to
   keep indices and per-endpoint state from the old arrays, so a
   shrink could raise out-of-bounds on the reply path; now it
   snapshots the arrays per attempt and backs off while the set is
   empty.  Every write must still commit. *)

let test_router_survives_endpoint_swap_mid_flight () =
  let cl = Cluster.create ~n:5 ~seed:11 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map = Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2 ] () in
      let svc = Service.deploy cl ~map ~resilience:0 () in
      let full = Service.endpoints svc in
      let router =
        Router.create (Cluster.flip cl 4) ~attempts:30 ~map ~endpoints:full ()
      in
      let done_ch = Channel.create () in
      let keys = List.init 24 (fun i -> "k" ^ string_of_int i) in
      List.iter
        (fun k ->
          Cluster.spawn cl (fun () ->
              Channel.send done_ch (k, Router.put router k ("v." ^ k))))
        keys;
      (* Shrink to one endpoint per shard while the puts are in
         flight, pass through an empty window (recovery in progress),
         then restore the full set — three different array lengths. *)
      Engine.sleep cl.Cluster.engine (Time.ms 2);
      Router.update_endpoints router
        (Array.map (fun eps -> Array.sub eps 0 1) full);
      Engine.sleep cl.Cluster.engine (Time.ms 5);
      Router.update_endpoints router (Array.map (fun _ -> [||]) full);
      Engine.sleep cl.Cluster.engine (Time.ms 60);
      Router.update_endpoints router full;
      List.iter
        (fun _ ->
          match Channel.recv cl.Cluster.engine done_ch with
          | _, Router.Written -> ()
          | k, Router.Failed m -> Alcotest.failf "put %s failed: %s" k m
          | k, _ -> Alcotest.failf "put %s: unexpected reply" k)
        keys;
      (* The writes all applied exactly once despite the swaps. *)
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      List.iter
        (fun (_, a) -> Alcotest.(check int) "applied exactly once" 24 a)
        (Service.applied svc 0);
      done_ := true);
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* ---------- suspect carry-over across an endpoint swap ----------

   A router that has probed a host dead must not forget it just
   because the endpoint set was refreshed: after update_endpoints, a
   host present in both the old and new arrays keeps its suspect
   state, while hosts new to the shard start trusted. *)

let test_router_suspects_carry_over () =
  let cl = Cluster.create ~n:6 ~seed:13 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2; 3 ] ()
      in
      let svc = Service.deploy cl ~map ~resilience:0 () in
      let router =
        Router.create (Cluster.flip cl 5) ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      let hosts = Shard_map.replica_hosts map 0 in
      let doomed = List.nth hosts 1 in
      Router.suspect_host_for_test router 0 doomed;
      Alcotest.(check (list int))
        "host marked suspect" [ doomed ]
        (Router.suspected router 0);
      (* Same service, refreshed endpoint arrays: the suspicion must
         survive the swap for the host present in both. *)
      Router.update_endpoints router (Service.endpoints svc);
      Alcotest.(check (list int))
        "suspicion survived the endpoint swap" [ doomed ]
        (Router.suspected router 0);
      (* A migration-shaped swap: the shard moves to entirely different
         hosts — nothing carries over, the fresh hosts start trusted. *)
      let fresh =
        List.filter (fun h -> not (List.mem h hosts)) (Shard_map.hosts map)
      in
      (match Service.migrate_shard svc ~shard:0 ~hosts:(fresh @ [ List.hd hosts ]) () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "migration failed: %s" e);
      Router.update_endpoints router (Service.endpoints svc);
      Alcotest.(check (list int))
        "hosts new to the shard start trusted" []
        (Router.suspected router 0);
      done_ := true);
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* ---------- router-side batching ---------- *)

(* Fire all [ks] as concurrent puts through [router] and wait for
   every reply, failing on the first non-[Written]. *)
let parallel_puts cl router ks =
  let done_ch = Channel.create () in
  List.iter
    (fun k ->
      Cluster.spawn cl (fun () ->
          Channel.send done_ch (k, Router.put router k ("v." ^ k))))
    ks;
  List.iter
    (fun _ ->
      match Channel.recv cl.Cluster.engine done_ch with
      | _, Router.Written -> ()
      | k, Router.Failed m -> Alcotest.failf "put %s did not commit: %s" k m
      | k, _ -> Alcotest.failf "put %s: unexpected reply" k)
    ks

(* Eight concurrent puts against max_batch 4 and a 1 s Nagle timer:
   the flush must be forced by size, with zero timer flushes, and
   [max_batch] only ends the wait, so the eight queued puts ship as one
   batch.  Each replica must apply each op exactly once. *)
let test_batch_flush_on_size () =
  let cl = Cluster.create ~n:5 ~seed:21 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map = Shard_map.create ~shards:1 ~replication:2 ~hosts:[ 0; 1 ] () in
      let svc = Service.deploy cl ~map ~resilience:0 () in
      let router =
        Router.create (Cluster.flip cl 4) ~max_batch:4
          ~batch_delay:(Time.sec 1) ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      parallel_puts cl router (List.init 8 (fun i -> "k" ^ string_of_int i));
      let st = Router.stats router in
      Alcotest.(check (pair int int))
        "the queued puts shipped whole: one batch of all eight" (1, 8)
        (st.Router.batches_sent, st.Router.ops_batched);
      Alcotest.(check int) "no timer flushes under a 1 s Nagle" 0
        st.Router.partial_flushes;
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      List.iter
        (fun (_, a) -> Alcotest.(check int) "each op applied exactly once" 8 a)
        (Service.applied svc 0);
      done_ := true);
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* Three concurrent puts against max_batch 64 and a 2 ms Nagle timer:
   the batch cannot fill, so the flush must come from the timer — one
   partial flush carrying all three ops. *)
let test_batch_flush_on_timeout () =
  let cl = Cluster.create ~n:5 ~seed:22 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map = Shard_map.create ~shards:1 ~replication:2 ~hosts:[ 0; 1 ] () in
      let svc = Service.deploy cl ~map ~resilience:0 () in
      let router =
        Router.create (Cluster.flip cl 4) ~max_batch:64
          ~batch_delay:(Time.ms 2) ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      parallel_puts cl router [ "a"; "b"; "c" ];
      let st = Router.stats router in
      Alcotest.(check bool) "the timer forced the flush" true
        (st.Router.partial_flushes >= 1);
      Alcotest.(check int) "one batch went out" 1 st.Router.batches_sent;
      Alcotest.(check int) "carrying all three ops" 3 st.Router.ops_batched;
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      List.iter
        (fun (_, a) -> Alcotest.(check int) "each op applied exactly once" 3 a)
        (Service.applied svc 0);
      done_ := true);
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* Drives one shard's router backlog into the hundreds on the 100 Mbit
   Ether, two ways: 1 000 puts queued at once on one router, and four
   routers each offering 1 000 puts/s while the shard's only follower
   is paused for 300 ms.  The routers ship each backlog whole, so one
   RPC request and one group round carry hundreds of ops in a
   multi-fragment frame that must get through the 32-frame receive
   rings.  Every put must commit, no frame may be lost to a full
   receive ring, and the chaos invariants (no duplicates among them)
   must hold; the receive-ring drops and the NACKs are printed. *)
let backlog_run ~pause =
  let cost = Cost_model.with_mbps 100 Cost_model.default in
  let routers = if pause then [ 2; 3; 4; 5 ] else [ 2 ] in
  let cl = Cluster.create ~cost ~n:(2 + List.length routers) ~seed:24 () in
  let eng = cl.Cluster.engine in
  let finished = ref false in
  Cluster.spawn cl (fun () ->
      let map = Shard_map.create ~shards:1 ~replication:2 ~hosts:[ 0; 1 ] () in
      let svc = Service.deploy cl ~map ~resilience:1 ~record:true () in
      let value = String.make 32 'v' in
      let done_ch = Channel.create () in
      let put router k =
        Cluster.spawn cl (fun () ->
            Channel.send done_ch (k, Router.put router k value))
      in
      let rs =
        List.map
          (fun h ->
            Router.create (Cluster.flip cl h) ~max_batch:32 ~map
              ~endpoints:(Service.endpoints svc) ())
          routers
      in
      let n =
        if not pause then begin
          for i = 1 to 1000 do
            put (List.hd rs) ("k" ^ string_of_int i)
          done;
          1000
        end
        else begin
          Cluster.spawn cl (fun () ->
              Engine.sleep eng (Time.ms 300);
              Machine.pause (Cluster.machine cl 1);
              Engine.sleep eng (Time.ms 300);
              Machine.resume (Cluster.machine cl 1));
          let per = 1200 in
          List.iteri
            (fun j router ->
              Cluster.spawn cl (fun () ->
                  for i = 1 to per do
                    put router (Printf.sprintf "r%d.%d" j i);
                    Engine.sleep eng (Time.ms 1)
                  done))
            rs;
          per * List.length rs
        end
      in
      let t0 = Engine.now eng in
      for _ = 1 to n do
        match Channel.recv eng done_ch with
        | _, Router.Written -> ()
        | k, _ -> Alcotest.failf "put %s did not commit" k
      done;
      let took = Engine.now eng - t0 in
      Engine.sleep eng (Time.ms 300);
      let sts = List.map Router.stats rs in
      let sum f = List.fold_left (fun acc st -> acc + f st) 0 sts in
      let drops =
        List.fold_left
          (fun acc i -> acc + Nic.rx_dropped (Machine.nic (Cluster.machine cl i)))
          0
          (List.init (Cluster.size cl) Fun.id)
      in
      let nacks =
        List.fold_left
          (fun acc (_, i) -> acc + i.Api.nacks_sent)
          0 (Service.group_info svc 0)
      in
      Printf.printf
        "%s: %d puts in %.1f ms, %d batches (%.0f ops/batch avg), %d \
         retries, %d rx-ring drops, %d nacks\n%!"
        (if pause then "paused follower" else "1 000 queued at once")
        n (Time.to_ms took) (sum (fun s -> s.Router.batches_sent))
        (float_of_int (sum (fun s -> s.Router.ops_batched))
        /. float_of_int (max 1 (sum (fun s -> s.Router.batches_sent))))
        (sum (fun s -> s.Router.retries)) drops nacks;
      Alcotest.(check int) "no frame lost to a full receive ring" 0 drops;
      (* A replayed batch is a distinct stream body (fresh uids), so only
         a run without retries applies each put exactly once. *)
      if sum (fun s -> s.Router.retries) = 0 then
        List.iter
          (fun (_, a) ->
            Alcotest.(check int) "each op applied exactly once" n a)
          (Service.applied svc 0);
      List.iter
        (fun (_, vs) ->
          List.iter
            (fun v ->
              if not v.Checker.ok then
                Alcotest.failf "invariant %s violated: %s" v.Checker.invariant
                  v.Checker.detail)
            vs)
        (Service.check svc ~crashed:[]);
      finished := true);
  Cluster.run ~until:(Time.sec 120) cl;
  Alcotest.(check bool) "scenario finished" true !finished

let test_backlog_ships_whole () =
  backlog_run ~pause:false;
  backlog_run ~pause:true

(* A sequencer crash landing in the middle of a stream of batches: the
   crash fires 5 ms into a 24-put wave, so batches are in flight when
   the group loses its sequencer.  Every put must still commit (Busy
   backoff, whole-batch replays, failover) and the per-shard chaos
   invariants — one total order, no duplicates, no skips, durability —
   must hold over what the surviving replicas applied.  Replayed
   batches are safe because the replica mints fresh uids on every
   (re)submission, making each replay a distinct stream body. *)
let test_batch_spans_sequencer_crash () =
  let cl = Cluster.create ~n:5 ~seed:23 () in
  let verdicts = ref [] in
  let stats = ref None in
  Cluster.spawn cl (fun () ->
      let map = Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2 ] () in
      let svc = Service.deploy cl ~map ~resilience:1 ~record:true () in
      let router =
        Router.create (Cluster.flip cl 4) ~max_batch:8
          ~batch_delay:(Time.ms 2) ~attempts:30 ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      parallel_puts cl router (List.init 8 (fun i -> "pre" ^ string_of_int i));
      let seq_host = Shard_map.sequencer_host map 0 in
      Cluster.spawn cl (fun () ->
          Engine.sleep cl.Cluster.engine (Time.ms 5);
          Machine.crash (Cluster.machine cl seq_host));
      parallel_puts cl router (List.init 24 (fun i -> "mid" ^ string_of_int i));
      parallel_puts cl router (List.init 8 (fun i -> "post" ^ string_of_int i));
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      stats := Some (Router.stats router);
      verdicts := Service.check svc ~crashed:[ seq_host ]);
  Cluster.run ~until:(Time.sec 120) cl;
  (match !stats with
  | None -> Alcotest.fail "scenario did not finish"
  | Some st ->
      Alcotest.(check bool) "ops really went out in batches" true
        (st.Router.batches_sent >= 3));
  match !verdicts with
  | [ (0, vs) ] ->
      List.iter
        (fun v ->
          if not v.Checker.ok then
            Alcotest.failf "invariant %s violated: %s" v.Checker.invariant
              v.Checker.detail)
        vs
  | _ -> Alcotest.fail "expected verdicts for exactly one shard"

(* Read-modify-write transactions over four counter keys, with single
   puts to the same keys mixed in, through a batching router while the
   shard's sequencer crashes.  Every transaction must read back exactly
   what it wrote: its reads come from the round that applied its
   writes, even when a refusal or a lost reply made the router replay
   it.  Its writes must sit together, contiguous in one round, in every
   live replica's delivery stream, and the chaos invariants must hold.
   Every written value is a tag in angle brackets, which the textual
   update encoding never otherwise contains, so the test finds the
   writes in the delivered bodies by scanning for the tags. *)
let test_txns_span_sequencer_crash () =
  let cl = Cluster.create ~n:5 ~seed:31 () in
  let eng = cl.Cluster.engine in
  let bad = ref [] and streams = ref [] and verdicts = ref [] in
  let stats = ref None in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2 ] ()
      in
      let svc = Service.deploy cl ~map ~resilience:1 ~record:true () in
      let router =
        Router.create (Cluster.flip cl 4) ~max_batch:32 ~attempts:30 ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      let seq_host = Shard_map.sequencer_host map 0 in
      Cluster.spawn cl (fun () ->
          Engine.sleep eng (Time.ms 40);
          Machine.crash (Cluster.machine cl seq_host));
      let counter i = "c" ^ string_of_int (i mod 4) in
      let txn w i =
        let a = counter (w + i) and b = counter (w + i + 1) in
        let va = Printf.sprintf "<t%d.%d/a>" w i
        and vb = Printf.sprintf "<t%d.%d/b>" w i in
        let ops = Router.[ Get a; Get b; Put (a, va); Put (b, vb) ] in
        match Router.txn router ops with
        | Ok Router.[ Value ra; Value rb; Written; Written ]
          when ra = va && rb = vb ->
            ()
        | _ -> bad := Printf.sprintf "t%d.%d" w i :: !bad
      in
      let single w i =
        match Router.put router (counter i) (Printf.sprintf "<s%d.%d>" w i) with
        | Router.Written -> ()
        | _ -> bad := Printf.sprintf "s%d.%d" w i :: !bad
      in
      let finished = Channel.create () in
      List.iter
        (fun (w, op) ->
          Cluster.spawn cl (fun () ->
              for i = 1 to 12 do
                op w i
              done;
              Channel.send finished ()))
        [ (1, txn); (2, txn); (3, txn); (4, txn); (5, single); (6, single) ];
      for _ = 1 to 6 do
        Channel.recv eng finished
      done;
      Engine.sleep eng (Time.sec 1);
      stats := Some (Router.stats router);
      let crashed h = h = seq_host in
      streams :=
        List.filter
          (fun st -> st.Checker.full)
          (Service.checker_streams svc ~shard:0 ~crashed);
      verdicts := Service.check svc ~crashed:[ seq_host ]);
  Cluster.run ~until:(Time.sec 120) cl;
  (match !stats with
  | None -> Alcotest.fail "scenario did not finish"
  | Some st ->
      Alcotest.(check bool) "the crash forced retries" true
        (st.Router.retries >= 1));
  Alcotest.(check (list string)) "every op read its own writes" [] !bad;
  (* The tags in a delivered body, in stream order. *)
  let tags body =
    let s = Bytes.to_string body in
    let rec go i acc =
      match String.index_from_opt s i '<' with
      | None -> List.rev acc
      | Some j ->
          let e = String.index_from s j '>' in
          go (e + 1) (String.sub s (j + 1) (e - j - 1) :: acc)
    in
    go 0 []
  in
  let txn_of tag =
    match String.index_opt tag '/' with
    | Some i -> Some (String.sub tag 0 i)
    | None -> None
  in
  Alcotest.(check int) "two live replicas" 2 (List.length !streams);
  List.iter
    (fun st ->
      List.iter
        (function
          | T.Message { seq; body; _ } ->
              let rec runs = function
                | [] -> []
                | tag :: rest -> (
                    match txn_of tag with
                    | None -> runs rest
                    | Some t -> (
                        match rest with
                        | tag' :: rest' when txn_of tag' = Some t ->
                            t :: runs rest'
                        | _ ->
                            Alcotest.failf "%s seq %d: %s's writes split"
                              st.Checker.label seq t))
              in
              let ts = runs (tags body) in
              Alcotest.(check int)
                (Printf.sprintf "%s seq %d: each txn once" st.Checker.label seq)
                (List.length (List.sort_uniq compare ts))
                (List.length ts)
          | _ -> ())
        st.Checker.events)
    !streams;
  match !verdicts with
  | [ (0, vs) ] ->
      List.iter
        (fun v ->
          if not v.Checker.ok then
            Alcotest.failf "invariant %s violated: %s" v.Checker.invariant
              v.Checker.detail)
        vs
  | _ -> Alcotest.fail "expected verdicts for exactly one shard"

(* ---------- each read at its own place in its round ---------- *)

let ssd_durable () =
  {
    Service.d_store = Amoeba_grouplib.Stable_store.create ();
    d_sync = Amoeba_grouplib.Rsm.Group_fsync 8;
    d_checkpoint_every = 64;
  }

(* Hand-built batch frames to one replica endpoint, on a plain and on a
   durable shard (whose applier lags the stream by its WAL appends): a
   read ahead of a write in the frame answers the value the key held
   before the round, and a read behind it answers that write. *)
let test_reads_at_their_place_in_the_round () =
  List.iter
    (fun durable ->
      let what = if durable then "durable" else "plain" in
      let cost = { Cost_model.default with Cost_model.disk = Cost_model.ssd } in
      let cl = Cluster.create ~cost ~n:4 ~seed:5 () in
      let replies = ref [] in
      Cluster.spawn cl (fun () ->
          let map =
            Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2 ] ()
          in
          let svc =
            Service.deploy cl ~map
              ?durable:(if durable then Some (ssd_durable ()) else None)
              ()
          in
          let ep = (Service.endpoints svc).(0).(0) in
          let c = Amoeba_rpc.Rpc.client (Cluster.flip cl 3) in
          let send reqs =
            match
              Amoeba_rpc.Rpc.call c ~dst:ep.Service.ep_addr
                (Kv.encode_batch_request reqs)
            with
            | Ok bytes -> Kv.decode_batch_reply bytes
            | Error _ -> None
          in
          replies :=
            List.map send
              [
                [ Kv.Put ("k", "old") ];
                [ Kv.Get "k"; Kv.Put ("k", "new") ];
                [ Kv.Put ("k", "newer"); Kv.Get "k" ];
              ]);
      Cluster.run ~until:(Time.sec 10) cl;
      Alcotest.(check (list (option (list string))))
        (what ^ ": replies")
        [
          Some [ "written" ];
          Some [ "value old"; "written" ];
          Some [ "written"; "value newer" ];
        ]
        (List.map
           (Option.map
              (List.map (function
                | Kv.Value v -> "value " ^ v
                | Kv.Not_found -> "not found"
                | Kv.Written -> "written"
                | Kv.Wrong_shard s -> "wrong shard " ^ string_of_int s
                | Kv.Busy _ -> "busy")))
           !replies))
    [ false; true ]

(* A durable replica's applier stalls on every WAL append, so it lags
   the rounds its submitters see complete.  Reading "after the round"
   from whatever it had applied then made read-modify-write
   transactions miss their own writes.  200 of them over 7 keys, one
   every 0.7 ms, on one 3-replica ssd shard: each must read back the
   value it wrote. *)
let test_durable_txns_read_their_own_writes () =
  let cfg = { Driver.default with Driver.replication = 3 } in
  let n = 200 in
  let wrong, failed =
    Driver.bring_up ~disk:Cost_model.ssd ~durable:(ssd_durable ()) cfg
      (fun d ->
        let cl = d.Driver.cluster in
        let eng = cl.Cluster.engine in
        let routers = d.Driver.routers in
        let wrong = ref 0 and failed = ref 0 and left = ref n in
        let all_done = Ivar.create () in
        for i = 0 to n - 1 do
          Cluster.spawn cl (fun () ->
              Engine.sleep eng (Time.us (700 * i));
              let k = "k" ^ string_of_int (i mod 7) in
              let v = "v" ^ string_of_int i in
              let router = routers.(i mod Array.length routers) in
              (match Router.txn router [ Router.Get k; Router.Put (k, v) ] with
              | Ok [ Router.Value v'; Router.Written ] when v' = v -> ()
              | Ok [ (Router.Value _ | Router.Not_found); Router.Written ] ->
                  incr wrong
              | Ok _ | Error _ -> incr failed);
              decr left;
              if !left = 0 then Ivar.fill all_done ())
        done;
        Ivar.read eng all_done;
        (!wrong, !failed))
  in
  Alcotest.(check int) "txns that failed" 0 failed;
  Alcotest.(check int) "txns that read another value" 0 wrong

(* ---------- the load driver against the service ---------- *)

(* 2 shards x 2 replicas over 4 hosts on the paper's 10 Mbit wire,
   unbatched. *)
let small_service ~routers ~keys ~read ~dist ~value_bytes ~seed =
  {
    Driver.default with
    Driver.shards = 2;
    hosts = 4;
    routers;
    replication = 2;
    wire_mbps = 10;
    max_batch = 1;
    pipeline_depth = 1;
    mix = Mix.read_write ~read dist;
    keys;
    value_dist = Amoeba_loadgen.Dist.Fixed value_bytes;
    duration = Time.sec 2;
    warmup = Time.zero;
    seed;
  }

let run_workload ~seed () =
  Driver.bring_up ~resilience:0
    (small_service ~routers:2 ~keys:50 ~read:0.5 ~dist:(Keygen.Zipf 0.99)
       ~value_bytes:16 ~seed)
    (fun d -> Driver.drive d (Driver.Closed 4))

let test_workload_smoke () =
  let r = run_workload ~seed:42 () in
  Alcotest.(check bool) "made progress" true (r.Driver.completed > 100);
  Alcotest.(check int) "no failures" 0 r.Driver.failed;
  Alcotest.(check int) "all ops accounted" r.Driver.attempted
    (r.Driver.completed + r.Driver.failed);
  Alcotest.(check bool) "both shards hit" true
    (Array.for_all (fun n -> n > 0) r.Driver.per_shard);
  Alcotest.(check bool) "mixed ops" true (r.Driver.reads > 0 && r.Driver.updates > 0);
  Alcotest.(check bool) "percentiles ordered" true
    (r.Driver.p50_ms <= r.Driver.p95_ms
    && r.Driver.p95_ms <= r.Driver.p99_ms
    && r.Driver.p99_ms <= r.Driver.max_ms)

let test_workload_deterministic () =
  let r1 = run_workload ~seed:42 () in
  let r2 = run_workload ~seed:42 () in
  Alcotest.(check int) "same completed" r1.Driver.completed r2.Driver.completed;
  Alcotest.(check int) "same attempted" r1.Driver.attempted r2.Driver.attempted;
  Alcotest.(check (float 0.0)) "same p99" r1.Driver.p99_ms r2.Driver.p99_ms

(* Retry backoff jitter must not cost determinism: the jitter stream
   is seeded per router and only consumed on retries, so two identical
   runs produce identical results. *)
let test_jitter_deterministic () =
  let r1 = run_workload ~seed:77 () in
  let r2 = run_workload ~seed:77 () in
  Alcotest.(check bool) "identical runs" true (r1 = r2)

let test_workload_open_loop () =
  let r =
    Driver.bring_up ~resilience:0
      (small_service ~routers:1 ~keys:20 ~read:0.8 ~dist:Keygen.Uniform
         ~value_bytes:8 ~seed:1)
      (fun d -> Driver.drive d (Driver.Open 100.0))
  in
  (* ~200 Poisson arrivals in 2 s at rate 100/s. *)
  Alcotest.(check bool) "arrivals near the configured rate" true
    (r.Driver.attempted > 120 && r.Driver.attempted < 280);
  Alcotest.(check int) "no failures" 0 r.Driver.failed

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "service",
    [
      tc "shard map placement" test_shard_map_placement;
      tc "shard map deterministic and covering"
        test_shard_map_deterministic_and_covering;
      tc "kv codecs roundtrip" test_kv_codecs;
      tc "kv batch codecs roundtrip" test_kv_batch_codecs;
      tc "two groups on one wire are isolated" test_isolation_clean;
      tc "two groups stay isolated under adversarial conditions"
        test_isolation_adversarial;
      tc "service end to end" test_service_end_to_end;
      tc "router fails over a crashed follower"
        test_router_failover_on_follower_crash;
      tc "service rides out a crashed sequencer"
        test_router_failover_on_sequencer_crash;
      tc "router rides a pipelined sequencer crash"
        test_router_rides_pipelined_sequencer_crash;
      tc "router survives endpoint swap mid-flight"
        test_router_survives_endpoint_swap_mid_flight;
      tc "suspects carry over an endpoint swap"
        test_router_suspects_carry_over;
      tc "retry jitter keeps runs deterministic" test_jitter_deterministic;
      tc "batches flush on size" test_batch_flush_on_size;
      tc "batches flush on the Nagle timer" test_batch_flush_on_timeout;
      tc "a backlog ships whole" test_backlog_ships_whole;
      tc "batch stream spans a sequencer crash"
        test_batch_spans_sequencer_crash;
      tc "txns read their own writes across a sequencer crash"
        test_txns_span_sequencer_crash;
      tc "a batch reads each op at its own place in the round"
        test_reads_at_their_place_in_the_round;
      tc "durable txns read their own writes"
        test_durable_txns_read_their_own_writes;
      tc "workload smoke" test_workload_smoke;
      tc "workload deterministic" test_workload_deterministic;
      tc "workload open loop" test_workload_open_loop;
    ] )
