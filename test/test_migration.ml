(* Live shard migration: directed scenarios for the happy path, the
   sequencer-only move, and the rollback on a dead destination; the
   shard-map reassignment properties; the service fault runner's
   power-cycle and failed-deploy paths; and the fifth 120-schedule
   chaos swarm — random crash/power-cycle plans aimed at the transfer
   window, checked against migration-safety plus the base
   invariants. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_harness
open Amoeba_service
module F = Amoeba_loadgen.Fault_runner
module Driver = Amoeba_loadgen.Driver

(* ---------- shard-map reassignment properties ---------- *)

let pool10 = List.init 10 Fun.id

let some_keys = List.init 400 (fun i -> Printf.sprintf "key-%d" i)

(* A reassignment touches exactly the shard it names: the ring (and so
   every key's shard) is untouched, every other shard's placement is
   untouched, and the named shard lands exactly on the requested hosts
   with the requested sequencer. *)
let prop_reassign_touches_exactly_one_shard =
  let gen =
    QCheck.Gen.(
      int_range 2 6 >>= fun shards ->
      int_range 0 (shards - 1) >>= fun shard ->
      int_range 0 99_999 >>= fun seed -> return (shards, shard, seed))
  in
  let print (shards, shard, seed) =
    Printf.sprintf "shards=%d shard=%d seed=%d" shards shard seed
  in
  QCheck.Test.make ~name:"reassign changes exactly the named shard"
    ~count:100
    (QCheck.make ~print gen)
    (fun (shards, shard, seed) ->
      let map = Shard_map.create ~shards ~hosts:pool10 () in
      let rng = Random.State.make [| seed |] in
      let cur = Shard_map.replica_hosts map shard in
      (* a target of random size drawn from the pool, biased fresh *)
      let k = 1 + Random.State.int rng 3 in
      let fresh = List.filter (fun h -> not (List.mem h cur)) pool10 in
      let target =
        let shuffled =
          List.map (fun h -> (Random.State.bits rng, h)) fresh
          |> List.sort compare |> List.map snd
        in
        List.filteri (fun i _ -> i < k) shuffled
      in
      let map' = Shard_map.reassign map ~shard ~hosts:target in
      List.for_all
        (fun key -> Shard_map.shard_of_key map key = Shard_map.shard_of_key map' key)
        some_keys
      && List.init shards Fun.id
         |> List.for_all (fun s ->
                if s = shard then
                  Shard_map.replica_hosts map' s = target
                  && Shard_map.sequencer_host map' s = List.hd target
                else
                  Shard_map.replica_hosts map' s = Shard_map.replica_hosts map s
                  && Shard_map.sequencer_host map' s
                     = Shard_map.sequencer_host map s))

(* Sequencer spreading survives a random sequence of migrations: as
   long as each move's new sequencer host is not already sequencing
   another shard (the Rebalancer's own policy — it targets cold
   machines), the all-sequencers-distinct property is preserved, and
   every placement stays pairwise-distinct and in-pool. *)
let prop_reassign_sequence_keeps_spreading =
  QCheck.Test.make ~name:"sequencer spreading survives random migrations"
    ~count:100
    QCheck.(int_range 0 99_999)
    (fun seed ->
      let shards = 4 in
      let rng = Random.State.make [| seed; 0x5EED |] in
      let map0 = Shard_map.create ~shards ~replication:2 ~hosts:pool10 () in
      let map = ref map0 in
      for _ = 1 to 8 do
        let shard = Random.State.int rng shards in
        let seqs =
          List.init shards (fun s ->
              if s = shard then -1 else Shard_map.sequencer_host !map s)
        in
        let free =
          List.filter (fun h -> not (List.mem h seqs)) pool10
          |> List.map (fun h -> (Random.State.bits rng, h))
          |> List.sort compare |> List.map snd
        in
        let target = List.filteri (fun i _ -> i < 2) free in
        map := Shard_map.reassign !map ~shard ~hosts:target
      done;
      let seq_hosts = List.init shards (Shard_map.sequencer_host !map) in
      List.length (List.sort_uniq compare seq_hosts) = shards
      && List.init shards Fun.id
         |> List.for_all (fun s ->
                let hs = Shard_map.replica_hosts !map s in
                List.length (List.sort_uniq compare hs) = List.length hs
                && List.for_all (fun h -> List.mem h pool10) hs
                && List.hd hs = Shard_map.sequencer_host !map s
                && List.for_all
                     (fun key ->
                       Shard_map.shard_of_key !map key
                       = Shard_map.shard_of_key map0 key)
                     some_keys))

(* ---------- directed migration scenarios ---------- *)

let fail_verdicts label verdicts =
  List.iter
    (fun (shard, vs) ->
      List.iter
        (fun v ->
          if not v.Checker.ok then
            Alcotest.failf "%s: shard %d invariant %s violated: %s" label shard
              v.Checker.invariant v.Checker.detail)
        vs)
    verdicts

(* A migration under a stream of concurrent writes: every put commits
   (the dual-routing window is covered by Busy backoff + fresh-uid
   retries), the map ends up on the target hosts, the data survives
   the move, and migration-safety plus the base invariants hold. *)
let test_migrate_under_load () =
  let cl = Cluster.create ~n:7 ~seed:31 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:2 ~replication:2 ~hosts:[ 0; 1; 2; 3; 4; 5 ] ()
      in
      let in_use =
        Shard_map.replica_hosts map 0 @ Shard_map.replica_hosts map 1
      in
      let target =
        List.filter (fun h -> not (List.mem h in_use)) (Shard_map.hosts map)
        |> fun free -> List.filteri (fun i _ -> i < 2) free
      in
      let svc = Service.deploy cl ~map ~resilience:1 ~record:true () in
      let router =
        Router.create (Cluster.flip cl 6) ~attempts:30 ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      let done_ch = Channel.create () in
      let keys = List.init 30 (fun i -> "k" ^ string_of_int i) in
      List.iter
        (fun k ->
          Cluster.spawn cl (fun () ->
              Engine.sleep cl.Cluster.engine (Time.ms (Hashtbl.hash k mod 120));
              Channel.send done_ch (k, Router.put router k ("v." ^ k))))
        keys;
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      (match Service.migrate_shard svc ~shard:0 ~hosts:target () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "migration failed: %s" e);
      Router.update_endpoints router (Service.endpoints svc);
      List.iter
        (fun _ ->
          match Channel.recv cl.Cluster.engine done_ch with
          | _, Router.Written -> ()
          | k, Router.Failed m -> Alcotest.failf "put %s failed: %s" k m
          | k, _ -> Alcotest.failf "put %s: unexpected reply" k)
        keys;
      Alcotest.(check (list int))
        "map reassigned onto the target" (List.sort compare target)
        (List.sort compare (Shard_map.replica_hosts (Service.map svc) 0));
      (match Service.migrations svc with
      | [ m ] ->
          Alcotest.(check bool) "attempt recorded as Ok" true (m.Service.m_result = Ok ());
          Alcotest.(check (list int))
            "recorded target" (List.sort compare target)
            (List.sort compare m.Service.m_to)
      | ms -> Alcotest.failf "expected one migration record, got %d" (List.length ms));
      (* the moved data is still there, served by the new replicas *)
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      List.iter
        (fun k ->
          match Router.get router k with
          | Router.Value v -> Alcotest.(check string) ("get " ^ k) ("v." ^ k) v
          | _ -> Alcotest.failf "get %s failed after migration" k)
        keys;
      fail_verdicts "under-load" (Service.check svc ~crashed:[]);
      done_ := true);
  Cluster.run ~until:(Time.sec 120) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* Moving only the sequencer away: the followers keep their replicas
   (no state re-transfer for them) and the kernel's graceful-leave
   rule hands sequencing to the oldest survivor — the first follower.
   The map must record whichever host really sequences now. *)
let test_migrate_sequencer_only () =
  let cl = Cluster.create ~n:6 ~seed:32 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:1 ~replication:3 ~hosts:[ 0; 1; 2; 3 ] ()
      in
      let svc = Service.deploy cl ~map ~resilience:1 ~record:true () in
      let router =
        Router.create (Cluster.flip cl 5) ~attempts:30 ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      for i = 1 to 8 do
        match Router.put router ("k" ^ string_of_int i) "pre" with
        | Router.Written -> ()
        | _ -> Alcotest.failf "pre put %d failed" i
      done;
      let cur = Shard_map.replica_hosts map 0 in
      let old_seq = List.hd cur in
      let followers = List.tl cur in
      let fresh =
        List.filter (fun h -> not (List.mem h cur)) (Shard_map.hosts map)
      in
      (match
         Service.migrate_shard svc ~shard:0 ~hosts:(followers @ fresh) ()
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sequencer-only migration failed: %s" e);
      Router.update_endpoints router (Service.endpoints svc);
      let map' = Service.map svc in
      Alcotest.(check bool)
        "old sequencer host left the shard" false
        (List.mem old_seq (Shard_map.replica_hosts map' 0));
      Alcotest.(check int)
        "map records the real new sequencer"
        (Service.sequencer_of svc 0)
        (Shard_map.sequencer_host map' 0);
      for i = 9 to 16 do
        match Router.put router ("k" ^ string_of_int i) "post" with
        | Router.Written -> ()
        | _ -> Alcotest.failf "post put %d failed" i
      done;
      fail_verdicts "sequencer-only" (Service.check svc ~crashed:[]);
      done_ := true);
  Cluster.run ~until:(Time.sec 120) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* A destination that is already dead: the join watchdog trips, the
   attempt rolls back, the source keeps the shard and keeps serving —
   and migration-safety still holds (exactly one owner throughout). *)
let test_migrate_rollback_on_dead_target () =
  let cl = Cluster.create ~n:7 ~seed:33 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:1 ~replication:2 ~hosts:[ 0; 1; 2; 3 ] ()
      in
      let svc = Service.deploy cl ~map ~resilience:1 ~record:true () in
      let router =
        Router.create (Cluster.flip cl 6) ~attempts:30 ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      for i = 1 to 6 do
        match Router.put router ("k" ^ string_of_int i) "pre" with
        | Router.Written -> ()
        | _ -> Alcotest.failf "pre put %d failed" i
      done;
      let cur = Shard_map.replica_hosts map 0 in
      let target =
        List.filter (fun h -> not (List.mem h cur)) (Shard_map.hosts map)
      in
      Machine.crash (Cluster.machine cl (List.hd target));
      (match
         Service.migrate_shard svc ~shard:0 ~timeout:(Time.ms 400) ~hosts:target
           ()
       with
      | Ok () -> Alcotest.fail "migration onto a dead host reported success"
      | Error _ -> ());
      Alcotest.(check (list int))
        "source kept the shard" (List.sort compare cur)
        (List.sort compare (Shard_map.replica_hosts (Service.map svc) 0));
      (match Service.migrations svc with
      | [ m ] ->
          Alcotest.(check bool) "attempt recorded as failed" true
            (match m.Service.m_result with Error _ -> true | Ok () -> false)
      | _ -> Alcotest.fail "expected exactly one migration record");
      (* the source still serves *)
      for i = 7 to 12 do
        match Router.put router ("k" ^ string_of_int i) "post" with
        | Router.Written -> ()
        | r ->
            Alcotest.failf "post-rollback put %d did not commit (%s)" i
              (match r with Router.Failed m -> m | _ -> "unexpected reply")
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      fail_verdicts "rollback" (Service.check svc ~crashed:[ List.hd target ]);
      done_ := true);
  Cluster.run ~until:(Time.sec 120) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* ---------- the migration chaos swarm ---------- *)

(* Same fabric palette as the other swarms: the paper's shared wire, a
   flat full-duplex switch, and a two-segment switch with a 2x
   oversubscribed uplink. *)
let fabrics =
  [
    Medium.Shared;
    Medium.Switched Switch.flat;
    Medium.Switched { Switch.segments = 2; segment_size = 3; uplink_mult = 2 };
  ]

let adversarial = List.assoc "adversarial" Medium.condition_profiles

let swarm_case =
  let gen =
    QCheck.Gen.(
      int_range 0 99_999 >>= fun seed ->
      oneofl fabrics >>= fun fabric ->
      bool >>= fun hostile ->
      bool >>= fun crash_source ->
      bool >>= fun crash_dest ->
      bool >>= fun power_cycle ->
      return
        {
          (F.chaos ~seed) with
          F.net = (fabric, if hostile then adversarial else Impair.clean);
          crash_source;
          crash_dest;
          power_cycle;
        })
  in
  QCheck.make ~print:F.replay_line gen

let prop_migration_swarm =
  QCheck.Test.make
    ~name:"swarm: migration-safety holds under mid-migration chaos" ~count:120
    swarm_case (fun c -> F.ok (F.run_chaos c))

(* An outcome carries a trial, whose percentiles are nan when nothing
   completed, and nan <> nan: compare the printed reports. *)
let report o = Format.asprintf "%a" F.pp_outcome o

let prop_migration_chaos_deterministic =
  QCheck.Test.make ~name:"migration chaos replays bit-identically" ~count:4
    QCheck.(int_range 0 9_999)
    (fun seed ->
      let c = { (F.chaos ~seed) with F.crash_source = true; power_cycle = true } in
      report (F.run_chaos c) = report (F.run_chaos c))

(* The replay line carries the whole scenario: its [--net] argument
   parses back to the fabric and conditions that ran, for every
   profile, and non-default workers and duration are printed too. *)
let test_replay_line_round_trips () =
  List.iter
    (fun fabric ->
      List.iter
        (fun (name, conds) ->
          let line =
            F.replay_line
              {
                (F.chaos ~seed:3) with
                F.net = (fabric, conds);
                workers = 5;
                duration_ms = 900;
              }
          in
          let rec after flag = function
            | f :: v :: _ when f = flag -> v
            | _ :: rest -> after flag rest
            | [] -> Alcotest.failf "%S lacks %s" line flag
          in
          let words = String.split_on_char ' ' line in
          Alcotest.(check bool) (name ^ ": net replayed") true
            (Medium.net_of_string (after "--net" words) = Ok (fabric, conds));
          Alcotest.(check (list string)) (name ^ ": workers, duration")
            [ "5"; "900" ]
            [ after "--workers" words; after "--duration" words ])
        Medium.condition_profiles)
    fabrics

(* Each profile runs itself, not one shared hostile stand-in. *)
let test_profiles_differ () =
  let run name =
    F.run_chaos
      {
        (F.chaos ~seed:1) with
        F.net = (Medium.Shared, List.assoc name Medium.condition_profiles);
      }
  in
  let dup = run "dup" and adv = run "adversarial" in
  Alcotest.(check bool) "dup passes" true (F.ok dup);
  Alcotest.(check bool) "dup and adversarial runs differ" true
    (report dup <> report adv)

let expect_pass line o =
  if not (F.ok o) then Alcotest.failf "%s@.%a" line F.pp_outcome o

(* Replays in which the source sequencer handed the application the
   send behind a member's Leave before the Leave itself ("seq went 64
   -> 63").  The first fails on a hostile switch with the old order;
   the second fails on a clean wire once the recovery census stops
   waiting for a dead sequencer, unless the Leave comes first. *)
let test_leave_order_replays () =
  List.iter
    (fun (seed, net, crash_source) ->
      let c =
        {
          (F.chaos ~seed) with
          F.net = Result.get_ok (Medium.net_of_string net);
          crash_source;
        }
      in
      expect_pass (F.replay_line c) (F.run_chaos c))
    [ (147, "switch+adversarial", false); (31, "ether", true) ]

(* A join that fails during bring-up is a failed run with its reason,
   not an exception out of the runner. *)
let test_failed_deploy_is_reported () =
  let c =
    {
      (F.chaos ~seed:56) with
      F.net = Result.get_ok (Medium.net_of_string "switch:2x3@2+adversarial");
      crash_dest = true;
    }
  in
  let o = F.run_chaos c in
  Alcotest.(check bool) "not ok" false (F.ok o);
  Alcotest.(check bool) "no load measured" true (o.F.measured = None);
  match o.F.failure with
  | Some e ->
      Alcotest.(check bool) ("reason names the deploy: " ^ e) true
        (String.starts_with ~prefix:"deploy: " e)
  | None -> Alcotest.fail "no failure reason"

(* The workload's durable scenario: 2 shards, replication 3, fsync per
   commit, on 8 hosts — room for a full fresh replica set. *)
let durable_cfg =
  {
    Driver.default with
    Driver.shards = 2;
    hosts = 8;
    routers = 2;
    replication = 3;
    wire_mbps = 10;
    max_batch = 32;
    pipeline_depth = 4;
    mix = Amoeba_loadgen.Mix.read_write ~read:0.0 Keygen.Uniform;
    duration = Time.ms 2000;
    warmup = Time.zero;
    seed = 11;
  }

let run_durable plan =
  F.run ~disk:Cost_model.ssd
    ~durable:
      {
        Service.d_store = Amoeba_grouplib.Stable_store.create ();
        d_sync = Amoeba_grouplib.Rsm.Every_commit;
        d_checkpoint_every = 64;
      }
    ~resilience:1 durable_cfg (Driver.Closed 8) plan

let recovered_verdicts o =
  List.filter
    (fun (label, _) -> String.ends_with ~suffix:"'" label)
    (Option.value ~default:[] o.F.verdicts)

(* A plan with only a power cycle judges the recovered service, not
   just the streams from before the cut. *)
let test_power_cycle_judges_recovered () =
  let o =
    run_durable
      [
        { F.at = Time.ms 500; action = F.Sentinels 10 };
        { F.at = Time.ms 1000; action = F.Power_cycle };
      ]
  in
  expect_pass "power cycle" o;
  Alcotest.(check int) "four invariants plus migration-safety per shard" 10
    (List.length (recovered_verdicts o));
  match o.F.sentinels with
  | Some s -> Alcotest.(check int) "sentinels acked" 10 s.F.acked
  | None -> Alcotest.fail "sentinels not read back"

(* Migrate shard 0 onto fresh hosts, then lose power: a retired
   source holds a wiped disk, or a stale prefix when its Leave failed,
   so shard 0 must come back from a destination, which holds every
   update the shard applied. *)
let test_migrate_then_power_cycle () =
  let shard0 = Shard_map.replica_hosts (Driver.placement durable_cfg) 0 in
  let dest =
    List.filteri
      (fun i _ -> i < 3)
      (List.filter (fun h -> not (List.mem h shard0)) (List.init 8 Fun.id))
  in
  let o =
    run_durable
      [
        {
          F.at = Time.ms 666;
          action = F.Migrate { shard = 0; hosts = dest; timeout = None };
        };
        { F.at = Time.ms 1000; action = F.Power_cycle };
      ]
  in
  expect_pass "migrate then power cycle" o;
  Alcotest.(check bool) "recovered service judged" true
    (recovered_verdicts o <> []);
  match List.find_opt (fun sr -> sr.Service.sr_shard = 0) o.F.recovery with
  | None -> Alcotest.fail "shard 0 not recovered"
  | Some sr ->
      if not (List.mem sr.Service.sr_creator dest) then
        Alcotest.failf "shard 0 recovered from m%d, not a destination"
          sr.Service.sr_creator

(* The service counters sum every epoch: a power cycle replaces the
   service, and the writes the first one acked still count. *)
let test_counters_span_epochs () =
  let o = run_durable [ { F.at = Time.ms 1000; action = F.Power_cycle } ] in
  expect_pass "power cycle" o;
  match o.F.measured with
  | None -> Alcotest.fail "nothing measured"
  | Some (t, c) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d writes ok cover %d completed updates"
           c.F.writes_ok t.Driver.updates)
        true
        (t.Driver.updates > 0 && c.F.writes_ok >= t.Driver.updates)

(* A recovery that fails leaves no epoch serving: the applied counts
   the report prints are those of replicas that died at the cut, and
   say so. *)
let test_failed_recovery_labels_applied () =
  let c =
    {
      (F.chaos ~seed:350) with
      F.net = Result.get_ok (Medium.net_of_string "switch+adversarial");
      crash_source = true;
      crash_dest = true;
      power_cycle = true;
    }
  in
  let o = F.run_chaos c in
  (match o.F.failure with
  | Some e when String.starts_with ~prefix:"recovery: " e -> ()
  | _ -> Alcotest.failf "%s: the recovery did not fail" (F.replay_line c));
  let lines = String.split_on_char '\n' (report o) in
  let with_prefix p = List.filter (String.starts_with ~prefix:p) lines in
  Alcotest.(check int) "per-shard counts at the cut" 2
    (List.length (with_prefix "shard 0 applied at the cut: ")
    + List.length (with_prefix "shard 1 applied at the cut: "));
  Alcotest.(check (list string)) "none claimed as serving" []
    (with_prefix "shard 0 applied: " @ with_prefix "shard 1 applied: ")

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let rand = Random.State.make [| 0x316A7E |] in
  ( "migration",
    [
      tc "migrate under concurrent writes" test_migrate_under_load;
      tc "sequencer-only move keeps follower state"
        test_migrate_sequencer_only;
      tc "dead destination rolls back" test_migrate_rollback_on_dead_target;
      QCheck_alcotest.to_alcotest ~rand prop_reassign_touches_exactly_one_shard;
      QCheck_alcotest.to_alcotest ~rand prop_reassign_sequence_keeps_spreading;
      tc "chaos replay line round-trips every net" test_replay_line_round_trips;
      tc "chaos net profiles run as themselves" test_profiles_differ;
      tc "a Leave precedes the sends it releases (replays)"
        test_leave_order_replays;
      tc "a failed deploy is a reported failure" test_failed_deploy_is_reported;
      tc "a power cycle judges the recovered service"
        test_power_cycle_judges_recovered;
      tc "migrate then power cycle recovers from the destinations"
        test_migrate_then_power_cycle;
      tc "the service counters span every epoch" test_counters_span_epochs;
      tc "a failed recovery's applied counts are labelled"
        test_failed_recovery_labels_applied;
      QCheck_alcotest.to_alcotest ~rand prop_migration_swarm;
      QCheck_alcotest.to_alcotest ~rand prop_migration_chaos_deterministic;
    ] )
