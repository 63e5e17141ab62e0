(* The fault-injection harness turned on itself: swarm testing over
   seeded random fault schedules with the four delivery invariants
   checked after every run, plus targeted scenarios for the fault
   primitives (partitions, pause/resume, restart) and the recovery
   counters they exercise. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_harness
module T = Types

let body = Bytes.of_string

let check_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (T.error_to_string e)

let with_cluster n scenario =
  let cl = Cluster.create ~n () in
  let failure = ref None in
  Cluster.spawn cl (fun () -> try scenario cl with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 2_000) cl;
  match !failure with Some e -> raise e | None -> ()

let build_auto_heal ?(resilience = 0) cl n =
  let creator =
    Api.create_group (Cluster.flip cl 0) ~resilience ~auto_heal:true ()
  in
  let addr = Api.group_address creator in
  creator
  :: List.init (n - 1) (fun i ->
         check_ok "join"
           (Api.join_group (Cluster.flip cl (i + 1)) ~resilience
              ~auto_heal:true addr))

let message_bodies g =
  let rec drain acc =
    match Api.receive_opt g with
    | None -> List.rev acc
    | Some (T.Message { body; _ }) -> drain (Bytes.to_string body :: acc)
    | Some _ -> drain acc
  in
  drain []

let saw_expelled g =
  let rec drain () =
    match Api.receive_opt g with
    | None -> false
    | Some T.Expelled -> true
    | Some _ -> drain ()
  in
  drain ()

(* ----- the swarm: random schedules x workloads, shrunk on failure ----- *)

(* Every swarm case also draws the fabric the cluster runs on: the
   paper's shared wire, a flat full-duplex switch, or a two-segment
   switch whose 2x uplink is oversubscribed for groups of 3+ — so the
   same schedules and invariants cover queueing-loss fabrics too. *)
let fabrics =
  [
    Medium.Shared;
    Medium.Switched Switch.flat;
    Medium.Switched { Switch.segments = 2; segment_size = 3; uplink_mult = 2 };
  ]

let method_to_string = function T.Pb -> "pb" | T.Bb -> "bb" | T.Auto -> "auto"

(* [net], [pipeline] and [ops_per_send] are fixed per swarm; the
   printer renders them with the drawn case, so every printed replay
   line reproduces its failure as it stands. *)
let swarm_case ~net ~pipeline ~ops_per_send () =
  let gen =
    QCheck.Gen.(
      int_range 3 5 >>= fun n ->
      int_range 0 (n - 2) >>= fun r ->
      oneofl [ T.Pb; T.Bb ] >>= fun m ->
      oneofl fabrics >>= fun fabric ->
      int_range 0 99_999 >>= fun seed ->
      return (n, r, m, fabric, seed, Fault.random ~seed ~n ()))
  in
  let batching =
    if pipeline = 1 && ops_per_send = 1 then ""
    else Printf.sprintf " --pipeline %d --ops-per-send %d" pipeline ops_per_send
  in
  let print (n, r, m, fabric, seed, sched) =
    let net = Medium.net_to_string (fabric, net) in
    Printf.sprintf
      "n=%d r=%d method=%s net=%s seed=%d (replay: amoeba chaos --seed %d -m \
       %d -r %d --method %s --net %s%s --schedule %S)"
      n r (method_to_string m) net seed seed n r (method_to_string m) net
      batching (Fault.to_string sched)
  in
  (* Shrink only the schedule: QCheck peels steps off until the
     smallest fault sequence that still breaks an invariant remains,
     and [print] renders it as a chaos-CLI replay line. *)
  let shrink (n, r, m, fabric, seed, sched) =
    QCheck.Iter.map
      (fun sched' -> (n, r, m, fabric, seed, sched'))
      (QCheck.Shrink.list sched)
  in
  QCheck.make ~print ~shrink gen

(* 120 drawn cases, each run with the swarm's own net and batching. *)
let swarm ~name ?(net = Medium.clean) ?(pipeline = 1) ?(ops_per_send = 1) () =
  QCheck.Test.make ~name ~count:120
    (swarm_case ~net ~pipeline ~ops_per_send ())
    (fun (n, r, m, fabric, seed, sched) ->
      Chaos.ok
        (Chaos.run ~n ~resilience:r ~send_method:m ~schedule:sched ~net
           ~fabric ~pipeline ~ops_per_send ~seed ()))

let prop_swarm_invariants =
  swarm ~name:"swarm: invariants hold under random fault schedules" ()

let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"fault schedule survives to_string/of_string"
    ~count:100
    QCheck.(pair (int_range 0 99_999) (int_range 2 6))
    (fun (seed, n) ->
      let s = Fault.random ~seed ~n () in
      Fault.of_string (Fault.to_string s) = s)

(* ----- adversarial link conditions -----

   Directed runs pin each receive-path hardening through the counters
   it exposes: the invariants must hold AND the adversary must really
   have fired AND the kernel must report absorbing it.  A second swarm
   then runs random fault schedules on top of persistently hostile
   link conditions. *)

let step at action = { Fault.at; action }

let test_duplication_absorbed () =
  let o =
    Chaos.run ~n:4 ~seed:11
      ~schedule:[ step (Time.ms 100) (Fault.Duplicate (1.0, Time.ms 1_500)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "wire duplicated frames" true (o.Chaos.dups_injected > 0);
  Alcotest.(check bool) "kernels dropped duplicates" true
    (o.Chaos.duplicates_dropped > 0)

let test_reordering_absorbed () =
  let o =
    Chaos.run ~n:4 ~seed:12
      ~schedule:[ step (Time.ms 100) (Fault.Jitter (Time.ms 30, Time.ms 1_500)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "kernels absorbed reorderings" true
    (o.Chaos.reorders_absorbed > 0)

let test_corruption_caught_by_checksums () =
  let o =
    Chaos.run ~n:4 ~seed:13
      ~schedule:[ step (Time.ms 100) (Fault.Corrupt (0.05, Time.ms 1_500)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "corruptions were injected" true
    (o.Chaos.corruptions_injected > 0);
  Alcotest.(check bool) "every one was checksum-rejected somewhere" true
    (o.Chaos.corrupt_dropped + o.Chaos.flip_checksum_drops > 0)

let test_oneway_cut_survived () =
  let o =
    Chaos.run ~n:4 ~seed:14
      ~schedule:
        [ step (Time.ms 200) (Fault.Oneway (0, 2)); step (Time.ms 900) Fault.Heal ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "the cut suppressed deliveries" true
    (o.Chaos.oneway_drops > 0)

let test_loss_burst_repaired () =
  let o =
    Chaos.run ~n:4 ~seed:15
      ~schedule:
        [ step (Time.ms 100) (Fault.Burst (0.05, 0.3, 0.9, Time.ms 1_200)) ]
      ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o);
  Alcotest.(check bool) "the burst lost frames" true (o.Chaos.cond_losses > 0);
  Alcotest.(check bool) "nacks repaired the gaps" true (o.Chaos.nacks > 0)

(* Persistent moderately-hostile conditions on every link for the
   whole active phase (the CLI's [adversarial] profile: bursty loss,
   duplication, 2 ms jitter, corruption), under the same random
   schedules as the main swarm. *)
let adversarial_net = List.assoc "adversarial" Medium.condition_profiles

let prop_adversarial_swarm =
  swarm ~name:"swarm: invariants hold on a hostile net under random schedules"
    ~net:adversarial_net ()

(* The same hostile net and random schedules with batching and
   pipelining on: every send is declared as a 3-op batch to the
   kernel's accounting and each kernel keeps up to 4 sequencer rounds
   in flight — total order, agreement, no-dup/no-skip and durability
   must not care. *)
let prop_batched_adversarial_swarm =
  swarm ~name:"swarm: batching + pipelining hold invariants on a hostile net"
    ~net:adversarial_net ~pipeline:4 ~ops_per_send:3 ()

(* The power-loss swarm: random schedules that additionally yank the
   power on the whole cluster once mid-run, with every member logging
   deliveries to an SSD-modelled stable store.  Half the cases run on
   the hostile net.  The classic invariants are checked per epoch and
   the durability-across-restart invariant (I5) bridges the cut:
   recovered logs must be exact prefixes, acknowledged writes inside
   the durable frontier must be on some disk, and nothing recovered
   may be delivered twice. *)
let power_swarm_case =
  let gen =
    QCheck.Gen.(
      int_range 3 5 >>= fun n ->
      int_range 0 (n - 2) >>= fun r ->
      oneofl [ T.Pb; T.Bb ] >>= fun m ->
      oneofl fabrics >>= fun fabric ->
      int_range 0 99_999 >>= fun seed ->
      bool >>= fun hostile ->
      return
        (n, r, m, fabric, seed, hostile,
         Fault.random ~seed ~n ~power_cycles:true ()))
  in
  let print (n, r, m, fabric, seed, hostile, sched) =
    let net =
      Medium.net_to_string
        (fabric, if hostile then adversarial_net else Medium.clean)
    in
    Printf.sprintf
      "n=%d r=%d method=%s seed=%d net=%s (replay: amoeba chaos --seed %d -m \
       %d -r %d --method %s --disk ssd --net %s --schedule %S)"
      n r (method_to_string m) seed net seed n r (method_to_string m) net
      (Fault.to_string sched)
  in
  let shrink (n, r, m, fabric, seed, hostile, sched) =
    QCheck.Iter.map
      (fun sched' -> (n, r, m, fabric, seed, hostile, sched'))
      (QCheck.Shrink.list sched)
  in
  QCheck.make ~print ~shrink gen

let prop_power_cycle_swarm =
  QCheck.Test.make
    ~name:"swarm: durability survives whole-cluster power loss"
    ~count:120 power_swarm_case (fun (n, r, m, fabric, seed, hostile, sched) ->
      (* the shrinker may peel the Power_cycle_all step off; the run is
         then an ordinary durable run, still a valid case *)
      Chaos.ok
        (Chaos.run ~n ~resilience:r ~send_method:m ~schedule:sched
           ~net:(if hostile then adversarial_net else Medium.clean)
           ~fabric ~disk:Cost_model.ssd ~seed ()))

(* Regression (found by the fabric swarm, reproduces on the shared
   wire too): the r=0 sequencer pauses, the survivors reset without
   it, one of them then crashes, and the old sequencer resumes into a
   near-quiet group.  Nothing pings an r=0 sequencer, so it never
   learns of its expulsion — the checker must still scope total order
   per configuration and discount the ghost's discarded tail. *)
let test_ghost_sequencer_after_missed_reset () =
  let schedule =
    [
      step 501_075_970 (Fault.Pause 0);
      step 1_881_750_145 (Fault.Crash 2);
      step 1_887_605_124 (Fault.Resume 0);
    ]
  in
  List.iter
    (fun fabric ->
      let o =
        Chaos.run ~n:3 ~resilience:0 ~send_method:T.Bb ~schedule ~fabric
          ~seed:90615 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "invariants hold on %s" (Medium.spec_to_string fabric))
        true (Chaos.ok o);
      Alcotest.(check bool) "the group reset around the pause" true
        (o.Chaos.resets > 0))
    fabrics

(* Regression (found by the hostile-net sweep): a member that becomes
   sequencer after a reset used to start its request dedup empty.  A
   send the old configuration had already delivered, resubmitted by
   its sender under the new one, then got a second sequence number
   that every member dropped as a duplicate — a hole in every stream.
   These are the sweep's shared-wire replays, whose schedules the
   switch fabric cannot perturb. *)
let test_resubmitted_delivered_send_not_resequenced () =
  List.iter
    (fun (seed, n, resilience) ->
      let o =
        Chaos.run ~n ~resilience ~send_method:T.Pb ~net:adversarial_net ~seed ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "invariants hold (seed %d, n=%d, r=%d)" seed n
           resilience)
        true (Chaos.ok o))
    [ (33, 5, 2); (613, 4, 0); (2112, 3, 0) ]

(* Regression (found by the hostile-net sweep): the flush used to go
   out at its fixed time even while the member's sender was still
   stuck in an earlier send, so the flush could be delivered first and
   the checker saw the origin send #5 before #4. *)
let test_flush_waits_for_stuck_sender () =
  let o =
    Chaos.run ~n:3 ~resilience:1 ~send_method:T.Pb ~net:adversarial_net
      ~seed:2871 ()
  in
  Alcotest.(check bool) "invariants hold" true (Chaos.ok o)

let test_multigroup_invariants_per_group () =
  (* Three concurrent groups share the wire (sequencers on machines 0,
     1 and 2); machine 1 — one group's sequencer, a plain member of
     the others — crashes on a hostile net.  Every group must uphold
     its own invariants independently. *)
  let o =
    Chaos.run ~n:4 ~groups:3 ~resilience:1 ~seed:16
      ~schedule:[ step (Time.ms 400) (Fault.Crash 1) ]
      ~net:adversarial_net ()
  in
  Alcotest.(check bool) "per-group invariants hold" true (Chaos.ok o);
  Alcotest.(check int) "four verdicts per group" 12
    (List.length o.Chaos.verdicts);
  Alcotest.(check bool) "durability was in force" true o.Chaos.durability_checked

let prop_multigroup_deterministic =
  QCheck.Test.make ~name:"multi-group chaos replays bit-identically"
    ~count:6
    QCheck.(int_range 0 9_999)
    (fun seed ->
      let a = Chaos.run ~groups:2 ~seed () and b = Chaos.run ~groups:2 ~seed () in
      a = b)

let prop_chaos_deterministic =
  QCheck.Test.make ~name:"chaos runs replay bit-identically from a seed"
    ~count:12
    QCheck.(int_range 0 9_999)
    (fun seed ->
      let a = Chaos.run ~seed () and b = Chaos.run ~seed () in
      a = b)

(* ----- live but slow: the expulsion case the paper warns about ----- *)

let test_paused_sequencer_expelled_and_rejoins () =
  with_cluster 4 (fun cl ->
      let groups = build_auto_heal cl 4 in
      let g0 = List.hd groups and g1 = List.nth groups 1 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "before")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      (* The sequencer's host stalls.  It is alive — the wire still
         fills its receive ring — but the failure detector cannot tell
         a slow machine from a dead one, so the members rebuild the
         group without it. *)
      Machine.pause (Cluster.machine cl 0);
      Engine.sleep cl.Cluster.engine (Time.sec 4);
      let info = Api.get_info_group g1 in
      Alcotest.(check bool)
        "survivors expelled the stalled sequencer" false
        (List.mem 0 info.Api.members);
      Alcotest.(check bool)
        "a recovery incarnation was installed" true
        (info.Api.resets_survived > 0);
      (* It wakes up, drains its backlog, discovers the group moved on
         without it, and rejoins as a fresh member. *)
      Machine.resume (Cluster.machine cl 0);
      ignore (check_ok "post-reset send" (Api.send_to_group g1 (body "after")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check bool) "paused member learned of expulsion" true
        (saw_expelled g0);
      let g0' =
        check_ok "rejoin after expulsion"
          (Api.join_group (Cluster.flip cl 0) ~auto_heal:true
             (Api.group_address g0))
      in
      ignore (check_ok "rejoined send" (Api.send_to_group g0' (body "back")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "survivor missed nothing" [ "before"; "after"; "back" ]
        (message_bodies g1))

let test_paused_member_catches_up () =
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      (* A stalled plain member is never probed, so it is not
         expelled; once it resumes, negative acknowledgements close
         the gap its nap left. *)
      Machine.pause (Cluster.machine cl 2);
      for k = 1 to 5 do
        ignore (check_ok "send" (Api.send_to_group g1 (body (string_of_int k))))
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      Machine.resume (Cluster.machine cl 2);
      ignore (check_ok "flush" (Api.send_to_group g1 (body "f")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "resumed member has the whole stream"
        [ "1"; "2"; "3"; "4"; "5"; "f" ]
        (message_bodies g2))

(* ----- resilience under frame loss ----- *)

let test_resilient_sends_under_loss () =
  with_cluster 4 (fun cl ->
      let groups = build_auto_heal ~resilience:2 cl 4 in
      let g1 = List.nth groups 1 in
      (* High enough to provoke nack/retransmission repair, low enough
         that no send exhausts its bounded retries (probe_retries
         attempts) under this seed — a send that loses every attempt
         legitimately errors with Sequencer_unreachable. *)
      Medium.set_loss_rate cl.Cluster.net 0.12;
      List.iteri
        (fun i g ->
          Cluster.spawn cl (fun () ->
              for k = 1 to 4 do
                ignore
                  (check_ok "lossy send"
                     (Api.send_to_group g (body (Printf.sprintf "o%d.%d" i k))))
              done))
        groups;
      Engine.sleep cl.Cluster.engine (Time.sec 5);
      Medium.set_loss_rate cl.Cluster.net 0.;
      ignore (check_ok "flush" (Api.send_to_group g1 (body "flush")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      let streams = List.map message_bodies groups in
      let reference = List.hd streams in
      Alcotest.(check int) "every send delivered" 17 (List.length reference);
      List.iteri
        (fun i s ->
          Alcotest.(check (list string))
            (Printf.sprintf "member %d agrees" i)
            reference s)
        streams;
      (* The repair machinery did real work and reports it through
         GetInfoGroup. *)
      let nacks =
        List.fold_left
          (fun acc g -> acc + (Api.get_info_group g).Api.nacks_sent)
          0 groups
      and retrans =
        List.fold_left
          (fun acc g -> acc + (Api.get_info_group g).Api.retransmissions)
          0 groups
      in
      Alcotest.(check bool) "loss provoked nacks" true (nacks > 0);
      Alcotest.(check bool) "nacks provoked retransmissions" true (retrans > 0))

(* ----- fault primitives ----- *)

let test_partition_blocks_then_heals () =
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g0 = List.hd groups and g2 = List.nth groups 2 in
      Medium.partition cl.Cluster.net [ 2 ] [ 0; 1 ];
      ignore (check_ok "cut send" (Api.send_to_group g0 (body "cut")));
      Engine.sleep cl.Cluster.engine (Time.ms 200);
      Alcotest.(check (list string)) "isolated member saw nothing" []
        (message_bodies g2);
      Alcotest.(check bool) "drops were counted" true
        (Medium.partition_drops cl.Cluster.net > 0);
      Medium.heal cl.Cluster.net;
      ignore (check_ok "healed send" (Api.send_to_group g0 (body "healed")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "gap repaired after heal" [ "cut"; "healed" ] (message_bodies g2))

let test_restarted_machine_rejoins_fresh () =
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g0 = List.hd groups in
      ignore (check_ok "pre" (Api.send_to_group g0 (body "pre")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 2);
      ignore (check_ok "reset" (Api.reset_group g0 ~min_members:2));
      Cluster.restart cl 2;
      Alcotest.(check bool) "machine is back" true
        (Machine.is_alive (Cluster.machine cl 2));
      Alcotest.(check int) "one reboot" 1
        (Machine.restarts (Cluster.machine cl 2));
      let g2' =
        check_ok "rejoin on rebooted machine"
          (Api.join_group (Cluster.flip cl 2) ~auto_heal:true
             (Api.group_address g0))
      in
      ignore (check_ok "post" (Api.send_to_group g0 (body "post")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      (* Fresh state: the reboot joined a group whose history started
         after the crash — it must see post-restart traffic only. *)
      Alcotest.(check (list string))
        "rebooted member sees only new traffic" [ "post" ]
        (message_bodies g2'))

let test_crashed_machine_schedules_zero_events () =
  (* The zombie-kernel property itself, asserted through the engine's
     per-group accounting rather than protocol symptoms: after
     Machine.crash the machine's process group is dead and never runs
     another event, no matter how much the survivors do. *)
  with_cluster 3 (fun cl ->
      let groups = build_auto_heal cl 3 in
      let g0 = List.hd groups in
      ignore (check_ok "warm" (Api.send_to_group g0 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      let m2 = Cluster.machine cl 2 in
      let dead = Machine.group m2 in
      Machine.crash m2;
      let at_crash = Engine.group_events dead in
      Alcotest.(check bool) "group dead after crash" false
        (Engine.group_alive dead);
      (* Drive activity that would tickle a zombie: a recovery, fresh
         traffic, and several heartbeat periods. *)
      ignore (check_ok "reset" (Api.reset_group g0 ~min_members:2));
      for k = 1 to 5 do
        ignore (check_ok "post" (Api.send_to_group g0 (body (string_of_int k))))
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 10);
      Alcotest.(check int) "crashed machine ran zero events" at_crash
        (Engine.group_events dead);
      (* A restart is a new group, not a resurrection of the old one. *)
      Cluster.restart cl 2;
      let fresh = Machine.group m2 in
      Alcotest.(check bool) "restart builds a fresh live group" true
        ((not (fresh == dead)) && Engine.group_alive fresh);
      Alcotest.(check bool) "old group stays dead" false
        (Engine.group_alive dead);
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Alcotest.(check int) "dead group still at zero after restart" at_crash
        (Engine.group_events dead))

(* ----- the checker detects what it claims to detect ----- *)

let msg ~seq ~sender b = T.Message { seq; sender; body = Bytes.of_string b }
let stream label events = { Checker.label; events; full = true }

let test_checker_catches_violations () =
  let ok v = v.Checker.ok in
  Alcotest.(check bool) "divergent order flagged" false
    (ok
       (Checker.total_order
          [
            stream "a" [ msg ~seq:1 ~sender:0 "x" ];
            stream "b" [ msg ~seq:1 ~sender:0 "y" ];
          ]));
  Alcotest.(check bool) "duplicate body flagged" false
    (ok
       (Checker.no_dup_no_skip
          [ stream "a" [ msg ~seq:1 ~sender:0 "x"; msg ~seq:2 ~sender:0 "x" ] ]));
  Alcotest.(check bool) "skipped seq flagged" false
    (ok
       (Checker.no_dup_no_skip
          [ stream "a" [ msg ~seq:1 ~sender:0 "x"; msg ~seq:3 ~sender:0 "y" ] ]));
  Alcotest.(check bool) "lost completed send flagged" false
    (ok
       (Checker.durability
          ~streams:[ stream "a" [ msg ~seq:1 ~sender:0 "o0.1" ] ]
          ~completed:[ (0, "o0.1"); (1, "o1.1") ]));
  Alcotest.(check bool) "incarnation regression flagged" false
    (ok
       (Checker.monotone_incarnations
          [
            stream "a"
              [
                T.Group_reset { seq = 5; incarnation = 9; members = [ 0 ] };
                T.Group_reset { seq = 9; incarnation = 7; members = [ 0 ] };
              ];
          ]));
  (* An expelled stream's divergent tail is not a violation. *)
  Alcotest.(check bool) "expelled stream excluded from agreement" true
    (ok
       (Checker.total_order
          [
            stream "a" [ msg ~seq:1 ~sender:0 "x" ];
            stream "b" [ msg ~seq:1 ~sender:0 "y"; T.Expelled ];
          ]))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let rand = Random.State.make [| 0xC4A05 |] in
  ( "chaos",
    [
      tc "paused sequencer expelled, rejoins"
        test_paused_sequencer_expelled_and_rejoins;
      tc "paused member catches up" test_paused_member_catches_up;
      tc "r=2 sends survive frame loss" test_resilient_sends_under_loss;
      tc "partition blocks then heals" test_partition_blocks_then_heals;
      tc "restarted machine rejoins fresh" test_restarted_machine_rejoins_fresh;
      tc "crashed machine schedules zero events"
        test_crashed_machine_schedules_zero_events;
      tc "checker catches violations" test_checker_catches_violations;
      tc "duplication absorbed" test_duplication_absorbed;
      tc "reordering absorbed" test_reordering_absorbed;
      tc "corruption caught by checksums" test_corruption_caught_by_checksums;
      tc "one-way cut survived" test_oneway_cut_survived;
      tc "loss burst repaired" test_loss_burst_repaired;
      tc "multi-group invariants hold per group"
        test_multigroup_invariants_per_group;
      tc "ghost sequencer after a missed reset"
        test_ghost_sequencer_after_missed_reset;
      tc "resubmitted delivered send not re-sequenced"
        test_resubmitted_delivered_send_not_resequenced;
      tc "flush waits for a stuck sender" test_flush_waits_for_stuck_sender;
      QCheck_alcotest.to_alcotest ~rand prop_swarm_invariants;
      QCheck_alcotest.to_alcotest ~rand prop_adversarial_swarm;
      QCheck_alcotest.to_alcotest ~rand prop_batched_adversarial_swarm;
      QCheck_alcotest.to_alcotest ~rand prop_power_cycle_swarm;
      QCheck_alcotest.to_alcotest ~rand prop_schedule_roundtrip;
      QCheck_alcotest.to_alcotest ~rand prop_chaos_deterministic;
      QCheck_alcotest.to_alcotest ~rand prop_multigroup_deterministic;
    ] )
