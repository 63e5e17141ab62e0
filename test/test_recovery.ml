(* Adversarial recovery scenarios: coordinator failures, concurrent
   resets, repeated crashes, recovery under traffic.  The paper calls
   the failure detection and group rebuilding code "the hardest parts
   of the system to get correct" — these tests exist because of that
   sentence. *)

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

let build cl n =
  let creator = Api.create_group (Cluster.flip cl 0) () in
  let addr = Api.group_address creator in
  creator
  :: List.init (n - 1) (fun i ->
         check_ok "join" (Api.join_group (Cluster.flip cl (i + 1)) addr))

let message_bodies g =
  let rec drain acc =
    match Api.receive_opt g with
    | None -> List.rev acc
    | Some (T.Message { body; _ }) -> drain (Bytes.to_string body :: acc)
    | Some _ -> drain acc
  in
  drain []

let test_coordinator_crash_mid_reset () =
  with_cluster 4 (fun cl ->
      let groups = build cl 4 in
      let g1 = List.nth groups 1
      and g2 = List.nth groups 2
      and g3 = List.nth groups 3 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      (* The sequencer dies; member 1 coordinates a reset but dies
         during it. *)
      Machine.crash (Cluster.machine cl 0);
      Cluster.spawn cl (fun () -> ignore (Api.reset_group g1 ~min_members:3));
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      Machine.crash (Cluster.machine cl 1);
      (* A survivor takes over recovery. *)
      let survivors = check_ok "survivor reset" (Api.reset_group g2 ~min_members:2) in
      Alcotest.(check int) "two left" 2 survivors;
      ignore (check_ok "post" (Api.send_to_group g3 (body "after")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "survivor stream" [ "w"; "after" ] (message_bodies g2))

let test_concurrent_resets_converge () =
  with_cluster 4 (fun cl ->
      let groups = build cl 4 in
      let g1 = List.nth groups 1
      and g2 = List.nth groups 2
      and g3 = List.nth groups 3 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 0);
      (* Two members notice the failure and reset concurrently. *)
      let r1 = ref None and r2 = ref None in
      Cluster.spawn cl (fun () -> r1 := Some (Api.reset_group g1 ~min_members:2));
      Cluster.spawn cl (fun () -> r2 := Some (Api.reset_group g2 ~min_members:2));
      Engine.sleep cl.Cluster.engine (Time.sec 10);
      let ok r = match r with Some (Ok _) -> true | _ -> false in
      Alcotest.(check bool) "both resets returned success" true (ok !r1 && ok !r2);
      let i1 = Api.get_info_group g1 and i2 = Api.get_info_group g2 in
      Alcotest.(check bool) "same incarnation" true
        (i1.Api.incarnation = i2.Api.incarnation);
      Alcotest.(check bool) "same membership" true (i1.Api.members = i2.Api.members);
      Alcotest.(check bool) "same sequencer" true
        (i1.Api.sequencer = i2.Api.sequencer);
      (* And the group still works. *)
      ignore (check_ok "post" (Api.send_to_group g3 (body "post")));
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      Alcotest.(check (list string)) "delivery" [ "w"; "post" ] (message_bodies g2))

let test_repeated_crash_reset_cycles () =
  with_cluster 4 (fun cl ->
      let groups = build cl 4 in
      let g2 = List.nth groups 2 and g3 = List.nth groups 3 in
      ignore (check_ok "m1" (Api.send_to_group g3 (body "m1")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      (* Crash the original sequencer. *)
      Machine.crash (Cluster.machine cl 0);
      ignore (check_ok "reset 1" (Api.reset_group g2 ~min_members:3));
      ignore (check_ok "m2" (Api.send_to_group g3 (body "m2")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      (* The new sequencer (member 1, lowest survivor) dies too. *)
      Machine.crash (Cluster.machine cl 1);
      ignore (check_ok "reset 2" (Api.reset_group g3 ~min_members:2));
      ignore (check_ok "m3" (Api.send_to_group g3 (body "m3")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "stream spans two recoveries"
        [ "m1"; "m2"; "m3" ]
        (message_bodies g2);
      let info = Api.get_info_group g2 in
      Alcotest.(check (list int)) "members" [ 2; 3 ] info.Api.members;
      Alcotest.(check int) "second recovery era" 2
        (T.incarnation_era info.Api.incarnation))

let test_reset_with_unreachable_quorum () =
  with_cluster 3 (fun cl ->
      let groups = build cl 3 in
      let g1 = List.nth groups 1 in
      Machine.crash (Cluster.machine cl 0);
      Machine.crash (Cluster.machine cl 2);
      match Api.reset_group g1 ~min_members:3 with
      | Error T.Not_enough_members -> ()
      | Ok _ -> Alcotest.fail "reset should not meet quorum"
      | Error e -> Alcotest.failf "unexpected error %s" (T.error_to_string e))

let test_recovery_under_traffic () =
  (* Senders keep hammering while the sequencer dies and the group is
     rebuilt: survivors must end with identical streams and no
     duplicates. *)
  with_cluster 4 (fun cl ->
      let groups = build cl 4 in
      let g1 = List.nth groups 1
      and g2 = List.nth groups 2
      and g3 = List.nth groups 3 in
      let acc2 = ref [] and acc3 = ref [] in
      let collect g acc =
        Cluster.spawn cl (fun () ->
            let rec loop () =
              (match Api.receive_from_group g with
              | T.Message { body; _ } -> acc := Bytes.to_string body :: !acc
              | _ -> ());
              loop ()
            in
            loop ())
      in
      collect g2 acc2;
      collect g3 acc3;
      List.iteri
        (fun i g ->
          Cluster.spawn cl (fun () ->
              for k = 1 to 10 do
                ignore (Api.send_to_group g (body (Printf.sprintf "%d.%d" i k)))
              done))
        [ g1; g3 ];
      Engine.sleep cl.Cluster.engine (Time.ms 15);
      Machine.crash (Cluster.machine cl 0);
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      ignore (check_ok "reset" (Api.reset_group g2 ~min_members:3));
      Engine.sleep cl.Cluster.engine (Time.sec 60);
      let s2 = List.rev !acc2 and s3 = List.rev !acc3 in
      Alcotest.(check bool) "identical streams at survivors" true (s2 = s3);
      (* No duplicates. *)
      Alcotest.(check int) "no duplicates"
        (List.length s2)
        (List.length (List.sort_uniq compare s2));
      (* Everything a sender saw confirmed must be in the stream. *)
      Alcotest.(check bool) "some progress" true (List.length s2 >= 2))

let test_expelled_member_can_rejoin () =
  with_cluster 3 (fun cl ->
      let groups = build cl 3 in
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 0);
      (* Member 2 is silenced and gets expelled by the recovery. *)
      Medium.set_drop_fun cl.Cluster.net (Some (fun f -> f.Frame.src = 2));
      ignore (check_ok "reset" (Api.reset_group g1 ~min_members:1));
      Medium.set_drop_fun cl.Cluster.net None;
      ignore (check_ok "tick" (Api.send_to_group g1 (body "tick")));
      Engine.sleep cl.Cluster.engine (Time.sec 3);
      Alcotest.(check bool) "old handle dead" false (Kernel.alive (Api.kernel g2));
      (* The paper's remedy: JoinGroup again with a fresh kernel. *)
      let g2' =
        check_ok "rejoin" (Api.join_group (Cluster.flip cl 2) (Api.group_address g1))
      in
      ignore (check_ok "post-rejoin send" (Api.send_to_group g2' (body "back")));
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      Alcotest.(check (list string)) "rejoined member receives" [ "back" ]
        (message_bodies g2'))

let test_acker_leaves_during_resilient_send () =
  (* r = 2 in a group of 4: low-numbered members acknowledge.  One of
     them leaves while traffic flows; the sequencer must stop waiting
     for its acknowledgements or resilient sends stall. *)
  let cl = Cluster.create ~n:4 () in
  let failure = ref None in
  Cluster.spawn cl (fun () ->
      try
        let creator = Api.create_group (Cluster.flip cl 0) ~resilience:2 () in
        let addr = Api.group_address creator in
        let joiners =
          List.init 3 (fun i ->
              check_ok "join"
                (Api.join_group (Cluster.flip cl (i + 1)) ~resilience:2 addr))
        in
        let g1 = List.nth joiners 0 and g3 = List.nth joiners 2 in
        ignore (check_ok "warm" (Api.send_to_group g3 (body "w")));
        (* Keep sending while an acker (member 1) leaves. *)
        let results = ref [] in
        Cluster.spawn cl (fun () ->
            for k = 1 to 8 do
              results := Api.send_to_group g3 (body (string_of_int k)) :: !results
            done);
        Engine.sleep cl.Cluster.engine (Time.ms 5);
        check_ok "leave" (Api.leave_group g1);
        Engine.sleep cl.Cluster.engine (Time.sec 5);
        Alcotest.(check int) "all sends completed" 8 (List.length !results);
        Alcotest.(check bool) "all sends succeeded" true
          (List.for_all (function Ok _ -> true | Error _ -> false) !results)
      with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 2_000) cl;
  (match !failure with Some e -> raise e | None -> ())

let test_acker_crash_then_reset_unblocks () =
  let cl = Cluster.create ~n:3 () in
  let failure = ref None in
  Cluster.spawn cl (fun () ->
      try
        let creator = Api.create_group (Cluster.flip cl 0) ~resilience:2 () in
        let addr = Api.group_address creator in
        let _g1 =
          check_ok "join" (Api.join_group (Cluster.flip cl 1) ~resilience:2 addr)
        in
        let g2 =
          check_ok "join" (Api.join_group (Cluster.flip cl 2) ~resilience:2 addr)
        in
        ignore (check_ok "warm" (Api.send_to_group g2 (body "w")));
        Engine.sleep cl.Cluster.engine (Time.ms 50);
        (* An acker dies: the next resilient send cannot stabilise. *)
        Machine.crash (Cluster.machine cl 1);
        (match Api.send_to_group g2 (body "stuck") with
        | Error T.Sequencer_unreachable | Error T.Send_aborted | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected: %s" (T.error_to_string e));
        (* Recovery removes the dead acker; sends flow again. *)
        ignore (check_ok "reset" (Api.reset_group g2 ~min_members:2));
        ignore (check_ok "post-reset send" (Api.send_to_group g2 (body "flow")))
      with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 2_000) cl;
  match !failure with Some e -> raise e | None -> ()

let test_acker_crash_heals_without_reset () =
  (* The sequencer-side half of auto-heal.  The member heartbeat only
     watches the sequencer, so a dead plain member is invisible to it —
     but with resilience > 0 that member may be the acker every send
     from the sequencer's machine waits on.  The sequencer must notice
     the stalled stable frontier on its own heartbeat and expel the
     corpse without anyone calling ResetGroup. *)
  let cl = Cluster.create ~n:3 () in
  let failure = ref None in
  Cluster.spawn cl (fun () ->
      try
        let creator =
          Api.create_group (Cluster.flip cl 0) ~resilience:1 ~auto_heal:true ()
        in
        let addr = Api.group_address creator in
        let _g1 =
          check_ok "join"
            (Api.join_group (Cluster.flip cl 1) ~resilience:1 ~auto_heal:true addr)
        in
        let _g2 =
          check_ok "join"
            (Api.join_group (Cluster.flip cl 2) ~resilience:1 ~auto_heal:true addr)
        in
        ignore (check_ok "warm" (Api.send_to_group creator (body "w")));
        Engine.sleep cl.Cluster.engine (Time.ms 50);
        (* The creator's acker (first member that is not the sender)
           dies: its next send cannot stabilise in this membership. *)
        Machine.crash (Cluster.machine cl 1);
        (match Api.send_to_group creator (body "stuck") with
        | Error T.Sequencer_unreachable | Error T.Send_aborted | Ok _ -> ()
        | Error e -> Alcotest.failf "unexpected: %s" (T.error_to_string e));
        (* Heartbeats: 2 x probe_timeout per tick, probe_retries
           stalled ticks, then a recovery round — well under 5 s. *)
        Engine.sleep cl.Cluster.engine (Time.sec 5);
        Alcotest.(check int) "dead acker expelled" 2
          (List.length (Kernel.member_list (Api.kernel creator)));
        ignore (check_ok "post-heal send" (Api.send_to_group creator (body "flow")))
      with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 2_000) cl;
  match !failure with Some e -> raise e | None -> ()

let test_auto_heal_recovers_without_reset_call () =
  (* auto_heal on: nobody calls ResetGroup; the members' heartbeats
     notice the dead sequencer and rebuild the group on their own. *)
  let cl = Cluster.create ~n:3 () in
  let failure = ref None in
  Cluster.spawn cl (fun () ->
      try
        let creator = Api.create_group (Cluster.flip cl 0) ~auto_heal:true () in
        let addr = Api.group_address creator in
        let g1 =
          check_ok "join" (Api.join_group (Cluster.flip cl 1) ~auto_heal:true addr)
        in
        let g2 =
          check_ok "join" (Api.join_group (Cluster.flip cl 2) ~auto_heal:true addr)
        in
        let acc1 = ref [] in
        Cluster.spawn cl (fun () ->
            let rec loop () =
              (match Api.receive_from_group g1 with
              | T.Message { body; _ } -> acc1 := Bytes.to_string body :: !acc1
              | _ -> ());
              loop ()
            in
            loop ());
        ignore (check_ok "warm" (Api.send_to_group g1 (body "before")));
        Engine.sleep cl.Cluster.engine (Time.ms 100);
        Machine.crash (Cluster.machine cl 0);
        (* Heartbeats: 2 x probe_timeout per tick, probe_retries misses
           -> a few seconds at most. *)
        Engine.sleep cl.Cluster.engine (Time.sec 5);
        Alcotest.(check bool) "someone took over sequencing" true
          (Kernel.is_sequencer (Api.kernel g1) || Kernel.is_sequencer (Api.kernel g2));
        ignore (check_ok "post-heal send" (Api.send_to_group g2 (body "after")));
        Engine.sleep cl.Cluster.engine (Time.sec 2);
        Alcotest.(check (list string))
          "stream intact across the self-heal"
          [ "before"; "after" ]
          (List.rev !acc1)
      with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 60) cl;
  match !failure with Some e -> raise e | None -> ()

(* ----- directed regressions for two swarm-found recovery bugs -----

   Both were found by the chaos swarm and fixed in the kernel's Frozen
   state handling; these tests pin them down by name.  A non-member
   machine forges kernel-to-kernel messages through its own FLIP stack
   (registering a fake coordinator address so Invite_ack replies
   resolve), which lets a test freeze a victim at will. *)

module Flip = Amoeba_flip.Flip
module Packet = Amoeba_flip.Packet

(* An incarnation one era up, "coordinated" by a member id that does
   not exist; high enough to freeze era-0 kernels. *)
let forged_inc = (1 lsl 20) lor 9

let make_injector cl i =
  let flip = Cluster.flip cl i in
  let coord_addr = Flip.fresh_addr flip in
  Flip.register flip coord_addr (fun _ -> ());
  let inject ~dst msg =
    match
      Flip.send flip
        (Packet.make ~src:coord_addr ~dst
           ~size:(Wire.size cl.Cluster.cost msg)
           (Wire.Group msg))
    with
    | `Sent -> ()
    | `No_route -> Alcotest.fail "injection: no route to victim"
    | `Dropped -> Alcotest.fail "injection: wire dropped the packet"
  in
  (coord_addr, inject)

let test_frozen_member_ignores_old_incarnation_traffic () =
  (* Regression: a frozen member used to keep processing Data, Accept
     and Bb_data from the incarnation it froze out of, advancing its
     delivery frontier past what it had reported to the recovery
     coordinator. *)
  with_cluster 3 (fun cl ->
      let g0 = Api.create_group (Cluster.flip cl 0) () in
      let g1 =
        check_ok "join" (Api.join_group (Cluster.flip cl 1) (Api.group_address g0))
      in
      ignore (check_ok "warm" (Api.send_to_group g0 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Alcotest.(check (list string)) "warm delivery" [ "w" ] (message_bodies g1);
      let k1 = Api.kernel g1 in
      let info = Api.get_info_group g1 in
      let seq0 = info.Api.next_seq and inc0 = info.Api.incarnation in
      let coord_addr, inject = make_injector cl 2 in
      ignore coord_addr;
      (* Freeze member 1: an invite for a higher incarnation. *)
      inject ~dst:(Kernel.kernel_addr k1)
        (Wire.Invite { inc = forged_inc; coord = 9; coord_addr });
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      (* Old-incarnation traffic at the frozen member.  The Data seq is
         exactly the frontier, so a kernel with the bug delivers it on
         the spot. *)
      let payload = T.User (body "zombie") in
      inject ~dst:(Kernel.kernel_addr k1)
        (Wire.Data
           { seq = seq0; sender = 0; msgid = 999; inc = inc0; ops = 1; payload;
             needs_accept = false });
      inject ~dst:(Kernel.kernel_addr k1)
        (Wire.Accept { seq = seq0; sender = 0; msgid = 999; inc = inc0 });
      inject ~dst:(Kernel.kernel_addr k1)
        (Wire.Bb_data
           { sender = 0; msgid = 1000; piggy = seq0 - 1; inc = inc0; ops = 1; payload });
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Alcotest.(check int) "frontier unmoved while frozen" seq0
        (Api.get_info_group g1).Api.next_seq;
      Alcotest.(check (list string)) "nothing delivered while frozen" []
        (message_bodies g1);
      (* The forged recovery never completes: after the grace period
         the frozen member probes with a recovery of its own, finds the
         group still standing, and re-forms it under a fresh
         incarnation instead of dying on a forged invite. *)
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check bool) "frozen member recovers" true (Kernel.alive k1);
      Alcotest.(check bool) "fresh incarnation installed" true
        ((Api.get_info_group g1).Api.incarnation > inc0);
      ignore (check_ok "post-recovery send" (Api.send_to_group g0 (body "after")));
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      Alcotest.(check (list string)) "delivery resumes" [ "after" ]
        (message_bodies g1))

let test_frozen_sequencer_defers_queued_sends () =
  (* Regression: a sender co-located with the sequencer used to
     self-assign sequence numbers even while Frozen, injecting new
     messages into the incarnation a recovery was tearing down. *)
  with_cluster 3 (fun cl ->
      let g0 = Api.create_group (Cluster.flip cl 0) () in
      let g1 =
        check_ok "join" (Api.join_group (Cluster.flip cl 1) (Api.group_address g0))
      in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Alcotest.(check (list string)) "warm delivery" [ "w" ] (message_bodies g1);
      let k0 = Api.kernel g0 in
      let seq0 = (Api.get_info_group g0).Api.next_seq in
      let coord_addr, inject = make_injector cl 2 in
      (* Freeze the sequencer's kernel. *)
      inject ~dst:(Kernel.kernel_addr k0)
        (Wire.Invite { inc = forged_inc; coord = 9; coord_addr });
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      (* A send submitted on the sequencer's machine while frozen must
         stay pending, not self-sequence. *)
      let result = ref None in
      Cluster.spawn cl (fun () ->
          result := Some (Api.send_to_group g0 (body "late")));
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      Alcotest.(check int) "no sequence number handed out" seq0
        (Api.get_info_group g0).Api.next_seq;
      Alcotest.(check bool) "send still pending" true (!result = None);
      Alcotest.(check (list string)) "member saw no frozen-era traffic" []
        (message_bodies g1);
      (* The forged coordinator never installs a new configuration:
         after the grace period the frozen sequencer re-forms the
         group itself and the deferred send goes out under the new
         incarnation — never into the one the forged invite froze. *)
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      (match !result with
      | Some (Ok _) -> ()
      | Some (Error e) ->
          Alcotest.failf "queued send died: %s" (T.error_to_string e)
      | None -> Alcotest.fail "send still blocked after recovery");
      Alcotest.(check (list string)) "deferred send delivered post-reset"
        [ "late" ] (message_bodies g1))

let prop_survivors_agree_after_random_crash =
  QCheck.Test.make ~name:"survivors agree after a random crash + reset" ~count:8
    QCheck.(pair (int_range 3 5) (int_range 0 1000))
    (fun (n, seed) ->
      let cl = Cluster.create ~n ~seed () in
      let ok = ref false in
      Engine.spawn cl.Cluster.engine (fun () ->
          let creator = Api.create_group (Cluster.flip cl 0) () in
          let addr = Api.group_address creator in
          let joiners =
            List.init (n - 1) (fun i ->
                Result.get_ok (Api.join_group (Cluster.flip cl (i + 1)) addr))
          in
          let groups = creator :: joiners in
          let victim = seed mod n in
          let coordinator = (victim + 1) mod n in
          List.iteri
            (fun i g ->
              if i <> victim then
                Cluster.spawn cl (fun () ->
                    for k = 1 to 3 do
                      ignore (Api.send_to_group g (body (Printf.sprintf "%d.%d" i k)))
                    done))
            groups;
          Engine.sleep cl.Cluster.engine (Time.ms 10);
          Machine.crash (Cluster.machine cl victim);
          Engine.sleep cl.Cluster.engine (Time.ms 100);
          (match Api.reset_group (List.nth groups coordinator) ~min_members:(n - 1) with
          | Ok _ -> ()
          | Error _ -> ());
          Engine.sleep cl.Cluster.engine (Time.sec 120);
          let streams =
            List.filteri (fun i _ -> i <> victim) groups
            |> List.map message_bodies
          in
          ok :=
            List.for_all (fun s -> s = List.hd streams) streams
            && List.length (List.hd streams)
               = List.length (List.sort_uniq compare (List.hd streams)));
      Engine.run ~until:(Time.sec 2_000) cl.Cluster.engine;
      !ok)

let test_replaying_ex_sequencer_serves_nacks () =
  (* Regression: the sequencer acks a reset but never hears the new
     configuration, so it stays frozen with its old sequencer state.
     When it later wins a recovery of its own it catches up by fetch
     replay and installs the next configuration as sequencer.  A
     member behind the fetch frontier then NACKs a replayed seq, which
     a kernel that kept replayed entries out of its history could
     never serve: the member NACKed it forever. *)
  with_cluster 3 (fun cl ->
      let eng = cl.Cluster.engine in
      let groups = build cl 3 in
      let g0 = List.nth groups 0
      and g1 = List.nth groups 1
      and g2 = List.nth groups 2 in
      ignore (check_ok "warm" (Api.send_to_group g2 (body "w")));
      Engine.sleep eng (Time.ms 100);
      let new_config_to_0 frame =
        frame.Frame.dest = Frame.Unicast 0
        &&
        match Flip.packet_of_frame frame with
        | Some { Packet.body = Wire.Group (Wire.New_config _); _ } -> true
        | _ -> false
      in
      Medium.set_drop_fun cl.Cluster.net (Some new_config_to_0);
      ignore (check_ok "reset by member 1" (Api.reset_group g1 ~min_members:3));
      ignore (check_ok "a" (Api.send_to_group g1 (body "a")));
      Engine.sleep eng (Time.ms 50);
      (* Member 2 misses the new sequencer's tail. *)
      Medium.partition_pair cl.Cluster.net 1 2;
      ignore (check_ok "b" (Api.send_to_group g1 (body "b")));
      (* The frozen ex-sequencer's grace period runs out: it recovers
         the group itself, fetching "a" and "b" from member 1. *)
      Engine.sleep eng (Time.sec 3);
      Alcotest.(check bool) "member 0 sequences the new configuration" true
        (Kernel.is_sequencer (Api.kernel g0));
      Medium.set_drop_fun cl.Cluster.net None;
      Medium.heal cl.Cluster.net;
      ignore (check_ok "after" (Api.send_to_group g0 (body "after")));
      Engine.sleep eng (Time.sec 1);
      Alcotest.(check (list string))
        "the lagging member repaired from the replayed history"
        [ "w"; "a"; "b"; "after" ] (message_bodies g2))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "recovery",
    [
      tc "coordinator crash mid-reset" test_coordinator_crash_mid_reset;
      tc "concurrent resets converge" test_concurrent_resets_converge;
      tc "repeated crash/reset cycles" test_repeated_crash_reset_cycles;
      tc "reset without quorum fails" test_reset_with_unreachable_quorum;
      tc "recovery under traffic" test_recovery_under_traffic;
      tc "expelled member can rejoin" test_expelled_member_can_rejoin;
      tc "acker leaves during resilient send"
        test_acker_leaves_during_resilient_send;
      tc "acker crash then reset unblocks" test_acker_crash_then_reset_unblocks;
      tc "acker crash heals without a reset call"
        test_acker_crash_heals_without_reset;
      tc "auto-heal recovers without a reset call"
        test_auto_heal_recovers_without_reset_call;
      tc "frozen member ignores old-incarnation traffic"
        test_frozen_member_ignores_old_incarnation_traffic;
      tc "frozen sequencer defers queued sends"
        test_frozen_sequencer_defers_queued_sends;
      tc "replaying ex-sequencer serves nacks"
        test_replaying_ex_sequencer_serves_nacks;
      QCheck_alcotest.to_alcotest prop_survivors_agree_after_random_crash;
    ] )
