(* Tests for the library layer: replicated state machines, atomic
   state transfer, consistent checkpointing, atomic group creation. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_grouplib
open Amoeba_harness
module T = Types

(* A simple deterministic app: the state is the list of appended
   integers (newest first) plus their running sum. *)
module Log_app = struct
  type state = { entries : int list; sum : int }
  type update = int

  let initial = { entries = []; sum = 0 }
  let apply s u = { entries = u :: s.entries; sum = s.sum + u }
  let encode_update u = Bytes.of_string (string_of_int u)
  let decode_update b = int_of_string_opt (Bytes.to_string b)

  let encode_state s =
    Bytes.of_string (String.concat "," (List.map string_of_int s.entries))

  let decode_state b =
    let str = Bytes.to_string b in
    if str = "" then Some initial
    else
      let entries = List.map int_of_string (String.split_on_char ',' str) in
      Some { entries; sum = List.fold_left ( + ) 0 entries }
end

module R = Rsm.Make (Log_app)

let check_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (T.error_to_string e)

let test_rsm_replicas_agree () =
  let cl = Cluster.create ~n:3 () in
  let states = ref [] in
  Cluster.spawn cl (fun () ->
      let r0 = R.create (Cluster.flip cl 0) () in
      let r1 = check_ok "join" (R.join (Cluster.flip cl 1) (R.address r0)) in
      let r2 = check_ok "join" (R.join (Cluster.flip cl 2) (R.address r0)) in
      let rs = [ r0; r1; r2 ] in
      List.iteri
        (fun i r ->
          Cluster.spawn cl (fun () ->
              for k = 1 to 5 do
                ignore (R.submit r ((i * 100) + k))
              done))
        rs;
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      states := List.map (fun r -> (R.state r, R.applied r)) rs);
  Cluster.run ~until:(Time.sec 30) cl;
  match !states with
  | [ (s0, a0); (s1, a1); (s2, a2) ] ->
      Alcotest.(check int) "all applied" 15 a0;
      Alcotest.(check bool) "counts equal" true (a0 = a1 && a1 = a2);
      Alcotest.(check bool) "states equal" true
        (s0.Log_app.entries = s1.Log_app.entries
        && s1.Log_app.entries = s2.Log_app.entries);
      Alcotest.(check int) "sum" (List.fold_left ( + ) 0 s0.Log_app.entries)
        s0.Log_app.sum
  | _ -> Alcotest.fail "wrong arity"

let test_state_transfer_catches_up () =
  (* The joiner never saw the first ten updates; atomic state transfer
     must hand it a state that includes exactly those. *)
  let cl = Cluster.create ~n:3 () in
  let seen = ref None in
  Cluster.spawn cl (fun () ->
      let r0 = R.create (Cluster.flip cl 0) () in
      let r1 = check_ok "join1" (R.join (Cluster.flip cl 1) (R.address r0)) in
      ignore r1;
      for k = 1 to 10 do
        ignore (check_ok "submit" (R.submit r0 k))
      done;
      let r2 = check_ok "join2" (R.join (Cluster.flip cl 2) (R.address r0)) in
      Alcotest.(check int) "snapshot covers the past" 10 (R.applied r2);
      (* And the stream continues seamlessly. *)
      ignore (check_ok "post" (R.submit r0 11));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      seen := Some (R.state r2, R.applied r2, R.state r0));
  Cluster.run ~until:(Time.sec 30) cl;
  match !seen with
  | Some (s2, a2, s0) ->
      Alcotest.(check int) "applied after join" 11 a2;
      Alcotest.(check bool) "joiner state equals veteran state" true
        (s2.Log_app.entries = s0.Log_app.entries);
      Alcotest.(check int) "sum" 66 s2.Log_app.sum
  | None -> Alcotest.fail "scenario did not finish"

let test_state_transfer_under_concurrent_updates () =
  (* Updates keep flowing while the joiner synchronises: nothing may
     be duplicated or lost around the transfer point. *)
  let cl = Cluster.create ~n:3 () in
  let outcome = ref None in
  Cluster.spawn cl (fun () ->
      let r0 = R.create (Cluster.flip cl 0) () in
      let r1 = check_ok "join1" (R.join (Cluster.flip cl 1) (R.address r0)) in
      Cluster.spawn cl (fun () ->
          for k = 1 to 30 do
            ignore (R.submit r1 k)
          done);
      (* Join in the middle of the stream. *)
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      let r2 = check_ok "join2" (R.join (Cluster.flip cl 2) (R.address r0)) in
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      outcome := Some (R.state r0, R.state r2, R.applied r0, R.applied r2));
  Cluster.run ~until:(Time.sec 30) cl;
  match !outcome with
  | Some (s0, s2, a0, a2) ->
      Alcotest.(check int) "all updates at veteran" 30 a0;
      Alcotest.(check int) "all updates at joiner" 30 a2;
      Alcotest.(check bool) "identical entries" true
        (s0.Log_app.entries = s2.Log_app.entries)
  | None -> Alcotest.fail "scenario did not finish"

let test_checkpoint_roundtrip () =
  let cl = Cluster.create ~n:2 () in
  let store = Stable_store.create () in
  let result = ref None in
  Cluster.spawn cl (fun () ->
      let r0 = R.create (Cluster.flip cl 0) ~checkpoint:(store, 5) () in
      for k = 1 to 12 do
        ignore (check_ok "submit" (R.submit r0 k))
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      result := R.checkpointed store ~machine_name:"m0");
  Cluster.run ~until:(Time.sec 30) cl;
  match !result with
  | Some (st, count) ->
      Alcotest.(check int) "checkpoint at a multiple of 5" 10 count;
      Alcotest.(check int) "checkpointed sum" 55 st.Log_app.sum
  | None -> Alcotest.fail "no checkpoint written"

let test_restart_from_checkpoint_after_total_failure () =
  (* Every machine dies.  A fresh group seeded from the last on-disk
     checkpoint continues from the consistent cut. *)
  let store = Stable_store.create () in
  let cl = Cluster.create ~n:2 () in
  Cluster.spawn cl (fun () ->
      let r0 = R.create (Cluster.flip cl 0) ~checkpoint:(store, 5) () in
      let _r1 = check_ok "join" (R.join (Cluster.flip cl 1) (R.address r0)) in
      for k = 1 to 10 do
        ignore (check_ok "submit" (R.submit r0 k))
      done;
      Engine.sleep cl.Cluster.engine (Time.ms 200);
      Machine.crash (Cluster.machine cl 0);
      Machine.crash (Cluster.machine cl 1));
  Cluster.run ~until:(Time.sec 30) cl;
  (* "Reboot": a new world that remounts the same disk. *)
  let cl2 = Cluster.create ~n:1 () in
  let final = ref None in
  Cluster.spawn cl2 (fun () ->
      match R.checkpointed store ~machine_name:"m0" with
      | None -> ()
      | Some (st, count) ->
          let r = R.create (Cluster.flip cl2 0) ~seed:(st, count) () in
          ignore (check_ok "post-restart submit" (R.submit r 99));
          Engine.sleep cl2.Cluster.engine (Time.ms 100);
          final := Some (R.state r, R.applied r));
  Cluster.run ~until:(Time.sec 30) cl2;
  match !final with
  | Some (st, applied) ->
      Alcotest.(check int) "continued from the cut" 11 applied;
      Alcotest.(check int) "sum includes checkpoint + new update"
        (55 + 99) st.Log_app.sum
  | None -> Alcotest.fail "no checkpoint survived"

(* Atomic state transfer while the wire misbehaves: the joiner's
   snapshot query, the RPC'd snapshot itself and the concurrent update
   stream are all exposed to the conditions; the repair machinery must
   still hand the joiner a state positioned exactly in the stream. *)
let run_transfer_under ~conditions ~seed () =
  let cl = Cluster.create ~n:3 ~seed () in
  let outcome = ref None in
  Cluster.spawn cl (fun () ->
      let r0 = R.create (Cluster.flip cl 0) () in
      let r1 = check_ok "join1" (R.join (Cluster.flip cl 1) (R.address r0)) in
      for k = 1 to 10 do
        ignore (check_ok "pre" (R.submit r0 k))
      done;
      Impair.set_conditions (Medium.impair cl.Cluster.net) conditions;
      Cluster.spawn cl (fun () ->
          for k = 11 to 25 do
            ignore (R.submit r1 k)
          done);
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      (* Join mid-stream, with the conditions in force. *)
      let r2 = check_ok "join2" (R.join (Cluster.flip cl 2) (R.address r0)) in
      Engine.sleep cl.Cluster.engine (Time.sec 30);
      Impair.set_conditions (Medium.impair cl.Cluster.net) Impair.clean;
      ignore (check_ok "flush" (R.submit r0 26));
      Engine.sleep cl.Cluster.engine (Time.sec 5);
      outcome := Some (R.state r0, R.state r2, R.applied r0, R.applied r2));
  Cluster.run ~until:(Time.sec 120) cl;
  match !outcome with
  | Some (s0, s2, a0, a2) ->
      Alcotest.(check int) "veteran applied all" 26 a0;
      Alcotest.(check int) "joiner applied all" 26 a2;
      Alcotest.(check bool) "joiner state equals veteran state" true
        (s0.Log_app.entries = s2.Log_app.entries)
  | None -> Alcotest.fail "scenario did not finish"

let test_transfer_under_bursty_loss () =
  run_transfer_under ~seed:21
    ~conditions:
      {
        Impair.clean with
        gilbert =
          Some { p_gb = 0.02; p_bg = 0.25; loss_good = 0.005; loss_bad = 0.6 };
        dup_prob = 0.05;
      }
    ()

let test_transfer_under_reordering () =
  run_transfer_under ~seed:22
    ~conditions:{ Impair.clean with jitter_ns = Time.ms 3; dup_prob = 0.05 }
    ()

let test_checkpoint_restore_under_hostile_net () =
  (* Checkpoints taken while the wire drops, duplicates and reorders
     frames must still be consistent cuts: a fresh group seeded from
     the recovered checkpoint continues with the right state. *)
  let store = Stable_store.create () in
  let cl = Cluster.create ~n:2 ~seed:23 () in
  Cluster.spawn cl (fun () ->
      Impair.set_conditions (Medium.impair cl.Cluster.net)
        {
          Impair.gilbert =
            Some { p_gb = 0.02; p_bg = 0.3; loss_good = 0.01; loss_bad = 0.5 };
          dup_prob = 0.05;
          jitter_ns = Time.ms 2;
          corrupt_prob = 0.01;
        };
      let r0 = R.create (Cluster.flip cl 0) ~checkpoint:(store, 5) () in
      let _r1 = check_ok "join" (R.join (Cluster.flip cl 1) (R.address r0)) in
      for k = 1 to 12 do
        ignore (check_ok "submit" (R.submit r0 k))
      done;
      (* Wait out repair and the background disk write, then die. *)
      Engine.sleep cl.Cluster.engine (Time.sec 5);
      Alcotest.(check int) "all applied despite conditions" 12 (R.applied r0);
      Machine.crash (Cluster.machine cl 0);
      Machine.crash (Cluster.machine cl 1));
  Cluster.run ~until:(Time.sec 60) cl;
  let cl2 = Cluster.create ~n:1 () in
  let final = ref None in
  Cluster.spawn cl2 (fun () ->
      match R.checkpointed store ~machine_name:"m0" with
      | None -> ()
      | Some (st, count) ->
          let r = R.create (Cluster.flip cl2 0) ~seed:(st, count) () in
          ignore (check_ok "post-restart submit" (R.submit r 99));
          Engine.sleep cl2.Cluster.engine (Time.ms 100);
          final := Some (R.state r, R.applied r));
  Cluster.run ~until:(Time.sec 30) cl2;
  match !final with
  | Some (st, applied) ->
      Alcotest.(check int) "continued from the consistent cut" 11 applied;
      Alcotest.(check int) "sum = checkpointed 1..10 + new update"
        (55 + 99) st.Log_app.sum
  | None -> Alcotest.fail "no checkpoint survived"

let test_atomic_create_success () =
  let cl = Cluster.create ~n:3 () in
  let got = ref 0 in
  Cluster.spawn cl (fun () ->
      match Atomic_create.create_gathered (Array.to_list cl.Cluster.flips) with
      | Ok groups ->
          got := List.length groups;
          let info = Api.get_info_group (List.hd groups) in
          Alcotest.(check (list int)) "all members" [ 0; 1; 2 ] info.Api.members
      | Error e -> Alcotest.failf "atomic create failed: %s" (T.error_to_string e));
  Cluster.run ~until:(Time.sec 30) cl;
  Alcotest.(check int) "three handles" 3 !got

let test_atomic_create_aborts_on_dead_member () =
  let cl = Cluster.create ~n:3 () in
  let result = ref (Ok ()) in
  Cluster.spawn cl (fun () ->
      Machine.crash (Cluster.machine cl 2);
      match
        Atomic_create.create_gathered ~timeout:(Time.ms 500)
          (Array.to_list cl.Cluster.flips)
      with
      | Ok _ -> result := Error "should not succeed"
      | Error _ -> result := Ok ());
  Cluster.run ~until:(Time.sec 30) cl;
  match !result with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_stable_store_survives_crash () =
  let cl = Cluster.create ~n:1 () in
  let store = Stable_store.create () in
  let live_write = ref false in
  let dead_write = ref true in
  Cluster.spawn cl (fun () ->
      live_write :=
        Stable_store.write store (Cluster.machine cl 0) ~key:"a"
          (Bytes.of_string "payload");
      Machine.crash (Cluster.machine cl 0);
      (* A dead machine cannot write... *)
      dead_write :=
        Stable_store.write store (Cluster.machine cl 0) ~key:"b"
          (Bytes.of_string "lost"));
  Cluster.run ~until:(Time.sec 5) cl;
  Alcotest.(check bool) "live write reports success" true !live_write;
  Alcotest.(check bool) "dead write reports failure" false !dead_write;
  Alcotest.(check bool)
    "dropped write counted" true
    ((Stable_store.counters store).Stable_store.writes_dropped >= 1);
  (* ...but its disk is still readable. *)
  Alcotest.(check (option string))
    "written before the crash" (Some "payload")
    (Option.map Bytes.to_string (Stable_store.read store ~machine_name:"m0" ~key:"a"));
  Alcotest.(check (option string))
    "nothing after the crash" None
    (Option.map Bytes.to_string (Stable_store.read store ~machine_name:"m0" ~key:"b"))

let prop_rsm_agreement_under_loss =
  QCheck.Test.make ~name:"rsm replicas agree under random frame loss" ~count:8
    QCheck.(pair (int_range 2 4) (int_range 1 5))
    (fun (n, each) ->
      let cl = Cluster.create ~n () in
      let ok = ref false in
      Cluster.spawn cl (fun () ->
          let r0 = R.create (Cluster.flip cl 0) () in
          let rest =
            List.init (n - 1) (fun i ->
                Result.get_ok (R.join (Cluster.flip cl (i + 1)) (R.address r0)))
          in
          let rs = r0 :: rest in
          Impair.set_loss_rate (Medium.impair cl.Cluster.net) 0.03;
          List.iteri
            (fun i r ->
              Cluster.spawn cl (fun () ->
                  for k = 1 to each do
                    ignore (R.submit r ((i * 1000) + k))
                  done))
            rs;
          Engine.sleep cl.Cluster.engine (Time.sec 60);
          Impair.set_loss_rate (Medium.impair cl.Cluster.net) 0.;
          ignore (R.submit r0 424242);
          Engine.sleep cl.Cluster.engine (Time.sec 10);
          let states = List.map (fun r -> (R.state r).Log_app.entries) rs in
          let expected = (n * each) + 1 in
          ok :=
            List.for_all
              (fun s -> List.length s = expected && s = List.hd states)
              states);
      Cluster.run ~until:(Time.sec 200) cl;
      !ok)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "grouplib",
    [
      tc "rsm replicas agree" test_rsm_replicas_agree;
      tc "state transfer catches up" test_state_transfer_catches_up;
      tc "state transfer under concurrent updates"
        test_state_transfer_under_concurrent_updates;
      tc "checkpoint roundtrip" test_checkpoint_roundtrip;
      tc "restart from checkpoint after total failure"
        test_restart_from_checkpoint_after_total_failure;
      tc "state transfer under bursty loss" test_transfer_under_bursty_loss;
      tc "state transfer under reordering" test_transfer_under_reordering;
      tc "checkpoint restore under hostile net"
        test_checkpoint_restore_under_hostile_net;
      tc "atomic create success" test_atomic_create_success;
      tc "atomic create aborts on dead member"
        test_atomic_create_aborts_on_dead_member;
      tc "stable store survives crash" test_stable_store_survives_crash;
      QCheck_alcotest.to_alcotest prop_rsm_agreement_under_loss;
    ] )
