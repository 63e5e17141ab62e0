(* Directed tests for the durability layer: WAL framing and damage
   handling, checkpoint fallback, the checkpoint/trim crash window,
   and whole-cluster power-loss recovery through the chaos harness. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_grouplib
open Amoeba_harness
module T = Types

let ssd = { Cost_model.default with Cost_model.disk = Cost_model.ssd }

let payload k = Bytes.of_string (Printf.sprintf "record-%d" k)

(* ----- WAL model: round-trip, torn tails ----- *)

let test_wal_roundtrip_and_torn_tail () =
  (* Five synced records are durable; three unsynced ones sit in the
     write cache.  A power loss keeps the durable prefix plus at most
     a torn fragment of the cache — never a gap, never an invented
     record. *)
  let cl = Cluster.create ~cost:ssd ~n:1 () in
  let store = Stable_store.create () in
  Cluster.spawn_on cl 0 (fun () ->
      let m = Cluster.machine cl 0 in
      for k = 1 to 5 do
        assert (Stable_store.wal_append store m ~log:"t" ~sync:true ~index:k
                  (payload k))
      done;
      for k = 6 to 8 do
        assert (Stable_store.wal_append store m ~log:"t" ~sync:false ~index:k
                  (payload k))
      done);
  Cluster.spawn cl (fun () ->
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 0));
  Cluster.run ~until:(Time.sec 1) cl;
  let r = Stable_store.wal_read store ~machine_name:"m0" ~log:"t" in
  let n = List.length r.Stable_store.records in
  Alcotest.(check bool) "durable prefix survives" true (n >= 5 && n <= 8);
  Alcotest.(check bool) "at most one torn tail" true
    (r.Stable_store.torn_tails <= 1);
  Alcotest.(check int) "no checksum damage" 0 r.Stable_store.checksum_rejects;
  List.iteri
    (fun i (idx, b) ->
      Alcotest.(check int) "consecutive indices" (i + 1) idx;
      Alcotest.(check bytes) "payload intact" (payload (i + 1)) b)
    r.Stable_store.records

(* ----- WAL damage: a flipped bit refuses the whole suffix ----- *)

let test_wal_bitflip_refuses_suffix () =
  let cl = Cluster.create ~cost:ssd ~n:1 () in
  let store = Stable_store.create () in
  Cluster.spawn_on cl 0 (fun () ->
      let m = Cluster.machine cl 0 in
      for k = 1 to 6 do
        assert (Stable_store.wal_append store m ~log:"t" ~sync:true ~index:k
                  (payload k))
      done);
  Cluster.run ~until:(Time.sec 1) cl;
  let size = Stable_store.wal_size store ~machine_name:"m0" ~log:"t" in
  Stable_store.corrupt_wal store ~machine_name:"m0" ~log:"t" ~at:(size / 2);
  (* The costed replay an actual recovery would run. *)
  let result = ref None in
  Cluster.spawn_on cl 0 (fun () ->
      result :=
        Some (Stable_store.wal_replay store (Cluster.machine cl 0) ~log:"t"));
  Cluster.run ~until:(Time.sec 2) cl;
  match !result with
  | None -> Alcotest.fail "replay did not run"
  | Some r ->
      let n = List.length r.Stable_store.records in
      Alcotest.(check bool) "suffix refused" true (n < 6);
      Alcotest.(check int) "damage detected once" 1
        r.Stable_store.checksum_rejects;
      List.iteri
        (fun i (idx, b) ->
          Alcotest.(check int) "surviving prefix consecutive" (i + 1) idx;
          Alcotest.(check bytes) "surviving payload intact" (payload (i + 1)) b)
        r.Stable_store.records;
      Alcotest.(check bool) "counters account the damage" true
        ((Stable_store.counters store).Stable_store.checksum_rejects >= 1)

(* ----- Rsm recovery: the counter app from the grouplib tests ----- *)

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

(* A truncated (torn) checkpoint whose WAL head was already trimmed:
   the surviving records cannot reconstruct any consistent prefix, and
   recovery must refuse loudly rather than guess. *)
let test_truncated_checkpoint_refused () =
  let store = Stable_store.create () in
  let d =
    {
      Rsm.store;
      log = "t3";
      sync = Rsm.Every_commit;
      checkpoint_every = 4;
    }
  in
  let cl = Cluster.create ~cost:ssd ~n:1 () in
  Cluster.spawn cl (fun () ->
      let r = R.create (Cluster.flip cl 0) ~durable:d () in
      for k = 1 to 10 do
        ignore (check_ok "submit" (R.submit r k))
      done;
      (* let the background checkpoint (at 8) and its WAL trim land *)
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      Machine.crash (Cluster.machine cl 0));
  Cluster.run ~until:(Time.sec 10) cl;
  (* Tear the checkpoint file, then reboot and try to recover. *)
  Stable_store.truncate_value store ~machine_name:"m0"
    ~key:(Rsm.ckpt_name d) ~len:3;
  Cluster.restart cl 0;
  let result = ref None in
  Cluster.spawn_on cl 0 (fun () ->
      result := Some (R.recover d (Cluster.machine cl 0)));
  Cluster.run ~until:(Time.sec 20) cl;
  match !result with
  | None -> Alcotest.fail "recovery did not run"
  | Some (Ok rec_) ->
      Alcotest.failf
        "recovered applied=%d from a torn checkpoint and a trimmed WAL"
        rec_.R.r_applied
  | Some (Error msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "refusal names the gap (%s)" msg)
        true
        (String.length msg > 0)

(* The crash window between writing a checkpoint and trimming the WAL:
   the disk then holds a checkpoint at count 8 AND a WAL still
   covering 1..10.  Recovery must skip the already-checkpointed
   indices — replaying exactly 9 and 10, no double-apply. *)
let test_recover_skips_checkpointed_indices () =
  let store = Stable_store.create () in
  let d1 =
    { Rsm.store; log = "a"; sync = Rsm.Every_commit; checkpoint_every = 0 }
  in
  let d2 =
    { Rsm.store; log = "b"; sync = Rsm.Every_commit; checkpoint_every = 4 }
  in
  let cl = Cluster.create ~cost:ssd ~n:1 () in
  Cluster.spawn cl (fun () ->
      (* Replica "a" never checkpoints: its WAL keeps 1..10.  Replica
         "b" applies the same updates and checkpoints at 8; copying
         b's checkpoint under a's key forges the exact disk image of a
         crash between checkpoint write and WAL trim. *)
      let ra = R.create (Cluster.flip cl 0) ~durable:d1 () in
      let rb = R.create (Cluster.flip cl 0) ~durable:d2 () in
      for k = 1 to 10 do
        ignore (check_ok "submit a" (R.submit ra k));
        ignore (check_ok "submit b" (R.submit rb k))
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      (match Stable_store.read store ~machine_name:"m0" ~key:(Rsm.ckpt_name d2)
       with
      | None -> Alcotest.fail "replica b never checkpointed"
      | Some ckpt ->
          assert (Stable_store.write store (Cluster.machine cl 0)
                    ~key:(Rsm.ckpt_name d1) ckpt));
      Machine.crash (Cluster.machine cl 0));
  Cluster.run ~until:(Time.sec 10) cl;
  Cluster.restart cl 0;
  let result = ref None in
  Cluster.spawn_on cl 0 (fun () ->
      result := Some (R.recover d1 (Cluster.machine cl 0)));
  Cluster.run ~until:(Time.sec 20) cl;
  match !result with
  | None -> Alcotest.fail "recovery did not run"
  | Some (Error msg) -> Alcotest.failf "recovery refused: %s" msg
  | Some (Ok rec_) ->
      Alcotest.(check int) "checkpoint restored count" 8
        rec_.R.r_stats.Rsm.ckpt_count;
      Alcotest.(check bool) "checkpoint intact" false
        rec_.R.r_stats.Rsm.checkpoint_damaged;
      Alcotest.(check int) "only the uncovered suffix replayed" 2
        rec_.R.r_stats.Rsm.records_replayed;
      Alcotest.(check int) "all ten updates restored" 10 rec_.R.r_applied;
      Alcotest.(check int) "state consistent (no double-apply)" 55
        rec_.R.r_state.Log_app.sum

(* ----- state-transfer resumption: the migration destination's crash
   window ----- *)

(* A joiner's disk reconcile writes a fresh checkpoint of the
   transferred state; the WAL delta past it only accumulates as the
   replica keeps applying.  Crash the destination right inside that
   window — checkpoint installed, no delta applied — and its disk
   alone can only take it back to the transfer point.  Resumption is
   recover-from-checkpoint (zero records to replay) followed by a
   re-join: the atomic state transfer closes exactly the gap the
   crash left, and the reconciled disk then covers the full state. *)
let test_state_transfer_resumption () =
  let store = Stable_store.create () in
  let d =
    { Rsm.store; log = "xfer"; sync = Rsm.Every_commit; checkpoint_every = 4 }
  in
  let cl = Cluster.create ~cost:ssd ~n:2 () in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let eng = cl.Cluster.engine in
      let recover_on_m1 () =
        let ch = Channel.create () in
        Cluster.spawn_on cl 1 (fun () ->
            Channel.send ch (R.recover d (Cluster.machine cl 1)));
        Channel.recv eng ch
      in
      let src = R.create (Cluster.flip cl 0) ~durable:d () in
      for k = 1 to 8 do
        ignore (check_ok "seed submit" (R.submit src k))
      done;
      (* destination joins: atomic state transfer + disk reconcile
         (fresh checkpoint at applied=8 on m1's disk) *)
      let dst =
        check_ok "join" (R.join (Cluster.flip cl 1) ~durable:d (R.address src))
      in
      Alcotest.(check int) "transfer caught the seed state" 8 (R.applied dst);
      Engine.sleep eng (Time.ms 200);
      (* the crash window: checkpoint installed, no WAL delta yet *)
      Machine.crash (Cluster.machine cl 1);
      (* the delta the destination will have to catch up on lives only
         in the survivor's stream and WAL *)
      for k = 9 to 12 do
        ignore (check_ok "delta submit" (R.submit src k))
      done;
      Engine.sleep eng (Time.ms 200);
      Cluster.restart cl 1;
      (match recover_on_m1 () with
      | Error msg -> Alcotest.failf "resumption refused: %s" msg
      | Ok rec_ ->
          Alcotest.(check int) "checkpoint alone resumed the transfer" 8
            rec_.R.r_stats.Rsm.ckpt_count;
          Alcotest.(check int) "no delta was on disk yet" 0
            rec_.R.r_stats.Rsm.records_replayed;
          Alcotest.(check int) "recovered to the transfer point" 8
            rec_.R.r_applied);
      (* resumption completes by re-joining: the state transfer closes
         exactly the 9..12 gap and reconciles the disk to the full
         state *)
      let dst' =
        check_ok "re-join"
          (R.join (Cluster.flip cl 1) ~durable:d (R.address src))
      in
      Engine.sleep eng (Time.ms 200);
      Alcotest.(check int) "catch-up complete" 12 (R.applied dst');
      Alcotest.(check int) "state consistent" 78 (R.state dst').Log_app.sum;
      (* the reconciled disk now stands on its own: a second crash and
         recovery restores the caught-up state from m1's disk alone *)
      Machine.crash (Cluster.machine cl 1);
      Engine.sleep eng (Time.ms 100);
      Cluster.restart cl 1;
      (match recover_on_m1 () with
      | Error msg -> Alcotest.failf "post-catch-up recovery: %s" msg
      | Ok rec_ ->
          Alcotest.(check int) "disk covers the caught-up state" 12
            rec_.R.r_applied;
          Alcotest.(check int) "sum survives" 78 rec_.R.r_state.Log_app.sum);
      done_ := true);
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check bool) "scenario finished" true !done_

(* ----- whole-cluster power loss through the chaos harness ----- *)

let power_cycle_schedule =
  [ { Fault.at = Time.ms 900; action = Fault.Power_cycle_all (Time.ms 250) } ]

let adversarial_net =
  {
    Impair.gilbert =
      Some { Impair.p_gb = 0.01; p_bg = 0.3; loss_good = 0.002; loss_bad = 0.4 };
    dup_prob = 0.05;
    jitter_ns = Time.ms 2;
    corrupt_prob = 0.01;
  }

let run_power_cycle ~net ~seed () =
  let o =
    Chaos.run ~n:4 ~schedule:power_cycle_schedule ~net
      ~disk:Cost_model.ssd ~seed ()
  in
  if not (Chaos.ok o) then (
    Chaos.print_report o;
    Alcotest.fail "power-cycle run violated an invariant");
  Alcotest.(check int) "the cycle fired" 1 o.Chaos.power_cycles;
  Alcotest.(check bool) "deliveries were logged" true (o.Chaos.wal_appends > 0);
  Alcotest.(check bool) "recovery replayed records" true
    (o.Chaos.wal_records_replayed > 0);
  Alcotest.(check bool) "the recovery invariant ran" true
    (List.exists
       (fun v -> v.Checker.invariant = "durable-recovery")
       o.Chaos.verdicts);
  Alcotest.(check bool) "the post-recovery epoch was checked" true
    (List.exists
       (fun v -> v.Checker.invariant = "post:total-order")
       o.Chaos.verdicts)

let test_power_cycle_clean () = run_power_cycle ~net:Impair.clean ~seed:7 ()

let test_power_cycle_adversarial () =
  run_power_cycle ~net:adversarial_net ~seed:7 ()

let test_healthy_durable_run () =
  (* No faults at all, but durable mode on: the disks must agree with
     the streams, and the classic invariants must be untouched by the
     logging. *)
  let o = Chaos.run ~n:4 ~schedule:[] ~disk:Cost_model.ssd ~seed:13 () in
  if not (Chaos.ok o) then (
    Chaos.print_report o;
    Alcotest.fail "healthy durable run violated an invariant");
  Alcotest.(check bool) "durable" true o.Chaos.durable;
  Alcotest.(check int) "no cycle" 0 o.Chaos.power_cycles;
  Alcotest.(check bool) "deliveries were logged" true (o.Chaos.wal_appends > 0)

(* ----- whole-service power loss: every server host dies at once,
   recovery rebuilds the shards from their disks, the router follows
   the handoff, and every acked write reads back ----- *)

let test_service_power_loss () =
  let open Amoeba_service in
  let cl = Cluster.create ~cost:ssd ~n:5 ~seed:5 () in
  let store = Stable_store.create () in
  let durable =
    { Service.d_store = store; d_sync = Rsm.Every_commit; d_checkpoint_every = 8 }
  in
  let done_ = ref false in
  Cluster.spawn cl (fun () ->
      let map =
        Shard_map.create ~shards:2 ~replication:2 ~hosts:[ 0; 1; 2; 3 ] ()
      in
      let svc = Service.deploy cl ~map ~resilience:0 ~durable () in
      let router =
        Router.create (Cluster.flip cl 4) ~map
          ~endpoints:(Service.endpoints svc) ()
      in
      for i = 0 to 19 do
        match Router.put router ("k" ^ string_of_int i) ("v" ^ string_of_int i)
        with
        | Router.Written -> ()
        | _ -> Alcotest.failf "put k%d not written" i
      done;
      Engine.sleep cl.Cluster.engine (Time.ms 300);
      (* Total power loss: all four server hosts at once (the client
         machine keeps its router). *)
      for h = 0 to 3 do
        Machine.crash (Cluster.machine cl h)
      done;
      Engine.sleep cl.Cluster.engine (Time.ms 250);
      for h = 0 to 3 do
        Cluster.restart cl h
      done;
      let svc' = Service.recover cl ~map ~durable ~resilience:0 () in
      Router.update_endpoints router (Service.endpoints svc');
      List.iter
        (fun sr ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d restarted from disk" sr.Service.sr_shard)
            true (sr.Service.sr_applied > 0);
          List.iter
            (fun hr ->
              match hr.Service.hr_error with
              | Some e ->
                  Alcotest.failf "host %d refused recovery: %s"
                    hr.Service.hr_host e
              | None -> ())
            sr.Service.sr_hosts)
        (Service.recovery_report svc');
      (* Every acked write must read back: under Every_commit the ack
         implied a durable WAL record on the submitting replica, and
         the recovery creator is the host with the longest log. *)
      for i = 0 to 19 do
        let k = "k" ^ string_of_int i in
        match Router.get router k with
        | Router.Value v ->
            Alcotest.(check string) ("post-recovery get " ^ k)
              ("v" ^ string_of_int i) v
        | _ -> Alcotest.failf "acked write %s lost across the power cycle" k
      done;
      (* Bounded-staleness reads come from the durable frontier: never
         a wrong value, possibly a miss for keys past the replica's
         last checkpoint. *)
      let srouter =
        Router.create (Cluster.flip cl 4) ~stale_reads:true ~map
          ~endpoints:(Service.endpoints svc') ()
      in
      let hits = ref 0 in
      for i = 0 to 19 do
        let k = "k" ^ string_of_int i in
        match Router.get srouter k with
        | Router.Value v ->
            Alcotest.(check string) ("stale get " ^ k)
              ("v" ^ string_of_int i) v;
            incr hits
        | Router.Not_found -> ()
        | _ -> Alcotest.failf "stale get %s failed outright" k
      done;
      Alcotest.(check bool) "durable frontier serves reads" true (!hits > 0);
      Alcotest.(check int) "all gets went stale" 20
        (Router.stats srouter).Router.stale_gets;
      Alcotest.(check int) "plain router issued none" 0
        (Router.stats router).Router.stale_gets;
      done_ := true);
  Cluster.run ~until:(Time.sec 120) cl;
  Alcotest.(check bool) "scenario finished" true !done_

let test_power_cycle_requires_disk () =
  Alcotest.check_raises "no disk, no power cycle"
    (Invalid_argument "Chaos.run: Power_cycle_all needs a disk (pass ~disk)")
    (fun () -> ignore (Chaos.run ~schedule:power_cycle_schedule ~seed:1 ()))

(* ----- schedule generator and text round-trip ----- *)

let test_power_cycle_schedule_roundtrip () =
  let with_pc = Fault.random ~seed:42 ~n:4 ~power_cycles:true () in
  let cycles =
    List.filter
      (fun s ->
        match s.Fault.action with Fault.Power_cycle_all _ -> true | _ -> false)
      with_pc
  in
  Alcotest.(check int) "exactly one cycle drawn" 1 (List.length cycles);
  (* the base schedule for the seed is unchanged *)
  let base = Fault.random ~seed:42 ~n:4 () in
  Alcotest.(check bool) "base schedule untouched" true
    (List.filter
       (fun s ->
         match s.Fault.action with
         | Fault.Power_cycle_all _ -> false
         | _ -> true)
       with_pc
    = base);
  (* text round-trip ([of_string] sorts by time) *)
  let sorted = List.sort compare with_pc in
  Alcotest.(check bool) "text round-trip" true
    (List.sort compare (Fault.of_string (Fault.to_string with_pc)) = sorted)

let suite =
  ( "durability",
    let tc = Alcotest.test_case in
    [
      tc "wal round-trip and torn tail" `Quick test_wal_roundtrip_and_torn_tail;
      tc "wal bit-flip refuses the suffix" `Quick
        test_wal_bitflip_refuses_suffix;
      tc "truncated checkpoint is refused" `Quick
        test_truncated_checkpoint_refused;
      tc "recovery skips checkpointed indices" `Quick
        test_recover_skips_checkpointed_indices;
      tc "state-transfer resumption after a mid-window crash" `Quick
        test_state_transfer_resumption;
      tc "power cycle on a clean net" `Quick test_power_cycle_clean;
      tc "power cycle on a hostile net" `Quick test_power_cycle_adversarial;
      tc "healthy durable run" `Quick test_healthy_durable_run;
      tc "whole-service power loss" `Quick test_service_power_loss;
      tc "power cycle requires a disk" `Quick test_power_cycle_requires_disk;
      tc "power-cycle schedule round-trip" `Quick
        test_power_cycle_schedule_roundtrip;
    ] )
