(* Tests for the group communication protocol: ordering, reliability,
   resilience, membership and recovery. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_harness
module T = Types

(* ----- fixtures ----- *)

(* Builds a group with one member per machine: the creator on machine
   0 (hosting the sequencer) and joiners on machines 1..n-1.  Runs
   inside a process and passes the members to [scenario]. *)
let with_group ?(machines = 0) ?(resilience = 0) ?(send_method = T.Pb) ?history
    ~n scenario =
  let cl = Cluster.create ~n:(max n machines) () in
  let failure = ref None in
  Cluster.spawn cl (fun () ->
      let creator =
        Api.create_group (Cluster.flip cl 0) ~resilience ~send_method ?history ()
      in
      let addr = Api.group_address creator in
      let joiners =
        List.init (n - 1) (fun i ->
            match
              Api.join_group (Cluster.flip cl (i + 1)) ~resilience ~send_method
                ?history addr
            with
            | Ok g -> g
            | Error e ->
                failwith (Printf.sprintf "join %d failed: %s" (i + 1)
                            (T.error_to_string e)))
      in
      try scenario cl (creator :: joiners)
      with e -> failure := Some e);
  (* Bounded run: scenarios with residual periodic repair traffic
     (e.g. an expelled member that keeps nacking) must still end. *)
  Cluster.run ~until:(Time.sec 2_000) cl;
  match !failure with Some e -> raise e | None -> ()

(* Spawns a consumer that appends every delivered event to a list. *)
let collector cl g =
  let acc = ref [] in
  Cluster.spawn cl (fun () ->
      let rec loop () =
        acc := Api.receive_from_group g :: !acc;
        loop ()
      in
      loop ());
  acc

let messages_of events =
  List.rev_map
    (function
      | T.Message { seq; sender; body } -> Some (seq, sender, Bytes.to_string body)
      | _ -> None)
    events
  |> List.filter_map Fun.id

let body s = Bytes.of_string s

let check_ok label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (T.error_to_string e)

(* ----- basics ----- *)

let test_create_group () =
  with_group ~n:1 (fun _cl groups ->
      let g = List.hd groups in
      let info = Api.get_info_group g in
      Alcotest.(check int) "creator is member 0" 0 info.Api.my_mid;
      Alcotest.(check int) "creator sequences" 0 info.Api.sequencer;
      Alcotest.(check (list int)) "members" [ 0 ] info.Api.members;
      Alcotest.(check bool) "kernel role" true (Kernel.is_sequencer (Api.kernel g)))

let test_join_group () =
  with_group ~n:3 (fun _cl groups ->
      List.iteri
        (fun i g ->
          let info = Api.get_info_group g in
          Alcotest.(check int) (Printf.sprintf "mid of %d" i) i info.Api.my_mid;
          Alcotest.(check (list int)) "members" [ 0; 1; 2 ] info.Api.members;
          Alcotest.(check int) "sequencer" 0 info.Api.sequencer)
        groups)

let test_send_from_creator () =
  with_group ~n:2 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 in
      let acc1 = collector cl g1 in
      let seq = check_ok "send" (Api.send_to_group g0 (body "hi")) in
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      Alcotest.(check (list (triple int int string)))
        "delivered at member 1"
        [ (seq, 0, "hi") ]
        (messages_of !acc1))

let test_send_from_joiner () =
  with_group ~n:2 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 in
      let acc0 = collector cl g0 in
      let seq = check_ok "send" (Api.send_to_group g1 (body "from 1")) in
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      Alcotest.(check (list (triple int int string)))
        "delivered at creator"
        [ (seq, 1, "from 1") ]
        (messages_of !acc0))

let test_sender_receives_own_message () =
  with_group ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 in
      let acc1 = collector cl g1 in
      ignore (check_ok "send" (Api.send_to_group g1 (body "echo")));
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      Alcotest.(check int) "own message delivered" 1
        (List.length (messages_of !acc1)))

let test_seqno_increases () =
  with_group ~n:2 (fun _cl groups ->
      let g0 = List.hd groups in
      let s1 = check_ok "s1" (Api.send_to_group g0 (body "a")) in
      let s2 = check_ok "s2" (Api.send_to_group g0 (body "b")) in
      let s3 = check_ok "s3" (Api.send_to_group g0 (body "c")) in
      Alcotest.(check bool) "strictly increasing" true (s1 < s2 && s2 < s3))

(* ----- ordering ----- *)

let concurrent_senders_scenario ~send_method ~resilience ~n ~senders ~each () =
  with_group ~send_method ~resilience ~n (fun cl groups ->
      let accs = List.map (collector cl) groups in
      List.iteri
        (fun i g ->
          if i < senders then
            Cluster.spawn cl (fun () ->
                for k = 1 to each do
                  ignore
                    (check_ok "send"
                       (Api.send_to_group g (body (Printf.sprintf "%d.%d" i k))))
                done))
        groups;
      Engine.sleep cl.Cluster.engine (Time.sec 30);
      let streams = List.map (fun acc -> messages_of !acc) accs in
      let expected_count = senders * each in
      List.iteri
        (fun i s ->
          Alcotest.(check int)
            (Printf.sprintf "member %d got all" i)
            expected_count (List.length s))
        streams;
      (* Total order: every member sees the identical stream. *)
      let first = List.hd streams in
      List.iteri
        (fun i s ->
          Alcotest.(check bool)
            (Printf.sprintf "member %d stream identical" i)
            true (s = first))
        streams;
      (* FIFO per sender. *)
      List.init senders Fun.id
      |> List.iter (fun sender ->
             let mine = List.filter (fun (_, s, _) -> s = sender) first in
             let bodies = List.map (fun (_, _, b) -> b) mine in
             let expected =
               List.init each (fun k -> Printf.sprintf "%d.%d" sender (k + 1))
             in
             Alcotest.(check (list string))
               (Printf.sprintf "fifo for sender %d" sender)
               expected bodies))

let test_total_order_pb () =
  concurrent_senders_scenario ~send_method:T.Pb ~resilience:0 ~n:4 ~senders:3
    ~each:5 ()

let test_total_order_bb () =
  concurrent_senders_scenario ~send_method:T.Bb ~resilience:0 ~n:4 ~senders:3
    ~each:5 ()

let test_total_order_resilient () =
  concurrent_senders_scenario ~send_method:T.Pb ~resilience:2 ~n:4 ~senders:3
    ~each:4 ()

(* ----- methods ----- *)

let bytes_on_wire ~send_method ~size =
  let result = ref 0 in
  with_group ~send_method ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 in
      (* warm up locate caches etc. *)
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      let before = Medium.bytes_delivered cl.Cluster.net in
      ignore (check_ok "send" (Api.send_to_group g1 (Bytes.create size)));
      Engine.sleep cl.Cluster.engine (Time.ms 200);
      result := Medium.bytes_delivered cl.Cluster.net - before);
  !result

let test_bb_uses_half_the_bandwidth () =
  (* PB sends the full message twice (2n), BB once (n) plus a short
     accept: the paper's section 3.1 trade-off. *)
  let pb = bytes_on_wire ~send_method:T.Pb ~size:4096 in
  let bb = bytes_on_wire ~send_method:T.Bb ~size:4096 in
  Alcotest.(check bool)
    (Printf.sprintf "bb (%d) well below pb (%d)" bb pb)
    true
    (float_of_int bb < 0.65 *. float_of_int pb)

let test_auto_switches_by_size () =
  let small = bytes_on_wire ~send_method:T.Auto ~size:16 in
  let pb_small = bytes_on_wire ~send_method:T.Pb ~size:16 in
  let large = bytes_on_wire ~send_method:T.Auto ~size:8000 in
  let bb_large = bytes_on_wire ~send_method:T.Bb ~size:8000 in
  Alcotest.(check int) "auto = pb for small" pb_small small;
  Alcotest.(check int) "auto = bb for large" bb_large large

(* ----- loss recovery (negative acknowledgements) ----- *)

let drop_nth_matching cl ~n pred =
  let count = ref 0 in
  Impair.set_drop_fun (Medium.impair cl.Cluster.net)
    (Some
       (fun frame ->
         match Amoeba_flip.Flip.packet_of_frame frame with
         | Some p when pred p.Amoeba_flip.Packet.body ->
             incr count;
             !count = n
         | _ -> false))

let is_data = function
  | Wire.Group (Wire.Data { payload = T.User _; _ }) -> true
  | _ -> false

let is_req = function
  | Wire.Group (Wire.Req _) -> true
  | _ -> false

let is_accept = function
  | Wire.Group (Wire.Accept _) -> true
  | _ -> false

let test_lost_multicast_recovered_by_nack () =
  with_group ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      let acc2 = collector cl g2 in
      (* warm up *)
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      drop_nth_matching cl ~n:1 is_data;
      ignore (check_ok "send" (Api.send_to_group g1 (body "lost-then-found")));
      ignore (check_ok "send2" (Api.send_to_group g1 (body "tail")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      let msgs = messages_of !acc2 in
      Alcotest.(check (list string))
        "all delivered in order despite loss"
        [ "w"; "lost-then-found"; "tail" ]
        (List.map (fun (_, _, b) -> b) msgs);
      let nacks =
        List.fold_left
          (fun acc g -> acc + (Kernel.stats (Api.kernel g)).Kernel.nacks_sent)
          0 groups
      in
      Alcotest.(check bool) "someone nacked" true (nacks > 0))

let test_lost_request_retransmitted_by_sender () =
  with_group ~n:2 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 in
      let acc0 = collector cl g0 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      drop_nth_matching cl ~n:1 is_req;
      ignore (check_ok "send" (Api.send_to_group g1 (body "retry")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "delivered exactly once"
        [ "w"; "retry" ]
        (List.map (fun (_, _, b) -> b) (messages_of !acc0)))

let test_lost_accept_recovered () =
  with_group ~send_method:T.Bb ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      let acc2 = collector cl g2 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      drop_nth_matching cl ~n:1 is_accept;
      ignore (check_ok "send" (Api.send_to_group g1 (body "accepted late")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check (list string))
        "delivered despite lost accept"
        [ "w"; "accepted late" ]
        (List.map (fun (_, _, b) -> b) (messages_of !acc2)))

let test_no_duplicate_on_spurious_retransmit () =
  (* Drop the sequencer's multicast so the sender retransmits its
     request: the sequencer must answer from its dedup state, not
     sequence the message twice. *)
  with_group ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 in
      let accs = List.map (collector cl) groups in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 50);
      drop_nth_matching cl ~n:1 is_data;
      ignore (check_ok "send" (Api.send_to_group g1 (body "once")));
      ignore (check_ok "flush" (Api.send_to_group g1 (body "flush")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      List.iteri
        (fun i acc ->
          Alcotest.(check (list string))
            (Printf.sprintf "member %d sees each message once" i)
            [ "w"; "once"; "flush" ]
            (List.map (fun (_, _, b) -> b) (messages_of !acc)))
        accs)

(* ----- resilience ----- *)

let test_resilient_send_collects_acks () =
  with_group ~resilience:2 ~n:4 (fun cl groups ->
      let g3 = List.nth groups 3 in
      ignore (check_ok "send" (Api.send_to_group g3 (body "safe")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      let seq_stats = Kernel.stats (Api.kernel (List.hd groups)) in
      Alcotest.(check bool) "acks collected" true
        (seq_stats.Kernel.acks_collected >= 1))

let test_resilient_messages_survive_r_crashes () =
  (* r = 2: crash two machines (including the sequencer's) right after
     a send completes; the survivors rebuild and must still hold every
     message that was delivered as stable. *)
  with_group ~resilience:2 ~n:4 (fun cl groups ->
      let g2 = List.nth groups 2 and g3 = List.nth groups 3 in
      let acc2 = collector cl g2 and acc3 = collector cl g3 in
      for k = 1 to 5 do
        ignore (check_ok "send" (Api.send_to_group g3 (body (Printf.sprintf "m%d" k))))
      done;
      (* Crash the sequencer machine and member 1's machine. *)
      Machine.crash (Cluster.machine cl 0);
      Machine.crash (Cluster.machine cl 1);
      let survivors = check_ok "reset" (Api.reset_group g2 ~min_members:2) in
      Alcotest.(check int) "two survivors" 2 survivors;
      (* The group works again. *)
      ignore (check_ok "post-reset send" (Api.send_to_group g3 (body "after")));
      Engine.sleep cl.Cluster.engine (Time.sec 5);
      let bodies acc =
        List.map (fun (_, _, b) -> b) (messages_of !acc)
      in
      List.iter
        (fun acc ->
          Alcotest.(check (list string))
            "all pre-crash messages plus the new one"
            [ "m1"; "m2"; "m3"; "m4"; "m5"; "after" ]
            (bodies acc))
        [ acc2; acc3 ];
      let info = Api.get_info_group g2 in
      Alcotest.(check (list int)) "members after reset" [ 2; 3 ] info.Api.members;
      Alcotest.(check bool) "new incarnation" true (info.Api.incarnation > 0))

(* ----- membership ----- *)

let test_join_is_totally_ordered () =
  with_group ~n:2 ~machines:3 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 in
      let acc0 = collector cl g0 and acc1 = collector cl g1 in
      ignore (check_ok "pre" (Api.send_to_group g0 (body "pre")));
      let g2 =
        check_ok "join" (Api.join_group (Cluster.flip cl 2) (Api.group_address g0))
      in
      ignore (check_ok "post" (Api.send_to_group g0 (body "post")));
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      let shape acc =
        List.rev_map
          (function
            | T.Message { body; _ } -> "msg:" ^ Bytes.to_string body
            | T.Member_joined { mid; _ } -> Printf.sprintf "join:%d" mid
            | T.Member_left { mid; _ } -> Printf.sprintf "left:%d" mid
            | T.Group_reset _ -> "reset"
            | T.Expelled -> "expelled")
          !acc
      in
      (* The creator also witnessed member 1's join during setup; the
         event sat in its delivery stream before the collector started. *)
      Alcotest.(check (list string))
        "join appears between the sends at member 0"
        [ "join:1"; "msg:pre"; "join:2"; "msg:post" ]
        (shape acc0);
      Alcotest.(check (list string))
        "and at member 1"
        [ "msg:pre"; "join:2"; "msg:post" ]
        (shape acc1);
      let info = Api.get_info_group g2 in
      Alcotest.(check (list int)) "joiner sees 3 members" [ 0; 1; 2 ] info.Api.members)

let test_joiner_receives_messages_after_join () =
  with_group ~n:2 ~machines:3 (fun cl groups ->
      let g0 = List.nth groups 0 in
      ignore (check_ok "pre" (Api.send_to_group g0 (body "before-join")));
      let g2 =
        check_ok "join" (Api.join_group (Cluster.flip cl 2) (Api.group_address g0))
      in
      let acc2 = collector cl g2 in
      ignore (check_ok "post" (Api.send_to_group g0 (body "after-join")));
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      Alcotest.(check (list string))
        "only post-join traffic"
        [ "after-join" ]
        (List.map (fun (_, _, b) -> b) (messages_of !acc2)))

let test_leave_group () =
  with_group ~n:3 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 in
      let acc0 = collector cl g0 in
      check_ok "leave" (Api.leave_group g1);
      ignore (check_ok "send" (Api.send_to_group g0 (body "bye")));
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      (match !acc0 with
      | _ -> ());
      let events0 =
        List.rev_map
          (function
            | T.Member_left { mid; _ } -> Some mid
            | _ -> None)
          !acc0
        |> List.filter_map Fun.id
      in
      Alcotest.(check (list int)) "member 1 left" [ 1 ] events0;
      let info = Api.get_info_group g0 in
      Alcotest.(check (list int)) "members" [ 0; 2 ] info.Api.members;
      Alcotest.(check bool) "leaver can no longer send" true
        (match Api.send_to_group g1 (body "x") with
        | Error T.Not_a_member -> true
        | _ -> false))

let test_sequencer_leave_hands_over () =
  with_group ~n:3 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      let acc2 = collector cl g2 in
      check_ok "sequencer leaves" (Api.leave_group g0);
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      let info = Api.get_info_group g1 in
      Alcotest.(check int) "lowest survivor sequences" 1 info.Api.sequencer;
      Alcotest.(check bool) "member 1's kernel is the sequencer" true
        (Kernel.is_sequencer (Api.kernel g1));
      (* The group still orders messages. *)
      ignore (check_ok "send via new sequencer" (Api.send_to_group g2 (body "alive")));
      Engine.sleep cl.Cluster.engine (Time.sec 1);
      Alcotest.(check (list string))
        "delivery continues"
        [ "alive" ]
        (List.map (fun (_, _, b) -> b) (messages_of !acc2)))

(* ----- recovery ----- *)

let test_reset_after_sequencer_crash () =
  with_group ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      let acc1 = collector cl g1 and acc2 = collector cl g2 in
      ignore (check_ok "send" (Api.send_to_group g1 (body "before")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 0);
      let survivors = check_ok "reset" (Api.reset_group g1 ~min_members:2) in
      Alcotest.(check int) "both survivors found" 2 survivors;
      Alcotest.(check bool) "g1 now sequences" true
        (Kernel.is_sequencer (Api.kernel g1));
      ignore (check_ok "send after" (Api.send_to_group g2 (body "after")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      List.iter
        (fun acc ->
          Alcotest.(check (list string))
            "stream spans the crash"
            [ "before"; "after" ]
            (List.map (fun (_, _, b) -> b) (messages_of !acc)))
        [ acc1; acc2 ];
      (* Everyone observed the reset notice in order. *)
      let resets =
        List.rev_map
          (function T.Group_reset { members; _ } -> Some members | _ -> None)
          !acc1
        |> List.filter_map Fun.id
      in
      Alcotest.(check (list (list int))) "reset notice" [ [ 1; 2 ] ] resets)

let test_send_fails_when_sequencer_dead () =
  with_group ~n:2 (fun cl groups ->
      let g1 = List.nth groups 1 in
      Machine.crash (Cluster.machine cl 0);
      match Api.send_to_group g1 (body "void") with
      | Error T.Sequencer_unreachable -> ()
      | Ok _ -> Alcotest.fail "send should not succeed"
      | Error e -> Alcotest.failf "unexpected error: %s" (T.error_to_string e))

let test_interrupted_send_completes_after_reset () =
  (* The sender's kernel re-submits its pending request to the new
     sequencer during recovery, so the send eventually succeeds. *)
  with_group ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 0);
      let send_result = ref None in
      Cluster.spawn cl (fun () ->
          send_result := Some (Api.send_to_group g2 (body "interrupted")));
      (* Recover before the sender's retries run out, so the kernel
         re-submits the pending request to the new sequencer. *)
      Engine.sleep cl.Cluster.engine (Time.ms 30);
      ignore (check_ok "reset" (Api.reset_group g1 ~min_members:2));
      Engine.sleep cl.Cluster.engine (Time.sec 60);
      match !send_result with
      | Some (Ok _) -> ()
      | Some (Error e) ->
          Alcotest.failf "send failed: %s" (T.error_to_string e)
      | None -> Alcotest.fail "send still blocked")

let test_falsely_suspected_member_is_expelled () =
  (* Member 2 is alive but partitioned away during the reset (we crash
     it, reset, then "revive" it is impossible — instead we reset with
     member 2 alive but drop all its frames so probes fail). *)
  with_group ~n:3 (fun cl groups ->
      let g1 = List.nth groups 1 and g2 = List.nth groups 2 in
      ignore (check_ok "warm" (Api.send_to_group g1 (body "w")));
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      Machine.crash (Cluster.machine cl 0);
      (* Silence member 2: every frame it sends is lost. *)
      Impair.set_drop_fun (Medium.impair cl.Cluster.net)
        (Some (fun f -> f.Frame.src = 2));
      ignore (check_ok "reset excludes member 2" (Api.reset_group g1 ~min_members:1));
      Alcotest.(check (list int))
        "rebuilt without the silent member"
        [ 1 ]
        (List.map fst (Kernel.member_list (Api.kernel g1)));
      (* Member 2 comes back and hears new-incarnation traffic. *)
      Impair.set_drop_fun (Medium.impair cl.Cluster.net) None;
      ignore (check_ok "send" (Api.send_to_group g1 (body "new epoch")));
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      Alcotest.(check bool) "member 2 expelled" false
        (Kernel.alive (Api.kernel g2)))

(* ----- history ----- *)

let test_history_pruning_keeps_up () =
  (* Far more messages than the history holds: piggybacked
     acknowledgements must keep the buffer bounded and the stream
     flowing. *)
  with_group ~history:32 ~n:3 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 in
      let acc1 = collector cl g1 in
      for k = 1 to 100 do
        ignore (check_ok "send" (Api.send_to_group g0 (body (string_of_int k))))
      done;
      ignore (check_ok "flush" (Api.send_to_group g1 (body "flush")));
      Engine.sleep cl.Cluster.engine (Time.sec 5);
      Alcotest.(check int) "all delivered" 101
        (List.length (messages_of !acc1)))

let test_idle_member_status_solicitation () =
  (* Member 2 never sends, so nothing piggybacks its state; the
     sequencer must solicit it when the history fills instead of
     stalling forever. *)
  with_group ~history:16 ~n:3 (fun cl groups ->
      let g0 = List.nth groups 0 in
      let g2 = List.nth groups 2 in
      let acc2 = collector cl g2 in
      for k = 1 to 60 do
        ignore (check_ok "send" (Api.send_to_group g0 (body (string_of_int k))))
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 10);
      Alcotest.(check int) "idle member received everything" 60
        (List.length (messages_of !acc2)))

let test_membership_churn_under_traffic () =
  (* Joins, leaves and a re-join interleaved with a steady message
     stream: full-time members must agree exactly; churning members
     see contiguous windows. *)
  with_group ~n:2 ~machines:4 (fun cl groups ->
      let g0 = List.nth groups 0 and g1 = List.nth groups 1 in
      let acc0 = collector cl g0 and acc1 = collector cl g1 in
      let stop = ref false in
      Cluster.spawn cl (fun () ->
          let k = ref 0 in
          while not !stop do
            incr k;
            ignore (Api.send_to_group g0 (body (Printf.sprintf "m%d" !k)));
            Engine.sleep cl.Cluster.engine (Time.ms 2)
          done);
      (* Machine 2: join, leave, re-join with a fresh kernel. *)
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      let g2 = check_ok "join" (Api.join_group (Cluster.flip cl 2) (Api.group_address g0)) in
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      check_ok "leave" (Api.leave_group g2);
      Engine.sleep cl.Cluster.engine (Time.ms 20);
      let g2b = check_ok "rejoin" (Api.join_group (Cluster.flip cl 2) (Api.group_address g0)) in
      let acc2 = collector cl g2b in
      (* Machine 3 joins late and stays. *)
      let g3 = check_ok "join3" (Api.join_group (Cluster.flip cl 3) (Api.group_address g0)) in
      let acc3 = collector cl g3 in
      Engine.sleep cl.Cluster.engine (Time.ms 40);
      stop := true;
      Engine.sleep cl.Cluster.engine (Time.sec 2);
      let s0 = messages_of !acc0 and s1 = messages_of !acc1 in
      Alcotest.(check bool) "full-time members agree" true (s0 = s1);
      Alcotest.(check bool) "messages flowed" true (List.length s0 > 10);
      (* Late joiners see a suffix of the full stream. *)
      let is_suffix small big =
        let ls = List.length small and lb = List.length big in
        ls <= lb
        && small = List.filteri (fun i _ -> i >= lb - ls) big
      in
      let s2 = messages_of !acc2 and s3 = messages_of !acc3 in
      Alcotest.(check bool) "rejoined member sees a suffix" true (is_suffix s2 s0);
      Alcotest.(check bool) "late member sees a suffix" true (is_suffix s3 s0);
      (* Membership settled to the four current members. *)
      let info = Api.get_info_group g0 in
      Alcotest.(check int) "4 members" 4 (List.length info.Api.members))

(* ----- properties ----- *)

let prop_total_order_under_loss =
  QCheck.Test.make ~name:"total order and completeness under random loss"
    ~count:15
    QCheck.(
      triple (int_range 2 5) (int_range 1 6) (int_range 0 1000))
    (fun (n, each, seed) ->
      let result = ref true in
      let cl = Cluster.create ~n ~seed () in
      Engine.spawn cl.Cluster.engine (fun () ->
          let creator = Api.create_group (Cluster.flip cl 0) () in
          let addr = Api.group_address creator in
          let joiners =
            List.init (n - 1) (fun i ->
                match Api.join_group (Cluster.flip cl (i + 1)) addr with
                | Ok g -> g
                | Error _ -> failwith "join failed")
          in
          let groups = creator :: joiners in
          let accs = List.map (collector cl) groups in
          Impair.set_loss_rate (Medium.impair cl.Cluster.net) 0.05;
          List.iteri
            (fun i g ->
              Cluster.spawn cl (fun () ->
                  for k = 1 to each do
                    ignore (Api.send_to_group g (body (Printf.sprintf "%d.%d" i k)))
                  done))
            groups;
          Engine.sleep cl.Cluster.engine (Time.sec 120);
          (* Converge the tail with a lossless flush. *)
          Impair.set_loss_rate (Medium.impair cl.Cluster.net) 0.;
          ignore (Api.send_to_group creator (body "flush"));
          Engine.sleep cl.Cluster.engine (Time.sec 30);
          let streams = List.map (fun acc -> messages_of !acc) accs in
          let expected = (n * each) + 1 in
          let first = List.hd streams in
          result :=
            List.for_all (fun s -> List.length s = expected && s = first) streams);
      Engine.run ~until:(Time.sec 2_000) cl.Cluster.engine;
      !result)

let prop_api_soup =
  (* A seed-driven interleaving of sends, joins and leaves under frame
     loss.  The contract is at-most-once with exactly-once-on-success:
     every send that reported Ok appears exactly once, in issue order;
     a send that reported an error may appear at most once (its
     confirmation, not the message, may be what was lost); nothing
     else appears. *)
  QCheck.Test.make ~name:"random api interleaving stays consistent" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let n = 4 in
      let cl = Cluster.create ~n ~seed () in
      let ok = ref false in
      Engine.spawn cl.Cluster.engine (fun () ->
          let creator = Api.create_group (Cluster.flip cl 0) () in
          let addr = Api.group_address creator in
          let acc = collector cl creator in
          (* machine i (1..3) -> current member handle, if any *)
          let handles = Array.make n None in
          handles.(0) <- Some creator;
          let rng = Random.State.make [| seed |] in
          let sent = ref [] in
          let attempted = ref [] in
          Impair.set_loss_rate (Medium.impair cl.Cluster.net) 0.02;
          for step = 1 to 12 do
            match Random.State.int rng 3 with
            | 0 -> (
                (* send from a random current member *)
                let members =
                  Array.to_list handles |> List.filter_map Fun.id
                in
                let g =
                  List.nth members (Random.State.int rng (List.length members))
                in
                let payload = Printf.sprintf "s%d" step in
                attempted := payload :: !attempted;
                match Api.send_to_group g (body payload) with
                | Ok _ -> sent := payload :: !sent
                | Error _ -> ())
            | 1 -> (
                (* join a machine that has no live member *)
                match
                  Array.to_list handles
                  |> List.mapi (fun i h -> (i, h))
                  |> List.filter (fun (i, h) -> i > 0 && h = None)
                with
                | [] -> ()
                | free ->
                    let i, _ =
                      List.nth free (Random.State.int rng (List.length free))
                    in
                    (match Api.join_group (Cluster.flip cl i) addr with
                    | Ok g -> handles.(i) <- Some g
                    | Error _ -> ()))
            | _ -> (
                (* leave with a random non-creator member *)
                match
                  Array.to_list handles
                  |> List.mapi (fun i h -> (i, h))
                  |> List.filter (fun (i, h) -> i > 0 && h <> None)
                with
                | [] -> ()
                | live ->
                    let i, h =
                      List.nth live (Random.State.int rng (List.length live))
                    in
                    (match h with
                    | Some g ->
                        (match Api.leave_group g with
                        | Ok () -> handles.(i) <- None
                        | Error _ -> ())
                    | None -> ()))
          done;
          (* lossless flush so the tail converges *)
          Impair.set_loss_rate (Medium.impair cl.Cluster.net) 0.;
          (match Api.send_to_group creator (body "flush") with
          | Ok _ ->
              sent := "flush" :: !sent;
              attempted := "flush" :: !attempted
          | Error _ -> ());
          Engine.sleep cl.Cluster.engine (Time.sec 30);
          let stream = List.map (fun (_, _, b) -> b) (messages_of !acc) in
          let successful = List.rev !sent in
          let all_attempted = List.rev !attempted in
          let no_dups =
            List.length stream = List.length (List.sort_uniq compare stream)
          in
          let successful_in_order =
            (* successful is a subsequence of stream *)
            let rec sub s t =
              match (s, t) with
              | [], _ -> true
              | _, [] -> false
              | x :: s', y :: t' -> if x = y then sub s' t' else sub s t'
            in
            sub successful stream
          in
          let only_attempted =
            List.for_all (fun m -> List.mem m all_attempted) stream
          in
          ok := no_dups && successful_in_order && only_attempted);
      Engine.run ~until:(Time.sec 2_000) cl.Cluster.engine;
      !ok)

let prop_resilient_total_order =
  QCheck.Test.make ~name:"resilient sends stay totally ordered" ~count:10
    QCheck.(pair (int_range 3 5) (int_range 1 4))
    (fun (n, each) ->
      let ok = ref true in
      (try
         concurrent_senders_scenario ~send_method:T.Pb ~resilience:(n - 2) ~n
           ~senders:n ~each ()
       with _ -> ok := false);
      !ok)

(* ----- history module units ----- *)

let entry seq =
  { History.seq; sender = 0; msgid = seq; ops = 1; payload = T.User (body "x") }

let test_history_basics () =
  let h = History.create ~capacity:4 in
  Alcotest.(check bool) "empty" true (History.is_empty h);
  List.iter (fun s -> Result.get_ok (History.add h (entry s))) [ 0; 1; 2; 3 ];
  Alcotest.(check bool) "full" true (History.is_full h);
  Alcotest.(check bool) "add to full fails" true
    (History.add h (entry 4) = Error `Full);
  Alcotest.(check bool) "find" true (History.find h 2 <> None);
  History.prune_below h 2;
  Alcotest.(check int) "length after prune" 2 (History.length h);
  Alcotest.(check bool) "pruned entry gone" true (History.find h 1 = None);
  Result.get_ok (History.add h (entry 4));
  Alcotest.(check (list int)) "range"
    [ 2; 3; 4 ]
    (List.map (fun e -> e.History.seq) (History.range h ~lo:0 ~hi:10))

let test_history_out_of_order_rejected () =
  let h = History.create ~capacity:4 in
  Result.get_ok (History.add h (entry 0));
  Alcotest.(check bool) "gap rejected" true
    (History.add h (entry 2) = Error `Out_of_order)

let test_history_evicting () =
  let h = History.create ~capacity:3 in
  List.iter (fun s -> History.add_evicting h (entry s)) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "bounded" 3 (History.length h);
  Alcotest.(check bool) "oldest evicted" true (History.find h 1 = None);
  Alcotest.(check bool) "newest kept" true (History.find h 4 <> None)

let test_history_evicting_restart () =
  (* An out-of-order add_evicting restarts the window at the new seq:
     the member resynchronised past a gap (e.g. after recovery). *)
  let h = History.create ~capacity:4 in
  List.iter (fun s -> History.add_evicting h (entry s)) [ 0; 1; 2 ];
  History.add_evicting h (entry 10);
  Alcotest.(check int) "window restarted" 1 (History.length h);
  Alcotest.(check int) "lo" 10 (History.lo h);
  Alcotest.(check int) "hi" 10 (History.hi h);
  Alcotest.(check bool) "old entries gone" true
    (History.find h 0 = None && History.find h 2 = None);
  Alcotest.(check bool) "new entry present" true (History.find h 10 <> None);
  (* The window grows contiguously from the restart point and evicts
     normally once full again. *)
  List.iter (fun s -> History.add_evicting h (entry s)) [ 11; 12; 13; 14 ];
  Alcotest.(check int) "bounded after restart" 4 (History.length h);
  Alcotest.(check bool) "oldest of new window evicted" true
    (History.find h 10 = None);
  Alcotest.(check (list int)) "new window contents"
    [ 11; 12; 13; 14 ]
    (List.map (fun e -> e.History.seq) (History.range h ~lo:0 ~hi:100))

let test_history_prune_range_edges () =
  let h = History.create ~capacity:4 in
  (* Empty. *)
  History.prune_below h 100;
  Alcotest.(check bool) "prune on empty is a no-op" true (History.is_empty h);
  Alcotest.(check (list int)) "range on empty" []
    (List.map (fun e -> e.History.seq) (History.range h ~lo:0 ~hi:10));
  (* Single entry. *)
  Result.get_ok (History.add h (entry 0));
  Alcotest.(check (list int)) "range hits single entry" [ 0 ]
    (List.map (fun e -> e.History.seq) (History.range h ~lo:0 ~hi:0));
  Alcotest.(check (list int)) "range misses single entry" []
    (List.map (fun e -> e.History.seq) (History.range h ~lo:1 ~hi:10));
  History.prune_below h 1;
  Alcotest.(check bool) "single entry pruned" true (History.is_empty h);
  (* An emptied history accepts a fresh stream position. *)
  Result.get_ok (History.add h (entry 1));
  Alcotest.(check int) "restarts at the added seq" 1 (History.lo h)

let test_history_full_capacity_eviction () =
  (* Cycle the ring many times past capacity; the window must stay
     exact at every wrap-around. *)
  let h = History.create ~capacity:3 in
  for s = 0 to 99 do
    History.add_evicting h (entry s)
  done;
  Alcotest.(check int) "length stays at capacity" 3 (History.length h);
  Alcotest.(check int) "lo" 97 (History.lo h);
  Alcotest.(check int) "hi" 99 (History.hi h);
  Alcotest.(check bool) "just-evicted entry gone" true (History.find h 96 = None);
  Alcotest.(check (list int)) "range clamps to the window"
    [ 97; 98; 99 ]
    (List.map (fun e -> e.History.seq) (History.range h ~lo:0 ~hi:1000))

(* ----- sparse window units ----- *)

let test_window_basics () =
  let w = Window.create ~initial:4 ~dummy:(-1) () in
  Alcotest.(check int) "starts empty" 0 (Window.length w);
  Window.set w 0 10;
  Window.set w 5 50;
  (* 4 land 3 collides with key 0: forces the rehash-doubling path. *)
  Window.set w 4 40;
  Alcotest.(check (option int)) "find 0" (Some 10) (Window.find w 0);
  Alcotest.(check (option int)) "find 4 after grow" (Some 40) (Window.find w 4);
  Alcotest.(check (option int)) "find 5 after grow" (Some 50) (Window.find w 5);
  Alcotest.(check bool) "mem" true (Window.mem w 5);
  Alcotest.(check (option int)) "absent key" None (Window.find w 7);
  Alcotest.(check int) "count" 3 (Window.length w);
  Window.set w 4 41;
  Alcotest.(check (option int)) "overwrite" (Some 41) (Window.find w 4);
  Alcotest.(check int) "overwrite keeps count" 3 (Window.length w);
  Window.remove w 5;
  Window.remove w 5;
  (* absent remove: no-op *)
  Alcotest.(check (option int)) "removed" None (Window.find w 5);
  Alcotest.(check int) "count after remove" 2 (Window.length w);
  Window.drop_below w 4;
  Alcotest.(check (option int)) "dropped below bound" None (Window.find w 0);
  Alcotest.(check (option int)) "kept at bound" (Some 41) (Window.find w 4);
  Window.drop_above w 3;
  Alcotest.(check int) "empty after drop_above" 0 (Window.length w)

let prop_history_window =
  QCheck.Test.make ~name:"evicting history keeps the trailing window" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 0 100))
    (fun (cap, n) ->
      let h = History.create ~capacity:cap in
      for s = 0 to n - 1 do
        History.add_evicting h (entry s)
      done;
      let expect_len = min cap n in
      History.length h = expect_len
      && (n = 0
         || List.for_all
              (fun s -> History.find h s <> None)
              (List.init expect_len (fun i -> n - 1 - i))))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "core",
    [
      tc "create group" test_create_group;
      tc "join group" test_join_group;
      tc "send from creator" test_send_from_creator;
      tc "send from joiner" test_send_from_joiner;
      tc "sender receives own message" test_sender_receives_own_message;
      tc "sequence numbers increase" test_seqno_increases;
      tc "total order, PB" test_total_order_pb;
      tc "total order, BB" test_total_order_bb;
      tc "total order, resilient" test_total_order_resilient;
      tc "bb halves the bandwidth" test_bb_uses_half_the_bandwidth;
      tc "auto method switches by size" test_auto_switches_by_size;
      tc "lost multicast recovered by nack" test_lost_multicast_recovered_by_nack;
      tc "lost request retransmitted" test_lost_request_retransmitted_by_sender;
      tc "lost accept recovered" test_lost_accept_recovered;
      tc "no duplicates on spurious retransmit"
        test_no_duplicate_on_spurious_retransmit;
      tc "resilient send collects acks" test_resilient_send_collects_acks;
      tc "messages survive r crashes" test_resilient_messages_survive_r_crashes;
      tc "join is totally ordered" test_join_is_totally_ordered;
      tc "joiner sees only post-join traffic"
        test_joiner_receives_messages_after_join;
      tc "leave group" test_leave_group;
      tc "sequencer leave hands over" test_sequencer_leave_hands_over;
      tc "reset after sequencer crash" test_reset_after_sequencer_crash;
      tc "send fails when sequencer dead" test_send_fails_when_sequencer_dead;
      tc "interrupted send completes after reset"
        test_interrupted_send_completes_after_reset;
      tc "falsely suspected member expelled"
        test_falsely_suspected_member_is_expelled;
      tc "membership churn under traffic" test_membership_churn_under_traffic;
      tc "history pruning keeps up" test_history_pruning_keeps_up;
      tc "idle member status solicitation" test_idle_member_status_solicitation;
      tc "history basics" test_history_basics;
      tc "history rejects gaps" test_history_out_of_order_rejected;
      tc "history evicting window" test_history_evicting;
      tc "history evicting restart" test_history_evicting_restart;
      tc "history prune and range edges" test_history_prune_range_edges;
      tc "history full-capacity eviction" test_history_full_capacity_eviction;
      tc "window basics" test_window_basics;
      QCheck_alcotest.to_alcotest prop_total_order_under_loss;
      QCheck_alcotest.to_alcotest prop_api_soup;
      QCheck_alcotest.to_alcotest prop_resilient_total_order;
      QCheck_alcotest.to_alcotest prop_history_window;
    ] )
