(* Tests for the switched full-duplex fabric: forwarding, queueing
   loss, oversubscribed uplinks, fault injection and the root-group
   in-flight rule. *)

open Amoeba_sim
open Amoeba_net

type Frame.body += Tag of int

let cost = Cost_model.default

let make_switch ?(cost = cost) ?(profile = Switch.flat) () =
  let eng = Engine.create () in
  let sw = Switch.create eng cost profile in
  (eng, sw)

let frame ?(size = 64) ~src ~dest tag =
  { Frame.src; dest; size_on_wire = size; body = Tag tag }

let test_profile_parsing () =
  (match Switch.profile_of_string "switch" with
  | Ok p -> Alcotest.(check int) "flat segments" 1 p.Switch.segments
  | Error e -> Alcotest.fail e);
  (match Switch.profile_of_string "switch:2x48@10" with
  | Ok p ->
      Alcotest.(check int) "segments" 2 p.Switch.segments;
      Alcotest.(check int) "segment size" 48 p.Switch.segment_size;
      Alcotest.(check int) "uplink mult" 10 p.Switch.uplink_mult
  | Error e -> Alcotest.fail e);
  (match Switch.profile_of_string "switch:4x25" with
  | Ok p ->
      Alcotest.(check int) "segments" 4 p.Switch.segments;
      Alcotest.(check int) "default uplink mult" 10 p.Switch.uplink_mult
  | Error e -> Alcotest.fail e);
  (match Switch.profile_of_string "switch:0x4" with
  | Ok _ -> Alcotest.fail "0 segments accepted"
  | Error _ -> ());
  match Switch.profile_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error _ -> ()

let test_unicast_reaches_only_destination () =
  let eng, sw = make_switch () in
  let got = ref [] in
  let _p0 = Switch.attach sw ~rx:(fun f -> got := (0, f) :: !got) in
  let p1 = Switch.attach sw ~rx:(fun f -> got := (1, f) :: !got) in
  let _p2 = Switch.attach sw ~rx:(fun f -> got := (2, f) :: !got) in
  Engine.spawn eng (fun () ->
      let f = frame ~src:(Switch.port_id p1) ~dest:(Frame.Unicast 2) 7 in
      ignore (Switch.transmit sw p1 f));
  Engine.run eng;
  Alcotest.(check (list int)) "only station 2" [ 2 ] (List.map fst !got);
  Alcotest.(check int) "frames counted" 1 (Switch.frames_delivered sw)

let test_broadcast_floods_all_but_sender () =
  let eng, sw = make_switch () in
  let got = ref [] in
  let _p0 = Switch.attach sw ~rx:(fun f -> got := (0, f) :: !got) in
  let p1 = Switch.attach sw ~rx:(fun f -> got := (1, f) :: !got) in
  let _p2 = Switch.attach sw ~rx:(fun f -> got := (2, f) :: !got) in
  Engine.spawn eng (fun () ->
      let f = frame ~src:(Switch.port_id p1) ~dest:Frame.Broadcast 7 in
      ignore (Switch.transmit sw p1 f));
  Engine.run eng;
  let receivers = List.sort compare (List.map fst !got) in
  Alcotest.(check (list int)) "everyone but the sender" [ 0; 2 ] receivers

let test_full_duplex_no_collision () =
  (* Two simultaneous senders on a shared wire would collide; on the
     switch both frames go through, the second just queues at the
     common egress port. *)
  let eng, sw = make_switch () in
  let arrivals = ref [] in
  let _p0 = Switch.attach sw ~rx:(fun f -> arrivals := f :: !arrivals) in
  let p1 = Switch.attach sw ~rx:(fun _ -> ()) in
  let p2 = Switch.attach sw ~rx:(fun _ -> ()) in
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 1)));
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p2 (frame ~src:2 ~dest:(Frame.Unicast 0) 2)));
  Engine.run eng;
  Alcotest.(check int) "both delivered" 2 (List.length !arrivals);
  Alcotest.(check int) "no queue loss" 0 (Switch.queue_drops sw)

let test_egress_overflow_tail_drops () =
  (* Many senders converging on one port: one frame in service, one
     queued (cap 1), the rest tail-dropped and counted. *)
  let cost = { cost with Cost_model.switch_egress_frames = 1 } in
  let eng, sw = make_switch ~cost () in
  let delivered = ref 0 in
  let _p0 = Switch.attach sw ~rx:(fun _ -> incr delivered) in
  let senders = List.init 6 (fun i -> (i + 1, Switch.attach sw ~rx:ignore)) in
  List.iter
    (fun (i, p) ->
      Engine.spawn eng (fun () ->
          ignore (Switch.transmit sw p (frame ~src:i ~dest:(Frame.Unicast 0) i))))
    senders;
  Engine.run eng;
  Alcotest.(check bool) "some egress drops" true (Switch.egress_drops sw > 0);
  Alcotest.(check int) "drops + deliveries = sends" 6
    (!delivered + Switch.egress_drops sw);
  Alcotest.(check int) "all drops are egress drops" (Switch.egress_drops sw)
    (Switch.queue_drops sw)

let test_uplink_oversubscription_drops_cross_segment () =
  (* 2 segments x 2 hosts with a 1x uplink and a 1-frame uplink FIFO:
     both hosts of segment 0 blasting cross-segment overwhelm the
     uplink, while same-segment traffic never touches it. *)
  let cost = { cost with Cost_model.switch_uplink_frames = 1 } in
  let profile = { Switch.segments = 2; segment_size = 2; uplink_mult = 1 } in
  let eng, sw = make_switch ~cost ~profile () in
  let cross = ref 0 and local = ref 0 in
  let p0 = Switch.attach sw ~rx:ignore in
  let p1 = Switch.attach sw ~rx:(fun _ -> incr local) in
  let _p2 = Switch.attach sw ~rx:(fun _ -> incr cross) in
  let _p3 = Switch.attach sw ~rx:ignore in
  let blast p src =
    Engine.spawn eng (fun () ->
        for k = 1 to 10 do
          ignore
            (Switch.transmit sw p
               (frame ~size:1500 ~src ~dest:(Frame.Unicast 2) k))
        done)
  in
  blast p0 0;
  blast p1 1;
  (* Same-segment unicast from 0 to 1 rides only the local egress. *)
  Engine.spawn eng (fun () ->
      for k = 1 to 5 do
        ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Unicast 1) k))
      done);
  Engine.run eng;
  Alcotest.(check bool) "uplink drops" true (Switch.uplink_drops sw > 0);
  Alcotest.(check bool) "some cross-segment frames survive" true (!cross > 0);
  Alcotest.(check int) "cross loss accounted" 20
    (!cross + Switch.uplink_drops sw);
  Alcotest.(check int) "same-segment traffic unaffected" 5 !local

let test_crashed_sender_frame_still_delivered () =
  (* The sender's process group dies mid-serialization; the arrival
     event was committed to the root group, so the frame still lands
     — the switch's version of bits-already-on-the-wire. *)
  let eng, sw = make_switch () in
  let got = ref 0 in
  let _p0 = Switch.attach sw ~rx:(fun _ -> incr got) in
  let p1 = Switch.attach sw ~rx:ignore in
  let g = Engine.create_group eng ~label:"doomed" in
  Engine.spawn ~group:g eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 9)));
  (* Kill the sender while the frame is still serializing (frame time
     is ~70 us at 10 Mbit). *)
  ignore
    (Engine.schedule eng ~after:(Time.us 10) (fun () ->
         Engine.cancel_group eng g));
  Engine.run eng;
  Alcotest.(check int) "frame delivered after sender death" 1 !got

let test_partition_and_loss_on_switch () =
  let eng, sw = make_switch () in
  let got = ref 0 in
  let _p0 = Switch.attach sw ~rx:(fun _ -> incr got) in
  let p1 = Switch.attach sw ~rx:ignore in
  let imp = Switch.impair sw in
  Impair.partition_pair imp 0 1;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 1)));
  Engine.run eng;
  Alcotest.(check int) "partition suppresses delivery" 0 !got;
  Alcotest.(check int) "partition drop counted" 1 (Impair.partition_drops imp);
  Impair.heal imp;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 2)));
  Engine.run eng;
  Alcotest.(check int) "heal restores delivery" 1 !got;
  (* Injected loss drops at store-and-forward arrival. *)
  Impair.set_loss_rate imp 1.0;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 3)));
  Engine.run eng;
  Alcotest.(check int) "lossy frame never arrives" 1 !got;
  Alcotest.(check int) "loss counted" 1 (Impair.frames_lost imp)

let test_oneway_cut_is_directed () =
  let eng, sw = make_switch () in
  let at0 = ref 0 and at1 = ref 0 in
  let p0 = Switch.attach sw ~rx:(fun _ -> incr at0) in
  let p1 = Switch.attach sw ~rx:(fun _ -> incr at1) in
  Impair.cut_oneway (Switch.impair sw) ~src:1 ~dst:0;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 1));
      ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Unicast 1) 2)));
  Engine.run eng;
  Alcotest.(check int) "cut direction blocked" 0 !at0;
  Alcotest.(check int) "reverse direction open" 1 !at1;
  Alcotest.(check int) "oneway drop counted" 1
    (Impair.oneway_drops (Switch.impair sw))

let test_jittered_copy_reaches_reattached_port () =
  (* A jittered copy is handed over when the egress port finishes
     serializing it but lands only when its delay expires.  A station
     re-attached in between (a rebooted machine's fresh NIC) is the one
     that receives it: the copy is bound to the station, not to the
     port that was attached at hand-over. *)
  let eng, sw = make_switch () in
  let old_rx = ref 0 and new_rx = ref 0 in
  let _p0 = Switch.attach sw ~rx:(fun _ -> incr old_rx) in
  let p1 = Switch.attach sw ~rx:ignore in
  let imp = Switch.impair sw in
  Impair.set_conditions imp { Impair.clean with Impair.jitter_ns = Time.ms 10 };
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p1 (frame ~src:1 ~dest:(Frame.Unicast 0) 1)));
  (* Host uplink, lookup, egress: the copy is handed over here. *)
  let handover =
    (2 * Cost_model.frame_time cost ~bytes_on_wire:64)
    + cost.Cost_model.switch_fwd_ns
  in
  Engine.run ~until:(handover + 1) eng;
  Alcotest.(check int) "copy handed over, still in flight" 1
    (Impair.frames_jittered imp);
  ignore (Switch.attach ~id:0 sw ~rx:(fun _ -> incr new_rx));
  Engine.run eng;
  Alcotest.(check int) "the replaced port hears nothing" 0 !old_rx;
  Alcotest.(check int) "the re-attached port receives the copy" 1 !new_rx

let test_utilisation_window_reset () =
  let eng, sw = make_switch () in
  let _p0 = Switch.attach sw ~rx:ignore in
  let p1 = Switch.attach sw ~rx:ignore in
  Engine.spawn eng (fun () ->
      for k = 1 to 4 do
        ignore
          (Switch.transmit sw p1 (frame ~size:1500 ~src:1 ~dest:(Frame.Unicast 0) k))
      done);
  Engine.run eng;
  Alcotest.(check bool) "busy window" true (Switch.utilisation sw > 0.);
  (* A fresh window with no elapsed time and no traffic reads 0. *)
  Switch.reset_utilisation_window sw;
  Alcotest.(check (float 1e-9)) "reset window" 0. (Switch.utilisation sw);
  (* Idle time after the reset keeps it at 0. *)
  ignore (Engine.schedule eng ~after:(Time.ms 10) (fun () -> ()));
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "idle window" 0. (Switch.utilisation sw)

(* ----- multicast snooping ----- *)

let test_multicast_reaches_only_subscribers () =
  let eng, sw = make_switch () in
  let got = ref [] in
  let ports =
    List.init 4 (fun i -> Switch.attach sw ~rx:(fun _ -> got := i :: !got))
  in
  List.iter (fun i -> Switch.join_multicast sw (List.nth ports i) 7) [ 1; 3 ];
  let p0 = List.nth ports 0 in
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Multicast 7) 1)));
  Engine.run eng;
  Alcotest.(check (list int)) "only the subscribers" [ 1; 3 ]
    (List.sort compare !got);
  (* Downlink busy time is the sum of egress serializations: exactly
     two copies, none on the non-members' ports. *)
  let busy =
    Switch.utilisation sw *. float_of_int (Engine.now eng) *. 4.
  in
  let one = float_of_int (Cost_model.frame_time cost ~bytes_on_wire:64) in
  Alcotest.(check (float 1e-3)) "two egress serializations" (2. *. one) busy

let test_multicast_leave_stops_delivery () =
  let eng, sw = make_switch () in
  let at1 = ref 0 and at2 = ref 0 in
  let p0 = Switch.attach sw ~rx:ignore in
  let p1 = Switch.attach sw ~rx:(fun _ -> incr at1) in
  let p2 = Switch.attach sw ~rx:(fun _ -> incr at2) in
  Switch.join_multicast sw p1 4;
  Switch.join_multicast sw p2 4;
  Switch.leave_multicast sw p1 4;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Multicast 4) 1)));
  Engine.run eng;
  Alcotest.(check int) "left port gets nothing" 0 !at1;
  Alcotest.(check int) "remaining member still served" 1 !at2;
  Switch.leave_multicast sw p2 4;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Multicast 4) 2)));
  Engine.run eng;
  Alcotest.(check int) "a group nobody joined goes nowhere" 1 !at2

let test_broadcast_still_floods_segments () =
  let profile = { Switch.segments = 2; segment_size = 2; uplink_mult = 1 } in
  let eng, sw = make_switch ~profile () in
  let got = ref [] in
  let ports =
    List.init 4 (fun i -> Switch.attach sw ~rx:(fun _ -> got := i :: !got))
  in
  (* A multicast subscription elsewhere must not narrow a broadcast. *)
  Switch.join_multicast sw (List.nth ports 1) 3;
  Engine.spawn eng (fun () ->
      ignore
        (Switch.transmit sw (List.nth ports 0)
           (frame ~src:0 ~dest:Frame.Broadcast 1)));
  Engine.run eng;
  Alcotest.(check (list int)) "every other port" [ 1; 2; 3 ]
    (List.sort compare !got);
  Alcotest.(check int) "up and down the one uplink pair" 2
    (Switch.uplink_frames sw)

let test_multicast_uplink_pruning () =
  (* Three one-host segments.  A group local to the sender's segment
     never touches an uplink; a group with a member on segment 2 goes
     up once and down only toward segment 2, never segment 1. *)
  let profile = { Switch.segments = 3; segment_size = 1; uplink_mult = 1 } in
  let eng, sw = make_switch ~profile () in
  let got = ref [] in
  let ports =
    List.init 3 (fun i -> Switch.attach sw ~rx:(fun _ -> got := i :: !got))
  in
  let p0 = List.nth ports 0 in
  Switch.join_multicast sw p0 1;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Multicast 1) 1)));
  Engine.run eng;
  Alcotest.(check int) "local group: no uplink" 0 (Switch.uplink_frames sw);
  Switch.join_multicast sw (List.nth ports 2) 2;
  Engine.spawn eng (fun () ->
      ignore (Switch.transmit sw p0 (frame ~src:0 ~dest:(Frame.Multicast 2) 2)));
  Engine.run eng;
  Alcotest.(check (list int)) "only segment 2's member" [ 2 ] !got;
  Alcotest.(check int) "one up, one down" 2 (Switch.uplink_frames sw)

let test_restarted_machine_rejoins_group () =
  (* The NIC reports its joins through the medium.  A reboot brings a
     fresh NIC whose port has joined nothing — the switch forgets the
     dead port's groups — until the machine joins again. *)
  let eng = Engine.create () in
  let tr = Trace.create () in
  let net = Medium.create eng cost (Medium.Switched Switch.flat) in
  let m0 = Machine.create eng cost tr net ~name:"m0" ~id:0 in
  let m1 = Machine.create eng cost tr net ~name:"m1" ~id:1 in
  let got = ref 0 in
  let join () =
    Nic.set_handler (Machine.nic m1) (fun _ -> incr got);
    Nic.join_multicast (Machine.nic m1) 9
  in
  let send k =
    Engine.spawn eng (fun () ->
        ignore
          (Nic.send (Machine.nic m0) (frame ~src:0 ~dest:(Frame.Multicast 9) k)));
    Engine.run ~until:(Engine.now eng + Time.ms 10) eng
  in
  let sw = Option.get (Medium.switch net) in
  let egress_busy () =
    Switch.utilisation sw *. float_of_int (Engine.now eng) *. 2.
  in
  join ();
  send 1;
  Alcotest.(check int) "member receives" 1 !got;
  Machine.crash m1;
  Machine.restart m1;
  let before = egress_busy () in
  send 2;
  Alcotest.(check int) "rebooted, not rejoined: nothing" 1 !got;
  Alcotest.(check (float 1e-3)) "and its port was never served" before
    (egress_busy ());
  join ();
  send 3;
  Alcotest.(check int) "rejoined: group traffic again" 2 !got

let test_ether_ignores_subscriptions () =
  (* On the shared wire every station hears every frame; membership
     reports are a no-op and the NIC alone filters. *)
  let eng = Engine.create () in
  let net = Medium.create eng cost Medium.Shared in
  let heard = Array.make 3 0 in
  let ports =
    Array.init 3 (fun i ->
        Medium.attach net ~rx:(fun _ -> heard.(i) <- heard.(i) + 1))
  in
  Medium.join_multicast net ports.(1) 5;
  Engine.spawn eng (fun () ->
      ignore
        (Medium.transmit net ports.(0) (frame ~src:0 ~dest:(Frame.Multicast 5) 1)));
  Engine.run eng;
  Alcotest.(check (list int)) "every other station sees the frame" [ 0; 1; 1 ]
    (Array.to_list heard)

(* ----- the group stack on the switch ----- *)

open Amoeba_core
open Amoeba_harness
module T = Types

let check_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (T.error_to_string e)

let test_group_recovers_egress_drops () =
  (* A 6-member group on a switch whose egress FIFOs hold a single
     frame: concurrent senders overflow the sequencer's port, and the
     NACK/retransmission machinery must still deliver every message to
     every member in sequencer order. *)
  let cost = { Cost_model.default with Cost_model.switch_egress_frames = 1 } in
  let n = 6 in
  let cl =
    Cluster.create ~cost ~fabric:(Medium.Switched Switch.flat) ~n ()
  in
  let failure = ref None in
  Cluster.spawn cl (fun () ->
      try
        let creator =
          Api.create_group (Cluster.flip cl 0) ~resilience:0 ~send_method:T.Pb
            ()
        in
        let addr = Api.group_address creator in
        let joiners =
          List.init (n - 1) (fun i ->
              check_ok "join"
                (Api.join_group
                   (Cluster.flip cl (i + 1))
                   ~resilience:0 ~send_method:T.Pb addr))
        in
        let members = creator :: joiners in
        let per_sender = 6 in
        List.iteri
          (fun i g ->
            Engine.spawn cl.Cluster.engine (fun () ->
                for k = 1 to per_sender do
                  ignore
                    (check_ok "send"
                       (Api.send_to_group g
                          (Bytes.of_string (Printf.sprintf "%d.%d" i k))))
                done))
          members;
        let expect = n * per_sender in
        List.iter
          (fun g ->
            for _ = 1 to expect do
              ignore (Api.receive_from_group g)
            done)
          members
      with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 2_000) cl;
  (match !failure with Some e -> raise e | None -> ());
  let sw =
    match Medium.switch cl.Cluster.net with
    | Some sw -> sw
    | None -> Alcotest.fail "cluster not on a switch"
  in
  Alcotest.(check bool) "fabric actually dropped frames" true
    (Switch.egress_drops sw > 0)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "switch",
    [
      tc "profile parsing" test_profile_parsing;
      tc "unicast reaches only destination" test_unicast_reaches_only_destination;
      tc "broadcast floods all but sender" test_broadcast_floods_all_but_sender;
      tc "full duplex does not collide" test_full_duplex_no_collision;
      tc "egress overflow tail-drops" test_egress_overflow_tail_drops;
      tc "uplink oversubscription drops cross-segment"
        test_uplink_oversubscription_drops_cross_segment;
      tc "crashed sender's frame still delivered"
        test_crashed_sender_frame_still_delivered;
      tc "partition and loss on switch" test_partition_and_loss_on_switch;
      tc "one-way cut is directed" test_oneway_cut_is_directed;
      tc "jittered copy reaches a re-attached port"
        test_jittered_copy_reaches_reattached_port;
      tc "utilisation window reset" test_utilisation_window_reset;
      tc "multicast reaches only subscribers"
        test_multicast_reaches_only_subscribers;
      tc "multicast leave stops delivery" test_multicast_leave_stops_delivery;
      tc "broadcast still floods segments" test_broadcast_still_floods_segments;
      tc "multicast uplink pruning" test_multicast_uplink_pruning;
      tc "restarted machine rejoins group" test_restarted_machine_rejoins_group;
      tc "ether ignores subscriptions" test_ether_ignores_subscriptions;
      tc "group recovers egress drops via nacks" test_group_recovers_egress_drops;
    ] )
