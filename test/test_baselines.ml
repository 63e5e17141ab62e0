(* Tests for the comparison protocols: Chang-Maxemchuk, positive
   acknowledgements, migrating sequencer. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_baselines
open Amoeba_harness

let body = Bytes.of_string

let collect_stream cl events acc =
  Cluster.spawn cl (fun () ->
      let rec loop () =
        let d = Channel.recv cl.Cluster.engine events in
        acc := (d.Types_baseline.seq, d.Types_baseline.sender, Bytes.to_string d.Types_baseline.body) :: !acc;
        loop ()
      in
      loop ())

(* Generic conformance scenario shared by all three baselines. *)
let total_order_scenario (type node) ~make_group
    ~(send : node -> bytes -> unit) ~(events : node -> Types_baseline.delivery Channel.t)
    ~n ~each () =
  let cl = Cluster.create ~n () in
  let streams = Array.make n [] in
  let failed = ref None in
  Cluster.spawn cl (fun () ->
      let nodes : node list = make_group (Array.to_list cl.Cluster.flips) in
      List.iteri
        (fun i node ->
          let acc = ref [] in
          collect_stream cl (events node) acc;
          Cluster.spawn cl (fun () ->
              for k = 1 to each do
                send node (body (Printf.sprintf "%d.%d" i k))
              done);
          Cluster.spawn cl (fun () ->
              Engine.sleep cl.Cluster.engine (Time.sec 60);
              streams.(i) <- List.rev !acc))
        nodes);
  (try Cluster.run ~until:(Time.sec 120) cl with e -> failed := Some e);
  (match !failed with Some e -> raise e | None -> ());
  let expected = n * each in
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "node %d got all" i) expected
        (List.length s))
    streams;
  Array.iter
    (fun s -> Alcotest.(check bool) "identical stream" true (s = streams.(0)))
    streams

let test_cm_total_order () =
  total_order_scenario ~make_group:Cm.make_group ~send:Cm.send ~events:Cm.events
    ~n:4 ~each:4 ()

let test_posack_total_order () =
  total_order_scenario ~make_group:Posack.make_group ~send:Posack.send
    ~events:Posack.events ~n:4 ~each:4 ()

let test_migrating_total_order () =
  total_order_scenario ~make_group:Migrating.make_group ~send:Migrating.send
    ~events:Migrating.events ~n:4 ~each:4 ()

let test_cm_interrupt_count () =
  (* Every CM broadcast interrupts all other members twice (data +
     ack); Amoeba-PB interrupts them once.  Paper section 6. *)
  let cl = Cluster.create ~n:4 () in
  Cluster.spawn cl (fun () ->
      let nodes = Cm.make_group (Array.to_list cl.Cluster.flips) in
      let sender = List.nth nodes 1 in
      for _ = 1 to 10 do
        Cm.send sender (body "x")
      done);
  Cluster.run ~until:(Time.sec 60) cl;
  (* A non-sender, non-token-site machine sees ~2 interrupts per
     message. *)
  let interrupts = Nic.interrupts (Machine.nic (Cluster.machine cl 3)) in
  Alcotest.(check bool)
    (Printf.sprintf "about 2 interrupts per message, got %d for 10 msgs" interrupts)
    true
    (interrupts >= 18 && interrupts <= 26)

let test_posack_ack_implosion () =
  (* n-1 positive acks arrive at the sequencer for every message. *)
  let cl = Cluster.create ~n:6 () in
  let acks = ref 0 in
  Cluster.spawn cl (fun () ->
      let nodes = Posack.make_group (Array.to_list cl.Cluster.flips) in
      let sender = List.nth nodes 2 in
      for _ = 1 to 10 do
        Posack.send sender (body "x")
      done;
      Engine.sleep cl.Cluster.engine (Time.sec 5);
      acks := Posack.acks_received (List.hd nodes));
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check bool)
    (Printf.sprintf "~50 acks for 10 msgs in a 6-group, got %d" !acks)
    true
    (!acks >= 45 && !acks <= 55)

let test_migrating_token_follows_sender () =
  let cl = Cluster.create ~n:4 () in
  let moves = ref 0 in
  let frames_burst = ref 0 in
  Cluster.spawn cl (fun () ->
      let nodes = Migrating.make_group (Array.to_list cl.Cluster.flips) in
      let sender = List.nth nodes 2 in
      (* First send fetches the token remotely... *)
      Migrating.send sender (body "b1");
      Engine.sleep cl.Cluster.engine (Time.ms 5);
      let before = Medium.frames_delivered cl.Cluster.net in
      (* ...the rest of the burst sequences locally: 1 frame each.  A
         local send returns at sequencing time, before its multicast
         clears the wire, so let the frames settle before counting. *)
      for k = 2 to 6 do
        Migrating.send sender (body (Printf.sprintf "b%d" k))
      done;
      Engine.sleep cl.Cluster.engine (Time.ms 5);
      frames_burst := Medium.frames_delivered cl.Cluster.net - before;
      moves := Migrating.token_moves (List.nth nodes 2));
  Cluster.run ~until:(Time.sec 60) cl;
  Alcotest.(check int) "token moved to the burst sender once" 1 !moves;
  Alcotest.(check int) "one multicast per message once token is local" 5
    !frames_burst

let test_cm_loss_recovery () =
  let cl = Cluster.create ~n:3 () in
  let delivered = ref 0 in
  Cluster.spawn cl (fun () ->
      let nodes = Cm.make_group (Array.to_list cl.Cluster.flips) in
      let sender = List.nth nodes 1 in
      Cm.send sender (body "warm");
      Engine.sleep cl.Cluster.engine (Time.ms 100);
      (* Drop one data frame; the retransmission machinery repairs. *)
      let dropped = ref false in
      Impair.set_drop_fun (Medium.impair cl.Cluster.net)
        (Some
           (fun frame ->
             match Amoeba_flip.Flip.packet_of_frame frame with
             | Some _ when not !dropped ->
                 dropped := true;
                 true
             | _ -> false));
      Cm.send sender (body "lost");
      Engine.sleep cl.Cluster.engine (Time.sec 10);
      delivered := Cm.delivered (List.nth nodes 2));
  Cluster.run ~until:(Time.sec 120) cl;
  Alcotest.(check int) "both messages delivered at node 2" 2 !delivered

let prop_baselines_agree_with_each_other =
  (* All three baselines implement the same abstract service: totally
     ordered reliable broadcast.  Whatever the protocol, the delivered
     multiset must equal what was sent. *)
  QCheck.Test.make ~name:"baselines deliver exactly what was sent" ~count:8
    QCheck.(pair (int_range 2 5) (int_range 1 4))
    (fun (n, each) ->
      let run_one make_group send events =
        let cl = Cluster.create ~n () in
        let count = ref 0 in
        Cluster.spawn cl (fun () ->
            let nodes = make_group (Array.to_list cl.Cluster.flips) in
            List.iteri
              (fun i node ->
                let acc = ref [] in
                collect_stream cl (events node) acc;
                if i = 0 then
                  Cluster.spawn cl (fun () ->
                      Engine.sleep cl.Cluster.engine (Time.sec 60);
                      count := List.length !acc);
                Cluster.spawn cl (fun () ->
                    for k = 1 to each do
                      send node (body (Printf.sprintf "%d.%d" i k))
                    done))
              nodes);
        Cluster.run ~until:(Time.sec 120) cl;
        !count = n * each
      in
      run_one Cm.make_group Cm.send Cm.events
      && run_one Posack.make_group Posack.send Posack.events
      && run_one Migrating.make_group Migrating.send Migrating.events)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "baselines",
    [
      tc "cm total order" test_cm_total_order;
      tc "posack total order" test_posack_total_order;
      tc "migrating total order" test_migrating_total_order;
      tc "cm interrupts twice per message" test_cm_interrupt_count;
      tc "posack ack implosion" test_posack_ack_implosion;
      tc "migrating token follows the sender" test_migrating_token_follows_sender;
      tc "cm recovers from loss" test_cm_loss_recovery;
      QCheck_alcotest.to_alcotest prop_baselines_agree_with_each_other;
    ] )
