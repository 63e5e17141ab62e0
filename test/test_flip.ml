(* Tests for the FLIP datagram layer: addressing, locate, multicast,
   fragmentation. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_flip

type Packet.body += Payload of string

let cost = Cost_model.default

type world = {
  eng : Engine.t;
  ether : Ether.t;
  flips : Flip.t list;
}

let make_world n =
  let eng = Engine.create () in
  let tr = Trace.create () in
  let ether = Ether.create eng cost in
  let flips =
    List.init n (fun i ->
        Flip.create
          (Machine.create eng cost tr (Medium.shared ether) ~name:(Printf.sprintf "m%d" i) ~id:i))
  in
  { eng; ether; flips }

let flip w i = List.nth w.flips i

let test_unicast_via_locate () =
  let w = make_world 3 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  let got = ref None in
  Flip.register (flip w 0) a (fun _ -> ());
  Flip.register (flip w 1) b (fun p -> got := Some p);
  Engine.spawn w.eng (fun () ->
      let p = Packet.make ~src:a ~dst:b ~size:100 (Payload "hello") in
      Alcotest.(check bool) "sent" true (Flip.send (flip w 0) p = `Sent));
  Engine.run w.eng;
  (match !got with
  | Some p -> (
      match p.Packet.body with
      | Payload s -> Alcotest.(check string) "payload" "hello" s
      | _ -> Alcotest.fail "wrong body")
  | None -> Alcotest.fail "not delivered");
  Alcotest.(check int) "route cached" 1 (Flip.locate_cache_size (flip w 0))

let test_unicast_cached_route_needs_no_locate () =
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  let count = ref 0 in
  Flip.register (flip w 0) a (fun _ -> ());
  Flip.register (flip w 1) b (fun _ -> incr count);
  Engine.spawn w.eng (fun () ->
      let p = Packet.make ~src:a ~dst:b ~size:0 Packet.Empty in
      ignore (Flip.send (flip w 0) p);
      let frames_after_first = Ether.frames_delivered w.ether in
      ignore (Flip.send (flip w 0) p);
      (* second send: exactly one more frame (no WHOIS/IAM) *)
      Alcotest.(check int) "one frame for cached send"
        (frames_after_first + 1)
        (Ether.frames_delivered w.ether));
  Engine.run w.eng;
  Alcotest.(check int) "both delivered" 2 !count

let test_no_route_for_unknown_addr () =
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) in
  let ghost = Flip.fresh_addr (flip w 0) in
  Flip.register (flip w 0) a (fun _ -> ());
  let result = ref `Sent in
  Engine.spawn w.eng (fun () ->
      result := Flip.send (flip w 0) (Packet.make ~src:a ~dst:ghost ~size:0 Packet.Empty));
  Engine.run w.eng;
  Alcotest.(check bool) "no route" true (!result = `No_route)

let test_local_delivery_same_machine () =
  let w = make_world 1 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 0) in
  let got = ref false in
  Flip.register (flip w 0) a (fun _ -> ());
  Flip.register (flip w 0) b (fun _ -> got := true);
  Engine.spawn w.eng (fun () ->
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:10 Packet.Empty)));
  Engine.run w.eng;
  Alcotest.(check bool) "delivered locally" true !got;
  Alcotest.(check int) "no wire frames" 0 (Ether.frames_delivered w.ether)

let test_multicast_reaches_subscribers_only () =
  let w = make_world 4 in
  let g = Flip.fresh_addr (flip w 0) in
  let got = ref [] in
  List.iteri
    (fun i f ->
      if i >= 1 && i <= 2 then
        Flip.register_group f g (fun _ -> got := i :: !got))
    w.flips;
  let src = Flip.fresh_addr (flip w 0) in
  Engine.spawn w.eng (fun () ->
      ignore (Flip.multicast (flip w 0) (Packet.make ~src ~dst:g ~size:50 Packet.Empty)));
  Engine.run w.eng;
  Alcotest.(check (list int)) "subscribers 1 and 2" [ 1; 2 ] (List.sort compare !got)

let test_multicast_not_delivered_to_sender () =
  let w = make_world 2 in
  let g = Flip.fresh_addr (flip w 0) in
  let got = ref [] in
  List.iteri (fun i f -> Flip.register_group f g (fun _ -> got := i :: !got)) w.flips;
  let src = Flip.fresh_addr (flip w 0) in
  Engine.spawn w.eng (fun () ->
      ignore (Flip.multicast (flip w 0) (Packet.make ~src ~dst:g ~size:0 Packet.Empty)));
  Engine.run w.eng;
  Alcotest.(check (list int)) "only the remote subscriber" [ 1 ] !got

let test_fragmentation_roundtrip () =
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let got_size = ref 0 in
  Flip.register (flip w 1) b (fun p -> got_size := p.Packet.size);
  Engine.spawn w.eng (fun () ->
      ignore
        (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:8_000 Packet.Empty)));
  Engine.run w.eng;
  Alcotest.(check int) "reassembled once with full size" 8_000 !got_size;
  (* 8000 bytes / 1458-byte fragments = 6 frames, + WHOIS + IAM *)
  Alcotest.(check int) "frame count" 8 (Ether.frames_delivered w.ether)

let test_max_fragment () =
  let w = make_world 1 in
  Alcotest.(check int) "mtu minus flip headers" (1514 - 56)
    (Flip.max_fragment (flip w 0))

let test_unregister_stops_delivery () =
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let count = ref 0 in
  Flip.register (flip w 1) b (fun _ -> incr count);
  Engine.spawn w.eng (fun () ->
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:0 Packet.Empty));
      (* let the receiver's interrupt path run before unregistering *)
      Engine.sleep w.eng (Time.ms 2);
      Flip.unregister (flip w 1) b;
      (* route is cached, so the packet still goes out, but nobody
         consumes it at the far end *)
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:0 Packet.Empty)));
  Engine.run w.eng;
  Alcotest.(check int) "only first delivered" 1 !count

let test_crashed_destination_is_no_route () =
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  Flip.register (flip w 1) b (fun _ -> ());
  Machine.crash (Flip.machine (flip w 1));
  let result = ref `Sent in
  Engine.spawn w.eng (fun () ->
      result := Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:0 Packet.Empty));
  Engine.run w.eng;
  Alcotest.(check bool) "no route to crashed host" true (!result = `No_route)

let test_locate_retries_through_loss () =
  (* The first WHOIS is lost; the locate protocol's retry finds the
     destination anyway. *)
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let got = ref 0 in
  Flip.register (flip w 1) b (fun _ -> incr got);
  let dropped = ref false in
  Impair.set_drop_fun (Ether.impair w.ether)
    (Some
       (fun _ ->
         if !dropped then false
         else begin
           dropped := true;
           true
         end));
  let result = ref `No_route in
  Engine.spawn w.eng (fun () ->
      result := Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:0 Packet.Empty));
  Engine.run w.eng;
  Alcotest.(check bool) "sent despite lost whois" true (!result = `Sent);
  Alcotest.(check int) "delivered" 1 !got

let test_lost_fragment_means_no_delivery () =
  (* Reassembly is all-or-nothing: losing one fragment of a 3-fragment
     packet suppresses delivery (upper layers repair). *)
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let got = ref 0 in
  Flip.register (flip w 1) b (fun _ -> incr got);
  Engine.spawn w.eng (fun () ->
      (* warm the locate cache *)
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:0 Packet.Empty));
      Engine.sleep w.eng (Time.ms 5);
      let frames = ref 0 in
      Impair.set_drop_fun (Ether.impair w.ether)
        (Some
           (fun _ ->
             incr frames;
             !frames = 2 (* the middle fragment *)));
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:4000 Packet.Empty));
      Engine.sleep w.eng (Time.ms 50));
  Engine.run w.eng;
  Alcotest.(check int) "only the warm-up delivered" 1 !got

(* ----- adversarial delivery: the rx path under a hostile wire ----- *)

let warm_route w a b =
  (* Run the WHOIS/IAM exchange on a quiet net so later fault filters
     only ever see data fragments. *)
  ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:0 Packet.Empty));
  Engine.sleep w.eng (Time.ms 5)

let test_duplicate_fragments_deliver_once () =
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let got = ref 0 in
  Flip.register (flip w 1) b (fun _ -> incr got);
  Engine.spawn w.eng (fun () ->
      warm_route w a b;
      Impair.set_conditions (Ether.impair w.ether)
        { Impair.clean with Impair.dup_prob = 1.0 };
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:4_000 Packet.Empty));
      Engine.sleep w.eng (Time.ms 50));
  Engine.run w.eng;
  Alcotest.(check int) "reassembled exactly once" 2 !got;
  (* warm-up + one reassembly: 2 *)
  Alcotest.(check bool) "duplicate fragments were discarded" true
    (Flip.dup_fragments (flip w 1) > 0)

let test_reordered_fragments_reassemble () =
  (* Heavy delivery jitter permutes the fragment train; the arrival
     bitmap still completes the packet exactly once. *)
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let sizes = ref [] in
  Flip.register (flip w 1) b (fun p -> sizes := p.Packet.size :: !sizes);
  Engine.spawn w.eng (fun () ->
      warm_route w a b;
      Impair.set_conditions (Ether.impair w.ether)
        { Impair.clean with Impair.jitter_ns = Time.ms 10 };
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:8_000 Packet.Empty));
      Engine.sleep w.eng (Time.ms 100));
  Engine.run w.eng;
  Alcotest.(check (list int)) "one full-size delivery despite reordering"
    [ 8_000; 0 ] !sizes;
  Alcotest.(check bool) "the wire really did reorder" true
    (Impair.frames_jittered (Ether.impair w.ether) > 0)

let test_header_corruption_drops_whole_frame () =
  (* A 0-byte packet is all headers on the wire, so a flipped bit
     always lands in the header region: the FLIP checksum rejects the
     frame and nothing reaches the endpoint. *)
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let got = ref 0 in
  Flip.register (flip w 1) b (fun _ -> incr got);
  Engine.spawn w.eng (fun () ->
      warm_route w a b;
      Impair.set_conditions (Ether.impair w.ether)
        { Impair.clean with Impair.corrupt_prob = 1.0 };
      ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:0 Packet.Empty));
      Engine.sleep w.eng (Time.ms 20));
  Engine.run w.eng;
  Alcotest.(check int) "only the warm-up arrived" 1 !got;
  Alcotest.(check int) "header checksum drop counted" 1
    (Flip.corrupt_dropped (flip w 1))

let test_payload_corruption_travels_wrapped () =
  (* With a large payload most flipped bits land beyond the header
     region: the headers verify, and the damaged packet must travel up
     wrapped in [Packet.Corrupt] — never as a valid body. *)
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let clean = ref 0 and wrapped = ref 0 in
  Flip.register (flip w 1) b (fun p ->
      match p.Packet.body with
      | Packet.Corrupt _ -> incr wrapped
      | _ -> incr clean);
  Engine.spawn w.eng (fun () ->
      warm_route w a b;
      Impair.set_conditions (Ether.impair w.ether)
        { Impair.clean with Impair.corrupt_prob = 1.0 };
      for _ = 1 to 5 do
        ignore
          (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:1_400 Packet.Empty))
      done;
      Engine.sleep w.eng (Time.ms 50));
  Engine.run w.eng;
  Alcotest.(check int) "warm-up was the only clean delivery" 1 !clean;
  Alcotest.(check bool) "payload damage arrived wrapped" true (!wrapped > 0);
  Alcotest.(check int) "all five were injected" 5
    (Impair.corruptions_injected (Ether.impair w.ether));
  Alcotest.(check int) "every copy was wrapped or dropped" 5
    (!wrapped + Flip.corrupt_dropped (flip w 1))

let test_stale_reassembly_entries_purged () =
  (* Losing the tail fragment of many messages piles up partial
     reassembly entries; once the table is big enough, entries older
     than a second are purged on the next arrival, so a lossy peer
     cannot pin memory forever. *)
  let w = make_world 2 in
  let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
  Flip.register (flip w 0) a (fun _ -> ());
  let got = ref 0 in
  Flip.register (flip w 1) b (fun _ -> incr got);
  Engine.spawn w.eng (fun () ->
      warm_route w a b;
      (* Drop every second data fragment: each 2-fragment packet loses
         its tail and leaves a partial entry. *)
      let data_frames = ref 0 in
      Impair.set_drop_fun (Ether.impair w.ether)
        (Some
           (fun f ->
             match Flip.packet_of_frame f with
             | Some _ ->
                 incr data_frames;
                 !data_frames mod 2 = 0
             | None -> false));
      for _ = 1 to 300 do
        ignore
          (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:2_000 Packet.Empty))
      done;
      Engine.sleep w.eng (Time.ms 10);
      Alcotest.(check int) "all partials buffered" 300
        (Flip.partial_count (flip w 1));
      (* Age them past the purge threshold, then send one more
         half-delivered packet to trigger the lazy sweep. *)
      Engine.sleep w.eng (Time.ms 1_100);
      ignore
        (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size:2_000 Packet.Empty));
      Engine.sleep w.eng (Time.ms 10);
      Alcotest.(check int) "stale entries purged, fresh one kept" 1
        (Flip.partial_count (flip w 1)));
  Engine.run w.eng;
  Alcotest.(check int) "no half packet was ever delivered" 1 !got

let prop_fragment_count =
  QCheck.Test.make ~name:"fragment count = ceil(size / max_fragment)" ~count:100
    QCheck.(int_range 0 100_000)
    (fun size ->
      let w = make_world 2 in
      let a = Flip.fresh_addr (flip w 0) and b = Flip.fresh_addr (flip w 1) in
      Flip.register (flip w 0) a (fun _ -> ());
      let deliveries = ref 0 in
      Flip.register (flip w 1) b (fun _ -> incr deliveries);
      Engine.spawn w.eng (fun () ->
          ignore (Flip.send (flip w 0) (Packet.make ~src:a ~dst:b ~size Packet.Empty)));
      Engine.run w.eng;
      let mf = Flip.max_fragment (flip w 0) in
      let expect_frames = max 1 ((size + mf - 1) / mf) in
      (* + WHOIS + IAM *)
      !deliveries = 1 && Ether.frames_delivered w.ether = expect_frames + 2)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "flip",
    [
      tc "unicast via locate" test_unicast_via_locate;
      tc "cached route skips locate" test_unicast_cached_route_needs_no_locate;
      tc "unknown address is no_route" test_no_route_for_unknown_addr;
      tc "same-machine delivery skips the wire" test_local_delivery_same_machine;
      tc "multicast reaches subscribers only"
        test_multicast_reaches_subscribers_only;
      tc "multicast skips the sender" test_multicast_not_delivered_to_sender;
      tc "fragmentation roundtrip (8000 bytes)" test_fragmentation_roundtrip;
      tc "max fragment size" test_max_fragment;
      tc "unregister stops delivery" test_unregister_stops_delivery;
      tc "crashed destination is no_route" test_crashed_destination_is_no_route;
      tc "locate retries through loss" test_locate_retries_through_loss;
      tc "lost fragment suppresses delivery" test_lost_fragment_means_no_delivery;
      tc "duplicate fragments deliver once" test_duplicate_fragments_deliver_once;
      tc "reordered fragments reassemble" test_reordered_fragments_reassemble;
      tc "header corruption drops the frame"
        test_header_corruption_drops_whole_frame;
      tc "payload corruption travels wrapped"
        test_payload_corruption_travels_wrapped;
      tc "stale reassembly entries purged" test_stale_reassembly_entries_purged;
      QCheck_alcotest.to_alcotest prop_fragment_count;
    ] )
