(* Tests for the RPC baseline and ForwardRequest. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Amoeba_rpc
open Amoeba_harness

let body = Bytes.of_string

let test_null_rpc_roundtrip () =
  let cl = Cluster.create ~n:2 () in
  let result = ref None in
  Cluster.spawn cl (fun () ->
      let addr = Flip.fresh_addr (Cluster.flip cl 1) in
      let _server =
        Rpc.serve (Cluster.flip cl 1) ~addr (fun req ->
            Types_rpc.Reply (Bytes.cat req (body "-pong")))
      in
      let c = Rpc.client (Cluster.flip cl 0) in
      result := Some (Rpc.call c ~dst:addr (body "ping")));
  Cluster.run cl;
  match !result with
  | Some (Ok r) -> Alcotest.(check string) "reply" "ping-pong" (Bytes.to_string r)
  | Some (Error _) -> Alcotest.fail "rpc failed"
  | None -> Alcotest.fail "no result"

let test_rpc_delay_near_paper () =
  (* The paper's null RPC takes 2.8 ms on this hardware. *)
  let cl = Cluster.create ~n:2 () in
  let elapsed = ref 0 in
  Cluster.spawn cl (fun () ->
      let addr = Flip.fresh_addr (Cluster.flip cl 1) in
      let _server =
        Rpc.serve (Cluster.flip cl 1) ~addr (fun _ -> Types_rpc.Reply Bytes.empty)
      in
      let c = Rpc.client (Cluster.flip cl 0) in
      (* Warm the locate caches, then measure. *)
      ignore (Rpc.call c ~dst:addr Bytes.empty);
      let t0 = Engine.now cl.Cluster.engine in
      ignore (Rpc.call c ~dst:addr Bytes.empty);
      elapsed := Engine.now cl.Cluster.engine - t0);
  Cluster.run cl;
  let ms = Time.to_ms !elapsed in
  Alcotest.(check bool)
    (Printf.sprintf "null rpc = %.2f ms (expect 2.3..3.3)" ms)
    true
    (ms > 2.3 && ms < 3.3)

let test_rpc_timeout_when_server_dead () =
  let cl = Cluster.create ~n:2 () in
  let result = ref (Ok Bytes.empty) in
  Cluster.spawn cl (fun () ->
      let addr = Flip.fresh_addr (Cluster.flip cl 1) in
      let _server =
        Rpc.serve (Cluster.flip cl 1) ~addr (fun _ -> Types_rpc.Reply Bytes.empty)
      in
      Machine.crash (Cluster.machine cl 1);
      let c = Rpc.client (Cluster.flip cl 0) in
      result := Rpc.call c ~dst:addr ~timeout:(Time.ms 50) ~retries:2 Bytes.empty);
  Cluster.run cl;
  Alcotest.(check bool) "no route or timeout" true
    (match !result with Error (`Timeout | `No_route) -> true | Ok _ -> false)

let test_at_most_once () =
  (* Drop the first reply: the retried request must be served from the
     reply cache, not re-executed. *)
  let cl = Cluster.create ~n:2 () in
  let executions = ref 0 in
  let result = ref None in
  Cluster.spawn cl (fun () ->
      let addr = Flip.fresh_addr (Cluster.flip cl 1) in
      let _server =
        Rpc.serve (Cluster.flip cl 1) ~addr (fun _ ->
            incr executions;
            Types_rpc.Reply (body "done"))
      in
      let c = Rpc.client (Cluster.flip cl 0) in
      ignore (Rpc.call c ~dst:addr (body "warm"));
      let dropped = ref false in
      Impair.set_drop_fun (Medium.impair cl.Cluster.net)
        (Some
           (fun frame ->
             (* Drop the first server->client frame after warm-up. *)
             if (not !dropped) && frame.Frame.src = 1 then begin
               dropped := true;
               true
             end
             else false));
      result := Some (Rpc.call c ~dst:addr ~timeout:(Time.ms 100) (body "x")));
  Cluster.run cl;
  (match !result with
  | Some (Ok r) -> Alcotest.(check string) "reply" "done" (Bytes.to_string r)
  | _ -> Alcotest.fail "call failed");
  Alcotest.(check int) "handler ran twice total (warm + once)" 2 !executions

let test_forward_request () =
  (* The paper's ForwardRequest: server 1 forwards to server 2, which
     replies directly to the client. *)
  let cl = Cluster.create ~n:3 () in
  let result = ref None in
  let s1_ref = ref None in
  Cluster.spawn cl (fun () ->
      let addr1 = Flip.fresh_addr (Cluster.flip cl 1) in
      let addr2 = Flip.fresh_addr (Cluster.flip cl 2) in
      let s1 =
        Rpc.serve (Cluster.flip cl 1) ~addr:addr1 (fun _ -> Types_rpc.Forward addr2)
      in
      s1_ref := Some s1;
      let _s2 =
        Rpc.serve (Cluster.flip cl 2) ~addr:addr2 (fun req ->
            Types_rpc.Reply (Bytes.cat (body "via2:") req))
      in
      let c = Rpc.client (Cluster.flip cl 0) in
      result := Some (Rpc.call c ~dst:addr1 (body "job")));
  Cluster.run cl;
  (match !result with
  | Some (Ok r) -> Alcotest.(check string) "reply from member 2" "via2:job" (Bytes.to_string r)
  | _ -> Alcotest.fail "forwarded call failed");
  match !s1_ref with
  | Some s1 -> Alcotest.(check int) "s1 forwarded" 1 (Rpc.requests_forwarded s1)
  | None -> Alcotest.fail "no server"

let test_concurrent_clients () =
  let cl = Cluster.create ~n:4 () in
  let oks = ref 0 in
  Cluster.spawn cl (fun () ->
      let addr = Flip.fresh_addr (Cluster.flip cl 0) in
      let _server =
        Rpc.serve (Cluster.flip cl 0) ~addr (fun req -> Types_rpc.Reply req)
      in
      for i = 1 to 3 do
        Cluster.spawn cl (fun () ->
            let c = Rpc.client (Cluster.flip cl i) in
            for _ = 1 to 5 do
              match Rpc.call c ~dst:addr (body "x") with
              | Ok _ -> incr oks
              | Error _ -> ()
            done)
      done);
  Cluster.run cl;
  Alcotest.(check int) "all 15 calls succeed" 15 !oks

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "rpc",
    [
      tc "null rpc roundtrip" test_null_rpc_roundtrip;
      tc "null rpc delay near 2.8 ms" test_rpc_delay_near_paper;
      tc "timeout when server dead" test_rpc_timeout_when_server_dead;
      tc "at-most-once execution" test_at_most_once;
      tc "forward request" test_forward_request;
      tc "concurrent clients" test_concurrent_clients;
    ] )
