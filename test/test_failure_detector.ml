(* Tests for the standalone failure detector (the paper's section 5
   lesson about separating this concern). *)

open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Amoeba_harness

let with_cluster n scenario =
  let cl = Cluster.create ~n () in
  let failure = ref None in
  Cluster.spawn cl (fun () -> try scenario cl with e -> failure := Some e);
  Cluster.run ~until:(Time.sec 600) cl;
  match !failure with Some e -> raise e | None -> ()

let test_alive_peer_detected () =
  with_cluster 2 (fun cl ->
      let fd0 = Failure_detector.create (Cluster.flip cl 0) in
      let fd1 = Failure_detector.create (Cluster.flip cl 1) in
      Alcotest.(check bool) "alive" true
        (Failure_detector.probe fd0 (Failure_detector.address fd1));
      Alcotest.(check bool) "answered once" true
        (Failure_detector.probes_answered fd1 >= 1))

let test_crashed_peer_declared_dead () =
  with_cluster 2 (fun cl ->
      let fd0 = Failure_detector.create (Cluster.flip cl 0) in
      let fd1 = Failure_detector.create (Cluster.flip cl 1) in
      (* Warm the route cache first so locate failure is not what we
         measure. *)
      ignore (Failure_detector.probe fd0 (Failure_detector.address fd1));
      Machine.crash (Cluster.machine cl 1);
      Alcotest.(check bool) "dead" false
        (Failure_detector.probe fd0 ~timeout:(Time.ms 20)
           (Failure_detector.address fd1)))

let test_false_suspicion_under_loss () =
  (* The paper's caveat: an alive-but-unlucky process can be declared
     dead.  Drop every reply and watch the detector give up. *)
  with_cluster 2 (fun cl ->
      let fd0 = Failure_detector.create (Cluster.flip cl 0) in
      let fd1 = Failure_detector.create (Cluster.flip cl 1) in
      ignore (Failure_detector.probe fd0 (Failure_detector.address fd1));
      Impair.set_drop_fun (Medium.impair cl.Cluster.net)
        (Some (fun f -> f.Frame.src = 1));
      Alcotest.(check bool) "falsely declared dead" false
        (Failure_detector.probe fd0 ~timeout:(Time.ms 20)
           (Failure_detector.address fd1));
      (* It was alive all along. *)
      Impair.set_drop_fun (Medium.impair cl.Cluster.net) None;
      Alcotest.(check bool) "alive again once the net heals" true
        (Failure_detector.probe fd0 (Failure_detector.address fd1)))

let test_retry_recovers_single_loss () =
  with_cluster 2 (fun cl ->
      let fd0 = Failure_detector.create (Cluster.flip cl 0) in
      let fd1 = Failure_detector.create (Cluster.flip cl 1) in
      ignore (Failure_detector.probe fd0 (Failure_detector.address fd1));
      (* Lose exactly the next frame (the first probe); the retry gets
         through. *)
      let dropped = ref false in
      Impair.set_drop_fun (Medium.impair cl.Cluster.net)
        (Some
           (fun _ ->
             if !dropped then false
             else begin
               dropped := true;
               true
             end));
      Alcotest.(check bool) "retry saves the verdict" true
        (Failure_detector.probe fd0 ~timeout:(Time.ms 30)
           (Failure_detector.address fd1)))

let test_probe_many_mixed () =
  with_cluster 4 (fun cl ->
      let fd0 = Failure_detector.create (Cluster.flip cl 0) in
      let fds =
        List.init 3 (fun i -> Failure_detector.create (Cluster.flip cl (i + 1)))
      in
      let addrs = List.map Failure_detector.address fds in
      (* Warm routes, then kill machine 2. *)
      List.iter (fun a -> ignore (Failure_detector.probe fd0 a)) addrs;
      Machine.crash (Cluster.machine cl 2);
      let verdicts =
        Failure_detector.probe_many fd0 ~timeout:(Time.ms 20) addrs
      in
      Alcotest.(check (list bool))
        "alive, dead, alive"
        [ true; false; true ]
        (List.map snd verdicts))

let test_stopped_detector_looks_dead () =
  with_cluster 2 (fun cl ->
      let fd0 = Failure_detector.create (Cluster.flip cl 0) in
      let fd1 = Failure_detector.create (Cluster.flip cl 1) in
      ignore (Failure_detector.probe fd0 (Failure_detector.address fd1));
      Failure_detector.stop fd1;
      Alcotest.(check bool) "stopped endpoint is dead" false
        (Failure_detector.probe fd0 ~timeout:(Time.ms 20)
           (Failure_detector.address fd1)))

(* ----- the gap estimator ----- *)

(* Feeds arrivals separated by [gaps] and returns the period. *)
let period_after ?(floor = Time.ms 1) ?(cap = Time.ms 100) gaps =
  let e = Failure_detector.estimator ~floor ~cap in
  let e = Failure_detector.heard e 0 in
  let e, _ =
    List.fold_left
      (fun (e, now) gap ->
        let now = now + gap in
        (Failure_detector.heard e now, now))
      (e, 0) gaps
  in
  Failure_detector.period e

let test_estimator_bounds () =
  let floor = Time.ms 15 and cap = Time.ms 200 in
  let e = Failure_detector.estimator ~floor ~cap in
  Alcotest.(check int) "nothing heard: the cap" cap (Failure_detector.period e);
  Alcotest.(check int) "one arrival gives no gap yet" cap
    (Failure_detector.period (Failure_detector.heard e (Time.ms 3)));
  Alcotest.(check int) "a burst of five frames does not move it" cap
    (period_after ~floor ~cap (List.init 5 (fun _ -> Time.us 500)));
  Alcotest.(check int) "a frame every 1 ms: the floor binds" floor
    (period_after ~floor ~cap (List.init 100 (fun _ -> Time.ms 1)));
  Alcotest.(check int) "a frame every 500 ms: the cap binds" cap
    (period_after ~floor ~cap (List.init 100 (fun _ -> Time.ms 500)));
  let busy =
    List.fold_left Failure_detector.heard e (List.init 100 (fun i -> Time.ms i))
  in
  Alcotest.(check int) "forgetting returns to the cap" cap
    (Failure_detector.period (Failure_detector.forget busy))

let test_estimator_widens_with_variance () =
  (* Same 20 ms mean gap, growing spread: 20±d alternately. *)
  let period d =
    period_after
      (List.init 200 (fun i ->
           if i mod 2 = 0 then Time.ms (20 - d) else Time.ms (20 + d)))
  in
  let steady = period 0 in
  Alcotest.(check bool)
    (Printf.sprintf "steady gaps: about the gap (%.1f ms)" (Time.to_ms steady))
    true
    (steady >= Time.ms 20 && steady < Time.ms 22);
  let periods = List.map period [ 0; 5; 10; 15 ] in
  Alcotest.(check bool)
    (Printf.sprintf "wider spread, longer period (%s ms)"
       (String.concat ", "
          (List.map (fun p -> Printf.sprintf "%.1f" (Time.to_ms p)) periods)))
    true
    (List.sort_uniq compare periods = periods)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  ( "failure-detector",
    [
      tc "alive peer detected" test_alive_peer_detected;
      tc "crashed peer declared dead" test_crashed_peer_declared_dead;
      tc "false suspicion under loss" test_false_suspicion_under_loss;
      tc "retry recovers a single loss" test_retry_recovers_single_loss;
      tc "probe_many with mixed verdicts" test_probe_many_mixed;
      tc "stopped detector looks dead" test_stopped_detector_looks_dead;
      tc "estimator: the floor and the cap bind" test_estimator_bounds;
      tc "estimator: the period widens with gap variance"
        test_estimator_widens_with_variance;
    ] )
