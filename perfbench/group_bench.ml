(* The paper-group workload: the paper's testbed (16 machines, one
   group, r = 0, PB, 0-byte messages, history 128, 10 Mbit shared
   Ether) driven through [Api] only — no service code runs.

   Phase 1 is Figure 1 / Table 3's measurement (one non-sequencer
   member sends null messages into an otherwise idle group); phase 2
   is Figure 4's 16-sender point (every member sends in a closed
   loop).  Each phase builds its cluster exactly as
   [Experiments.broadcast_delay] and [Experiments.group_throughput]
   do, so with those runners' inputs the figures are theirs (checked
   by agree.exe).  The workload seed drives the only input the paper
   leaves free: the sender's think time between sends. *)

open Amoeba_sim
open Amoeba_harness
open Amoeba_core
open Common

let n = 16

let history = 128

let phase2_duration_ms = 2_000

type think = Fixed of Time.t | Seeded of int

(* The seeded think time: exponential, mean 200 µs (the fixed pause of
   [Experiments.broadcast_delay]). *)
let pauses = function
  | Fixed d -> fun () -> d
  | Seeded seed ->
      let rng = Random.State.make [| seed; 0x7a15e |] in
      fun () ->
        let u = Random.State.float rng 1.0 in
        Time.us (int_of_float (-.log (1.0 -. u) *. 200.0))

let build_group cl =
  let creator =
    Api.create_group (Cluster.flip cl 0) ~resilience:0 ~send_method:Types.Pb
      ~history ()
  in
  let addr = Api.group_address creator in
  creator
  :: List.init (n - 1) (fun i ->
         match
           Api.join_group
             (Cluster.flip cl (i + 1))
             ~resilience:0 ~send_method:Types.Pb ~history addr
         with
         | Ok g -> g
         | Error e -> failwith ("join failed: " ^ Types.error_to_string e))

(* Every member consumes its delivery stream (as in the paper, all
   members call ReceiveFromGroup) and folds it into a running hash, so
   the output check can compare delivery order across members. *)
type member_log = {
  mutable delivered : int;
  mutable hash : int;
  mutable view_changes : int;
}

let drain cl g =
  let log = { delivered = 0; hash = 0; view_changes = 0 } in
  Cluster.spawn cl (fun () ->
      let rec loop () =
        (match Api.receive_from_group g with
        | Types.Message { seq; sender; body } ->
            log.delivered <- log.delivered + 1;
            log.hash <- Hashtbl.hash (log.hash, seq, sender, Bytes.length body)
        | Types.Member_joined _ -> ()
        | Types.Member_left _ | Types.Group_reset _ | Types.Expelled ->
            log.view_changes <- log.view_changes + 1);
        loop ()
      in
      loop ());
  log

let same_order logs =
  match logs with
  | [] -> true
  | l0 :: rest ->
      List.for_all (fun l -> l.delivered = l0.delivered && l.hash = l0.hash) rest

(* ---- phase 1: the null-broadcast delay ------------------------------ *)

type delay = {
  stats : Stats.t;  (** as [Experiments.broadcast_delay] accumulates it *)
  d_lat : float array;  (** the delays, sorted *)
  d_attempted : int;
  d_failed : int;
  d_writes : (Time.t * Time.t) array;  (** (issue, completion) per send *)
  d_same_order : bool;
  d_setup_s : float;
  d_wall_s : float;
  d_events : int;  (** engine events of the measured loop *)
  d_span : Time.t * Time.t;
}

let delay ?(traced = false) ~samples ~think () =
  let host0 = host_now () in
  let cl = Cluster.create ~n () in
  if traced then Trace.enable cl.Cluster.trace;
  let pause = pauses think in
  let out = ref None in
  let logs = ref [] in
  Cluster.spawn cl (fun () ->
      let groups = build_group cl in
      logs := List.map (drain cl) groups;
      let setup_s = host_now () -. host0 in
      let sender = List.nth groups 1 in
      let payload = Bytes.create 0 in
      for _ = 1 to 5 do
        ignore (Api.send_to_group sender payload)
      done;
      let stats = Stats.create () and lat = ref [] in
      let failed = ref 0 and writes = ref [] in
      let host1 = host_now () and t_first = Cluster.now cl in
      let ev0 = Engine.step_count cl.Cluster.engine in
      for _ = 1 to samples do
        let t0 = Cluster.now cl in
        (match Api.send_to_group sender payload with
        | Ok _ ->
            let t1 = Cluster.now cl in
            Stats.add stats (Time.to_ms (t1 - t0));
            lat := Time.to_ms (t1 - t0) :: !lat;
            writes := (t0, t1) :: !writes
        | Error _ -> incr failed);
        Engine.sleep cl.Cluster.engine (pause ())
      done;
      out :=
        Some
          {
            stats;
            d_lat = sorted_of_list !lat;
            d_attempted = samples;
            d_failed = !failed;
            d_writes = Array.of_list (List.rev !writes);
            d_same_order = true;
            d_setup_s = setup_s;
            d_wall_s = host_now () -. host1;
            d_events = Engine.step_count cl.Cluster.engine - ev0;
            d_span = (t_first, Cluster.now cl);
          });
  Cluster.run ~until:(Time.sec 600) cl;
  let d = Option.get !out in
  { d with d_same_order = same_order !logs }

(* ---- phase 2: every member sends in a closed loop ------------------ *)

type throughput = {
  msgs_per_sec : float;
  t_attempted : int;
  t_failed : int;
  t_same_order : bool;
  t_setup_s : float;
  t_wall_s : float;
  t_events : int;  (** engine events after set-up *)
  t_setup_sim : Time.t;
  t_setup_events : int;
  t_layers : (string * float) list;
}

let info_sum groups f =
  List.fold_left (fun a g -> a + f (Api.get_info_group g)) 0 groups

let throughput ?(traced = false) () =
  let host0 = host_now () in
  let cl = Cluster.create ~n () in
  if traced then Trace.enable cl.Cluster.trace;
  let eng = cl.Cluster.engine in
  let deadline = Time.ms phase2_duration_ms in
  let warmup = deadline / 4 in
  let measured = ref None and logs = ref [] in
  let setup_s = ref nan and host1 = ref nan in
  let setup_sim = ref 0 and setup_events = ref 0 in
  let attempted = ref 0 and failed = ref 0 in
  let window_open = ref false and completed_in_window = ref 0 in
  Cluster.spawn cl (fun () ->
      let groups = build_group cl in
      logs := List.map (drain cl) groups;
      setup_s := host_now () -. host0;
      host1 := host_now ();
      setup_sim := Engine.now eng;
      setup_events := Engine.step_count eng;
      let payload = Bytes.create 0 in
      List.iter
        (fun g ->
          Cluster.spawn cl (fun () ->
              let rec loop () =
                if Cluster.now cl < deadline then begin
                  incr attempted;
                  (match Api.send_to_group g payload with
                  | Ok _ -> if !window_open then incr completed_in_window
                  | Error _ -> incr failed);
                  loop ()
                end
              in
              loop ()))
        groups;
      let sequencer = List.hd groups in
      Cluster.spawn cl (fun () ->
          Engine.sleep eng warmup;
          if traced then begin
            Trace.clear cl.Cluster.trace;
            Amoeba_net.Medium.reset_utilisation_window cl.Cluster.net
          end;
          let sampler =
            if traced then start_sampler cl ~until:deadline ~extra:ignore
            else no_sampler cl
          in
          let s0 = snap cl in
          window_open := true;
          let c0 = (Api.get_info_group sequencer).Api.next_seq in
          let counters f = info_sum groups f in
          let k0 =
            List.map counters
              [
                (fun i -> i.Api.nacks_sent);
                (fun i -> i.Api.retransmissions);
                (fun i -> i.Api.reorders_absorbed);
                (fun i -> i.Api.duplicates_dropped);
                (fun i -> i.Api.status_solicitations);
              ]
          in
          Engine.sleep eng (deadline - warmup);
          window_open := false;
          let s1 = snap cl in
          let c1 = (Api.get_info_group sequencer).Api.next_seq in
          let k1 =
            List.map counters
              [
                (fun i -> i.Api.nacks_sent);
                (fun i -> i.Api.retransmissions);
                (fun i -> i.Api.reorders_absorbed);
                (fun i -> i.Api.duplicates_dropped);
                (fun i -> i.Api.status_solicitations);
              ]
          in
          let rounds = c1 - c0 in
          let kop = float_of_int (max 1 rounds) /. 1000.0 in
          let d = List.map2 (fun a b -> float_of_int (b - a)) k0 k1 in
          let layers =
            window_layers cl ~a:s0 ~b:s1 ~ops:rounds ~routers:[] ~sampler
            @ [
                ("core.nacks_per_kop", List.nth d 0 /. kop);
                ("core.retransmissions_per_kop", List.nth d 1 /. kop);
                ("core.reorders_absorbed_per_kop", List.nth d 2 /. kop);
                ("core.duplicates_dropped", List.nth d 3);
                ("core.status_solicitations", List.nth d 4);
                ( "core.pipeline_hwm",
                  float_of_int
                    (List.fold_left
                       (fun a g ->
                         max a (Api.get_info_group g).Api.pipeline_depth_hwm)
                       0 groups) );
                ( "core.ops_per_round",
                  float_of_int !completed_in_window
                  /. float_of_int (max 1 rounds) );
              ]
          in
          measured :=
            Some
              ( float_of_int rounds /. Time.to_sec (deadline - warmup),
                layers )));
  Cluster.run ~until:(deadline + Time.sec 1) cl;
  let msgs_per_sec, layers = Option.get !measured in
  let logs = !logs in
  {
    msgs_per_sec;
    t_attempted = !attempted;
    t_failed = !failed;
    t_same_order = same_order logs;
    t_setup_s = !setup_s;
    t_wall_s = host_now () -. !host1;
    t_events = Engine.step_count eng - !setup_events;
    t_setup_sim = !setup_sim;
    t_setup_events = !setup_events;
    t_layers =
      layers
      @ [
          ( "core.view_changes",
            float_of_int
              (List.fold_left (fun a l -> max a l.view_changes) 0 logs) );
        ];
  }

(* ---- the open-loop knee --------------------------------------------- *)

(* One open-loop trial: Poisson null broadcasts at [rate], spread
   round-robin over the members, each send on its own thread and timed
   from its intended arrival. *)
let open_loop ~seed ~rate =
  let cl = Cluster.create ~n () in
  let eng = cl.Cluster.engine in
  let hist = Histogram.create () in
  let attempted = ref 0 and completed = ref 0 and in_flight = ref 0 in
  let window = Time.sec 20 in
  Cluster.spawn cl (fun () ->
      let groups = Array.of_list (build_group cl) in
      Array.iter (fun g -> ignore (drain cl g)) groups;
      let start = Engine.now eng in
      let measure_from = start + Time.ms 250 in
      let stop = measure_from + window in
      let arrivals = Random.State.make [| seed; 0x6b1e |] in
      let t_next = ref 0.0 and k = ref 0 and continue = ref true in
      while !continue do
        let u = Random.State.float arrivals 1.0 in
        t_next := !t_next +. (-.log (1.0 -. u) /. rate *. 1e9);
        let arrive = start + int_of_float !t_next in
        if arrive >= stop then continue := false
        else begin
          Engine.sleep eng (max 0 (arrive - Engine.now eng));
          let g = groups.(!k mod n) in
          incr k;
          let measured = arrive >= measure_from in
          if measured then incr attempted;
          incr in_flight;
          Cluster.spawn cl (fun () ->
              let ok = Result.is_ok (Api.send_to_group g Bytes.empty) in
              decr in_flight;
              if measured && ok then begin
                incr completed;
                Histogram.add hist (Time.to_ms (Engine.now eng - arrive))
              end)
        end
      done;
      let deadline = Engine.now eng + Time.sec 1 in
      while !in_flight > 0 && Engine.now eng < deadline do
        Engine.sleep eng (Time.ms 10)
      done);
  Cluster.run ~until:(Time.sec 60) cl;
  {
    Amoeba_loadgen.Saturation.m_p99_ms =
      percentile_incl hist ~attempted:!attempted 99.0;
    m_completion =
      float_of_int !completed /. float_of_int (max 1 !attempted);
    m_throughput = float_of_int !completed /. Time.to_sec window;
  }
