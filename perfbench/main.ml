(* The benchmark command: one workload, one seed, one result line.

     main.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it prints every end-to-end metric; with --trace 1
   every per-layer metric, from one extra traced run whose simulated
   end-to-end figures must equal the untraced ones.  The fixed-work
   measured phase is repeated until S host seconds have passed (at
   least [min_reps] times) so that the host-time figures are medians;
   every repetition must reproduce the first one's simulated figures
   exactly.  The last stdout line is the JSON result; the exit code is
   1 when an output check fails.  See README.md. *)

open Amoeba_sim
open Common
open Workloads
module Mix = Amoeba_loadgen.Mix
module Dist = Amoeba_loadgen.Dist
module Saturation = Amoeba_loadgen.Saturation

let min_reps = 3

let max_reps = 40

(* Every per-layer metric with its unit, in BENCHMARK.json's order.  A
   workload that cannot observe one through public functions reports
   -1. *)
let per_layer =
  [
    ("sim.events_per_op", "events/op");
    ("sim.host_ns_per_event", "ns");
    ("sim.minor_mwords_per_kop", "Mwords/kop");
    ("sim.major_gcs", "count");
    ("sim.trace_overhead_frac", "fraction");
    ("harness.setup_sim_ms", "ms");
    ("harness.setup_events", "count");
    ("net.cpu_us_per_op", "us");
    ("net.interrupts_per_op", "count/op");
    ("net.router_interrupts_per_op", "count/op");
    ("net.frames_per_op", "frames/op");
    ("net.bytes_per_op", "bytes/op");
    ("net.utilisation", "fraction");
    ("net.collisions_per_op", "count/op");
    ("net.queue_drops", "count");
    ("net.rx_ring_drops", "count");
    ("net.cpu_util_max", "fraction");
    ("net.cpu_util_router_mean", "fraction");
    ("net.cpu_queue_mean_max", "count");
    ("flip.cpu_us_per_op", "us");
    ("flip.dup_fragments", "count");
    ("flip.invalid_fragments", "count");
    ("flip.partial_max", "count");
    ("core.cpu_us_per_op", "us");
    ("core.user_cpu_us_per_op", "us");
    ("core.ops_per_round", "ops");
    ("core.pipeline_hwm", "count");
    ("core.nacks_per_kop", "count/kop");
    ("core.retransmissions_per_kop", "count/kop");
    ("core.reorders_absorbed_per_kop", "count/kop");
    ("core.duplicates_dropped", "count");
    ("core.status_solicitations", "count");
    ("core.view_changes", "count");
    ("core.reelect_ms", "ms");
    ("rpc.cpu_us_per_op", "us");
    ("grouplib.wal_appends_per_op", "count/op");
    ("grouplib.fsyncs_per_kop", "count/kop");
    ("grouplib.checkpoints", "count");
    ("grouplib.disk_util_max", "fraction");
    ("grouplib.disk_queue_mean_max", "count");
    ("service.read_ms_p50", "ms");
    ("service.read_ms_p99", "ms");
    ("service.update_ms_p50", "ms");
    ("service.update_ms_p99", "ms");
    ("service.txn_ms_p50", "ms");
    ("service.txn_ms_p99", "ms");
    ("service.ops_per_batch", "ops");
    ("service.partial_flush_frac", "fraction");
    ("service.retries_per_kop", "count/kop");
    ("service.failovers", "count");
    ("service.probes_dead", "count");
    ("service.redirects", "count");
    ("service.batch_retries", "count");
    ("service.busy_rejections", "count");
    ("service.hot_shard_share", "fraction");
    ("service.reroute_ms", "ms");
    ("loadgen.attempted", "count");
    ("loadgen.completed", "count");
    ("loadgen.gen_late_ms_max", "ms");
    ("loadgen.knee_probes", "count");
  ]

(* ---- reporting ------------------------------------------------------ *)

type report = {
  e2e : (string * float * string) list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  layers : (string * float) list;
}

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let median_by key reps = median (List.map key reps)

let medians_of_layers layer_lists =
  match layer_lists with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          (name, median (List.map (fun ls -> List.assoc name ls) layer_lists)))
        first

(* Repeat [f] for [seconds] host seconds, at least [min_reps] times,
   sampling the host-speed reference three times after each
   repetition.  Each repetition comes with the factor that turns its
   host seconds into reference seconds, from the samples taken during
   and right after it, so drift within a run cancels too.  Also returns
   the peak major heap after the first repetition (the same work on
   every run; the number of repetitions is not). *)
let repeat ~seconds f =
  let t0 = host_now () in
  let timed () =
    let since = List.length !reference_times in
    let r = f () in
    let heap = peak_heap_mb () in
    for _ = 1 to 3 do
      sample_reference ()
    done;
    ((r, host_scale ~since), heap)
  in
  let first, heap = timed () in
  let rec go acc n =
    if n >= max_reps || (n >= min_reps && host_now () -. t0 >= seconds) then
      List.rev acc
    else go (fst (timed ()) :: acc) (n + 1)
  in
  let reps = go [ first ] 1 in
  Printf.printf "host speed: %d reference samples, median %.6f s\n"
    (List.length !reference_times) (median !reference_times);
  (reps, heap)

let print_host name xs =
  Printf.printf "%s, raw host seconds over %d reps: min %.6f, median %.6f, max %.6f\n" name
    (List.length xs)
    (List.fold_left Float.min infinity xs)
    (median xs)
    (List.fold_left Float.max neg_infinity xs)

let search knee measure =
  Saturation.search ~lo:knee.lo ~tol:knee.tol ~max_probes:knee.max_probes ~slo
    measure

let pp_search (o : Saturation.outcome) =
  Printf.printf "knee search: %s, %d probes:"
    (if o.converged then "converged" else "NOT converged")
    (List.length o.probes);
  List.iter
    (fun (p : Saturation.probe) ->
      Printf.printf " %.0f/s %s (p99 %.2f ms, completion %.4f);" p.rate
        (if p.pass then "pass" else "FAIL")
        p.p99_ms p.completion)
    o.probes;
  print_newline ();
  if o.knee = 0.0 then
    print_endline "knee search: even the floor rate misses the SLO; knee = 0"

(* Trial [j] of a repetition: trial 0 runs the workload seed itself,
   the others seeds derived from it. *)
let trial_seed seed j = if j = 0 then seed else Hashtbl.hash (seed, j)

let kv_report (w : kv_workload) ~seed ~seconds ~traced =
  let scaled, heap =
    repeat ~seconds (fun () ->
        List.init w.trials (fun j ->
            let t = Kv_bench.run w.cfg ~seed:(trial_seed seed j) ~rate:w.rate in
            if j < w.trials - 1 then sample_reference ();
            t))
  in
  let reps = List.map fst scaled in
  let first = List.hd reps in
  let sims = List.map (fun (t : Kv_bench.trial) -> t.sim) first in
  let deterministic =
    List.for_all
      (fun rep -> List.map (fun (t : Kv_bench.trial) -> t.sim) rep = sims)
      reps
  in
  let outcome =
    search w.knee (fun rate ->
        Kv_bench.measurement
          (List.init w.probe_trials (fun j ->
               Kv_bench.run w.probe ~seed:(trial_seed seed j) ~rate)))
  in
  pp_search outcome;
  List.iteri
    (fun j s ->
      Printf.printf "trial %d at %.0f ops/s: %s\n" j w.rate
        (Fmt.str "%a" Kv_bench.pp_sim s))
    sims;
  let sum f = List.fold_left (fun a (s : Kv_bench.sim) -> a + f s) 0 sims in
  let attempted = sum (fun s -> s.attempted)
  and completed = sum (fun s -> s.completed) in
  let lat =
    let a = Array.concat (List.map (fun (t : Kv_bench.trial) -> t.lat) first) in
    Array.sort Float.compare a;
    a
  in
  let walls =
    List.map
      (List.fold_left (fun a (t : Kv_bench.trial) -> a +. t.wall_s) 0.0)
      reps
  and setups rep = List.map (fun (t : Kv_bench.trial) -> t.setup_s) rep in
  print_host "wall_s" walls;
  print_host "setup_s" (List.concat_map setups reps);
  let wall = median (List.map2 (fun (_, k) w -> k *. w) scaled walls) in
  let setup =
    median
      (List.concat_map (fun (rep, k) -> List.map (( *. ) k) (setups rep)) scaled)
  in
  let e2e =
    [
      ("knee_ops_per_s", outcome.knee, "ops/s");
      ("p50_ms", exact_percentile_incl lat ~attempted 50.0, "ms");
      ("p99_ms", exact_percentile_incl lat ~attempted 99.0, "ms");
      ( "throughput_ops_per_s",
        float_of_int completed
        /. (float_of_int w.trials *. Time.to_sec w.cfg.window),
        "ops/s" );
      ( "completed_frac",
        float_of_int completed /. float_of_int (max 1 attempted),
        "fraction" );
      ( "outage_ms",
        List.fold_left (fun a (s : Kv_bench.sim) -> a +. s.outage_ms) 0.0 sims
        /. float_of_int w.trials,
        "ms" );
      ("wall_s", wall, "s");
      ("setup_s", setup, "s");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let checks =
    ("every repetition reproduced the same simulated figures", deterministic)
    :: ("p50/p99 rest on >= 1000 samples", completed >= 1000)
    :: List.concat_map (fun (t : Kv_bench.trial) -> t.checks) first
  in
  let checks, layers =
    if not traced then (checks, [])
    else begin
      let t = Kv_bench.run ~traced:true w.cfg ~seed ~rate:w.rate in
      let t0 = List.hd first in
      Printf.printf "traced trial 0: %s\n" (Fmt.str "%a" Kv_bench.pp_sim t.sim);
      let host_layers =
        medians_of_layers
          (List.map (fun rep -> (List.hd rep : Kv_bench.trial).layers) reps)
      in
      let trial0_wall =
        median_by (fun rep -> (List.hd rep : Kv_bench.trial).wall_s) reps
      in
      let unobservable =
        List.map
          (fun n -> (n, -1.0))
          [
            "core.pipeline_hwm"; "core.nacks_per_kop";
            "core.retransmissions_per_kop"; "core.reorders_absorbed_per_kop";
            "core.duplicates_dropped"; "core.status_solicitations";
          ]
      in
      ( checks
        @ [
            ( "traced run reproduces the untraced simulated figures",
              t.sim = t0.sim );
          ]
        @ t.checks,
        host_layers @ t.layers @ unobservable
        @ [
            ("sim.trace_overhead_frac", (t.wall_s -. trial0_wall) /. trial0_wall);
            ("loadgen.knee_probes", float_of_int (List.length outcome.probes));
          ] )
    end
  in
  { e2e; attempted; failed = attempted - completed; checks; layers }

type group_rep = {
  d : Group_bench.delay;
  tp : Group_bench.throughput;
  events : int;
  minor_words : float;
  major_gcs : int;
  host_s : float;
}

let group_rep ?traced ~seed () =
  let gc0 = Gc.quick_stat () and h0 = host_now () in
  let d = Group_bench.delay ?traced ~samples:group_samples
      ~think:(Group_bench.Seeded seed) () in
  let tp = Group_bench.throughput ?traced () in
  let gc1 = Gc.quick_stat () in
  {
    d;
    tp;
    events = d.d_events + tp.t_events;
    minor_words = gc1.minor_words -. gc0.minor_words;
    major_gcs = gc1.major_collections - gc0.major_collections;
    host_s = host_now () -. h0;
  }

let group_sim (r : group_rep) =
  ( Stats.mean r.d.stats,
    exact_percentile_incl r.d.d_lat ~attempted:r.d.d_attempted 50.0,
    exact_percentile_incl r.d.d_lat ~attempted:r.d.d_attempted 99.0,
    r.tp.msgs_per_sec )

let group_report ~seed ~seconds ~traced =
  let scaled, heap = repeat ~seconds (fun () -> group_rep ~seed ()) in
  let reps = List.map fst scaled in
  let first = List.hd reps in
  let d = first.d and tp = first.tp in
  let deterministic =
    List.for_all (fun r -> group_sim r = group_sim first) reps
  in
  let outcome = search group_knee (fun rate -> Group_bench.open_loop ~seed ~rate) in
  pp_search outcome;
  let attempted = d.d_attempted + tp.t_attempted in
  let failed = d.d_failed + tp.t_failed in
  let from_, until = d.d_span in
  Printf.printf
    "phase 1: %d null sends, mean %.4f ms (min %.4f, max %.4f); phase 2: %.1f \
     msgs/s sequenced, %d sends (%d reps)\n"
    (Stats.count d.stats) (Stats.mean d.stats) (Stats.min_value d.stats)
    (Stats.max_value d.stats) tp.msgs_per_sec tp.t_attempted (List.length reps);
  let wall_of r = r.d.d_wall_s +. r.tp.t_wall_s
  and setup_of r = r.d.d_setup_s +. r.tp.t_setup_s in
  print_host "wall_s" (List.map wall_of reps);
  print_host "setup_s" (List.map setup_of reps);
  let scaled_median f = median (List.map (fun (r, k) -> k *. f r) scaled) in
  let e2e =
    [
      ("knee_ops_per_s", outcome.knee, "ops/s");
      ("p50_ms", exact_percentile_incl d.d_lat ~attempted:d.d_attempted 50.0, "ms");
      ("p99_ms", exact_percentile_incl d.d_lat ~attempted:d.d_attempted 99.0, "ms");
      ("throughput_ops_per_s", tp.msgs_per_sec, "ops/s");
      ( "completed_frac",
        float_of_int (attempted - failed) /. float_of_int attempted,
        "fraction" );
      ( "outage_ms",
        responsiveness_ms d.d_writes ~from_ ~until ~points:1000,
        "ms" );
      ("wall_s", scaled_median wall_of, "s");
      ("setup_s", scaled_median setup_of, "s");
      ("peak_heap_mb", heap, "MB");
    ]
  in
  let order_checks (r : group_rep) =
    [
      ( "phase 1: every member delivered the same messages in the same order",
        r.d.d_same_order );
      ( "phase 2: every member delivered the same messages in the same order",
        r.tp.t_same_order );
    ]
  in
  let checks =
    ("every repetition reproduced the same simulated figures", deterministic)
    :: ("p50/p99 rest on >= 1000 samples", Stats.count d.stats >= 1000)
    :: order_checks first
  in
  let checks, layers =
    if not traced then (checks, [])
    else begin
      let t = group_rep ~traced:true ~seed () in
      let ops = float_of_int (first.d.d_attempted + first.tp.t_attempted) in
      let host_layers =
        [
          ( "sim.host_ns_per_event",
            median_by (fun r -> 1e9 *. r.host_s /. float_of_int r.events) reps );
          ( "sim.minor_mwords_per_kop",
            median_by (fun r -> r.minor_words /. 1e6 /. (ops /. 1000.0)) reps );
          ("sim.major_gcs", median_by (fun r -> float_of_int r.major_gcs) reps);
          ("sim.trace_overhead_frac",
           (t.host_s -. median_by (fun r -> r.host_s) reps)
           /. median_by (fun r -> r.host_s) reps);
          ("harness.setup_sim_ms", Time.to_ms t.tp.t_setup_sim);
          ("harness.setup_events", float_of_int t.tp.t_setup_events);
          ("loadgen.attempted", float_of_int attempted);
          ("loadgen.completed", float_of_int (attempted - failed));
          ("loadgen.gen_late_ms_max", 0.0);
          ("loadgen.knee_probes", float_of_int (List.length outcome.probes));
          ("core.reelect_ms", -1.0);
          ("grouplib.wal_appends_per_op", 0.0);
          ("grouplib.fsyncs_per_kop", 0.0);
          ("grouplib.checkpoints", 0.0);
        ]
      in
      let no_service =
        List.filter_map
          (fun n ->
            if String.length n > 8 && String.sub n 0 8 = "service." then
              Some (n, -1.0)
            else None)
          (List.map fst per_layer)
      in
      ( checks
        @ ( "traced run reproduces the untraced simulated figures",
            group_sim t = group_sim first )
          :: order_checks t,
        t.tp.t_layers @ host_layers @ no_service )
    end
  in
  { e2e; attempted; failed; checks; layers }

(* ---- command line --------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (input generators only)");
      ("--seconds", Arg.Set_int seconds, "S host seconds of repeated measurement");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let traced =
    match !trace with
    | 0 -> false
    | 1 -> true
    | _ ->
        prerr_endline "--trace takes 0 or 1";
        exit 2
  in
  let seconds = float_of_int !seconds in
  Printf.printf "perfbench: workload %s, seed %d, %.0f s, trace %d\n%!"
    !workload !seed seconds !trace;
  let r =
    match List.assoc_opt !workload workloads with
    | None ->
        Printf.eprintf "unknown workload %S (%s)\n" !workload
          (String.concat "|" (List.map fst workloads));
        exit 2
    | Some None -> group_report ~seed:!seed ~seconds ~traced
    | Some (Some w) -> kv_report w ~seed:!seed ~seconds ~traced
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-22s %.6g %s\n" name v unit)
    r.e2e;
  Printf.printf "  attempted %d, failed or unfinished %d (failed_frac %.6f)\n"
    r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  let metrics =
    if traced then
      List.map
        (fun (name, unit) ->
          match List.assoc_opt name r.layers with
          | Some v -> (name, (if Float.is_finite v then v else -1.0), unit)
          | None -> failwith ("per-layer metric not measured: " ^ name))
        per_layer
    else
      List.map
        (fun (name, v, unit) ->
          (* JSON has no infinity: >1 % of ops failing reads as 1e9 ms. *)
          (name, (if Float.is_finite v then v else 1e9), unit))
        r.e2e
  in
  (* One line per check; a check repeated per trial passes only if it
     passed every time. *)
  let checks =
    List.fold_left
      (fun acc (name, ok) ->
        match List.assoc_opt name acc with
        | Some ok' -> (name, ok && ok') :: List.remove_assoc name acc
        | None -> (name, ok) :: acc)
      [] r.checks
    |> List.rev
  in
  List.iter
    (fun (name, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") name)
    checks;
  let correct = List.for_all snd checks in
  print_endline
    (result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
  if not correct then exit 1
