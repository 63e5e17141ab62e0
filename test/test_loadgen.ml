(* Tests for the load-generation subsystem: the log-bucketed latency
   histogram (merge associativity, bounded relative error), the value-
   size and key-popularity distributions, the YCSB mix sampler, the
   SLO-driven saturation search, the driver's determinism and its
   closed-loop drain, and the BENCH_loadgen.json schema check. *)

open Amoeba_loadgen
module Keygen = Amoeba_service.Keygen

(* ---------- histogram ---------- *)

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

let floats_gen = QCheck.(list_of_size Gen.(int_range 0 200) (pos_float))

(* Keep generated latencies inside the histogram's full-resolution
   range [1e-3 .. 1e7] ms; the error bound is only promised there. *)
let clamp_ms x =
  let x = Float.abs x in
  Float.max 0.01 (Float.min 1.0e6 (if Float.is_nan x then 1.0 else x))

let prop_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative and exact" ~count:50
    QCheck.(triple floats_gen floats_gen floats_gen)
    (fun (xs, ys, zs) ->
      let xs = List.map clamp_ms xs
      and ys = List.map clamp_ms ys
      and zs = List.map clamp_ms zs in
      let a = hist_of xs and b = hist_of ys and c = hist_of zs in
      let l = Histogram.merge (Histogram.merge a b) c in
      let r = Histogram.merge a (Histogram.merge b c) in
      Histogram.buckets l = Histogram.buckets r
      && Histogram.count l = List.length xs + List.length ys + List.length zs
      && (Histogram.count l = 0
         || Histogram.min_value l = Histogram.min_value r
            && Histogram.max_value l = Histogram.max_value r
            && Histogram.mean l = Histogram.mean r))

let exact_percentile sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
  sorted.(rank - 1)

let prop_percentile_error =
  QCheck.Test.make
    ~name:"histogram percentiles are within one bucket of exact" ~count:100
    floats_gen
    (fun xs ->
      let xs = List.map clamp_ms xs in
      match xs with
      | [] -> true
      | _ ->
          let h = hist_of xs in
          let sorted = Array.of_list (List.sort compare xs) in
          let gamma = Histogram.gamma h in
          List.for_all
            (fun p ->
              let approx = Histogram.percentile h p in
              let exact = exact_percentile sorted p in
              (* The bucket's upper edge over-reports by at most a
                 factor gamma; clamping to [min, max] never makes it
                 worse. *)
              approx >= exact *. 0.999999 && approx <= (exact *. gamma) +. 1e-9)
            [ 1.0; 50.0; 90.0; 95.0; 99.0; 100.0 ])

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Histogram.mean h));
  Alcotest.(check bool)
    "percentile nan" true
    (Float.is_nan (Histogram.percentile h 99.0))

let test_histogram_gamma_mismatch () =
  let a = Histogram.create ~gamma:1.02 () in
  let b = Histogram.create ~gamma:1.05 () in
  Alcotest.check_raises "merge rejects mixed gammas"
    (Invalid_argument "Histogram.merge: gamma mismatch") (fun () ->
      ignore (Histogram.merge a b))

(* ---------- value-size distributions ---------- *)

let test_dist_parse () =
  let rt s =
    match Dist.of_string s with
    | Ok d -> Alcotest.(check string) ("round-trip " ^ s) s (Dist.to_string d)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  rt "fixed:32";
  rt "uniform:16:256";
  List.iter
    (fun s ->
      match Dist.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      "";
      "fixed";
      "fixed:x";
      "uniform:9";
      "gauss:3";
      (* values no run can carry *)
      "fixed:1048577";
      "uniform:1:1073741824";
      "lognormal:1:20";
    ]

let test_dist_draw_ranges () =
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "fixed" 32 (Dist.draw (Dist.Fixed 32) rng);
    let u = Dist.draw (Dist.Uniform (16, 256)) rng in
    if u < 16 || u > 256 then Alcotest.failf "uniform out of range: %d" u;
    let l = Dist.draw (Dist.Lognormal (64.0, 1.0)) rng in
    if l < 1 then Alcotest.failf "lognormal < 1: %d" l
  done

let test_dist_lognormal_median () =
  (* The sample median of a lognormal is its [median] parameter. *)
  let rng = Random.State.make [| 7 |] in
  let n = 20_000 in
  let xs =
    Array.init n (fun _ -> Dist.draw (Dist.Lognormal (64.0, 1.0)) rng)
  in
  Array.sort compare xs;
  let med = float_of_int xs.(n / 2) in
  if med < 55.0 || med > 75.0 then
    Alcotest.failf "lognormal sample median %.1f far from 64" med

(* ---------- mixes ---------- *)

let test_mix_ratios () =
  let rng = Random.State.make [| 3 |] in
  let n = 50_000 in
  let count mix kind =
    let c = ref 0 in
    let rng = Random.State.copy rng in
    for _ = 1 to n do
      if Mix.draw mix rng = kind then incr c
    done;
    float_of_int !c /. float_of_int n
  in
  let near what want got =
    if Float.abs (got -. want) > 0.02 then
      Alcotest.failf "%s: wanted %.3f got %.3f" what want got
  in
  near "ycsb-b reads" 0.95 (count Mix.ycsb_b Mix.Read);
  near "ycsb-c reads" 1.0 (count Mix.ycsb_c Mix.Read);
  near "ycsb-d inserts" 0.05 (count Mix.ycsb_d Mix.Insert);
  let m = Mix.with_txn Mix.ycsb_a ~size_hint:3 0.2 in
  near "txn share" 0.2 (count m Mix.Txn);
  near "reads untouched" 0.5 (count m Mix.Read)

let test_mix_with_txn_overflow () =
  (* ycsb-d has 0.95 reads + 0.05 inserts and no update share; 0.98
     exceeds everything with_txn may take from. *)
  match Mix.with_txn Mix.ycsb_d ~size_hint:3 0.98 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "with_txn must reject ratio > available mass"

(* ---------- key-popularity shapes (shared Keygen) ---------- *)

let freqs gen rng keys n =
  let hits = Array.make keys 0 in
  for _ = 1 to n do
    let k = Keygen.sample gen rng in
    if k < keys then hits.(k) <- hits.(k) + 1
  done;
  hits

let test_zipf_shape () =
  let keys = 1_000 in
  let gen = Keygen.create ~keys (Keygen.Zipf 0.99) in
  let rng = Random.State.make [| 5 |] in
  let hits = freqs gen rng keys 50_000 in
  (* Zipf 0.99: key 0 draws ~13 % of the mass; a uniform sampler
     would give every key 0.1 %. *)
  if hits.(0) < 20 * hits.(500) then
    Alcotest.failf "zipf head not hot: hits(0)=%d hits(500)=%d" hits.(0)
      hits.(500);
  let head = Array.sub hits 0 10 and tail = Array.sub hits 500 10 in
  let sum a = Array.fold_left ( + ) 0 a in
  if sum head <= 5 * sum tail then
    Alcotest.failf "zipf mass not front-loaded: head=%d tail=%d" (sum head)
      (sum tail)

let test_latest_follows_frontier () =
  let keys = 100 in
  let gen = Keygen.create ~keys (Keygen.Latest 0.99) in
  let rng = Random.State.make [| 9 |] in
  (* Advance the frontier by 50 inserts; samples must now concentrate
     on the newly inserted keys, newest first. *)
  for _ = 1 to 50 do
    ignore (Keygen.insert gen)
  done;
  Alcotest.(check int) "frontier" 150 (Keygen.frontier gen);
  let hits = freqs gen rng 150 20_000 in
  let newest = Array.sub hits 140 10 and oldest = Array.sub hits 0 10 in
  let sum a = Array.fold_left ( + ) 0 a in
  if sum newest <= 5 * sum oldest then
    Alcotest.failf "latest not frontier-hot: newest=%d oldest=%d" (sum newest)
      (sum oldest)

let test_keygen_deterministic () =
  let draw seed =
    let gen = Keygen.create ~keys:500 (Keygen.Zipf 0.99) in
    let rng = Random.State.make [| seed |] in
    List.init 100 (fun _ -> Keygen.sample gen rng)
  in
  Alcotest.(check (list int)) "same seed, same stream" (draw 4) (draw 4);
  if draw 4 = draw 5 then Alcotest.fail "different seeds should diverge"

(* ---------- saturation search ---------- *)

(* A pure synthetic service: p99 rises linearly with rate, so the SLO
   knee is exactly slo * 100 ops/s. *)
let linear_service rate =
  {
    Saturation.m_p99_ms = rate /. 100.0;
    m_completion = 1.0;
    m_throughput = rate;
  }

let slo = { Saturation.p99_ms = 50.0; min_completion = 0.95 }

let test_saturation_brackets_knee () =
  let o =
    Saturation.search ~lo:50.0 ~tol:0.05 ~max_probes:40 ~slo linear_service
  in
  Alcotest.(check bool) "converged" true o.Saturation.converged;
  (* The true knee is 5000; a converged search returns a passing rate
     within one tolerance step below it. *)
  if o.Saturation.knee > 5_000.0 || o.Saturation.knee < 5_000.0 /. 1.05 then
    Alcotest.failf "knee %.1f outside [%.1f, 5000]" o.Saturation.knee
      (5_000.0 /. 1.05);
  List.iter
    (fun (p : Saturation.probe) ->
      Alcotest.(check bool)
        "pass iff under SLO"
        (p.Saturation.rate <= 5_000.0)
        p.Saturation.pass)
    o.Saturation.probes

let test_saturation_floor_fail () =
  let o =
    Saturation.search ~lo:50.0 ~slo (fun _ ->
        { Saturation.m_p99_ms = nan; m_completion = 0.0; m_throughput = 0.0 })
  in
  Alcotest.(check bool) "not converged" false o.Saturation.converged;
  Alcotest.(check (float 0.0)) "knee 0" 0.0 o.Saturation.knee;
  Alcotest.(check int) "one probe" 1 (List.length o.Saturation.probes)

let test_saturation_deterministic () =
  let run () =
    let o =
      Saturation.search ~lo:50.0 ~tol:0.05 ~max_probes:40 ~slo linear_service
    in
    List.map (fun (p : Saturation.probe) -> p.Saturation.rate)
      o.Saturation.probes
  in
  Alcotest.(check (list (float 0.0))) "same probe sequence" (run ()) (run ())

(* ---------- driver determinism (tiny real trial) ---------- *)

let tiny_config =
  {
    Driver.default with
    Driver.hosts = 4;
    routers = 2;
    mix = Mix.with_txn Mix.ycsb_a ~size_hint:3 0.1;
    keys = 100;
    duration = Amoeba_sim.Time.ms 300;
    warmup = Amoeba_sim.Time.ms 100;
  }

let test_driver_deterministic () =
  let t1 = Driver.run tiny_config ~rate:400.0 in
  let t2 = Driver.run tiny_config ~rate:400.0 in
  Alcotest.(check int) "attempted" t1.Driver.attempted t2.Driver.attempted;
  Alcotest.(check int) "completed" t1.Driver.completed t2.Driver.completed;
  Alcotest.(check (float 0.0)) "p99" t1.Driver.p99_ms t2.Driver.p99_ms;
  Alcotest.(check (float 0.0)) "mean" t1.Driver.mean_ms t2.Driver.mean_ms;
  if t1.Driver.completed = 0 then Alcotest.fail "trial completed nothing";
  if t1.Driver.txns = 0 then Alcotest.fail "mix should have produced txns"

(* A transaction whose reads miss its own writes counts as failed, so
   a load run shows the defect durable replicas had: their appliers lag
   the stream by a WAL append per update, and a read answered from
   whatever they had applied missed the round's writes.  Half the ops
   are read-modify-write transactions over 50 keys; none may fail. *)
let test_driver_durable_txns () =
  let cfg =
    {
      tiny_config with
      Driver.replication = 3;
      mix = Mix.with_txn Mix.ycsb_a ~size_hint:3 0.5;
      keys = 50;
    }
  in
  let durable =
    {
      Amoeba_service.Service.d_store = Amoeba_grouplib.Stable_store.create ();
      d_sync = Amoeba_grouplib.Rsm.Group_fsync 8;
      d_checkpoint_every = 64;
    }
  in
  let t =
    Driver.bring_up ~disk:Amoeba_net.Cost_model.ssd ~durable cfg (fun d ->
        Driver.drive d (Driver.Open 1_000.0))
  in
  Alcotest.(check int) "failed ops" 0 t.Driver.failed;
  if t.Driver.txns = 0 then Alcotest.fail "mix should have produced txns"

(* A closed-loop trial returns only once every client's last op has:
   with every replica host dead when the window opens, each op fails
   only once its router attempts run out, and 512 clients queue behind
   the router's 4 workers, so the drain runs past a minute.  The trial
   still comes back, with every op accounted. *)
let test_closed_drain_outlasts_a_minute () =
  let cfg =
    {
      Driver.default with
      Driver.hosts = 2;
      routers = 1;
      max_batch = 1;
      keys = 50;
      duration = Amoeba_sim.Time.ms 500;
      warmup = Amoeba_sim.Time.zero;
    }
  in
  let t, ended =
    Driver.bring_up cfg (fun d ->
        let cl = d.Driver.cluster in
        List.iter
          (fun h -> Amoeba_net.Machine.crash (Amoeba_harness.Cluster.machine cl h))
          [ 0; 1 ];
        let t = Driver.drive d (Driver.Closed 512) in
        (t, Amoeba_harness.Cluster.now cl))
  in
  Alcotest.(check bool) "drain outlasted a minute" true
    (ended > Amoeba_sim.Time.sec 60);
  Alcotest.(check int) "one op per client" 512 t.Driver.attempted;
  Alcotest.(check int) "every op accounted" t.Driver.attempted
    (t.Driver.completed + t.Driver.failed)

(* ---------- BENCH_loadgen.json schema ---------- *)

let sample_rows params =
  [
    {
      Report.shards = 1;
      hosts = 4;
      routers = 2;
      net = "ether";
      outcome =
        Saturation.search ~lo:50.0 ~tol:0.1 ~max_probes:20
          ~slo:params.Report.slo linear_service;
    };
  ]

let test_report_schema_ok () =
  let params = Report.default_params ~smoke:true in
  match Report.validate (Report.to_json params (sample_rows params)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid document rejected: %s" e

let drop_field name = function
  | Bench_json.Obj fields ->
      Bench_json.Obj (List.filter (fun (n, _) -> n <> name) fields)
  | j -> j

let test_report_schema_missing_fields () =
  let params = Report.default_params ~smoke:true in
  let doc = Report.to_json params (sample_rows params) in
  let expect_error what doc =
    match Report.validate doc with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s should fail the schema check" what
  in
  expect_error "missing schema tag" (drop_field "schema" doc);
  expect_error "missing rows" (drop_field "rows" doc);
  expect_error "missing slo" (drop_field "slo_p99_ms" doc);
  (match doc with
  | Bench_json.Obj fields ->
      let broken =
        List.map
          (fun (n, v) ->
            if n <> "rows" then (n, v)
            else
              match v with
              | Bench_json.List rows ->
                  (n, Bench_json.List (List.map (drop_field "converged") rows))
              | v -> (n, v))
          fields
      in
      expect_error "row missing converged" (Bench_json.Obj broken)
  | _ -> Alcotest.fail "to_json did not return an object");
  expect_error "not an object" (Bench_json.List [])

let suite =
  ( "loadgen",
    [
      QCheck_alcotest.to_alcotest prop_merge_associative;
      QCheck_alcotest.to_alcotest prop_percentile_error;
      Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
      Alcotest.test_case "histogram: gamma mismatch" `Quick
        test_histogram_gamma_mismatch;
      Alcotest.test_case "dist: parse round-trip" `Quick test_dist_parse;
      Alcotest.test_case "dist: draw ranges" `Quick test_dist_draw_ranges;
      Alcotest.test_case "dist: lognormal median" `Quick
        test_dist_lognormal_median;
      Alcotest.test_case "mix: sampled ratios" `Quick test_mix_ratios;
      Alcotest.test_case "mix: with_txn overflow" `Quick
        test_mix_with_txn_overflow;
      Alcotest.test_case "keygen: zipf shape" `Quick test_zipf_shape;
      Alcotest.test_case "keygen: latest follows frontier" `Quick
        test_latest_follows_frontier;
      Alcotest.test_case "keygen: deterministic" `Quick
        test_keygen_deterministic;
      Alcotest.test_case "saturation: brackets the knee" `Quick
        test_saturation_brackets_knee;
      Alcotest.test_case "saturation: floor fail" `Quick
        test_saturation_floor_fail;
      Alcotest.test_case "saturation: deterministic" `Quick
        test_saturation_deterministic;
      Alcotest.test_case "driver: deterministic trial" `Slow
        test_driver_deterministic;
      Alcotest.test_case "driver: durable txns read their own writes" `Slow
        test_driver_durable_txns;
      Alcotest.test_case "driver: closed loop outlasts a minute's drain"
        `Slow test_closed_drain_outlasts_a_minute;
      Alcotest.test_case "report: schema accepts valid" `Quick
        test_report_schema_ok;
      Alcotest.test_case "report: schema rejects missing fields" `Quick
        test_report_schema_missing_fields;
    ] )
