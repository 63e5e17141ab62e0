(* Agreement of the benchmark's measurement code with the existing
   measurement code, at the default seed:

   - paper-group's phases, fed the inputs of the Experiments runners
     (fixed 200 µs think time), reproduce [Experiments.broadcast_delay]
     and [Experiments.group_throughput] exactly (n = 16, same
     duration); with the seeded think time the mean delay stays
     within 2 %;
   - kv-read-hostile's fixed-rate trial reproduces
     [Amoeba_loadgen.Driver.run] at the same config and rate in
     attempted, completed, p50 and p99.

   Run with: dune build @perfbench/agree *)

open Amoeba_sim
open Common
module Driver = Amoeba_loadgen.Driver

let failures = ref 0

let check name ok detail =
  Printf.printf "%s %s (%s)\n%!" (if ok then "ok  " else "FAIL") name detail;
  if not ok then incr failures

let paper_group () =
  let samples = 1_000 in
  let d =
    Group_bench.delay ~samples ~think:(Group_bench.Fixed (Time.us 200)) ()
  in
  let e =
    Amoeba_harness.Experiments.broadcast_delay ~samples ~n:Group_bench.n
      ~size:0 ~send_method:Amoeba_core.Types.Pb ()
  in
  check "phase 1 = Experiments.broadcast_delay"
    (Stats.mean d.stats = e.mean_ms
    && Stats.min_value d.stats = e.min_ms
    && Stats.max_value d.stats = e.max_ms
    && Stats.count d.stats = e.samples)
    (Printf.sprintf "mean %.6f vs %.6f ms, %d vs %d samples" (Stats.mean d.stats)
       e.mean_ms (Stats.count d.stats) e.samples);
  let seeded =
    Group_bench.delay ~samples ~think:(Group_bench.Seeded default_seed) ()
  in
  let rel = Float.abs (Stats.mean seeded.stats -. e.mean_ms) /. e.mean_ms in
  check "phase 1 with the seeded think time within 2 % of it" (rel <= 0.02)
    (Printf.sprintf "mean %.6f ms, %.3f %% off" (Stats.mean seeded.stats)
       (100.0 *. rel));
  let t = Group_bench.throughput () in
  let e =
    Amoeba_harness.Experiments.group_throughput
      ~duration_ms:Group_bench.phase2_duration_ms ~n:Group_bench.n ~size:0
      ~send_method:Amoeba_core.Types.Pb ()
  in
  check "phase 2 = Experiments.group_throughput"
    (t.msgs_per_sec = e.msgs_per_sec)
    (Printf.sprintf "%.3f vs %.3f msgs/s" t.msgs_per_sec e.msgs_per_sec)

let read_hostile () =
  let w = Workloads.read_hostile in
  let c = w.cfg in
  let trial = Kv_bench.run c ~seed:default_seed ~rate:w.rate in
  let d =
    Driver.run
      {
        Driver.shards = c.shards;
        hosts = c.hosts;
        routers = c.routers;
        replication = c.replication;
        wire_mbps = c.wire_mbps;
        net = c.net;
        max_batch = c.max_batch;
        batch_delay_us = c.batch_delay_us;
        pipeline_depth = c.pipeline_depth;
        mix = c.mix;
        keys = c.keys;
        value_dist = c.value_dist;
        txn_size = c.txn_size;
        duration = c.window;
        warmup = c.warmup;
        seed = default_seed;
      }
      ~rate:w.rate
  in
  let s = trial.sim in
  let p50 = Histogram.percentile trial.hist 50.0
  and p99 = Histogram.percentile trial.hist 99.0 in
  check "kv-read-hostile trial = Driver.run"
    (s.attempted = d.attempted && s.completed = d.completed && p50 = d.p50_ms
   && p99 = d.p99_ms)
    (Printf.sprintf
       "attempted %d/%d, completed %d/%d, histogram p50 %.4f/%.4f, p99 \
        %.4f/%.4f (exact p50 %.4f, p99 %.4f)"
       s.attempted d.attempted s.completed d.completed p50 d.p50_ms p99 d.p99_ms
       s.p50_ms s.p99_ms)

let () =
  paper_group ();
  read_hostile ();
  if !failures > 0 then begin
    Printf.printf "%d agreement checks failed\n" !failures;
    exit 1
  end
