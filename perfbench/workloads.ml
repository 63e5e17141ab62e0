(* The four workloads, frozen: configs, fixed rates and knee-search
   budgets.  Why each exists is in README.md. *)

open Amoeba_sim
module Mix = Amoeba_loadgen.Mix
module Dist = Amoeba_loadgen.Dist
module Saturation = Amoeba_loadgen.Saturation

let slo = { Saturation.p99_ms = 50.0; min_completion = 0.99 }

type knee = { lo : float; tol : float; max_probes : int }

type kv_workload = {
  cfg : Kv_bench.config;
  rate : float;  (** the fixed offered rate of the measured trials *)
  trials : int;
      (** independent trials per repetition, from seeds derived from the
          workload seed, pooled into one set of figures *)
  knee : knee;
  probe : Kv_bench.config;  (** the config each knee probe runs *)
  probe_trials : int;  (** trials pooled into one knee probe *)
}

let net s =
  match Amoeba_net.Medium.net_of_string s with
  | Ok n -> n
  | Error e -> failwith e

(* 16 shards x replication 3 over 48 hosts + 4 routers on the 100 Mbit
   switch, durable replicas: sequencer rounds, router batching, switch
   multicast, WAL and fsync all carry load. *)
let write_scale =
  let cfg =
    {
      Kv_bench.shards = 16;
      hosts = 48;
      routers = 4;
      replication = 3;
      wire_mbps = 100;
      net = net "switch";
      mix = Mix.with_txn Mix.ycsb_a ~size_hint:3 0.05;
      keys = 1_000;
      value_dist = Dist.Fixed 32;
      txn_size = 3;
      durable = true;
      max_batch = 32;
      batch_delay_us = 500;
      pipeline_depth = 4;
      warmup = Time.sec 2;
      window = Time.sec 5;
      crash = false;
    }
  in
  {
    cfg;
    rate = 4_000.0;
    trials = 1;
    knee = { lo = 2_000.0; tol = 0.05; max_probes = 8 };
    probe = { cfg with window = Time.sec 3 };
    probe_trials = 1;
  }

(* 4 shards x replication 2 over 8 hosts + 4 routers on the shared
   100 Mbit Ether with frames delayed by up to 500 us (reordering),
   YCSB-B: the same router, RPC and KV code, mostly local reads, and a
   few writes that the kernel must order under reordering.  The stock
   3 ms [reorder] profile is not measurable (README.md). *)
let reordering_ether =
  (Amoeba_net.Medium.Shared, { Amoeba_net.Medium.clean with jitter_ns = Time.us 500 })

let read_hostile =
  let cfg =
    {
      write_scale.cfg with
      shards = 4;
      hosts = 8;
      replication = 2;
      net = reordering_ether;
      mix = Mix.ycsb_b;
      durable = false;
      window = Time.sec 10;
    }
  in
  {
    cfg;
    rate = 2_000.0;
    trials = 1;
    knee = { lo = 6_000.0; tol = 0.05; max_probes = 8 };
    probe = { cfg with window = Time.sec 3 };
    probe_trials = 1;
  }

(* 4 shards x replication 3 over 8 hosts + 4 routers on a clean
   100 Mbit Ether, YCSB-A, and the hot shard's sequencer host crashes
   halfway through the window: failure detection, auto-heal
   re-election and router failover. *)
let failover =
  let cfg =
    {
      read_hostile.cfg with
      replication = 3;
      net = net "ether";
      mix = Mix.ycsb_a;
      window = Time.sec 5;
      crash = true;
    }
  in
  {
    cfg;
    rate = 2_000.0;
    trials = 24;
    knee = { lo = 1_000.0; tol = 0.05; max_probes = 8 };
    probe = { cfg with window = Time.sec 20; crash = false };
    probe_trials = 1;
  }

let group_knee = { lo = 300.0; tol = 0.05; max_probes = 8 }

let group_samples = 2_000

let workloads =
  [
    ("paper-group", None);
    ("kv-write-scale", Some write_scale);
    ("kv-read-hostile", Some read_hostile);
    ("kv-failover", Some failover);
  ]

