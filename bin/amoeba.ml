(* A command-line explorer for the simulated Amoeba group system:
   point measurements, protocol traces and the cost model, without
   editing any benchmark code.

     amoeba delay --members 8 --size 1024 --method bb
     amoeba throughput --senders 16 --resilience 2
     amoeba multigroup --groups 5 --members 2
     amoeba trace
     amoeba costs *)

open Cmdliner
open Amoeba_harness
module T = Amoeba_core.Types
module E = Experiments

(* Checked converters: an out-of-range value is a usage error (exit
   124) where it is parsed, not an exception from deep inside a run. *)
let checked what ok conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let count = checked "an integer >= 1" (fun n -> n >= 1) Arg.int
let nat = checked "an integer >= 0" (fun n -> n >= 0) Arg.int

let positive =
  checked "a finite number > 0" (fun x -> Float.is_finite x && x > 0.) Arg.float

(* Every open-loop arrival is a simulated fiber, so an offered rate
   must be finite; a million ops per simulated second is already a
   thousand times what the paper's wire carries. *)
let rate =
  checked "a rate in (0, 1e6]" (fun x -> x > 0. && x <= 1e6) Arg.float

let ratio = checked "a number in [0,1]" (fun x -> x >= 0. && x <= 1.) Arg.float

let opt c default name doc = Arg.(value & opt c default & info [ name ] ~doc)
let flag name doc = Arg.(value & flag & info [ name ] ~doc)

(* A converter from a module's own [of_string] / [to_string] pair. *)
let string_conv of_string to_string =
  Arg.conv' (of_string, fun fmt v -> Format.pp_print_string fmt (to_string v))

(* --net takes a '+'-separated spec: each component is either a fabric
   (ether | shared | switch | switch:SxH[@U]) or a condition profile.
   The profile table lives in {!Amoeba_net.Medium.condition_profiles},
   so the CLI, the adversarial swarm test and the loadgen sweep share
   one notion of what e.g. "bursty" means. *)
let net_conv =
  string_conv Amoeba_net.Medium.net_of_string Amoeba_net.Medium.net_to_string

let net_opt default =
  Arg.(
    value
    & opt net_conv default
    & info [ "net" ]
        ~doc:
          "Fabric and/or link conditions, '+'-separated.  Fabric: ether \
           (shared CSMA/CD wire, default), switch (one full-duplex \
           switch), or switch:SxH\xc2\xa0/\xc2\xa0switch:SxH@U (S segments of H \
           ports, uplink U-times oversubscribed).  Conditions: clean, \
           bursty-light, bursty, bursty-heavy (Gilbert\xe2\x80\x93Elliott \
           loss), dup, reorder (delivery jitter), corrupt, or adversarial \
           (all of them, moderate).  Example: switch:2x48@10+bursty.")

let net_t = net_opt (Amoeba_net.Medium.Shared, Amoeba_net.Impair.clean)

let disk_t =
  Arg.(
    value
    & opt (some (enum Amoeba_net.Cost_model.disk_profiles)) None
    & info [ "disk" ]
        ~doc:
          "Give every machine a local disk with this timing profile \
           (hdd1996, hdd, ssd, nvme) and turn on durable mode: committed \
           work is WAL-logged and survives restarts.  Without it nothing \
           touches a disk and all simulated figures are unchanged.")

let members_t =
  Arg.(value & opt count 8 & info [ "m"; "members" ] ~doc:"Group size.")

let size_t =
  Arg.(value & opt int 0 & info [ "s"; "size" ] ~doc:"Message size in bytes.")

let method_t =
  opt
    (Arg.enum [ ("pb", T.Pb); ("bb", T.Bb); ("auto", T.Auto) ])
    T.Pb "method" "pb, bb or auto."

let resilience_t =
  Arg.(value & opt nat 0 & info [ "r"; "resilience" ] ~doc:"Resilience degree.")

let delay_cmd =
  let run members size method_ r (fabric, net) =
    let d =
      E.broadcast_delay ~samples:20 ~resilience:r ~fabric ~net ~n:members ~size
        ~send_method:method_ ()
    in
    Printf.printf
      "SendToGroup delay, %d members, %d bytes, r=%d: mean %.2f ms (min %.2f, max %.2f, %d samples)\n"
      members size r d.E.mean_ms d.E.min_ms d.E.max_ms d.E.samples
  in
  Cmd.v (Cmd.info "delay" ~doc:"Measure broadcast delay (paper Figs 1/3/7).")
    Term.(const run $ members_t $ size_t $ method_t $ resilience_t $ net_t)

let throughput_cmd =
  let senders_t =
    Arg.(value & opt count 8 & info [ "senders" ] ~doc:"Senders (= group size).")
  in
  let duration_t =
    Arg.(value & opt int 2000 & info [ "duration" ] ~doc:"Simulated ms.")
  in
  let run senders size method_ r duration =
    let t =
      E.group_throughput ~duration_ms:duration ~resilience:r ~n:senders ~size
        ~send_method:method_ ()
    in
    Printf.printf
      "throughput, %d senders, %d bytes, r=%d: %.0f msg/s (%d ring drops, %d retransmissions)%s\n"
      senders size r t.E.msgs_per_sec t.E.rx_dropped t.E.retransmissions
      (if t.E.meaningful then "" else "  [NOT MEANINGFUL: retransmission-bound]")
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Measure group throughput (paper Figs 4/5/8).")
    Term.(const run $ senders_t $ size_t $ method_t $ resilience_t $ duration_t)

let multigroup_cmd =
  let groups_t = opt count 5 "groups" "Groups." in
  let run groups members =
    let r = E.multigroup_throughput ~groups ~members () in
    Printf.printf
      "%d groups x %d members: %.0f msg/s total, %.0f%% Ethernet utilisation, %d collisions\n"
      groups members r.E.total_msgs_per_sec
      (100. *. r.E.ether_utilisation)
      r.E.collisions
  in
  Cmd.v
    (Cmd.info "multigroup" ~doc:"Disjoint groups on one Ethernet (paper Fig 6).")
    Term.(const run $ groups_t $ members_t)

let trace_cmd =
  let run () =
    let layers, total = E.critical_path () in
    print_endline "critical path of one 0-byte SendToGroup (group of 2, PB):";
    List.iter (fun (l, us) -> Printf.printf "  %-8s %7.0f us\n" l us) layers;
    Printf.printf "  %-8s %7.0f us (measured end to end)\n" "total" total;
    Printf.printf "  (paper Table 3: total 2740 us, group layer 740 us)\n"
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Per-layer critical path (paper Fig 2 / Table 3).")
    Term.(const run $ const ())

let costs_cmd =
  let run () =
    let c = Amoeba_net.Cost_model.default in
    print_endline "simulated testbed (20-MHz MC68030, Lance, 10 Mbit/s Ethernet):";
    let row name v = Printf.printf "  %-22s %8d ns\n" name v in
    row "interrupt" c.interrupt_ns;
    row "driver tx / rx" c.driver_tx_ns;
    row "copy (per byte)" c.copy_ns_per_byte;
    row "context switch" c.context_switch_ns;
    row "flip tx / rx" c.flip_tx_ns;
    row "group send" c.group_send_ns;
    row "group sequencer" c.group_seq_ns;
    row "  + per member" c.group_seq_member_ns;
    row "group deliver" c.group_deliver_ns;
    Printf.printf "  %-22s %8d bytes\n" "header stack"
      (Amoeba_net.Cost_model.headers_total c);
    Printf.printf "  %-22s %8d frames\n" "lance rx ring" c.rx_ring_frames;
    Printf.printf "  %-22s %8d messages\n" "history buffer" c.history_buffer
  in
  Cmd.v (Cmd.info "costs" ~doc:"Print the calibrated cost model.")
    Term.(const run $ const ())

let rpc_cmd =
  let run () =
    Printf.printf "null RPC: %.2f ms (paper: 2.8)\n" (E.null_rpc_delay_ms ())
  in
  Cmd.v (Cmd.info "rpc" ~doc:"Measure the null RPC baseline.")
    Term.(const run $ const ())

let chaos_cmd =
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Schedule/workload seed.")
  in
  let chaos_members_t =
    Arg.(value & opt count 4 & info [ "m"; "members" ] ~doc:"Group size.")
  in
  let msgs_t =
    Arg.(value & opt int 4 & info [ "msgs" ] ~doc:"Messages per member.")
  in
  let schedule_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ]
          ~doc:
            "Explicit fault schedule (the format printed by a run), \
             overriding the seed-derived one.")
  in
  let chaos_groups_t =
    Arg.(
      value & opt count 1
      & info [ "groups" ]
          ~doc:
            "Concurrent groups sharing the wire (sequencers spread over \
             machines); invariants are checked independently per group.")
  in
  let chaos_pipeline_t =
    Arg.(
      value & opt int 1
      & info [ "pipeline" ]
          ~doc:"Sequencer rounds each kernel keeps in flight (1 = lock-step).")
  in
  let ops_per_send_t =
    Arg.(
      value & opt int 1
      & info [ "ops-per-send" ]
          ~doc:
            "Declare every send as a batch of this many client ops to the \
             kernel's cost accounting.")
  in
  let run seed members groups r method_ msgs schedule (fabric, net) disk
      pipeline ops_per_send =
    let schedule =
      match (schedule, disk) with
      | Some s, _ -> Some (Fault.of_string s)
      | None, Some _ ->
          (* Durable mode widens the seeded generator to draw one
             whole-cluster power cycle on top of the base schedule. *)
          Some (Fault.random ~seed ~n:members ~power_cycles:true ())
      | None, None -> None
    in
    let o =
      Chaos.run ~n:members ~groups ~resilience:r ~send_method:method_ ~msgs
        ?schedule ~net ~fabric ~pipeline ~ops_per_send ?disk ~seed ()
    in
    Chaos.print_report o;
    if not (Chaos.ok o) then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay a seeded fault-injection run and check the total-order, \
          delivery, durability, incarnation and (with --disk) \
          durable-recovery invariants.")
    Term.(
      const run $ seed_t $ chaos_members_t $ chaos_groups_t $ resilience_t
      $ method_t $ msgs_t $ schedule_t $ net_t $ disk_t $ chaos_pipeline_t
      $ ops_per_send_t)

(* ----- the sharded service layer ----- *)

module D = Amoeba_loadgen.Driver
module F = Amoeba_loadgen.Fault_runner

(* The one description of a service run: each flag sets one field of
   a {!D.config}, and each command passes in its own defaults. *)
let scenario_t (d : D.config) =
  let make shards hosts routers replication wire_mbps net max_batch
      pipeline_depth keys value_dist duration warmup seed =
    if replication > hosts then
      Error
        (Printf.sprintf "--replication %d needs at least %d --hosts, not %d"
           replication replication hosts)
    else
      Ok
        {
          d with
          D.shards;
          hosts;
          routers;
          replication;
          wire_mbps;
          net;
          max_batch;
          pipeline_depth;
          keys;
          value_dist;
          duration = Amoeba_sim.Time.ms duration;
          warmup = Amoeba_sim.Time.ms warmup;
          seed;
        }
  in
  let ms t = t / Amoeba_sim.Time.ms 1 in
  Term.(
    term_result' ~usage:true
      (const make
      $ opt count d.shards "shards"
          "Number of shards, one replicated group each."
      $ opt count d.hosts "hosts"
          "Machines available to host replicas; router machines come extra."
      $ opt count d.routers "routers" "Client machines, one router each."
      $ opt count d.replication "replication"
          "Replicas per shard, at most --hosts."
      $ opt count d.wire_mbps "wire-mbps"
          "Ethernet bit rate in Mbit/s (10 is the paper's testbed).  On the \
           shared 10 Mbit wire the medium itself saturates near 850 ops/s \
           whatever the shard count; 100 makes the machines the bottleneck \
           again, the regime where shards scale."
      $ net_opt d.net
      $ opt count d.max_batch "max-batch"
          "Router-side op batching: ops for one shard are shipped as one \
           RPC, which the replica submits as one sequencer round.  A batch \
           ships once it holds this many ops or the 500 us Nagle timer \
           fires; ops already queued behind it ride along, so a backlog \
           ships whole (1 disables batching)."
      $ opt count d.pipeline_depth "pipeline-depth"
          "Unacknowledged sequencer rounds each replica kernel may keep in \
           flight (1 = the paper's lock-step send)."
      $ opt count d.keys "keys" "Key space size."
      $ opt
          Amoeba_loadgen.Dist.(string_conv of_string to_string)
          d.value_dist "value-dist"
          "Value size distribution: fixed:N, uniform:MIN:MAX, or \
           lognormal:MEDIAN:SIGMA."
      $ opt count (ms d.duration) "duration"
          "Measured window in simulated ms; it starts after --warmup."
      $ opt nat (ms d.warmup) "warmup"
          "Simulated ms of load before the measured window, excluded from \
           every figure.  Closed-loop clients start staggered over it: \
           thousands of first-contact clients unleashed at once starve every \
           CPU, and the group kernels read the stall as member failures.  0 \
           starts the whole herd at t=0."
      $ opt Arg.int d.seed "seed"
          "Simulation seed: the cluster's and the workload's."))

let workload_cmd =
  let read_ratio_t =
    opt ratio 0.0 "read-ratio" "Fraction of reads (0.0 - 1.0)."
  in
  let dist_t =
    opt
      (Arg.enum [ ("uniform", `Uniform); ("zipf", `Zipf); ("latest", `Latest) ])
      `Uniform "dist"
      "Key popularity: uniform, zipf, or latest (YCSB-D's read-latest: a \
       Zipf-distributed offset back from the newest key)."
  in
  let skew_t =
    opt Arg.float 0.99 "skew" "Skew exponent (with --dist zipf or latest)."
  in
  let workers_t =
    opt count 16 "workers" "Closed-loop clients (ignored with --rate)."
  in
  let rate_t =
    opt (Arg.some rate) None "rate" "Open-loop arrival rate (ops per second)."
  in
  let crash_seq_t =
    flag "crash-sequencer"
      "Crash shard 0's sequencer machine halfway through and check the \
       chaos invariants per shard afterwards (requires resilience >= 1 for \
       the durability check).  The group auto-heals while the router keeps \
       serving from the surviving replicas."
  in
  let crash_follower_t =
    flag "crash-follower"
      "Crash shard 0's first follower replica halfway through.  The \
       follower is in the router's serving rotation (sequencer-host \
       endpoints are held in reserve), so this exercises the router's \
       probe/suspect/failover path; invariants are checked per shard \
       afterwards."
  in
  let checkpoint_every_t =
    opt nat 64 "checkpoint-every"
      "With --disk: each replica checkpoints its state and trims the WAL \
       every this many applied updates (0 never checkpoints)."
  in
  let fsync_t =
    let open Amoeba_grouplib.Rsm in
    opt
      (Arg.enum
         [
           ("commit", Every_commit);
           ("group", Group_fsync 8);
           ("checkpoint", Checkpoint_only);
         ])
      (Group_fsync 8) "fsync"
      "With --disk: when a replica fsyncs its WAL.  'commit' syncs every \
       applied update (every acked write survives a power loss), 'group' \
       every 8th (bounded trailing-window loss), 'checkpoint' only at \
       checkpoints."
  in
  let power_cycle_t =
    flag "power-cycle"
      "Requires --disk.  Write sentinel keys a quarter of the way through, \
       power off EVERY server host at the halfway mark, restart them ~275 \
       simulated ms later, recover each shard from the disks of every host \
       that ever held it (a --migrate or --rebalance destination too), \
       repoint the routers, and read the sentinels back.  The streams from \
       before the cut and the recovered service are both judged.  With \
       --fsync commit any acked sentinel lost across the cycle fails the \
       run (exit 1); weaker policies report trailing-window losses without \
       failing."
  in
  let stale_reads_t =
    flag "stale-reads"
      "Routers issue bounded-staleness gets, answered from each replica's \
       last durable checkpoint (the durable frontier) instead of the live \
       state."
  in
  let migrate_t =
    flag "migrate"
      "Live-migrate shard 0 onto fresh hosts a third of the way through, \
       while the workload keeps running: the destinations join the running \
       group (atomic checkpoint + delta state transfer), the sequencer role \
       cuts over view-synchronously and the routers repoint.  Prints the \
       migration window.  Needs enough hosts free of shard 0 replicas to \
       hold a full replica set."
  in
  let rebalance_t =
    flag "rebalance"
      "Start the elastic rebalancer: sample per-shard load every 250 \
       simulated ms, and when one machine's sequencing load exceeds twice \
       the pool mean, live-migrate the hottest shard it sequences onto the \
       coldest fresh hosts.  Pair with --dist zipf, whose hot-key skew is \
       what trips it."
  in
  let json_t =
    flag "json"
      "Also print the measured trial as a JSON object.  The JSON figures \
       read the same warmup-excluded accumulator as the text figures, so \
       the two cannot disagree about warmup exclusion."
  in
  let run (cfg : D.config) r read_ratio dist skew workers rate crash_seq
      crash_follower disk checkpoint_every fsync power_cycle stale_reads
      migrate rebalance json =
    let open Amoeba_service in
    let dist =
      match dist with
      | `Uniform -> Keygen.Uniform
      | `Zipf -> Keygen.Zipf skew
      | `Latest -> Keygen.Latest skew
    in
    let cfg =
      { cfg with D.mix = Amoeba_loadgen.Mix.read_write ~read:read_ratio dist }
    in
    let refuse msg =
      prerr_endline msg;
      exit 2
    in
    if power_cycle && disk = None then
      refuse "--power-cycle needs a disk (pass --disk)";
    if crash_follower && cfg.replication < 2 then
      refuse "--crash-follower needs replication >= 2";
    if migrate && cfg.hosts - cfg.replication < cfg.replication then
      refuse
        (Printf.sprintf
           "--migrate: only %d hosts free of shard 0 replicas, %d needed"
           (cfg.hosts - cfg.replication) cfg.replication);
    (* Fault times are fractions of the whole run, warm-up included;
       the hosts are shard 0's in the deploy placement. *)
    let span = cfg.warmup + cfg.duration in
    let shard0 = Shard_map.replica_hosts (D.placement cfg) 0 in
    let fresh =
      List.filter (fun h -> not (List.mem h shard0)) (List.init cfg.hosts Fun.id)
    in
    let step on at action = if on then [ { F.at; action } ] else [] in
    let plan =
      List.concat
        [
          step power_cycle (span / 4) (F.Sentinels 10);
          step migrate (span / 3)
            (F.Migrate
               {
                 shard = 0;
                 hosts = List.filteri (fun i _ -> i < cfg.replication) fresh;
                 timeout = None;
               });
          step rebalance 0 F.Rebalance;
          step crash_seq (span / 2) (F.Crash (List.hd shard0));
          step crash_follower (span / 2) (F.Crash (List.nth shard0 1));
          step power_cycle (span / 2) F.Power_cycle;
        ]
    in
    let durable =
      Option.map
        (fun _ ->
          {
            Service.d_store = Amoeba_grouplib.Stable_store.create ();
            d_sync = fsync;
            d_checkpoint_every = checkpoint_every;
          })
        disk
    in
    let o =
      F.run ?disk ?durable ~resilience:r ~stale_reads cfg
        (match rate with Some rate -> D.Open rate | None -> D.Closed workers)
        plan
    in
    Format.printf "%a@." F.pp_outcome o;
    Option.iter
      (fun (t, _) ->
        if json then print_string (Bench_json.to_string (D.trial_to_json t)))
      o.F.measured;
    if not (F.ok o) then exit 1
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Drive the sharded service with a measured open- or closed-loop \
          key/value workload (aggregate throughput, latency percentiles).")
    Term.(
      const run
      $ scenario_t
          {
            D.default with
            shards = 4;
            hosts = 8;
            routers = 4;
            replication = 3;
            wire_mbps = 10;
            txn_size = 1;
            duration = Amoeba_sim.Time.ms 5_000;
            warmup = Amoeba_sim.Time.zero;
            seed = 1;
          }
      $ resilience_t $ read_ratio_t $ dist_t $ skew_t $ workers_t $ rate_t
      $ crash_seq_t $ crash_follower_t $ disk_t $ checkpoint_every_t $ fsync_t
      $ power_cycle_t $ stale_reads_t $ migrate_t $ rebalance_t $ json_t)

let migration_chaos_cmd =
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed.")
  in
  let crash_source_t =
    flag "crash-source" "Crash the source sequencer machine mid-migration."
  in
  let crash_dest_t =
    flag "crash-dest" "Crash the destination head machine mid-migration."
  in
  let power_cycle_t =
    flag "power-cycle"
      "Power off every server host mid-migration, restart 275 ms later, \
       recover from the union of old and new replica disks, and read back \
       the pre-migration sentinels (fsync-per-commit: any acked sentinel \
       lost fails the run)."
  in
  let workers_t = opt count 8 "workers" "Closed-loop clients." in
  (* The first 50 ms are warm-up, so a shorter run measures nothing. *)
  let duration_t =
    opt
      (checked "an integer > 50" (fun n -> n > 50) Arg.int)
      1200 "duration" "Simulated ms, the 50 ms warm-up included."
  in
  let run seed net crash_source crash_dest power_cycle workers duration_ms =
    let c =
      { F.seed; net; crash_source; crash_dest; power_cycle; workers; duration_ms }
    in
    print_endline (F.replay_line c);
    let o = F.run_chaos c in
    Format.printf "%a@." F.pp_outcome o;
    if not (F.ok o) then exit 1
  in
  Cmd.v
    (Cmd.info "migration-chaos"
       ~doc:
         "Replay a seeded mid-migration chaos run: live-migrate a shard \
          under a running Zipf workload while crashing the source \
          sequencer, the destination, and/or power-cycling the cluster, \
          then check migration-safety plus the classic invariants.")
    Term.(
      const run $ seed_t $ net_t $ crash_source_t $ crash_dest_t
      $ power_cycle_t $ workers_t $ duration_t)

let loadgen_cmd =
  let module L = Amoeba_loadgen in
  let mix_t =
    opt
      (string_conv L.Mix.of_string (fun m -> m.L.Mix.name))
      L.Mix.ycsb_a "mix"
      "YCSB mix: a (50/50 update-heavy, Zipf), b (95/5 read-mostly, Zipf), \
       c (read-only, Zipf), d (95/5 read-latest + inserts)."
  in
  let txn_ratio_t =
    opt ratio 0.0 "txn-ratio"
      "Fraction of operations issued as multi-key single-shard \
       read-modify-write transactions (taken from the mix's update share \
       first)."
  in
  let txn_size_t = opt count 3 "txn-size" "Keys per multi-key transaction." in
  (* The scenario plus the mix; a transaction share the mix cannot
     give up is a usage error too. *)
  let scenario =
    let with_mix cfg mix txn_ratio txn_size =
      match
        if txn_ratio > 0.0 then L.Mix.with_txn mix ~size_hint:txn_size txn_ratio
        else mix
      with
      | mix -> Ok { cfg with D.mix; txn_size }
      | exception Invalid_argument e -> Error e
    in
    Term.(
      term_result' ~usage:true
        (const with_mix $ scenario_t D.default $ mix_t $ txn_ratio_t
       $ txn_size_t))
  in
  let slo_t =
    opt positive 50.0 "slo-p99-ms" "The SLO: trial p99 must stay under this."
  in
  let min_completion_t =
    opt ratio 0.95 "min-completion" "And completed/attempted must reach this."
  in
  let rate_t =
    opt (Arg.some rate) None "rate"
      "Run one open-loop trial at this offered rate (ops/s) instead of \
       searching for the knee."
  in
  let lo_t =
    opt rate 50.0 "lo" "Floor rate the saturation search starts from."
  in
  let tol_t =
    opt positive 0.08 "tol" "Relative bracket width the search converges to."
  in
  let max_probes_t = opt count 14 "max-probes" "Trial budget for the search." in
  let json_t = flag "json" "Also print the outcome as a JSON object." in
  let run cfg p99_ms min_completion rate lo tol max_probes json =
    match rate with
    | Some rate ->
        let t = D.run cfg ~rate in
        Format.printf "%a@." D.pp_trial t;
        if json then print_string (Bench_json.to_string (D.trial_to_json t))
    | None ->
        let o =
          L.Report.knee
            {
              L.Report.base = cfg;
              slo = { L.Saturation.p99_ms; min_completion };
              lo;
              tol;
              max_probes;
            }
        in
        Format.printf "%a@." L.Saturation.pp_outcome o;
        if json then
          print_string
            (Bench_json.to_string
               (Bench_json.Obj
                  [
                    ("knee_ops_per_sec", Bench_json.Float o.L.Saturation.knee);
                    ( "throughput_at_knee",
                      Bench_json.Float o.L.Saturation.throughput_at_knee );
                    ("probes", Bench_json.Int (List.length o.L.Saturation.probes));
                    ("converged", Bench_json.Bool o.L.Saturation.converged);
                  ]))
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "YCSB-style open-loop load generation: drive a mixed workload at a \
          fixed offered rate, or binary-search the highest rate that meets \
          a tail-latency SLO (the saturation knee).  The shard x fabric \
          sweep is `bench/main.exe loadgen`.")
    Term.(
      const run $ scenario $ slo_t $ min_completion_t $ rate_t $ lo_t $ tol_t
      $ max_probes_t $ json_t)

let main =
  Cmd.group
    (Cmd.info "amoeba" ~version:"1.0"
       ~doc:"Explore the reproduced Amoeba group communication system.")
    [
      delay_cmd;
      throughput_cmd;
      multigroup_cmd;
      trace_cmd;
      costs_cmd;
      rpc_cmd;
      chaos_cmd;
      workload_cmd;
      migration_chaos_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval main)
