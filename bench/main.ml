(* Regenerates every table and figure of the paper's evaluation
   (section 4), plus the ablations DESIGN.md calls out, on the
   simulated testbed: 30 MC68030-class machines on one 10 Mbit/s
   Ethernet.  Absolute numbers are calibrated against the paper's
   anchors; the shapes (who wins, crossovers, saturation points) come
   out of the simulation.

   Usage: main.exe [target ...] [--json] [--smoke]
   Targets: headline fig1 table3 fig3 fig4 fig5 fig6 fig7 fig8
            rpc_compare ablation_cm ablation_migrate ablation_pbbb
            ablation_processing ablation_userspace ablation_history
            ablation_flowcontrol load_latency service batch recovery
            fabric migration loadgen micro
   No arguments runs everything.

   --json   targets that support it (micro, headline, fig1, fig4,
            service, batch, recovery, fabric, migration, loadgen) also
            write a BENCH_<target>.json file (micro writes
            BENCH_sim.json; batch, recovery, fabric and migration
            write their rows into BENCH_service.json); see
            bench/README.md for the schema.
   --smoke  micro, service, batch, recovery, migration and loadgen:
            tiny parameters (and for micro, JSON to stdout instead of
            a file), so CI can exercise the perf plumbing in
            seconds. *)

open Amoeba_net
open Amoeba_harness
module T = Amoeba_core.Types
module E = Experiments

let json_mode = ref false
let smoke_mode = ref false

let json_out name fields =
  if !json_mode then
    Bench_json.write_file ("BENCH_" ^ name ^ ".json")
      (Bench_json.Obj
         (("schema", Bench_json.Str "amoeba-bench/1")
          :: ("suite", Bench_json.Str name)
          :: fields))

let line = String.make 72 '-'

let header title paper_note =
  Printf.printf "\n%s\n%s\n" line title;
  if paper_note <> "" then Printf.printf "paper: %s\n" paper_note;
  Printf.printf "%s\n%!" line

let sizes_delay = [ 0; 1024; 4096; 8000 ]
let member_counts = [ 2; 6; 10; 14; 18; 22; 26; 30 ]

let delay_figure ~send_method =
  Printf.printf "%8s |" "members";
  List.iter (fun s -> Printf.printf " %7dB" s) sizes_delay;
  Printf.printf "   (delay in ms)\n";
  let rows = ref [] in
  List.iter
    (fun n ->
      Printf.printf "%8d |" n;
      List.iter
        (fun size ->
          let r = E.broadcast_delay ~samples:12 ~n ~size ~send_method () in
          rows := (n, size, r.E.mean_ms) :: !rows;
          Printf.printf " %8.2f" r.E.mean_ms)
        sizes_delay;
      print_newline ())
    member_counts;
  List.rev !rows

let delay_rows_json rows =
  Bench_json.List
    (List.map
       (fun (n, size, ms) ->
         Bench_json.Obj
           [ ("members", Bench_json.Int n); ("size", Bench_json.Int size);
             ("mean_ms", Bench_json.Float ms) ])
       rows)

let fig1 () =
  header "Figure 1: delay for 1 sender, PB method (r = 0)"
    "0B: 2.7 ms at n=2, 2.8 ms at n=30; 8000B adds ~20 ms";
  let rows = delay_figure ~send_method:T.Pb in
  json_out "fig1" [ ("rows", delay_rows_json rows) ]

let fig3 () =
  header "Figure 3: delay for 1 sender, BB method (r = 0)"
    "0B similar to PB; large messages dramatically better (one wire crossing)";
  ignore (delay_figure ~send_method:T.Bb)

let table3 () =
  header "Figure 2 / Table 3: critical path of one 0-byte SendToGroup (group of 2, PB)"
    "total 2740 us, of which the group protocol costs 740 us";
  let layers, total = E.critical_path () in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. layers in
  List.iter (fun (l, us) -> Printf.printf "  %-8s %7.0f us\n" l us) layers;
  Printf.printf "  %-8s %7.0f us (modelled layer sum)\n" "sum" sum;
  Printf.printf "  %-8s %7.0f us (measured end-to-end; rest is queueing)\n"
    "total" total

let sizes_tput = [ 0; 1024; 2048; 4096; 8000 ]
let sender_counts = [ 1; 2; 4; 8; 12; 16 ]

let tput_figure ~send_method =
  Printf.printf "%8s |" "senders";
  List.iter (fun s -> Printf.printf " %7dB" s) sizes_tput;
  Printf.printf "   (messages/second; * = ring overflow, not meaningful)\n";
  let rows = ref [] in
  List.iter
    (fun n ->
      Printf.printf "%8d |" n;
      List.iter
        (fun size ->
          let r = E.group_throughput ~duration_ms:1_200 ~n:(max n 2) ~size ~send_method () in
          rows := (n, size, r.E.msgs_per_sec, r.E.meaningful) :: !rows;
          Printf.printf " %7.0f%s" r.E.msgs_per_sec
            (if not r.E.meaningful then "*"
             else if r.E.rx_dropped > 0 then "!"
             else " "))
        sizes_tput;
      print_newline ())
    sender_counts;
  List.rev !rows

let fig4 () =
  header "Figure 4: throughput, PB method (group size = senders)"
    "815 msg/s max at 0B; >=4KB configurations overflow the Lance ring";
  let rows = tput_figure ~send_method:T.Pb in
  json_out "fig4"
    [ ( "rows",
        Bench_json.List
          (List.map
             (fun (n, size, tput, meaningful) ->
               Bench_json.Obj
                 [ ("senders", Bench_json.Int n); ("size", Bench_json.Int size);
                   ("msgs_per_sec", Bench_json.Float tput);
                   ("meaningful", Bench_json.Bool meaningful) ])
             rows) ) ]

let fig5 () =
  header "Figure 5: throughput, BB method (group size = senders)"
    "0B similar to PB; large messages sustain higher rates (half the bandwidth)";
  ignore (tput_figure ~send_method:T.Bb)

let fig6 () =
  header "Figure 6: aggregate throughput of disjoint parallel groups (0B, PB)"
    "3175 msg/s max with 5 groups of 2; Ethernet saturation beyond (61% util)";
  Printf.printf "%8s | %10s %10s %10s   (total msg/s; util%% for 2-member groups)\n"
    "groups" "2 members" "4 members" "8 members";
  List.iter
    (fun groups ->
      Printf.printf "%8d |" groups;
      let util = ref 0. in
      List.iter
        (fun members ->
          (* The paper's testbed had 30 machines; it could not run >3
             groups of 8 and we inherit the limit for comparability. *)
          if groups * members <= 30 then begin
            let r = E.multigroup_throughput ~duration_ms:1_200 ~groups ~members () in
            if members = 2 then util := r.E.ether_utilisation;
            Printf.printf " %10.0f" r.E.total_msgs_per_sec
          end
          else Printf.printf " %10s" "-")
        [ 2; 4; 8 ];
      Printf.printf "   util %.0f%%\n%!" (100. *. !util))
    [ 1; 2; 3; 4; 5; 6; 7 ]

let fig7 () =
  header "Figure 7: delay for 1 sender vs resilience degree (group size = r+1, PB)"
    "4.2 ms at r=1 (n=2); 12.9 ms at r=15 (n=16); ~600 us per acknowledgement";
  Printf.printf "%8s %8s %12s\n" "r" "members" "delay (ms)";
  List.iter
    (fun r ->
      let d =
        E.broadcast_delay ~samples:10 ~resilience:r ~n:(r + 1) ~size:0
          ~send_method:T.Pb ()
      in
      Printf.printf "%8d %8d %12.2f\n%!" r (r + 1) d.E.mean_ms)
    [ 1; 2; 4; 6; 8; 10; 12; 15 ]

let fig8 () =
  header "Figure 8: throughput under resilience (group size = senders, r = n-1, PB)"
    "resilient sends cost 3+r messages each; throughput falls as r grows";
  Printf.printf "%8s %8s %14s   (maximum resilience, r = n-1)\n" "members" "r"
    "msgs/second";
  List.iter
    (fun n ->
      let r =
        E.group_throughput ~duration_ms:1_200 ~resilience:(n - 1) ~n ~size:0
          ~send_method:T.Pb ()
      in
      Printf.printf "%8d %8d %14.0f\n%!" n (n - 1) r.E.msgs_per_sec)
    [ 2; 4; 8; 12; 16 ];
  Printf.printf "\n%8s %8s %14s   (fixed group of 8, varying r)\n" "members" "r"
    "msgs/second";
  List.iter
    (fun r ->
      let t =
        E.group_throughput ~duration_ms:1_200 ~resilience:r ~n:8 ~size:0
          ~send_method:T.Pb ()
      in
      Printf.printf "%8d %8d %14.0f\n%!" 8 r t.E.msgs_per_sec)
    [ 0; 1; 2; 4; 7 ]

let rpc_compare () =
  header "Section 4: group communication vs Amoeba RPC"
    "null broadcast to a group of 2 is 0.1 ms faster than a null RPC (2.7 vs 2.8)";
  let grp = (E.broadcast_delay ~samples:12 ~n:2 ~size:0 ~send_method:T.Pb ()).E.mean_ms in
  let rpc = E.null_rpc_delay_ms () in
  Printf.printf "  null broadcast (group of 2): %5.2f ms\n" grp;
  Printf.printf "  null RPC:                    %5.2f ms\n" rpc;
  Printf.printf "  broadcast is %.2f ms %s\n" (Float.abs (rpc -. grp))
    (if grp < rpc then "faster" else "slower")

let ablation_cm () =
  header "Section 6 ablation: Amoeba vs comparison protocols (group of 8, 0B)"
    "CM: 2-3 broadcasts and 2(n-1) interrupts per message vs Amoeba's 2 msgs / n interrupts;\n\
     positive acks implode at the sequencer";
  Printf.printf "%-18s %10s %10s %12s %14s\n" "protocol" "delay ms" "msgs/s"
    "frames/msg" "interrupts/msg";
  List.iter
    (fun proto ->
      let r = E.baseline_compare ~n:8 proto in
      Printf.printf "%-18s %10.2f %10.0f %12.1f %14.1f\n%!"
        (E.baseline_name proto) r.E.delay_ms r.E.tput_per_sec r.E.frames_per_msg
        r.E.interrupts_per_msg)
    [ E.Amoeba_pb; E.Amoeba_bb; E.Cm_token; E.Pos_ack; E.Migrating ]

let ablation_migrate () =
  header "Section 5 ablation: static vs migrating sequencer on bursty senders"
    "\"the performance gained by migrating the sequencer may be worth the complexity\"";
  let stat = E.burst_delay ~n:8 `Static in
  let mig = E.burst_delay ~n:8 `Migrating in
  Printf.printf "  static sequencer:    %5.2f ms per message in a burst\n" stat;
  Printf.printf "  migrating sequencer: %5.2f ms per message in a burst\n" mig;
  Printf.printf "  migrating wins by %.1fx once the token is local\n" (stat /. mig)

let ablation_pbbb () =
  header "Section 3.1 ablation: the PB/BB switch (group of 8, 1 sender)"
    "PB spends 2n bytes of bandwidth but interrupts receivers once;\n\
     BB spends n bytes but interrupts twice; Amoeba switches on size";
  Printf.printf "%8s | %10s %10s %10s   (delay ms; Auto should track the winner)\n"
    "size" "PB" "BB" "Auto";
  List.iter
    (fun size ->
      let d m = (E.broadcast_delay ~samples:8 ~n:8 ~size ~send_method:m ()).E.mean_ms in
      Printf.printf "%8d | %10.2f %10.2f %10.2f\n%!" size (d T.Pb) (d T.Bb) (d T.Auto))
    [ 0; 256; 1024; 2048; 4096; 8000 ]

let ablation_processing () =
  header "Conclusion 1 ablation: throughput vs. message-processing cost (group of 8, 0B)"
    "\"the scalability of our sequencer-based protocols is limited by message\n\
     processing time\" - halving software costs should raise throughput well\n\
     before the 10 Mbit/s wire matters";
  Printf.printf "%12s %14s %12s\n" "cpu factor" "msgs/second" "delay (ms)";
  List.iter
    (fun factor ->
      let cost = E.scaled_processing factor in
      let tput =
        (E.group_throughput ~cost ~duration_ms:1_200 ~n:8 ~size:0
           ~send_method:T.Pb ())
          .E.msgs_per_sec
      in
      let d =
        (E.broadcast_delay ~cost ~samples:8 ~n:8 ~size:0 ~send_method:T.Pb ())
          .E.mean_ms
      in
      Printf.printf "%12.2f %14.0f %12.2f\n%!" factor tput d)
    [ 2.0; 1.5; 1.0; 0.5; 0.25; 0.1 ]

let ablation_userspace () =
  header "Section 5 ablation: in-kernel vs user-space protocol implementation"
    "Oey et al. measured a 32% slowdown for a user-space implementation on\n\
     synthetic benchmarks (paper cites [23])";
  let kernel_d =
    (E.broadcast_delay ~samples:10 ~n:8 ~size:0 ~send_method:T.Pb ()).E.mean_ms
  in
  let user_d =
    (E.broadcast_delay ~cost:E.user_space_costs ~samples:10 ~n:8 ~size:0
       ~send_method:T.Pb ())
      .E.mean_ms
  in
  let kernel_t =
    (E.group_throughput ~duration_ms:1_200 ~n:8 ~size:0 ~send_method:T.Pb ())
      .E.msgs_per_sec
  in
  let user_t =
    (E.group_throughput ~cost:E.user_space_costs ~duration_ms:1_200 ~n:8 ~size:0
       ~send_method:T.Pb ())
      .E.msgs_per_sec
  in
  Printf.printf "  delay:      kernel %5.2f ms   user space %5.2f ms  (+%.0f%%)\n"
    kernel_d user_d
    (100. *. ((user_d /. kernel_d) -. 1.));
  Printf.printf "  throughput: kernel %5.0f /s   user space %5.0f /s  (-%.0f%%)\n"
    kernel_t user_t
    (100. *. (1. -. (user_t /. kernel_t)))

let ablation_flowcontrol () =
  header "Section 4 extension: multicast flow control for multi-packet messages"
    "\"it is not immediately clear how [flow control] should be extended to\n\
     multicast communication\" - rate-pacing the fragments (BB, 8 senders);\n\
     * marks retransmission-bound runs, the paper's unmeasurable configs";
  Printf.printf "%10s | %12s %12s %12s   (msg/s by inter-fragment gap)\n" "size"
    "no pacing" "300 us" "600 us";
  List.iter
    (fun size ->
      Printf.printf "%10d |" size;
      List.iter
        (fun gap_us ->
          let cost =
            { Cost_model.default with multicast_frag_gap_ns = gap_us * 1_000 }
          in
          let r =
            E.group_throughput ~cost ~duration_ms:1_500 ~n:8 ~size
              ~send_method:T.Bb ()
          in
          Printf.printf " %11.0f%s" r.E.msgs_per_sec
            (if not r.E.meaningful then "*" else " "))
        [ 0; 300; 600 ];
      print_newline ())
    [ 2048; 4096; 8000 ];
  print_endline
    "2 KB stabilises with a paced sender plus byte-bounded repair; 4 KB only\n\
     at a well-matched rate; 8 KB with 8 senders exceeds what a 10 Mbit/s\n\
     Ethernet can carry, pacing or not - receiver-driven credits (Transis,\n\
     the paper's ref [1]) would be the next step."

let fig_load_latency () =
  header "Conclusion 1, queueing view: delay vs offered load (group of 8, 0B, Poisson)"
    "open-loop arrivals show the knee at the sequencer's processing ceiling\n\
     (~740 msg/s closed-loop); past it the queue and the delay blow up";
  Printf.printf "%12s %12s %14s\n" "offered/s" "completed/s" "mean delay ms";
  List.iter
    (fun rate ->
      let p = E.open_loop_load ~duration_ms:2_000 ~n:8 ~rate_per_sec:rate () in
      Printf.printf "%12.0f %12.0f %14.2f\n%!" p.E.offered_per_sec
        p.E.completed_per_sec p.E.mean_delay_ms)
    [ 100.; 300.; 500.; 650.; 720.; 800. ]

let ablation_history () =
  header "Section 3.1 ablation: history-buffer size (group of 3, 0B, one idle member)"
    "the measurements used 128 messages; a small buffer fills, parks requests\n\
     and solicits member status, throttling the sequencer";
  Printf.printf "%12s %14s\n" "history" "msgs/second";
  List.iter
    (fun history ->
      (* One member never sends, so only solicitation (not piggybacked
         traffic) can advance the pruning frontier. *)
      let cl = Amoeba_harness.Cluster.create ~n:3 () in
      let rate = ref 0. in
      Amoeba_harness.Cluster.spawn cl (fun () ->
          let open Amoeba_core in
          let creator =
            Api.create_group (Amoeba_harness.Cluster.flip cl 0) ~history ()
          in
          let addr = Api.group_address creator in
          let g1 =
            Result.get_ok
              (Api.join_group (Amoeba_harness.Cluster.flip cl 1) ~history addr)
          in
          let idle =
            Result.get_ok
              (Api.join_group (Amoeba_harness.Cluster.flip cl 2) ~history addr)
          in
          List.iter
            (fun g ->
              Amoeba_harness.Cluster.spawn cl (fun () ->
                  let rec loop () =
                    ignore (Api.receive_from_group g);
                    loop ()
                  in
                  loop ()))
            [ creator; g1; idle ];
          let deadline = Amoeba_sim.Time.ms 1_500 in
          Amoeba_harness.Cluster.spawn cl (fun () ->
              let rec loop () =
                if Amoeba_harness.Cluster.now cl < deadline then begin
                  ignore (Api.send_to_group g1 Bytes.empty);
                  loop ()
                end
              in
              loop ());
          let warmup = deadline / 4 in
          Amoeba_sim.Engine.sleep cl.Amoeba_harness.Cluster.engine warmup;
          let c0 = Kernel.next_expected (Api.kernel creator) in
          Amoeba_sim.Engine.sleep cl.Amoeba_harness.Cluster.engine
            (deadline - warmup);
          let c1 = Kernel.next_expected (Api.kernel creator) in
          rate :=
            float_of_int (c1 - c0) /. Amoeba_sim.Time.to_sec (deadline - warmup));
      Amoeba_harness.Cluster.run ~until:(Amoeba_sim.Time.sec 3) cl;
      Printf.printf "%12d %14.0f\n%!" history !rate)
    [ 4; 8; 16; 32; 64; 128 ]

let headline () =
  header "Headline numbers" "abstract: 2.8 ms null broadcast to 30; 815 msg/s; 3175 msg/s multi-group";
  let d30 = (E.broadcast_delay ~samples:12 ~n:30 ~size:0 ~send_method:T.Pb ()).E.mean_ms in
  let tput = (E.group_throughput ~duration_ms:1_500 ~n:16 ~size:0 ~send_method:T.Pb ()).E.msgs_per_sec in
  let mg = (E.multigroup_throughput ~duration_ms:1_500 ~groups:5 ~members:2 ()).E.total_msgs_per_sec in
  Printf.printf "  null broadcast to a group of 30: %6.2f ms   (paper: 2.8)\n" d30;
  Printf.printf "  max throughput per group:        %6.0f /s    (paper: 815)\n" tput;
  Printf.printf "  max multi-group throughput:      %6.0f /s    (paper: 3175)\n" mg;
  json_out "headline"
    [ ("broadcast_30_ms", Bench_json.Float d30);
      ("max_group_msgs_per_sec", Bench_json.Float tput);
      ("max_multigroup_msgs_per_sec", Bench_json.Float mg) ]

(* ----- service: sharded-service shard-scaling sweep ----- *)

(* The scenario every service target starts from: closed-loop
   clients driving uniform writes over 1 000 keys through the routers,
   no batching, lock-step kernels, no warm-up, seed 11.  A target
   overrides the cluster shape, wire and window; [max_batch] > 1 turns
   on router-side op batching, [pipeline_depth] sets the kernels'
   in-flight sequencer rounds, [warmup] is the closed-loop slow start,
   excluded from the figures. *)
let service_base =
  {
    Amoeba_loadgen.Driver.default with
    mix = Amoeba_loadgen.Mix.read_write ~read:0.0 Amoeba_service.Keygen.Uniform;
    txn_size = 1;
    max_batch = 1;
    pipeline_depth = 1;
    warmup = Amoeba_sim.Time.zero;
  }

let durable fsync =
  {
    Amoeba_service.Service.d_store = Amoeba_grouplib.Stable_store.create ();
    d_sync = fsync;
    d_checkpoint_every = 64;
  }

(* One measured service workload of [workers] closed-loop clients on
   [cfg]: a cluster of replica hosts plus router machines, one
   replicated KV group per shard placed by the shard map.  Deterministic
   in [cfg].  [disk] gives every machine a local disk and [durable]
   turns on durable replicas; without them nothing touches a disk.
   Returns the driver's trial plus the per-router stats. *)
let service_run ?disk ?durable ?probe ~workers cfg =
  let module D = Amoeba_loadgen.Driver in
  D.bring_up ?disk ?durable cfg (fun d ->
      let cl = d.D.cluster in
      (* Counters only, no timing: utilisation read by [probe] covers
         the measured window, not the idle deploy phase before it. *)
      Amoeba_net.Medium.reset_utilisation_window cl.Cluster.net;
      let t = D.drive d (D.Closed workers) in
      let stats = Array.to_list (Array.map Amoeba_service.Router.stats d.D.routers) in
      Option.iter (fun f -> f cl) probe;
      (t, stats))

(* BENCH_service.json carries the shard-scaling rows (the [service]
   target), the batching sweep (the [batch] target) and the durability
   rows (the [recovery] target).  Each target caches its fields and
   rewrites the file with whatever has been measured so far, so
   running several targets in one invocation yields one file with all
   their sections. *)
let service_json_fields : (string * Bench_json.t) list ref = ref []
let batch_json_fields : (string * Bench_json.t) list ref = ref []
let recovery_json_fields : (string * Bench_json.t) list ref = ref []
let fabric_json_fields : (string * Bench_json.t) list ref = ref []
let migration_json_fields : (string * Bench_json.t) list ref = ref []

let write_service_json () =
  json_out "service"
    (!service_json_fields @ !batch_json_fields @ !recovery_json_fields
   @ !fabric_json_fields @ !migration_json_fields)

let service () =
  header
    "Service scaling: aggregate committed ops/s vs shard count (12 machines)"
    "section 4 / conclusion 1: one sequencer CPU caps a group, so partitioned\n\
     groups with spread sequencers are the scaling axis; on the paper's\n\
     10 Mbit/s wire the shared Ether saturates near 830 ops/s, while at\n\
     100 Mbit/s the machines stay the bottleneck and shards keep paying off";
  (* 8 replica hosts + 4 router machines = 12.  Replication 2 keeps
     every group member on its own machine up to 4 shards. *)
  let hosts, routers, replication, seed = (8, 4, 2, 11) in
  let shard_counts = if !smoke_mode then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let workers = if !smoke_mode then 16 else 64 in
  let duration_ms = if !smoke_mode then 600 else 3_000 in
  let wires = [ 10; 100 ] in
  Printf.printf "%8s |" "shards";
  List.iter (fun m -> Printf.printf " %7dMb x" m) wires;
  Printf.printf "   (committed ops/s; x = speedup vs 1 shard)\n";
  let base = Hashtbl.create 4 in
  let rows = ref [] in
  List.iter
    (fun shards ->
      Printf.printf "%8d |" shards;
      List.iter
        (fun wire_mbps ->
          let r, _ =
            service_run ~workers
              {
                service_base with
                shards;
                hosts;
                routers;
                replication;
                wire_mbps;
                duration = Amoeba_sim.Time.ms duration_ms;
                seed;
              }
          in
          if shards = List.hd shard_counts then
            Hashtbl.replace base wire_mbps r.Amoeba_loadgen.Driver.throughput;
          let speedup =
            r.Amoeba_loadgen.Driver.throughput
            /. Hashtbl.find base wire_mbps
          in
          rows :=
            (shards, wire_mbps, r.Amoeba_loadgen.Driver.throughput,
             r.Amoeba_loadgen.Driver.p95_ms, r.Amoeba_loadgen.Driver.failed)
            :: !rows;
          Printf.printf " %6.0f %4.2fx" r.Amoeba_loadgen.Driver.throughput
            speedup)
        wires;
      print_newline ())
    shard_counts;
  service_json_fields :=
    [
      ("hosts", Bench_json.Int hosts);
      ("routers", Bench_json.Int routers);
      ("replication", Bench_json.Int replication);
      ("workers", Bench_json.Int workers);
      ("duration_ms", Bench_json.Int duration_ms);
      ("seed", Bench_json.Int seed);
      ( "rows",
        Bench_json.List
          (List.rev_map
             (fun (shards, wire, ops, p95, failed) ->
               Bench_json.Obj
                 [
                   ("shards", Bench_json.Int shards);
                   ("wire_mbps", Bench_json.Int wire);
                   ("ops_per_sec", Bench_json.Float ops);
                   ("p95_ms", Bench_json.Float p95);
                   ("failed", Bench_json.Int failed);
                 ])
             !rows) );
    ];
  write_service_json ()

(* ----- batch: batching x pipelining sweep ----- *)

(* The batching sweep drives a bigger cluster than the shard-scaling
   one: 8 shards over 16 replica hosts (replication 3) plus 4 router
   machines, and enough closed-loop clients (1024) that the shards
   saturate — batches only coalesce under backlog, so an underloaded
   sweep would measure the Nagle timer, not the amortisation. *)
let batch () =
  header
    "Batching + pipelining: committed ops/s vs batch size, depth, wire (20 machines)"
    "section 4 / conclusion 1: one protocol round per message caps a sequencer\n\
     near 1 k ops/s of CPU; a saturated shard ships its whole backlog as one\n\
     round, so every batch size above 1 meets the same ceiling until the wire\n\
     pushes back";
  let shards, hosts, routers, replication, seed = (8, 16, 4, 3, 11) in
  let workers = if !smoke_mode then 96 else 1_024 in
  let duration_ms = if !smoke_mode then 400 else 2_000 in
  let batch_sizes = if !smoke_mode then [ 1; 8 ] else [ 1; 4; 8; 32; 128 ] in
  let depths = if !smoke_mode then [ 4 ] else [ 1; 4 ] in
  let wires = if !smoke_mode then [ 100 ] else [ 10; 100 ] in
  Printf.printf
    "%6s %6s %6s | %8s %7s %7s %7s %7s | %9s %8s %8s\n"
    "wire" "batch" "depth" "ops/s" "mean" "p50" "p95" "p99" "ops/batch"
    "partial" "retries";
  let rows = ref [] in
  List.iter
    (fun wire_mbps ->
      List.iter
        (fun depth ->
          List.iter
            (fun max_batch ->
              let r, stats =
                service_run ~workers
                  {
                    service_base with
                    shards;
                    hosts;
                    routers;
                    replication;
                    wire_mbps;
                    max_batch;
                    pipeline_depth = depth;
                    duration = Amoeba_sim.Time.ms duration_ms;
                    seed;
                  }
              in
              let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
              let batches = sum (fun s -> s.Amoeba_service.Router.batches_sent) in
              let opsb = sum (fun s -> s.Amoeba_service.Router.ops_batched) in
              let partial =
                sum (fun s -> s.Amoeba_service.Router.partial_flushes)
              in
              let bretries =
                sum (fun s -> s.Amoeba_service.Router.batch_retries)
              in
              let avg =
                if batches = 0 then 1.
                else float_of_int opsb /. float_of_int batches
              in
              let open Amoeba_loadgen.Driver in
              Printf.printf
                "%6d %6d %6d | %8.0f %7.2f %7.2f %7.2f %7.2f | %9.1f %8d %8d\n%!"
                wire_mbps max_batch depth r.throughput r.mean_ms r.p50_ms
                r.p95_ms r.p99_ms avg partial bretries;
              rows :=
                Bench_json.Obj
                  [
                    ("wire_mbps", Bench_json.Int wire_mbps);
                    ("max_batch", Bench_json.Int max_batch);
                    ("pipeline_depth", Bench_json.Int depth);
                    ("ops_per_sec", Bench_json.Float r.throughput);
                    ("mean_ms", Bench_json.Float r.mean_ms);
                    ("p50_ms", Bench_json.Float r.p50_ms);
                    ("p95_ms", Bench_json.Float r.p95_ms);
                    ("p99_ms", Bench_json.Float r.p99_ms);
                    ("ops_per_batch_avg", Bench_json.Float avg);
                    ("partial_flushes", Bench_json.Int partial);
                    ("batch_retries", Bench_json.Int bretries);
                    ("failed", Bench_json.Int r.failed);
                  ]
                :: !rows)
            batch_sizes)
        depths)
    wires;
  batch_json_fields :=
    [
      ( "batch_sweep",
        Bench_json.Obj
          [
            ("shards", Bench_json.Int shards);
            ("hosts", Bench_json.Int hosts);
            ("routers", Bench_json.Int routers);
            ("replication", Bench_json.Int replication);
            ("workers", Bench_json.Int workers);
            ("duration_ms", Bench_json.Int duration_ms);
            ("seed", Bench_json.Int seed);
            ("rows", Bench_json.List (List.rev !rows));
          ] );
    ];
  write_service_json ()

(* ----- recovery: durable-write overhead and recovery time ----- *)

(* What durability costs on the commit path, and what it buys back at
   recovery.  Two tables:

   - committed ops/s with durability off vs the three fsync policies,
     per disk profile: fsync-per-commit puts a platter round-trip
     inside every ack, group-fsync amortises it over 8 commits,
     checkpoint-only moves all of it off the ack path;

   - simulated recovery time of one replica vs WAL length, per disk
     profile: a seeded WAL of N committed KV updates is replayed
     through [Rsm.recover] at the disk's seek + read speed.  The WAL
     is written directly (sync on the last record covers the buffered
     prefix) so the table isolates recovery cost from workload cost. *)
let recovery () =
  header
    "Durability: committed ops/s by fsync policy, and recovery time vs WAL length"
    "robustness extension (not in the paper): the write-ahead log's fsyncs sit\n\
     on the commit path, so policy choice trades durability window against\n\
     throughput; recovery replays the log at disk speed";
  let module R = Amoeba_grouplib.Rsm in
  let module Store = Amoeba_grouplib.Stable_store in
  let shards, hosts, routers, replication, seed = (4, 8, 4, 2, 11) in
  let workers = if !smoke_mode then 16 else 64 in
  let duration_ms = if !smoke_mode then 400 else 2_000 in
  let disks = [ ("hdd1996", Cost_model.hdd1996); ("ssd", Cost_model.ssd) ] in
  let policies =
    [
      ("off", None);
      ("checkpoint-only", Some R.Checkpoint_only);
      ("group-fsync-8", Some (R.Group_fsync 8));
      ("fsync-per-commit", Some R.Every_commit);
    ]
  in
  let cfg =
    {
      service_base with
      shards;
      hosts;
      routers;
      replication;
      duration = Amoeba_sim.Time.ms duration_ms;
      seed;
    }
  in
  Printf.printf "%18s |" "policy";
  List.iter (fun (n, _) -> Printf.printf " %9s" n) disks;
  Printf.printf "   (committed ops/s, %d shards, wire 100 Mbit)\n" shards;
  let off_ops = ref nan in
  let overhead_rows = ref [] in
  List.iter
    (fun (pname, policy) ->
      Printf.printf "%18s |" pname;
      List.iter
        (fun (dname, d) ->
          let ops =
            match policy with
            | None ->
                (* No disk at all: the figure is profile-independent,
                   measured once and repeated across the columns. *)
                if Float.is_nan !off_ops then
                  off_ops :=
                    (fst (service_run ~workers cfg))
                      .Amoeba_loadgen.Driver.throughput;
                !off_ops
            | Some fsync ->
                (fst
                   (service_run ~disk:d ~durable:(durable fsync) ~workers cfg))
                  .Amoeba_loadgen.Driver.throughput
          in
          overhead_rows :=
            Bench_json.Obj
              [
                ("policy", Bench_json.Str pname);
                ("disk", Bench_json.Str dname);
                ("ops_per_sec", Bench_json.Float ops);
              ]
            :: !overhead_rows;
          Printf.printf " %9.0f" ops)
        disks;
      print_newline ())
    policies;
  (* -- recovery time vs WAL length -- *)
  let recover_ms ~disk ~records =
    let store = Store.create () in
    let d =
      { R.store; log = "bench"; sync = R.Every_commit; checkpoint_every = 0 }
    in
    let cost = { Cost_model.default with Cost_model.disk } in
    let cl = Cluster.create ~cost ~seed:1 ~n:1 () in
    let value = String.make 32 'v' in
    let seeded = Amoeba_sim.Ivar.create () in
    Cluster.spawn_on cl 0 (fun () ->
        let m = Cluster.machine cl 0 in
        for i = 1 to records do
          ignore
            (Store.wal_append store m ~log:(R.wal_name d) ~sync:(i = records)
               ~index:i
               (Amoeba_service.Kv.Store.encode_update
                  (Amoeba_service.Kv.Store.Put
                     { uid = i; key = Printf.sprintf "key-%d" i; value })))
        done;
        Amoeba_sim.Ivar.fill seeded ());
    Cluster.spawn cl (fun () ->
        Amoeba_sim.Ivar.read cl.Cluster.engine seeded;
        Machine.crash (Cluster.machine cl 0));
    Cluster.run cl;
    Cluster.restart cl 0;
    let ms = ref nan in
    Cluster.spawn_on cl 0 (fun () ->
        let module KR = Amoeba_service.Kv.Rsm_store in
        let t0 = Cluster.now cl in
        match KR.recover d (Cluster.machine cl 0) with
        | Ok rec_ ->
            if rec_.KR.r_applied <> records then
              failwith
                (Printf.sprintf "recovered %d of %d records" rec_.KR.r_applied
                   records);
            ms := Amoeba_sim.Time.to_ms (Cluster.now cl - t0)
        | Error e -> failwith ("bench recovery refused: " ^ e));
    Cluster.run ~until:(Amoeba_sim.Time.sec 600) cl;
    !ms
  in
  let wal_lengths =
    if !smoke_mode then [ 100; 1_000 ] else [ 100; 1_000; 10_000 ]
  in
  Printf.printf "\n%12s |" "wal records";
  List.iter (fun (n, _) -> Printf.printf " %9s" n) disks;
  Printf.printf "   (simulated recovery time, ms)\n";
  let time_rows = ref [] in
  List.iter
    (fun records ->
      Printf.printf "%12d |" records;
      List.iter
        (fun (dname, d) ->
          let ms = recover_ms ~disk:d ~records in
          time_rows :=
            Bench_json.Obj
              [
                ("disk", Bench_json.Str dname);
                ("wal_records", Bench_json.Int records);
                ("recover_ms", Bench_json.Float ms);
              ]
            :: !time_rows;
          Printf.printf " %9.2f" ms)
        disks;
      print_newline ())
    wal_lengths;
  recovery_json_fields :=
    [
      ( "durability",
        Bench_json.Obj
          [
            ("shards", Bench_json.Int shards);
            ("hosts", Bench_json.Int hosts);
            ("workers", Bench_json.Int workers);
            ("duration_ms", Bench_json.Int duration_ms);
            ("seed", Bench_json.Int seed);
            ("overhead_rows", Bench_json.List (List.rev !overhead_rows));
            ("recovery_rows", Bench_json.List (List.rev !time_rows));
          ] );
    ];
  write_service_json ()

(* ----- fabric: shard count x network topology at 100+ hosts ----- *)

(* The sweep that motivated the switched fabric: PR 6's batching took
   the 8-shard service to 18 164 ops/s on the 100 Mbit shared wire and
   left the wire itself as the named bottleneck.  Here the same
   service runs at 100 and 200 hosts, 8..64 shards, over the shared
   Ether and over switched topologies (flat, and 4 oversubscribed
   segments), recording throughput, tail latency and the fabric's own
   counters.  Clients slow-start over a ramp (measured figures exclude
   it): thousands of first-contact clients at t=0 starve every CPU at
   once, and the group kernels read that stall as member failures —
   a thundering herd no real deployment starts from. *)
let fabric () =
  header
    "Fabric sweep: ops/s and p99 vs shard count x topology (100+ hosts)"
    "past the paper: the shared Ether is the last bottleneck after PR 6's\n\
     batching; a store-and-forward switch with full-duplex host links\n\
     removes the collision ceiling while the same kernel bits run";
  let replication, seed = (3, 11) in
  let workers = if !smoke_mode then 64 else 2_048 in
  let duration_ms = if !smoke_mode then 1_000 else 12_000 in
  let ramp_ms = if !smoke_mode then 200 else 4_000 in
  (* (shards, hosts, routers): 100 hosts carry up to 32 shards with
     every sequencer and follower on its own machine; 64 shards would
     stack ~3.5 followers per host, so the 64-shard rows double the
     pool instead of measuring placement starvation. *)
  let scales =
    if !smoke_mode then [ (2, 10, 2) ]
    else [ (8, 100, 8); (16, 100, 8); (32, 100, 8); (64, 200, 8) ]
  in
  let topologies hosts routers =
    let named s =
      match Amoeba_net.Medium.spec_of_string s with
      | Ok spec -> (s, spec)
      | Error e -> failwith ("fabric sweep topology " ^ s ^ ": " ^ e)
    in
    [ named "ether"; named "switch" ]
    @
    (* 4 leaf segments sized to the whole station count (hosts +
       routers), uplinks 10x a host link: 27:10 oversubscribed. *)
    if !smoke_mode then []
    else [ named (Printf.sprintf "switch:4x%d@10" ((hosts + routers + 3) / 4)) ]
  in
  Printf.printf "%8s %6s | %-16s %10s %9s %7s %7s %6s %6s\n" "shards" "hosts"
    "net" "ops/s" "p99 ms" "failed" "util%" "coll" "qdrop";
  let rows = ref [] in
  List.iter
    (fun (shards, hosts, routers) ->
      List.iter
        (fun (label, spec) ->
          let util = ref 0.0 and coll = ref 0 and qdrops = ref 0 in
          let probe cl =
            let m = cl.Cluster.net in
            util := Amoeba_net.Medium.utilisation m;
            coll := Amoeba_net.Medium.collisions m;
            qdrops := Amoeba_net.Medium.queue_drops m
          in
          let r, _ =
            service_run ~probe ~workers
              {
                service_base with
                shards;
                hosts;
                routers;
                replication;
                net = (spec, Impair.clean);
                max_batch = 32;
                pipeline_depth = 4;
                duration = Amoeba_sim.Time.ms (duration_ms - ramp_ms);
                warmup = Amoeba_sim.Time.ms ramp_ms;
                seed;
              }
          in
          let open Amoeba_loadgen.Driver in
          Printf.printf
            "%8d %6d | %-16s %10.0f %9.1f %7d %6.1f%% %7d %6d\n%!" shards
            hosts label r.throughput r.p99_ms r.failed (100.0 *. !util) !coll
            !qdrops;
          rows :=
            Bench_json.Obj
              [
                ("shards", Bench_json.Int shards);
                ("hosts", Bench_json.Int hosts);
                ("routers", Bench_json.Int routers);
                ("net", Bench_json.Str label);
                ("ops_per_sec", Bench_json.Float r.throughput);
                ("p99_ms", Bench_json.Float r.p99_ms);
                ("failed", Bench_json.Int r.failed);
                ("utilisation", Bench_json.Float !util);
                ("collisions", Bench_json.Int !coll);
                ("queue_drops", Bench_json.Int !qdrops);
              ]
            :: !rows)
        (topologies hosts routers))
    scales;
  fabric_json_fields :=
    [
      ( "fabric",
        Bench_json.Obj
          [
            ("replication", Bench_json.Int replication);
            ("workers", Bench_json.Int workers);
            ("duration_ms", Bench_json.Int duration_ms);
            ("ramp_ms", Bench_json.Int ramp_ms);
            ("max_batch", Bench_json.Int 32);
            ("pipeline_depth", Bench_json.Int 4);
            ("wire_mbps", Bench_json.Int 100);
            ("seed", Bench_json.Int seed);
            ("rows", Bench_json.List (List.rev !rows));
          ] );
    ];
  write_service_json ()

(* ----- migration: blackout window and added latency vs shard size ----- *)

(* What a live migration costs the clients that keep writing through
   it.  One durable shard is preloaded with [records] keys, a single
   closed-loop probe client times every put, and the shard is then
   migrated to two fresh hosts.  Three figures per (disk, size) cell:

   - the migration window — wall time of [Service.migrate_shard], i.e.
     join + checkpoint/WAL-delta transfer + retire/leave cutover;

   - added p50/p99 put latency for probes whose lifetime overlaps the
     window, relative to the pre-migration p50.  The probe is
     closed-loop, so the put that spans the cutover blackout absorbs
     the whole retire-and-retry stall — that put IS the p99.

   The transfer ships the source checkpoint plus the WAL delta, so the
   window grows with the preloaded state and with the disk's
   checkpoint read/write speed — which is why the table sweeps both. *)
let migration_run ~records ~disk ~seed =
  let open Amoeba_service in
  let module D = Amoeba_loadgen.Driver in
  let module H = Amoeba_loadgen.Histogram in
  let cfg =
    { service_base with shards = 1; hosts = 6; routers = 1; replication = 2; seed }
  in
  let durable = durable (Amoeba_grouplib.Rsm.Group_fsync 8) in
  D.bring_up ~disk ~durable cfg (fun d ->
      let cl = d.D.cluster and svc = d.D.service and r = d.D.routers.(0) in
      let eng = cl.Cluster.engine in
      let samples = ref [] in
      let probing = ref true in
      let value = String.make 32 'v' in
      Amoeba_sim.Engine.sleep eng (Amoeba_sim.Time.ms 50);
      for i = 1 to records do
        match Router.put r (Printf.sprintf "key-%06d" i) value with
        | Router.Written -> ()
        | _ -> failwith "migration bench: preload put failed"
      done;
      (* Acks return at sequencing; the appliers drain their WAL
         behind them (a 1996 hdd pays a seek per append, so the
         backlog after a closed-loop preload is real).  The transfer
         serves its snapshot from the responder's apply position, so
         measuring from inside the backlog would charge the window
         for the preload.  Wait until every replica has applied the
         whole preload before probing. *)
      let settled () =
        List.for_all (fun (_, n) -> n >= records) (Service.applied svc 0)
      in
      while not (settled ()) do
        Amoeba_sim.Engine.sleep eng (Amoeba_sim.Time.ms 50)
      done;
      Cluster.spawn cl (fun () ->
          while !probing do
            let t0 = Cluster.now cl in
            (match Router.put r "probe" value with
            | Router.Written ->
                samples := (t0, Cluster.now cl) :: !samples
            | _ -> ());
            (* 50 puts/s: under even the hdd1996 applier's ~100
               appends/s ceiling, so the probe load itself cannot
               re-grow the backlog on any profile *)
            Amoeba_sim.Engine.sleep eng (Amoeba_sim.Time.ms 20)
          done);
      Amoeba_sim.Engine.sleep eng (Amoeba_sim.Time.sec 2);
      let m0 = Cluster.now cl in
      (* the default 2 s watchdog is sized for chaos runs on ssd; a
         10 k-record reconcile at 1996-hdd seek times needs minutes of
         simulated time, so the bench bounds each step generously *)
      (match
         Service.migrate_shard svc ~shard:0
           ~timeout:(Amoeba_sim.Time.sec 300)
           ~hosts:[ 4; 5 ] ()
       with
      | Ok () -> ()
      | Error e -> failwith ("migration bench: migration failed: " ^ e));
      let m1 = Cluster.now cl in
      Router.update_endpoints r (Service.endpoints svc);
      Amoeba_sim.Engine.sleep eng (Amoeba_sim.Time.sec 1);
      probing := false;
      (* Probes that finished before the migration started set the
         baseline; probes whose lifetime overlaps it are the ones it
         delayed. *)
      let before = H.create () and during = H.create () in
      List.iter
        (fun (t0, t1) ->
          let ms = Amoeba_sim.Time.to_ms (t1 - t0) in
          if t1 <= m0 then H.add before ms
          else if t0 < m1 then H.add during ms)
        !samples;
      let base_p50 = H.percentile before 50.0 in
      ( Amoeba_sim.Time.to_ms (m1 - m0),
        base_p50,
        H.percentile during 50.0 -. base_p50,
        H.percentile during 99.0 -. base_p50 ))

let migration () =
  header
    "Migration blackout: transfer window and added put latency vs shard size"
    "robustness extension (not in the paper): the cutover reuses the kernel's\n\
     graceful leave, so ordering is view-synchronous across the handoff; what\n\
     clients pay is the state-transfer window, which scales with shard size\n\
     and disk speed";
  let disks =
    if !smoke_mode then [ ("ssd", Cost_model.ssd) ]
    else
      [
        ("hdd1996", Cost_model.hdd1996);
        ("ssd", Cost_model.ssd);
        ("nvme", Cost_model.nvme);
      ]
  in
  let sizes = if !smoke_mode then [ 64 ] else [ 100; 1_000; 10_000 ] in
  let seed = 11 in
  Printf.printf "%8s %8s | %10s %9s %9s %9s\n" "disk" "records" "window ms"
    "p50 ms" "+p50 ms" "+p99 ms";
  let rows = ref [] in
  List.iter
    (fun (dname, disk) ->
      List.iter
        (fun records ->
          let window_ms, base_p50, add_p50, add_p99 =
            migration_run ~records ~disk ~seed
          in
          Printf.printf "%8s %8d | %10.1f %9.2f %9.2f %9.2f\n%!" dname records
            window_ms base_p50 add_p50 add_p99;
          rows :=
            Bench_json.Obj
              [
                ("disk", Bench_json.Str dname);
                ("records", Bench_json.Int records);
                ("window_ms", Bench_json.Float window_ms);
                ("base_p50_ms", Bench_json.Float base_p50);
                ("added_p50_ms", Bench_json.Float add_p50);
                ("added_p99_ms", Bench_json.Float add_p99);
              ]
            :: !rows)
        sizes)
    disks;
  migration_json_fields :=
    [
      ( "migration",
        Bench_json.Obj
          [
            ("replication", Bench_json.Int 2);
            ("wire_mbps", Bench_json.Int 100);
            ("seed", Bench_json.Int seed);
            ("rows", Bench_json.List (List.rev !rows));
          ] );
    ];
  write_service_json ()

(* ----- loadgen: SLO-driven saturation sweep ----- *)

(* The YCSB-style open-loop sweep: for each shard count x fabric
   configuration, binary-search the highest Poisson offered load whose
   p99 stays under the SLO with >= 95 % completion.  All the machinery
   lives in lib/loadgen (shared with `amoeba loadgen`); this target is
   the sweep driver plus the BENCH_loadgen.json emission. *)
let loadgen () =
  let module L = Amoeba_loadgen in
  header
    "Loadgen: max sustainable offered load (knee) vs shard count x fabric"
    "conclusion 1, service view: each shard's sequencer is a fixed-rate\n\
     server, so the knee of the latency curve scales with shards until\n\
     the fabric pushes back; mixed YCSB-A load with multi-key txns";
  let params = L.Report.default_params ~smoke:!smoke_mode in
  let b = params.L.Report.base in
  Printf.printf
    "mix %s over %d keys, values %s, %d-key txns; SLO p99 <= %.0f ms at >= \
     %.0f%% completion; %.0f ms windows, seed %d\n"
    b.mix.L.Mix.name b.keys
    (L.Dist.to_string b.value_dist)
    b.txn_size params.L.Report.slo.L.Saturation.p99_ms
    (100.0 *. params.L.Report.slo.L.Saturation.min_completion)
    (Amoeba_sim.Time.to_ms b.duration) b.seed;
  L.Report.print_header ();
  let rows =
    L.Report.sweep ~progress:L.Report.print_row ~smoke:!smoke_mode params
  in
  if !json_mode then L.Report.write_json ~path:"BENCH_loadgen.json" params rows

(* ----- micro: host-time benchmarks of the simulation core ----- *)

let host_time = Unix.gettimeofday

let timed f =
  let t0 = host_time () in
  let x = f () in
  (x, host_time () -. t0)

(* The kernel's timer pattern: every message arms a retransmit timer
   far in the future and cancels it shortly after.  The queue carries a
   large population of cancelled entries; events/sec counts only live
   events (Engine.step_count). *)
let micro_engine_timer ~iters () =
  let module Eng = Amoeba_sim.Engine in
  let eng = Eng.create ~seed:0xBEEF () in
  let nprocs = 32 in
  let delays = [| 250; 800; 3_000; 9_000; 40_000; 150_000; 1_200_000; 14_000_000 |] in
  for p = 0 to nprocs - 1 do
    Eng.spawn eng (fun () ->
        let timer = ref None in
        for i = 0 to iters - 1 do
          (match !timer with Some h -> Eng.cancel h | None -> ());
          timer := Some (Eng.schedule eng ~after:100_000_000 (fun () -> ()));
          Eng.sleep eng delays.((i + p) land 7)
        done;
        match !timer with Some h -> Eng.cancel h | None -> ())
  done;
  let (), dt = timed (fun () -> Eng.run eng) in
  float_of_int (Eng.step_count eng) /. dt

(* Pure event churn: a thousand concurrent event chains with short
   pseudo-random delays, no cancellations. *)
let micro_engine_churn ~events () =
  let module Eng = Amoeba_sim.Engine in
  let eng = Eng.create ~seed:7 () in
  let remaining = ref events in
  let rec tick salt () =
    if !remaining > 0 then begin
      decr remaining;
      let d = ((salt * 2654435761) land 0xFFFF) + 1 in
      ignore (Eng.schedule eng ~after:d (tick (salt + 1)))
    end
  in
  for i = 0 to 1023 do
    ignore (Eng.schedule eng ~after:((i * 97) land 0x3FFF) (tick i))
  done;
  let (), dt = timed (fun () -> Eng.run eng) in
  float_of_int (Eng.step_count eng) /. dt

let micro_history ~adds () =
  let h = Amoeba_core.History.create ~capacity:128 in
  let payload = T.User Bytes.empty in
  let (), dt =
    timed (fun () ->
        for s = 0 to adds - 1 do
          Amoeba_core.History.add_evicting h
            { Amoeba_core.History.seq = s; sender = 0; msgid = s; ops = 1; payload };
          ignore (Amoeba_core.History.find h (s - 64))
        done)
  in
  float_of_int (2 * adds) /. dt

let micro_pqueue ~rounds () =
  let (), dt =
    timed (fun () ->
        for _ = 1 to rounds do
          let q = Amoeba_sim.Pqueue.create ~cmp:compare in
          for i = 0 to 1023 do
            Amoeba_sim.Pqueue.push q ((i * 7919) mod 1024)
          done;
          while not (Amoeba_sim.Pqueue.is_empty q) do
            ignore (Amoeba_sim.Pqueue.pop q)
          done
        done)
  in
  float_of_int (2 * 1024 * rounds) /. dt

(* The end-to-end throughput benchmark (Fig 4's 8-sender 0B point),
   instrumented for host wall-clock and engine events/sec. *)
let micro_group_tput ~duration_ms () =
  let open Amoeba_core in
  let cl = Cluster.create ~n:8 () in
  let delivered = ref 0 in
  Cluster.spawn cl (fun () ->
      let creator = Api.create_group (Cluster.flip cl 0) () in
      let addr = Api.group_address creator in
      let groups =
        creator
        :: List.init 7 (fun i ->
               Result.get_ok (Api.join_group (Cluster.flip cl (i + 1)) addr))
      in
      List.iter
        (fun g ->
          Cluster.spawn cl (fun () ->
              let rec loop () =
                ignore (Api.receive_from_group g);
                loop ()
              in
              loop ()))
        groups;
      let deadline = Amoeba_sim.Time.ms duration_ms in
      List.iter
        (fun g ->
          Cluster.spawn cl (fun () ->
              let rec loop () =
                if Cluster.now cl < deadline then begin
                  ignore (Api.send_to_group g Bytes.empty);
                  loop ()
                end
              in
              loop ()))
        groups;
      Cluster.spawn cl (fun () ->
          Amoeba_sim.Engine.sleep cl.Cluster.engine deadline;
          delivered := Kernel.next_expected (Api.kernel creator)));
  let (), dt =
    timed (fun () ->
        Cluster.run ~until:(Amoeba_sim.Time.ms (duration_ms * 3)) cl)
  in
  let events = Amoeba_sim.Engine.step_count cl.Cluster.engine in
  let msgs_per_sec =
    float_of_int !delivered /. (float_of_int duration_ms /. 1_000.)
  in
  (float_of_int events /. dt, msgs_per_sec, dt)

(* Numbers measured on the seed tree (commit c14f1a4, "growth seed"),
   with the same workloads and full (non-smoke) parameters, so every
   later run has a fixed trajectory origin.  Units: events or ops per
   second of host time, except wall_s. *)
let seed_baseline : (string * float) list =
  [
    ("engine_timer_events_per_sec", 1_560_000.);
    ("engine_churn_events_per_sec", 3_100_000.);
    ("group_tput_engine_events_per_sec", 2_640_000.);
    ("group_tput_sim_msgs_per_sec", 735.);
    ("group_tput_wall_s", 0.0205);
    ("history_ops_per_sec", 19_800_000.);
    ("pqueue_ops_per_sec", 7_870_000.);
  ]

(* Each metric is the best of [repeats] runs: the workloads are short
   (tens of ms), so a single run is at the mercy of the host
   scheduler; the fastest run is the closest to an interference-free
   measurement. *)
let best_rate ~repeats f =
  let best = ref neg_infinity in
  for _ = 1 to repeats do
    let r = f () in
    if r > !best then best := r
  done;
  !best

let micro () =
  header
    (if !smoke_mode then "Microbenchmarks (host time, smoke parameters)"
     else "Microbenchmarks (host time)")
    "engine events/sec and end-to-end throughput wall-clock; perf trajectory in BENCH_sim.json";
  let iters, events, adds, rounds, duration_ms =
    if !smoke_mode then (200, 20_000, 100_000, 20, 40)
    else (12_000, 1_000_000, 4_000_000, 800, 600)
  in
  let repeats = if !smoke_mode then 1 else 3 in
  let timer_eps = best_rate ~repeats (micro_engine_timer ~iters) in
  let churn_eps = best_rate ~repeats (micro_engine_churn ~events) in
  let hist_ops = best_rate ~repeats (micro_history ~adds) in
  let pq_ops = best_rate ~repeats (micro_pqueue ~rounds) in
  let tput_eps, tput_msgs, tput_wall =
    (* The headline metric and the shortest workload: give it more
       tries than the rest. *)
    let best = ref (neg_infinity, 0., 0.) in
    for _ = 1 to repeats * 2 - 1 do
      let ((eps, _, _) as r) = micro_group_tput ~duration_ms () in
      let best_eps, _, _ = !best in
      if eps > best_eps then best := r
    done;
    !best
  in
  (* The service layer's aggregate committed throughput at the default
     batched configuration (8 shards over 16 hosts, replication 3,
     100 Mbit wire, max_batch 32, pipeline depth 4, 1024 closed-loop
     clients): a simulated-time metric like
     group_tput_sim_msgs_per_sec, tracked so a protocol or service
     regression shows in the same trajectory file as the host-time
     numbers.  No seed baseline: the seed tree predates the service
     layer.  (Through the batching PR this metric measured the
     unbatched 4-shard config at 1 077 ops/s; the batch sweep's
     wire=100/batch=1/depth=1 row keeps tracking that regime.) *)
  let service_ops =
    (fst
       (service_run
          ~workers:(if !smoke_mode then 96 else 1_024)
          {
            service_base with
            shards = 8;
            hosts = 16;
            routers = 4;
            replication = 3;
            max_batch = 32;
            pipeline_depth = 4;
            duration = Amoeba_sim.Time.ms (if !smoke_mode then 400 else 2_000);
          }))
      .Amoeba_loadgen.Driver.throughput
  in
  let results =
    [
      ("engine_timer_events_per_sec", timer_eps);
      ("engine_churn_events_per_sec", churn_eps);
      ("group_tput_engine_events_per_sec", tput_eps);
      ("group_tput_sim_msgs_per_sec", tput_msgs);
      ("group_tput_wall_s", tput_wall);
      ("history_ops_per_sec", hist_ops);
      ("pqueue_ops_per_sec", pq_ops);
      ("service_agg_sim_ops_per_sec", service_ops);
    ]
  in
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name seed_baseline with
      | Some base when base > 0. ->
          Printf.printf "  %-36s %14.0f   (seed %12.0f, %5.2fx)\n" name v base
            (if String.length name >= 6
                && String.sub name (String.length name - 6) 6 = "wall_s"
             then base /. v
             else v /. base)
      | _ -> Printf.printf "  %-36s %14.0f   (no seed baseline)\n" name v)
    results;
  let payload =
    [
      ("smoke", Bench_json.Bool !smoke_mode);
      ( "baseline",
        Bench_json.Obj
          (("commit", Bench_json.Str "c14f1a4 (growth seed)")
          :: List.map (fun (k, v) -> (k, Bench_json.Float v)) seed_baseline) );
      ( "results",
        Bench_json.Obj (List.map (fun (k, v) -> (k, Bench_json.Float v)) results)
      );
    ]
  in
  if !smoke_mode then
    print_string
      (Bench_json.to_string
         (Bench_json.Obj
            (("schema", Bench_json.Str "amoeba-bench/1")
             :: ("suite", Bench_json.Str "sim") :: payload)))
  else begin
    let saved = !json_mode in
    json_mode := true;
    json_out "sim" payload;
    json_mode := saved
  end

let targets : (string * (unit -> unit)) list =
  [
    ("headline", headline);
    ("fig1", fig1);
    ("table3", table3);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("rpc_compare", rpc_compare);
    ("ablation_cm", ablation_cm);
    ("ablation_migrate", ablation_migrate);
    ("ablation_pbbb", ablation_pbbb);
    ("ablation_processing", ablation_processing);
    ("ablation_userspace", ablation_userspace);
    ("ablation_history", ablation_history);
    ("ablation_flowcontrol", ablation_flowcontrol);
    ("load_latency", fig_load_latency);
    ("service", service);
    ("batch", batch);
    ("recovery", recovery);
    ("fabric", fabric);
    ("migration", migration);
    ("loadgen", loadgen);
    ("micro", micro);
  ]

let () =
  let args =
    List.filter
      (fun a ->
        match a with
        | "--json" ->
            json_mode := true;
            false
        | "--smoke" ->
            smoke_mode := true;
            false
        | _ -> true)
      (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with _ :: _ as names -> names | [] -> List.map fst targets
  in
  List.iter
    (fun name ->
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown target %S; available: %s\n" name
            (String.concat " " (List.map fst targets));
          exit 1)
    requested
