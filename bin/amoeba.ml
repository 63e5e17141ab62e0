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

let method_conv =
  let parse = function
    | "pb" -> Ok T.Pb
    | "bb" -> Ok T.Bb
    | "auto" -> Ok T.Auto
    | s -> Error (`Msg (Printf.sprintf "unknown method %S (pb|bb|auto)" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with T.Pb -> "pb" | T.Bb -> "bb" | T.Auto -> "auto")
  in
  Arg.conv (parse, print)

(* --net takes a '+'-separated spec: each component is either a fabric
   (ether | shared | switch | switch:SxH[@U]) or a condition profile.
   The profile table lives in {!Amoeba_net.Medium.condition_profiles},
   so the CLI, the adversarial swarm test and the loadgen sweep share
   one notion of what e.g. "bursty" means. *)
let net_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Amoeba_net.Medium.net_of_string s)
  in
  let print fmt nc =
    Format.pp_print_string fmt (Amoeba_net.Medium.net_to_string nc)
  in
  Arg.conv (parse, print)

let net_t =
  Arg.(
    value
    & opt net_conv (Amoeba_net.Medium.Shared, Amoeba_net.Impair.clean)
    & info [ "net" ]
        ~doc:
          "Fabric and/or link conditions, '+'-separated.  Fabric: ether \
           (shared CSMA/CD wire, default), switch (one full-duplex \
           switch), or switch:SxH\xc2\xa0/\xc2\xa0switch:SxH@U (S segments of H \
           ports, uplink U-times oversubscribed).  Conditions: clean, \
           bursty-light, bursty, bursty-heavy (Gilbert\xe2\x80\x93Elliott \
           loss), dup, reorder (delivery jitter), corrupt, or adversarial \
           (all of them, moderate).  Example: switch:2x48@10+bursty.")

let disk_conv =
  let open Amoeba_net.Cost_model in
  let parse s =
    match List.assoc_opt s disk_profiles with
    | Some d -> Ok d
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown disk profile %S (%s)" s
               (String.concat "|" (List.map fst disk_profiles))))
  in
  let print fmt d =
    Format.pp_print_string fmt
      (match List.find_opt (fun (_, d') -> d' = d) disk_profiles with
      | Some (name, _) -> name
      | None -> "<custom>")
  in
  Arg.conv (parse, print)

let disk_t =
  Arg.(
    value
    & opt (some disk_conv) None
    & info [ "disk" ]
        ~doc:
          "Give every machine a local disk with this timing profile \
           (hdd1996, hdd, ssd, nvme) and turn on durable mode: committed \
           work is WAL-logged and survives restarts.  Without it nothing \
           touches a disk and all simulated figures are unchanged.")

let members_t =
  Arg.(value & opt int 8 & info [ "m"; "members" ] ~doc:"Group size.")

let size_t =
  Arg.(value & opt int 0 & info [ "s"; "size" ] ~doc:"Message size in bytes.")

let method_t =
  Arg.(value & opt method_conv T.Pb & info [ "method" ] ~doc:"pb, bb or auto.")

let resilience_t =
  Arg.(value & opt int 0 & info [ "r"; "resilience" ] ~doc:"Resilience degree.")

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
    Arg.(value & opt int 8 & info [ "senders" ] ~doc:"Senders (= group size).")
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
  let groups_t = Arg.(value & opt int 5 & info [ "groups" ] ~doc:"Groups.") in
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
    Arg.(value & opt int 4 & info [ "m"; "members" ] ~doc:"Group size.")
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
      value & opt int 1
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

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let shards_t =
  Arg.(value & opt int 4 & info [ "shards" ] ~doc:"Number of shards (groups).")

let hosts_t =
  Arg.(
    value & opt int 8
    & info [ "hosts" ] ~doc:"Machines available to host replicas.")

let replication_t =
  Arg.(value & opt int 3 & info [ "replication" ] ~doc:"Replicas per shard.")

let max_batch_t =
  Arg.(
    value & opt int 32
    & info [ "max-batch" ]
        ~doc:
          "Router-side op batching: up to this many ops for one shard are \
           shipped as one RPC, which the replica submits as one sequencer \
           round (1 disables batching).")

let batch_delay_t =
  Arg.(
    value & opt int 500
    & info [ "batch-delay-us" ]
        ~doc:
          "Nagle-style flush timer in microseconds: a partial batch ships \
           when this much time has passed since its first op.")

let pipeline_depth_t =
  Arg.(
    value & opt int 4
    & info [ "pipeline-depth" ]
        ~doc:
          "Unacknowledged sequencer rounds each replica kernel may keep in \
           flight (1 = the paper's lock-step send).")

let serve_cmd =
  let run shards hosts replication r seed max_batch batch_delay_us
      pipeline_depth =
    let open Amoeba_service in
    let module D = Amoeba_loadgen.Driver in
    let cfg =
      {
        D.default with
        D.shards;
        hosts;
        routers = 1;
        replication;
        wire_mbps = 10;
        max_batch;
        batch_delay_us;
        pipeline_depth;
        seed;
      }
    in
    D.bring_up ~resilience:r cfg (fun d ->
        let svc = d.D.service and router = d.D.routers.(0) in
        Format.printf "%a@." Shard_map.pp d.D.map;
        for i = 0 to (4 * shards) - 1 do
          ignore
            (Router.put router
               (Printf.sprintf "demo-%d" i)
               (Printf.sprintf "value-%d" i))
        done;
        Amoeba_sim.Engine.sleep d.D.cluster.Cluster.engine
          (Amoeba_sim.Time.ms 300);
        Printf.printf "service up: %d shard(s) x %d replica(s), %d demo writes\n"
          shards
          (Shard_map.replication d.D.map)
          (Service.writes_ok svc);
        for s = 0 to shards - 1 do
          Printf.printf "  shard %d applied:" s;
          List.iter
            (fun (host, a) -> Printf.printf " m%d=%d" host a)
            (Service.applied svc s);
          print_newline ()
        done)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Deploy the sharded key/value service (one replicated group per \
          shard) and show its placement.")
    Term.(
      const run $ shards_t $ hosts_t $ replication_t $ resilience_t $ seed_t
      $ max_batch_t $ batch_delay_t $ pipeline_depth_t)

let workload_cmd =
  let routers_t =
    Arg.(
      value & opt int 4
      & info [ "routers" ] ~doc:"Client machines, one router each.")
  in
  let keys_t =
    Arg.(value & opt int 1000 & info [ "keys" ] ~doc:"Key space size.")
  in
  let value_bytes_t =
    Arg.(value & opt int 32 & info [ "value-bytes" ] ~doc:"Value size.")
  in
  let read_ratio_t =
    Arg.(
      value & opt float 0.0
      & info [ "read-ratio" ] ~doc:"Fraction of reads (0.0 - 1.0).")
  in
  let dist_t =
    Arg.(
      value & opt string "uniform"
      & info [ "dist" ]
          ~doc:
            "Key popularity: uniform, zipf, or latest (YCSB-D's \
             read-latest: a Zipf-distributed offset back from the newest \
             key).")
  in
  let skew_t =
    Arg.(
      value & opt float 0.99
      & info [ "skew" ] ~doc:"Skew exponent (with --dist zipf or latest).")
  in
  let workers_t =
    Arg.(
      value & opt int 16
      & info [ "workers" ] ~doc:"Closed-loop clients (ignored with --rate).")
  in
  let rate_t =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~doc:"Open-loop arrival rate (ops per second).")
  in
  let duration_t =
    Arg.(value & opt int 5000 & info [ "duration" ] ~doc:"Simulated ms.")
  in
  let ramp_t =
    Arg.(
      value & opt int 0
      & info [ "ramp-ms" ]
          ~doc:
            "Closed-loop slow start: stagger worker startup over this \
             many simulated ms instead of unleashing the whole herd at \
             t=0 (thousands of first-contact clients starve every CPU \
             at once and the group kernels read the stall as member \
             failures).  0 keeps the all-at-once start.")
  in
  let crash_seq_t =
    Arg.(
      value & flag
      & info [ "crash-sequencer" ]
          ~doc:
            "Crash shard 0's sequencer machine halfway through and check the \
             chaos invariants per shard afterwards (requires resilience >= \
             1 for the durability check).  The group auto-heals while the \
             router keeps serving from the surviving replicas.")
  in
  let crash_follower_t =
    Arg.(
      value & flag
      & info [ "crash-follower" ]
          ~doc:
            "Crash shard 0's first follower replica halfway through.  The \
             follower is in the router's serving rotation (sequencer-host \
             endpoints are held in reserve), so this exercises the router's \
             probe/suspect/failover path; invariants are checked per shard \
             afterwards.")
  in
  let wire_t =
    Arg.(
      value & opt int 10
      & info [ "wire-mbps" ]
          ~doc:
            "Ethernet bit rate in Mbit/s (default 10, the paper's testbed). \
             On the shared 10 Mbit wire the medium itself saturates near 850 \
             ops/s whatever the shard count; 100 makes the machines the \
             bottleneck again, the regime where shards scale.")
  in
  let checkpoint_every_t =
    Arg.(
      value & opt int 64
      & info [ "checkpoint-every" ]
          ~doc:
            "With --disk: each replica checkpoints its state and trims the \
             WAL every this many applied updates (0 never checkpoints).")
  in
  let fsync_t =
    let open Amoeba_grouplib.Rsm in
    let fsync_conv =
      let parse = function
        | "commit" -> Ok Every_commit
        | "group" -> Ok (Group_fsync 8)
        | "checkpoint" -> Ok Checkpoint_only
        | s ->
            Error
              (`Msg
                (Printf.sprintf "unknown fsync policy %S \
                                 (commit|group|checkpoint)" s))
      in
      let print fmt p =
        Format.pp_print_string fmt
          (match p with
          | Every_commit -> "commit"
          | Group_fsync _ -> "group"
          | Checkpoint_only -> "checkpoint")
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt fsync_conv (Group_fsync 8)
      & info [ "fsync" ]
          ~doc:
            "With --disk: when a replica fsyncs its WAL.  'commit' syncs \
             every applied update (every acked write survives a power \
             loss), 'group' every 8th (bounded trailing-window loss), \
             'checkpoint' only at checkpoints.")
  in
  let power_cycle_t =
    Arg.(
      value & flag
      & info [ "power-cycle" ]
          ~doc:
            "Requires --disk.  Write sentinel keys a quarter of the way \
             through, power off EVERY server host at the halfway mark, \
             restart them ~275 simulated ms later, recover the whole \
             service from its disks, repoint the routers, and read the \
             sentinels back.  With --fsync commit any acked sentinel lost \
             across the cycle fails the run (exit 1); weaker policies \
             report trailing-window losses without failing.")
  in
  let stale_reads_t =
    Arg.(
      value & flag
      & info [ "stale-reads" ]
          ~doc:
            "Routers issue bounded-staleness gets, answered from each \
             replica's last durable checkpoint (the durable frontier) \
             instead of the live state.")
  in
  let migrate_t =
    Arg.(
      value & flag
      & info [ "migrate" ]
          ~doc:
            "Live-migrate shard 0 onto fresh hosts a third of the way \
             through, while the workload keeps running: the destinations \
             join the running group (atomic checkpoint + delta state \
             transfer), the sequencer role cuts over view-synchronously \
             and the routers repoint.  Prints the migration window.  \
             Needs enough hosts free of shard 0 replicas to hold a full \
             replica set.")
  in
  let rebalance_t =
    Arg.(
      value & flag
      & info [ "rebalance" ]
          ~doc:
            "Start the elastic rebalancer: sample per-shard load every \
             250 simulated ms, and when one machine's sequencing load \
             exceeds twice the pool mean, live-migrate the hottest shard \
             it sequences onto the coldest fresh hosts.  Pair with --dist \
             zipf, whose hot-key skew is what trips it.")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Also print the measured result as a JSON object.  The JSON \
             figures read the same ramp-excluded accumulator as the text \
             figures, so the two cannot disagree about warmup exclusion.")
  in
  let run shards hosts routers replication r keys value_bytes read_ratio dist
      skew workers rate duration_ms ramp_ms seed net wire_mbps crash_seq
      crash_follower max_batch batch_delay_us pipeline_depth disk
      checkpoint_every fsync power_cycle stale_reads migrate rebalance json =
    let open Amoeba_sim in
    let open Amoeba_service in
    let module D = Amoeba_loadgen.Driver in
    let dist =
      match dist with
      | "uniform" -> Keygen.Uniform
      | "zipf" -> Keygen.Zipf skew
      | "latest" -> Keygen.Latest skew
      | s ->
          Printf.eprintf "unknown distribution %S (uniform|zipf|latest)\n" s;
          exit 2
    in
    if power_cycle && disk = None then begin
      Printf.eprintf "--power-cycle needs a disk (pass --disk)\n";
      exit 2
    end;
    let duration = Amoeba_sim.Time.ms duration_ms in
    let ramp = max 0 (min (Amoeba_sim.Time.ms ramp_ms) duration) in
    let cfg =
      {
        D.shards;
        hosts;
        routers;
        replication;
        wire_mbps;
        net;
        max_batch;
        batch_delay_us;
        pipeline_depth;
        mix = Amoeba_loadgen.Mix.read_write ~read:read_ratio dist;
        keys;
        value_dist = Amoeba_loadgen.Dist.Fixed value_bytes;
        txn_size = 1;
        duration = duration - ramp;
        warmup = ramp;
        seed;
      }
    in
    let host_list = List.init hosts Fun.id in
    let failed = ref false in
    let crashing = crash_seq || crash_follower in
    (* Invariants are checked whenever the run disturbs the service —
       crashes, live migration, elastic rebalancing — not only on the
       crash paths: a migration that loses or duplicates a write must
       fail the run (exit 1), not just print throughput.  The record
       tap is a pure callback with no simulated cost, so enabling it
       does not move any measured figure. *)
    let checking = crashing || migrate || rebalance in
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
    D.bring_up ?disk ?durable ~resilience:r ~record:checking ~stale_reads
      ~impair_bring_up:true cfg (fun d ->
        let cl = d.D.cluster and svc = d.D.service and map = d.D.map in
        let eng = cl.Cluster.engine in
        let rs = Array.to_list d.D.routers in
        (* Fibers the report waits for, so their verdicts are in. *)
        let side = ref [] in
        let spawn_side f =
          let iv = Ivar.create () in
          side := iv :: !side;
          Cluster.spawn cl (fun () ->
              f ();
              Ivar.fill iv ())
        in
        (if power_cycle then
           let dc = Option.get durable in
           spawn_side (fun () ->
               Engine.sleep eng (duration / 4);
               (* Sentinel writes: the acked ones are the durability
                  obligations the cycle must not revoke. *)
               let router0 = List.hd rs in
               let acked = ref [] in
               for i = 0 to 9 do
                 let k = Printf.sprintf "sentinel-%d" i in
                 match Router.put router0 k (Printf.sprintf "s%d" i) with
                 | Router.Written -> acked := i :: !acked
                 | _ -> ()
               done;
               let cut = duration / 2 in
               let now = Engine.now eng in
               if cut > now then Engine.sleep eng (cut - now);
               Printf.printf
                 "power loss: all %d server hosts down at t=%.1fs\n%!" hosts
                 (Amoeba_sim.Time.to_sec (Engine.now eng));
               List.iter
                 (fun h -> Amoeba_net.Machine.crash (Cluster.machine cl h))
                 host_list;
               Engine.sleep eng (Amoeba_sim.Time.ms 275);
               List.iter (fun h -> Cluster.restart cl h) host_list;
               let svc' =
                 Service.recover cl ~map ~durable:dc ~resilience:r
                   ~pipeline:pipeline_depth ()
               in
               List.iter
                 (fun router ->
                   Router.update_endpoints router (Service.endpoints svc'))
                 rs;
               List.iter
                 (fun sr ->
                   Printf.printf "recovered: shard %d from m%d at %d applied (%s)\n%!"
                     sr.Service.sr_shard sr.Service.sr_creator
                     sr.Service.sr_applied
                     (String.concat ", "
                        (List.map
                           (fun hr ->
                             Printf.sprintf "m%d:%s" hr.Service.hr_host
                               (match hr.Service.hr_error with
                               | Some _ -> "refused"
                               | None -> string_of_int hr.Service.hr_applied))
                           sr.Service.sr_hosts)))
                 (Service.recovery_report svc');
               let lost = ref [] in
               List.iter
                 (fun i ->
                   let k = Printf.sprintf "sentinel-%d" i in
                   match Router.get router0 k with
                   | Router.Value _ -> ()
                   | _ -> lost := k :: !lost)
                 (List.rev !acked);
               Printf.printf "sentinels: %d acked, %d lost across the cycle%s\n%!"
                 (List.length !acked) (List.length !lost)
                 (if !lost = [] then ""
                  else " (" ^ String.concat ", " !lost ^ ")");
               match (dc.Service.d_sync, !lost) with
               | _, [] -> ()
               | Amoeba_grouplib.Rsm.Every_commit, _ ->
                   Printf.printf
                     "FAIL: acked writes lost under fsync-per-commit\n%!";
                   failed := true
               | _ ->
                   Printf.printf
                     "(allowed by the fsync policy's trailing window)\n%!"));
        let repoint () =
          List.iter
            (fun router -> Router.update_endpoints router (Service.endpoints svc))
            rs
        in
        let pp_hosts hs =
          String.concat "," (List.map (Printf.sprintf "m%d") hs)
        in
        (if migrate then
           spawn_side (fun () ->
               Engine.sleep eng (duration / 3);
               let cur = Shard_map.replica_hosts (Service.map svc) 0 in
               let free =
                 List.filter (fun h -> not (List.mem h cur)) host_list
               in
               let k = List.length cur in
               if List.length free < k then
                 Printf.printf
                   "migrate: only %d hosts free of shard 0 replicas, %d \
                    needed\n%!"
                   (List.length free) k
               else begin
                 let tgt = List.filteri (fun i _ -> i < k) free in
                 let t0 = Engine.now eng in
                 match Service.migrate_shard svc ~shard:0 ~hosts:tgt () with
                 | Ok () ->
                     repoint ();
                     Printf.printf
                       "migrated:  shard 0 [%s] -> [%s] in %.1f simulated ms\n%!"
                       (pp_hosts cur)
                       (pp_hosts (Shard_map.replica_hosts (Service.map svc) 0))
                       (Amoeba_sim.Time.to_sec (Engine.now eng - t0) *. 1000.)
                 | Error e -> Printf.printf "migrate: failed: %s\n%!" e
               end));
        (if rebalance then
           ignore
             (Rebalancer.start cl svc
                ~on_move:(fun mv ->
                  match mv.Rebalancer.mv_result with
                  | Ok () ->
                      repoint ();
                      Printf.printf
                        "rebalanced: shard %d [%s] -> [%s] at t=%.1fs\n%!"
                        mv.Rebalancer.mv_shard
                        (pp_hosts mv.Rebalancer.mv_from)
                        (pp_hosts mv.Rebalancer.mv_to)
                        (Amoeba_sim.Time.to_sec mv.Rebalancer.mv_time)
                  | Error e ->
                      Printf.printf "rebalance: shard %d move failed: %s\n%!"
                        mv.Rebalancer.mv_shard e)
                ()));
        let crash_at delay what h =
          Cluster.spawn cl (fun () ->
              Engine.sleep eng delay;
              Printf.printf "crashing m%d (shard 0's %s) at t=%.1fs\n%!" h what
                (Amoeba_sim.Time.to_sec (Engine.now eng));
              Amoeba_net.Machine.crash (Cluster.machine cl h))
        in
        let crashed =
          (if crash_seq then begin
             let h = Shard_map.sequencer_host map 0 in
             crash_at (duration / 2) "sequencer" h;
             [ h ]
           end
           else [])
          @
          if crash_follower then begin
            match Shard_map.replica_hosts map 0 with
            | _seq :: follower :: _ ->
                crash_at (duration / 2) "serving follower" follower;
                [ follower ]
            | _ ->
                Printf.eprintf "--crash-follower needs replication >= 2\n";
                exit 2
          end
          else []
        in
        let t =
          D.drive d
            (match rate with Some rate -> D.Open rate | None -> D.Closed workers)
        in
        List.iter (Ivar.read eng) !side;
        Format.printf "%a@." D.pp_trial t;
        if json then
          print_string
            (Bench_json.to_string
               (Bench_json.Obj
                  [
                    ("attempted", Bench_json.Int t.D.attempted);
                    ("completed", Bench_json.Int t.D.completed);
                    ("failed", Bench_json.Int t.D.failed);
                    ("ops_per_sec", Bench_json.Float t.D.throughput);
                    ("mean_ms", Bench_json.Float t.D.mean_ms);
                    ("p50_ms", Bench_json.Float t.D.p50_ms);
                    ("p95_ms", Bench_json.Float t.D.p95_ms);
                    ("p99_ms", Bench_json.Float t.D.p99_ms);
                    ("max_ms", Bench_json.Float t.D.max_ms);
                    ("reads", Bench_json.Int t.D.reads);
                    ("writes", Bench_json.Int t.D.updates);
                    ( "per_shard",
                      Bench_json.List
                        (List.map
                           (fun c -> Bench_json.Int c)
                           (Array.to_list t.D.per_shard)) );
                  ]));
        let agg f = List.fold_left (fun a r -> a + f (Router.stats r)) 0 rs in
        Printf.printf
          "routers:   %d ops, %d retries, %d failovers, %d dead probes\n"
          (agg (fun s -> s.Router.ops))
          (agg (fun s -> s.Router.retries))
          (agg (fun s -> s.Router.failovers))
          (agg (fun s -> s.Router.probes_dead));
        let batches = agg (fun s -> s.Router.batches_sent) in
        let batched_ops = agg (fun s -> s.Router.ops_batched) in
        Printf.printf
          "batching:  %d batches (%.1f ops/batch avg), %d partial flushes, %d \
           batch retries\n"
          batches
          (if batches = 0 then 1.
           else float_of_int batched_ops /. float_of_int batches)
          (agg (fun s -> s.Router.partial_flushes))
          (agg (fun s -> s.Router.batch_retries));
        Printf.printf "service:   %d reads, %d writes ok, %d busy rejections\n"
          (Service.reads svc) (Service.writes_ok svc) (Service.writes_busy svc);
        (* Per-replica applied counts by shard: identical numbers mean a
           healthy group, divergent ones a fissioned membership — the
           fingerprint that cracked the 32-shard herd collapse.  Env-
           gated so normal output stays stable for the smoke aliases. *)
        (try
           if Sys.getenv "AMOEBA_SHARD_DEBUG" = "1" then
             for s = 0 to shards - 1 do
               Printf.printf "shard %d applied: %s\n" s
                 (String.concat " "
                    (List.map
                       (fun (h, a) -> Printf.sprintf "m%d:%d" h a)
                       (Service.applied svc s)))
             done
         with Not_found -> ());
        let m = cl.Cluster.net in
        Printf.printf
          "fabric:    %.1f%% utilisation, %d frames, %d KB, %d collisions, %d \
           queue drops\n"
          (100. *. Amoeba_net.Medium.utilisation m)
          (Amoeba_net.Medium.frames_delivered m)
          (Amoeba_net.Medium.bytes_delivered m / 1024)
          (Amoeba_net.Medium.collisions m)
          (Amoeba_net.Medium.queue_drops m);
        (match durable with
        | None -> ()
        | Some dc ->
            let c = Amoeba_grouplib.Stable_store.counters dc.Service.d_store in
            let module S = Amoeba_grouplib.Stable_store in
            Printf.printf
              "storage:   %d wal appends, %d fsyncs, %d checkpoints, %d wal \
               trims, %d writes lost to dead machines\n"
              c.S.wal_appends c.S.fsyncs c.S.kv_writes c.S.wal_trims
              c.S.writes_dropped;
            if power_cycle then
              Printf.printf
                "replayed:  %d records recovered, %d torn tails truncated, %d \
                 checksum rejects\n"
                c.S.records_replayed c.S.torn_tails c.S.checksum_rejects);
        if stale_reads then
          Printf.printf "stale:     %d bounded-staleness gets\n"
            (agg (fun s -> s.Router.stale_gets));
        if checking then begin
          List.iter
            (fun (shard, vs) ->
              List.iter
                (fun v ->
                  Format.printf "shard %d: %a@." shard Checker.pp_verdict v;
                  if not v.Checker.ok then failed := true)
                vs)
            (Service.check svc ~crashed);
          Printf.printf "verdict:   %s\n"
            (if !failed then "FAIL" else "PASS")
        end);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Drive the sharded service with a measured open- or closed-loop \
          key/value workload (aggregate throughput, latency percentiles).")
    Term.(
      const run $ shards_t $ hosts_t $ routers_t $ replication_t $ resilience_t
      $ keys_t $ value_bytes_t $ read_ratio_t $ dist_t $ skew_t $ workers_t
      $ rate_t $ duration_t $ ramp_t $ seed_t $ net_t $ wire_t $ crash_seq_t
      $ crash_follower_t $ max_batch_t $ batch_delay_t $ pipeline_depth_t
      $ disk_t $ checkpoint_every_t $ fsync_t $ power_cycle_t $ stale_reads_t
      $ migrate_t $ rebalance_t $ json_t)

let migration_chaos_cmd =
  let seed_t =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scenario seed.")
  in
  let crash_source_t =
    Arg.(
      value & flag
      & info [ "crash-source" ]
          ~doc:"Crash the source sequencer machine mid-migration.")
  in
  let crash_dest_t =
    Arg.(
      value & flag
      & info [ "crash-dest" ]
          ~doc:"Crash the destination head machine mid-migration.")
  in
  let power_cycle_t =
    Arg.(
      value & flag
      & info [ "power-cycle" ]
          ~doc:
            "Power off every server host mid-migration, restart 275 ms \
             later, recover from the union of old and new replica disks, \
             and read back the pre-migration sentinels (fsync-per-commit: \
             any acked sentinel lost fails the run).")
  in
  let workers_t =
    Arg.(value & opt int 8 & info [ "workers" ] ~doc:"Closed-loop clients.")
  in
  let duration_t =
    Arg.(value & opt int 1200 & info [ "duration" ] ~doc:"Simulated ms.")
  in
  let run seed net crash_source crash_dest power_cycle workers duration_ms =
    let module Migration_chaos = Amoeba_loadgen.Migration_chaos in
    let spec =
      {
        Migration_chaos.mc_seed = seed;
        mc_net = net;
        mc_crash_source = crash_source;
        mc_crash_dest = crash_dest;
        mc_power_cycle = power_cycle;
        mc_workers = workers;
        mc_duration_ms = duration_ms;
      }
    in
    let o = Migration_chaos.run spec in
    Format.printf "%a@." Migration_chaos.pp_outcome o;
    if not (Migration_chaos.ok o) then exit 1
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
    Arg.(
      value & opt string "a"
      & info [ "mix" ]
          ~doc:
            "YCSB mix: a (50/50 update-heavy, Zipf), b (95/5 read-mostly, \
             Zipf), c (read-only, Zipf), d (95/5 read-latest + inserts).")
  in
  let txn_ratio_t =
    Arg.(
      value & opt float 0.0
      & info [ "txn-ratio" ]
          ~doc:
            "Fraction of operations issued as multi-key single-shard \
             read-modify-write transactions (taken from the mix's update \
             share first).")
  in
  let txn_size_t =
    Arg.(
      value & opt int 3
      & info [ "txn-size" ] ~doc:"Keys per multi-key transaction.")
  in
  let keys_t =
    Arg.(value & opt int 1_000 & info [ "keys" ] ~doc:"Key space size.")
  in
  let value_dist_t =
    Arg.(
      value & opt string "fixed:32"
      & info [ "value-dist" ]
          ~doc:
            "Value size distribution: fixed:N, uniform:MIN:MAX, or \
             lognormal:MEDIAN:SIGMA.")
  in
  let shards_t =
    Arg.(value & opt int 1 & info [ "shards" ] ~doc:"Shard count.")
  in
  let hosts_t =
    Arg.(value & opt int 4 & info [ "hosts" ] ~doc:"Replica host machines.")
  in
  let routers_t =
    Arg.(value & opt int 2 & info [ "routers" ] ~doc:"Router machines.")
  in
  let replication_t =
    Arg.(value & opt int 2 & info [ "replication" ] ~doc:"Replicas per shard.")
  in
  let wire_t =
    Arg.(value & opt int 100 & info [ "wire-mbps" ] ~doc:"Wire speed, Mbit/s.")
  in
  let max_batch_t =
    Arg.(value & opt int 32 & info [ "max-batch" ] ~doc:"Router op batching.")
  in
  let pipeline_depth_t =
    Arg.(
      value & opt int 4
      & info [ "pipeline-depth" ] ~doc:"Kernel in-flight sequencer rounds.")
  in
  let duration_t =
    Arg.(
      value & opt int 2_000
      & info [ "duration" ] ~doc:"Measured window per trial, simulated ms.")
  in
  let warmup_t =
    Arg.(
      value & opt int 500
      & info [ "warmup" ]
          ~doc:"Warmup per trial, simulated ms (excluded from figures).")
  in
  let seed_t = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Trial seed.") in
  let slo_t =
    Arg.(
      value & opt float 50.0
      & info [ "slo-p99-ms" ] ~doc:"The SLO: trial p99 must stay under this.")
  in
  let min_completion_t =
    Arg.(
      value & opt float 0.95
      & info [ "min-completion" ]
          ~doc:"And completed/attempted must reach this.")
  in
  let rate_t =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ]
          ~doc:
            "Run one open-loop trial at this offered rate (ops/s) instead \
             of searching for the knee.")
  in
  let lo_t =
    Arg.(
      value & opt float 50.0
      & info [ "lo" ] ~doc:"Floor rate the saturation search starts from.")
  in
  let tol_t =
    Arg.(
      value & opt float 0.08
      & info [ "tol" ] ~doc:"Relative bracket width the search converges to.")
  in
  let max_probes_t =
    Arg.(
      value & opt int 14
      & info [ "max-probes" ] ~doc:"Trial budget for the search.")
  in
  let sweep_t =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run the full shard-count x fabric sweep (the bench loadgen \
             target) instead of a single configuration; --shards/--net etc. \
             are ignored.")
  in
  let smoke_t =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Tiny windows, key space and probe budget (CI parameters).")
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "With --sweep: validate and write BENCH_loadgen.json.  \
             Otherwise: also print the outcome as a JSON object.")
  in
  let run mix txn_ratio txn_size keys value_dist shards hosts routers
      replication wire_mbps max_batch pipeline_depth (fabric, net) duration_ms
      warmup_ms seed slo_p99 min_completion rate lo tol max_probes sweep smoke
      json =
    let mix =
      match L.Mix.of_string mix with
      | Ok m -> m
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 2
    in
    let mix =
      if txn_ratio > 0.0 then L.Mix.with_txn mix ~size_hint:txn_size txn_ratio
      else mix
    in
    let value_dist =
      match L.Dist.of_string value_dist with
      | Ok d -> d
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 2
    in
    let slo = { L.Saturation.p99_ms = slo_p99; min_completion } in
    (* --smoke clamps toward the CI parameters wherever the flag is
       still at its default-ish scale. *)
    let duration_ms = if smoke then min duration_ms 400 else duration_ms in
    let warmup_ms = if smoke then min warmup_ms 100 else warmup_ms in
    let keys = if smoke then min keys 200 else keys in
    let max_probes = if smoke then min max_probes 8 else max_probes in
    let tol = if smoke then Float.max tol 0.25 else tol in
    let lo = if smoke then Float.max lo 100.0 else lo in
    let params =
      {
        L.Report.slo;
        mix;
        keys;
        value_dist;
        txn_size;
        duration_ms;
        warmup_ms;
        replication;
        wire_mbps;
        max_batch;
        pipeline_depth;
        lo;
        tol;
        max_probes;
        seed;
      }
    in
    if sweep then begin
      L.Report.print_header ();
      let rows =
        L.Report.sweep ~progress:L.Report.print_row ~smoke params
      in
      if json then
        L.Report.write_json ~path:"BENCH_loadgen.json" params rows
    end
    else begin
      let net = Amoeba_net.Medium.net_to_string (fabric, net) in
      match rate with
      | Some rate ->
          let t =
            L.Driver.run (L.Report.config_of params ~shards ~hosts ~routers ~net)
              ~rate
          in
          Format.printf "%a@." L.Driver.pp_trial t;
          if json then
            print_string
              (Bench_json.to_string
                 (Bench_json.Obj
                    [
                      ("offered", Bench_json.Float t.L.Driver.offered);
                      ("attempted", Bench_json.Int t.L.Driver.attempted);
                      ("completed", Bench_json.Int t.L.Driver.completed);
                      ("failed", Bench_json.Int t.L.Driver.failed);
                      ("throughput", Bench_json.Float t.L.Driver.throughput);
                      ("completion", Bench_json.Float t.L.Driver.completion);
                      ("p50_ms", Bench_json.Float t.L.Driver.p50_ms);
                      ("p95_ms", Bench_json.Float t.L.Driver.p95_ms);
                      ("p99_ms", Bench_json.Float t.L.Driver.p99_ms);
                    ]))
      | None ->
          let o =
            (L.Report.run_row params ~shards ~hosts ~routers ~net)
              .L.Report.outcome
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
                      ( "probes",
                        Bench_json.Int (List.length o.L.Saturation.probes) );
                      ("converged", Bench_json.Bool o.L.Saturation.converged);
                    ]))
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "YCSB-style open-loop load generation: drive a mixed workload at a \
          fixed offered rate, or binary-search the highest rate that meets \
          a tail-latency SLO (the saturation knee), per configuration or as \
          a full shard x fabric sweep.")
    Term.(
      const run $ mix_t $ txn_ratio_t $ txn_size_t $ keys_t $ value_dist_t
      $ shards_t $ hosts_t $ routers_t $ replication_t $ wire_t $ max_batch_t
      $ pipeline_depth_t $ net_t $ duration_t $ warmup_t $ seed_t $ slo_t
      $ min_completion_t $ rate_t $ lo_t $ tol_t $ max_probes_t $ sweep_t
      $ smoke_t $ json_t)

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
      serve_cmd;
      workload_cmd;
      migration_chaos_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval main)
