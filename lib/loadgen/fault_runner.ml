open Amoeba_sim
open Amoeba_harness
open Amoeba_service
module Machine = Amoeba_net.Machine
module Medium = Amoeba_net.Medium
module Rsm = Amoeba_grouplib.Rsm
module Stable_store = Amoeba_grouplib.Stable_store

type action =
  | Crash of int
  | Migrate of { shard : int; hosts : int list; timeout : Time.t option }
  | Sentinels of int
  | Power_cycle
  | Rebalance

type step = { at : Time.t; action : action }

type counters = {
  routers : Router.stats list;
  coalesced : int;
  reads : int;
  writes_ok : int;
  writes_busy : int;
  utilisation : float;
  frames : int;
  bytes : int;
  collisions : int;
  queue_drops : int;
  storage : Stable_store.counters option;
  applied : (int * int) list array;
  serving : bool;
}

type sentinels = { acked : int; lost : string list }

type outcome = {
  measured : (Driver.trial * counters) option;
  events : (Time.t * string) list;
  recovery : Service.shard_recovery list;
  sentinels : sentinels option;
  failure : string option;
  verdicts : (string * Checker.verdict) list option;
}

let ok o =
  o.failure = None
  && Option.fold ~none:true
       ~some:(fun vs -> vs <> [] && List.for_all (fun (_, v) -> v.Checker.ok) vs)
       o.verdicts

let pp_hosts hs = String.concat "," (List.map (Printf.sprintf "m%d") hs)

let run ?disk ?durable ?resilience ?(stale_reads = false) (cfg : Driver.config)
    mode plan =
  if List.exists (fun s -> s.action = Power_cycle) plan && durable = None then
    invalid_arg "Fault_runner.run: a power cycle needs ~durable";
  let deployed = ref false in
  let body (d : Driver.deployment) =
    deployed := true;
    let cl = d.cluster in
    let eng = cl.Cluster.engine and routers = Array.to_list d.routers in
    let events = ref [] and failure = ref None in
    let log fmt =
      Printf.ksprintf (fun e -> events := (Engine.now eng, e) :: !events) fmt
    in
    let fail e = if !failure = None then failure := Some e in
    (* One service per epoch, newest first: a power cycle ends an epoch
       and a successful recovery starts the next. *)
    let epochs = ref [ d.service ] and cuts = ref 0 in
    let current () = List.hd !epochs in
    let crashed = ref [] (* in the current epoch *) and recovery = ref [] in
    let written = ref [] and lost = ref None in
    (* Every host that ever held each shard: what a recovery reads. *)
    let held = Array.init cfg.shards (Shard_map.replica_hosts d.map) in
    let hold s hs =
      held.(s) <- held.(s) @ List.filter (fun h -> not (List.mem h held.(s))) hs
    in
    let repoint () =
      let eps = Service.endpoints (current ()) in
      List.iter (fun r -> Router.update_endpoints r eps) routers
    in
    let act = function
      | Crash h ->
          let m = Cluster.machine cl h in
          if Machine.is_alive m then begin
            Machine.crash m;
            crashed := h :: !crashed;
            log "crash m%d" h
          end
      | Migrate { shard; hosts; timeout } -> (
          let svc = current () and t0 = Engine.now eng in
          log "migrate shard %d [%s] -> [%s]" shard
            (pp_hosts (Shard_map.replica_hosts (Service.map svc) shard))
            (pp_hosts hosts);
          hold shard hosts;
          let res = Service.migrate_shard svc ~shard ?timeout ~hosts () in
          repoint ();
          let ms = Time.to_ms (Engine.now eng - t0) in
          match res with
          | Ok () -> log "migrated shard %d in %.1f ms" shard ms
          | Error e ->
              log "shard %d migration rolled back after %.1f ms (%s)" shard ms e)
      | Sentinels n ->
          for i = 0 to n - 1 do
            let k = Printf.sprintf "sentinel-%d" i in
            if Router.put (List.hd routers) k (Printf.sprintf "s%d" i) = Written
            then written := k :: !written
          done
      | Power_cycle -> (
          let dc = Option.get durable and hosts = List.init cfg.hosts Fun.id in
          List.iter (fun h -> Machine.crash (Cluster.machine cl h)) hosts;
          incr cuts;
          log "power off all %d server hosts" cfg.hosts;
          Engine.sleep eng (Time.ms 275);
          List.iter (Cluster.restart cl) hosts;
          crashed := [];
          match
            Service.recover cl ~map:d.map ~durable:dc ?resilience
              ~pipeline:cfg.pipeline_depth ~record:true
              ~hosts_for:(fun s -> held.(s))
              ()
          with
          | exception Failure e -> fail ("recovery: " ^ e)
          | svc ->
              epochs := svc :: !epochs;
              recovery := Service.recovery_report svc;
              repoint ();
              let gone k =
                match Router.get (List.hd routers) k with
                | Router.Value _ -> false
                | _ -> true
              in
              let l = List.filter gone (List.rev !written) in
              lost := Some l;
              if l = [] then ()
              else if dc.Service.d_sync = Rsm.Every_commit then
                fail "acked sentinels lost under fsync-per-commit"
              else log "sentinel loss allowed by the fsync policy's window")
      | Rebalance ->
          let on_move (mv : Rebalancer.move) =
            hold mv.mv_shard mv.mv_to;
            repoint ();
            log "rebalance shard %d [%s] -> [%s]: %s" mv.mv_shard
              (pp_hosts mv.mv_from) (pp_hosts mv.mv_to)
              (match mv.mv_result with
              | Ok () -> "migrated"
              | Error e -> "failed (" ^ e ^ ")")
          in
          ignore (Rebalancer.start cl (current ()) ~on_move ())
    in
    List.iter
      (fun { at; action } ->
        Cluster.spawn cl (fun () ->
            Engine.sleep eng at;
            act action))
      plan;
    let trial = Driver.drive d mode and net = cl.Cluster.net in
    let over_epochs f = List.fold_left (fun a svc -> a + f svc) 0 !epochs in
    let counters =
      {
        routers = List.map Router.stats routers;
        coalesced = List.fold_left (fun a r -> a + Router.coalesced r) 0 routers;
        reads = over_epochs Service.reads;
        writes_ok = over_epochs Service.writes_ok;
        writes_busy = over_epochs Service.writes_busy;
        utilisation = Medium.utilisation net;
        frames = Medium.frames_delivered net;
        bytes = Medium.bytes_delivered net;
        collisions = Medium.collisions net;
        queue_drops = Medium.queue_drops net;
        storage =
          Option.map
            (fun dc ->
              (* a copy: the store's own record keeps counting *)
              let c = Stable_store.counters dc.Service.d_store in
              { c with Stable_store.kv_writes = c.Stable_store.kv_writes })
            durable;
        applied = Array.init cfg.shards (Service.applied (current ()));
        serving = !cuts < List.length !epochs;
      }
    in
    (* Quiesce, then judge each epoch: one that a power cycle ended
       without durability, the serving one in full. *)
    let judge () =
      Engine.sleep eng (Time.sec 5);
      List.rev !epochs
      |> List.mapi (fun i svc ->
             let by_shard f = List.init cfg.shards (fun s -> (s, f s)) in
             (if i < !cuts then
                by_shard (fun shard ->
                    Checker.run ~durability_applies:false
                      ~streams:
                        (Service.checker_streams svc ~shard
                           ~crashed:(fun _ -> true))
                      ~completed:(Service.completed svc ~shard)
                      ())
              else
                Service.check svc ~crashed:!crashed
                @
                if i = 0 then []
                else
                  by_shard (fun shard ->
                      [ Service.check_migration svc ~shard ~crashed:!crashed ]))
             |> List.concat_map (fun (s, vs) ->
                    let l = Printf.sprintf "shard %d%s" s (String.make i '\'') in
                    List.map (fun v -> (l, v)) vs))
      |> List.concat
    in
    let verdicts = if plan = [] then None else Some (judge ()) in
    let sentinels l = { acked = List.length !written; lost = l } in
    {
      measured = Some (trial, counters);
      events = List.rev !events;
      recovery = !recovery;
      sentinels = Option.map sentinels !lost;
      failure = !failure;
      verdicts;
    }
  in
  match
    Driver.bring_up ?disk ?durable ?resilience ~record:(plan <> [])
      ~stale_reads ~impair_bring_up:true cfg body
  with
  | o -> o
  | exception Failure e when not !deployed ->
      {
        measured = None;
        events = [];
        recovery = [];
        sentinels = None;
        failure = Some ("deploy: " ^ e);
        verdicts = None;
      }

let pp_outcome ppf o =
  let lines = ref [] in
  let line fmt = Printf.ksprintf (fun l -> lines := l :: !lines) fmt in
  List.iter
    (fun (t, e) -> line "%-10s %s" (Printf.sprintf "t=%.1fs" (Time.to_sec t)) e)
    o.events;
  List.iter
    (fun (sr : Service.shard_recovery) ->
      let host (hr : Service.host_recovery) =
        Printf.sprintf "m%d:%s" hr.hr_host
          (if hr.hr_error = None then string_of_int hr.hr_applied else "refused")
      in
      line "recovered: shard %d from m%d at %d applied (%s)" sr.sr_shard
        sr.sr_creator sr.sr_applied
        (String.concat ", " (List.map host sr.sr_hosts)))
    o.recovery;
  Option.iter
    (fun s ->
      line "sentinels: %d acked, %d lost across the cycle%s" s.acked
        (List.length s.lost)
        (if s.lost = [] then "" else " (" ^ String.concat ", " s.lost ^ ")"))
    o.sentinels;
  Option.iter
    (fun (t, c) ->
      let sum f = List.fold_left (fun a s -> a + f s) 0 c.routers in
      let batches = sum (fun s -> s.Router.batches_sent) in
      line "%s" (Fmt.str "%a" Driver.pp_trial t);
      line "routers:   %d ops, %d retries, %d failovers, %d dead probes"
        (sum (fun s -> s.Router.ops))
        (sum (fun s -> s.Router.retries))
        (sum (fun s -> s.Router.failovers))
        (sum (fun s -> s.Router.probes_dead));
      line
        "batching:  %d batches (%.1f ops/batch avg), %d partial flushes, %d \
         batch retries, %d coalesced reads"
        batches
        (if batches = 0 then 1.
         else
           float_of_int (sum (fun s -> s.Router.ops_batched))
           /. float_of_int batches)
        (sum (fun s -> s.Router.partial_flushes))
        (sum (fun s -> s.Router.batch_retries))
        c.coalesced;
      line "service:   %d reads, %d writes ok, %d busy rejections" c.reads
        c.writes_ok c.writes_busy;
      line
        "fabric:    %.1f%% utilisation, %d frames, %d KB, %d collisions, %d \
         queue drops"
        (100. *. c.utilisation) c.frames (c.bytes / 1024) c.collisions
        c.queue_drops;
      Option.iter
        (fun (s : Stable_store.counters) ->
          line
            "storage:   %d wal appends, %d fsyncs, %d checkpoints, %d wal \
             trims, %d writes lost to dead machines"
            s.wal_appends s.fsyncs s.kv_writes s.wal_trims s.writes_dropped;
          if o.recovery <> [] then
            line
              "replayed:  %d records recovered, %d torn tails truncated, %d \
               checksum rejects"
              s.records_replayed s.torn_tails s.checksum_rejects)
        c.storage;
      let stale = sum (fun s -> s.Router.stale_gets) in
      if stale > 0 then line "stale:     %d bounded-staleness gets" stale)
    o.measured;
  Option.iter (line "failure:   %s") o.failure;
  Option.iter
    (List.iter (fun (l, v) -> line "%s" (Fmt.str "%s: %a" l Checker.pp_verdict v)))
    o.verdicts;
  if o.verdicts <> None || o.failure <> None then
    line "verdict:   %s" (if ok o then "PASS" else "FAIL");
  (* Per-replica applied counts when the run or an op failed: identical
     numbers mean a healthy group, divergent ones a fissioned
     membership.  After a failed recovery no epoch serves, and the
     counts are what the cut left on replicas that died with it. *)
  (match o.measured with
  | Some (t, c) when (not (ok o)) || t.Driver.completed < t.Driver.attempted ->
      Array.iteri
        (fun s hs ->
          line "shard %d applied%s: %s" s
            (if c.serving then "" else " at the cut")
            (String.concat " " (List.map (fun (h, a) -> Printf.sprintf "m%d:%d" h a) hs)))
        c.applied
  | _ -> ());
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut string) (List.rev !lines)

(* ----- the mid-migration chaos scenario ----- *)

type chaos = {
  seed : int;
  net : Medium.spec * Medium.conditions;
  crash_source : bool;
  crash_dest : bool;
  power_cycle : bool;
  workers : int;
  duration_ms : int;
}

let chaos ~seed =
  {
    seed;
    net = (Medium.Shared, Amoeba_net.Impair.clean);
    crash_source = false;
    crash_dest = false;
    power_cycle = false;
    workers = 8;
    duration_ms = 1200;
  }

let replay_line c =
  let d = chaos ~seed:c.seed in
  let flag on s = if on then " " ^ s else "" in
  String.concat ""
    [
      Printf.sprintf "amoeba migration-chaos --seed %d --net %s" c.seed
        (Medium.net_to_string c.net);
      flag c.crash_source "--crash-source";
      flag c.crash_dest "--crash-dest";
      flag c.power_cycle "--power-cycle";
      flag (c.workers <> d.workers) (Printf.sprintf "--workers %d" c.workers);
      flag (c.duration_ms <> d.duration_ms)
        (Printf.sprintf "--duration %d" c.duration_ms);
    ]

let run_chaos c =
  let duration = Time.ms c.duration_ms and ramp = Time.ms 50 in
  let cfg =
    {
      Driver.default with
      Driver.shards = 2;
      hosts = 7;
      routers = 2;
      replication = 2;
      net = c.net;
      max_batch = 1;
      pipeline_depth = 1;
      mix = Mix.read_write ~read:0.25 (Keygen.Zipf 0.99);
      keys = 200;
      value_dist = Dist.Fixed 16;
      duration = duration - ramp;
      warmup = ramp;
      seed = c.seed;
    }
  in
  let rng = Random.State.make [| c.seed; 0x715A |] in
  let off () = Time.ms (10 + Random.State.int rng 140) in
  let d_src = off () in
  let d_dst = off () in
  let d_pc = off () in
  let t_m = duration / 3 and dest = [ 4; 5 ] in
  let step on at action = if on then [ { at; action } ] else [] in
  let plan =
    List.concat
      [
        step c.power_cycle (duration / 4) (Sentinels 6);
        step true t_m
          (Migrate { shard = 0; hosts = dest; timeout = Some (Time.ms 600) });
        step c.crash_source (t_m + d_src)
          (Crash (Shard_map.sequencer_host (Driver.placement cfg) 0));
        step c.crash_dest (t_m + d_dst) (Crash (List.hd dest));
        step c.power_cycle (t_m + d_pc) Power_cycle;
      ]
  in
  let durable =
    {
      Service.d_store = Stable_store.create ();
      d_sync = (if c.power_cycle then Rsm.Every_commit else Rsm.Group_fsync 8);
      d_checkpoint_every = 32;
    }
  in
  run ~disk:Amoeba_net.Cost_model.ssd ~durable cfg (Driver.Closed c.workers) plan
