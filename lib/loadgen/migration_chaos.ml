open Amoeba_sim
open Amoeba_harness
open Amoeba_service
module Medium = Amoeba_net.Medium
module Machine = Amoeba_net.Machine
module Cost_model = Amoeba_net.Cost_model
module Rsm = Amoeba_grouplib.Rsm
module Stable_store = Amoeba_grouplib.Stable_store

(* The scenario: a 2-shard durable service on 7 hosts, a Zipf workload
   running throughout, and a live migration of shard 0 from its
   deployed replicas to two fresh hosts a third of the way in — while
   the fault plan crashes the source sequencer, crashes the
   destination head, and/or power-cycles the whole cluster a few
   hundred ms into the transfer.  Deterministic in the seed, like the
   other chaos runners, so any failing case replays from its printed
   CLI line. *)

type spec = {
  mc_seed : int;
  mc_net : Medium.spec * Medium.conditions;
  mc_crash_source : bool;  (* crash the source sequencer mid-migration *)
  mc_crash_dest : bool;  (* crash the destination head mid-migration *)
  mc_power_cycle : bool;  (* power-cycle every server host mid-migration *)
  mc_workers : int;
  mc_duration_ms : int;
}

let default ~seed =
  {
    mc_seed = seed;
    mc_net = (Medium.Shared, Amoeba_net.Impair.clean);
    mc_crash_source = false;
    mc_crash_dest = false;
    mc_power_cycle = false;
    mc_workers = 8;
    mc_duration_ms = 1200;
  }

type outcome = {
  o_spec : spec;
  o_migration : (unit, string) result option;
  o_completed : int;
  o_failed : int;
  o_crashed : int list;
  o_recovered : bool;
  o_sentinels_acked : int;
  o_sentinels_lost : int;
  o_verdicts : (string * Checker.verdict) list;
}

(* No verdicts means nothing was judged: never a pass. *)
let ok o =
  o.o_verdicts <> []
  && List.for_all (fun (_, v) -> v.Checker.ok) o.o_verdicts
  && o.o_sentinels_lost = 0

let hosts = 7
let shards = 2
let target = [ 4; 5 ]  (* fresh hosts: neither shard places replicas there *)

let replay_line spec =
  let d = default ~seed:spec.mc_seed in
  String.concat ""
    [
      Printf.sprintf "amoeba migration-chaos --seed %d --net %s" spec.mc_seed
        (Medium.net_to_string spec.mc_net);
      (if spec.mc_crash_source then " --crash-source" else "");
      (if spec.mc_crash_dest then " --crash-dest" else "");
      (if spec.mc_power_cycle then " --power-cycle" else "");
      (if spec.mc_workers <> d.mc_workers then
         Printf.sprintf " --workers %d" spec.mc_workers
       else "");
      (if spec.mc_duration_ms <> d.mc_duration_ms then
         Printf.sprintf " --duration %d" spec.mc_duration_ms
       else "");
    ]

let run spec =
  let seed = spec.mc_seed in
  let duration = Time.ms spec.mc_duration_ms in
  let ramp = Time.ms 50 in
  let host_list = List.init hosts Fun.id in
  let cfg =
    {
      Driver.default with
      Driver.shards;
      hosts;
      routers = 2;
      replication = 2;
      net = spec.mc_net;
      max_batch = 1;
      pipeline_depth = 1;
      mix = Mix.read_write ~read:0.25 (Keygen.Zipf 0.99);
      keys = 200;
      value_dist = Dist.Fixed 16;
      duration = duration - ramp;
      warmup = ramp;
      seed;
    }
  in
  (* Fault offsets past migration start, drawn up front so a spec's
     timing is identical whichever flags are set. *)
  let rng = Random.State.make [| seed; 0x715A |] in
  let off () = Time.ms (10 + Random.State.int rng 140) in
  let d_src = off () in
  let d_dst = off () in
  let d_pc = off () in
  let t_m = duration / 3 in
  let dc =
    {
      Service.d_store = Stable_store.create ();
      d_sync =
        (if spec.mc_power_cycle then Rsm.Every_commit else Rsm.Group_fsync 8);
      d_checkpoint_every = 32;
    }
  in
  Driver.bring_up ~disk:Cost_model.ssd ~durable:dc ~record:true
    ~impair_bring_up:true cfg (fun d ->
      let cl = d.Driver.cluster and svc = d.Driver.service in
      let map = d.Driver.map in
      let eng = cl.Cluster.engine in
      let rs = Array.to_list d.Driver.routers in
      let mig_result = ref None in
      let crashed = ref [] in
      let recovered = ref None in
      let sent_acked = ref [] in
      let sent_lost = ref [] in
      let verdicts = ref [] in
      (* Both the migration and the recovery fibers repoint the
         routers; whichever runs later must win, so both aim at the
         newest service. *)
      let repoint () =
        let s = match !recovered with Some s -> s | None -> svc in
        List.iter (fun r -> Router.update_endpoints r (Service.endpoints s)) rs
      in
      (if spec.mc_power_cycle then
         (* sentinel writes before the migration: the acked ones are
            obligations the mid-migration power loss must not revoke *)
         Cluster.spawn cl (fun () ->
             Engine.sleep eng (duration / 4);
             let r0 = List.hd rs in
             for i = 0 to 5 do
               let k = Printf.sprintf "sentinel-%d" i in
               match Router.put r0 k (Printf.sprintf "s%d" i) with
               | Router.Written -> sent_acked := k :: !sent_acked
               | _ -> ()
             done));
      Cluster.spawn cl (fun () ->
          Engine.sleep eng t_m;
          let res =
            Service.migrate_shard svc ~shard:0 ~timeout:(Time.ms 600)
              ~hosts:target ()
          in
          mig_result := Some res;
          repoint ());
      let crash_at delay h =
        Cluster.spawn cl (fun () ->
            Engine.sleep eng (t_m + delay);
            if Machine.is_alive (Cluster.machine cl h) then begin
              Machine.crash (Cluster.machine cl h);
              crashed := h :: !crashed
            end)
      in
      if spec.mc_crash_source then
        crash_at d_src (Shard_map.sequencer_host map 0);
      if spec.mc_crash_dest then crash_at d_dst (List.hd target);
      (if spec.mc_power_cycle then
         Cluster.spawn cl (fun () ->
             Engine.sleep eng (t_m + d_pc);
             List.iter
               (fun h ->
                 let m = Cluster.machine cl h in
                 if Machine.is_alive m then Machine.crash m)
               host_list;
             Engine.sleep eng (Time.ms 275);
             List.iter (fun h -> Cluster.restart cl h) host_list;
             (* mid-migration recovery: the shard's durable state may
                sit on the old replicas, the new ones, or both — read
                the union and let the longest-log election decide *)
             let union_hosts shard =
               let base = Shard_map.replica_hosts map shard in
               if shard = 0 then
                 base @ List.filter (fun h -> not (List.mem h base)) target
               else base
             in
             let svc' =
               Service.recover cl ~map ~durable:dc ~resilience:1 ~record:true
                 ~hosts_for:union_hosts ()
             in
             recovered := Some svc';
             repoint ();
             let r0 = List.hd rs in
             List.iter
               (fun k ->
                 match Router.get r0 k with
                 | Router.Value _ -> ()
                 | _ -> sent_lost := k :: !sent_lost)
               (List.rev !sent_acked)));
      let t = Driver.drive d (Driver.Closed spec.mc_workers) in
      (* quiesce: let nack repair and slow-member catch-up drain the
         last acked writes into every stream before judging them *)
      Engine.sleep eng (Time.sec 5);
      let add label v = verdicts := (label, v) :: !verdicts in
      (match !recovered with
      | None ->
          List.iter
            (fun (shard, vs) ->
              List.iter (fun v -> add (Printf.sprintf "shard %d" shard) v) vs)
            (Service.check svc ~crashed:!crashed)
      | Some svc' ->
          (* The power loss killed every pre-cut replica, so ownership
             belongs to the recovered service; the pre-cut streams
             still owe the base invariants, including total order
             across the cutover. *)
          for shard = 0 to shards - 1 do
            List.iter
              (fun v -> add (Printf.sprintf "shard %d" shard) v)
              (Checker.run ~durability_applies:false
                 ~streams:
                   (Service.checker_streams svc ~shard ~crashed:(fun _ -> true))
                 ~completed:(Service.completed svc ~shard)
                 ())
          done;
          List.iter
            (fun (shard, vs) ->
              List.iter (fun v -> add (Printf.sprintf "shard %d'" shard) v) vs)
            (Service.check svc' ~crashed:[]);
          for shard = 0 to shards - 1 do
            add
              (Printf.sprintf "shard %d'" shard)
              (Service.check_migration svc' ~shard ~crashed:[])
          done);
      {
        o_spec = spec;
        o_migration = !mig_result;
        o_completed = t.Driver.completed;
        o_failed = t.Driver.failed;
        o_crashed = List.rev !crashed;
        o_recovered = !recovered <> None;
        o_sentinels_acked = List.length !sent_acked;
        o_sentinels_lost = List.length !sent_lost;
        o_verdicts = List.rev !verdicts;
      })

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>%s@," (replay_line o.o_spec);
  Fmt.pf ppf "migration: %s@,"
    (match o.o_migration with
    | None -> "never returned"
    | Some (Ok ()) -> "completed"
    | Some (Error e) -> "rolled back (" ^ e ^ ")");
  Fmt.pf ppf "workload:  %d completed, %d failed@," o.o_completed o.o_failed;
  if o.o_crashed <> [] then
    Fmt.pf ppf "crashed:   %a@,"
      Fmt.(list ~sep:(any ", ") (fmt "m%d"))
      o.o_crashed;
  if o.o_recovered then
    Fmt.pf ppf "power:     recovered; sentinels %d acked, %d lost@,"
      o.o_sentinels_acked o.o_sentinels_lost;
  List.iter
    (fun (label, v) ->
      Fmt.pf ppf "%s: %a@," label Checker.pp_verdict v)
    o.o_verdicts;
  Fmt.pf ppf "verdict:   %s@]" (if ok o then "PASS" else "FAIL")
