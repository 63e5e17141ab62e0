(* The key/value workloads: one open-loop trial of a YCSB-style mix
   against a freshly deployed sharded service, driven through
   [Service], [Router], [Mix], [Keygen], [Dist] and [Histogram], plus
   the SLO knee found with [Saturation.search] over such trials.

   The arrival process, the per-op random streams and the order of
   draws are those of [Amoeba_loadgen.Driver.run], so at the default
   seed a trial of a Driver-expressible config reproduces Driver's
   figures exactly (checked by agree.exe).  What this trial adds:
   durable replicas, the sequencer crash, per-kind timing of the
   Router calls, failure-inclusive percentiles, set-up and measured
   host time, and the per-layer counters of a traced run. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_harness
open Amoeba_service
open Common
module Mix = Amoeba_loadgen.Mix
module Dist = Amoeba_loadgen.Dist
module Saturation = Amoeba_loadgen.Saturation
module Rsm = Amoeba_grouplib.Rsm
module Stable_store = Amoeba_grouplib.Stable_store

type config = {
  shards : int;
  hosts : int;  (** replica machines; routers come extra *)
  routers : int;
  replication : int;
  wire_mbps : int;
  net : Medium.spec * Medium.conditions;
  mix : Mix.t;
  keys : int;
  value_dist : Dist.t;
  txn_size : int;
  durable : bool;
      (** replicas on the ssd disk profile, group-fsync-8, checkpoint
          every 64 updates *)
  max_batch : int;
  batch_delay_us : int;
  pipeline_depth : int;
  warmup : Time.t;
  window : Time.t;
  crash : bool;
      (** crash the hot shard's sequencer host halfway through the
          window *)
}

(* Everything simulated about a trial: a pure function of
   (config, seed, rate).  Traced and untraced runs must agree on it
   exactly. *)
type sim = {
  attempted : int;
  completed : int;
  failed : int;
  unfinished : int;
  p50_ms : float;  (** exact, from each op's intended arrival *)
  p99_ms : float;  (** exact; failed and unfinished ops count as +inf *)
  max_ms : float;
  throughput : float;  (** completed ops per simulated second of window *)
  outage_ms : float;
}

type trial = {
  sim : sim;
  hist : Histogram.t;  (** completed ops, ms from intended arrival *)
  lat : float array;  (** the same latencies, exact and sorted *)
  setup_s : float;
  wall_s : float;
  layers : (string * float) list;
  checks : (string * bool) list;
}

let drain_grace = Time.sec 3

let settle = Time.sec 1

(* Multi-key transactions are single-shard by contract: walk the key
   space forward from the base key collecting keys on its shard. *)
let colocated_keys map ~keys ~base ~want =
  let s0 = Shard_map.shard_of_key map (Keygen.key base) in
  let found = ref [ base ] and n = ref 1 and j = ref 1 in
  while !n < want && !j < keys && !j < 4096 do
    let ki = (base + !j) mod keys in
    if Shard_map.shard_of_key map (Keygen.key ki) = s0 then begin
      found := ki :: !found;
      incr n
    end;
    incr j
  done;
  List.rev !found

(* A unique stamp, then padding to the drawn size: distinct bodies keep
   the no-duplicates invariant meaningful. *)
let make_value cfg rng ~issued =
  let size = Dist.draw cfg.value_dist rng in
  let stamp = Printf.sprintf "v%d." issued in
  stamp ^ String.make (max 0 (size - String.length stamp)) 'x'

type acc = {
  hist : Histogram.t;
  mutable lat : float list;
  by_kind : (Mix.op_kind * Histogram.t) list;  (** Router call time *)
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable in_flight : int;
  mutable measured_in_flight : int;
  mutable issued : int;
  mutable writes : (Time.t * Time.t) list;
      (** (intended arrival, completion) of successful measured writes
          to the observed shard *)
  mutable late_max : Time.t;
}

let sum_router_stats routers =
  Array.fold_left
    (fun (a : Router.stats) r ->
      let s = Router.stats r in
      {
        Router.ops = a.ops + s.ops;
        retries = a.retries + s.retries;
        failovers = a.failovers + s.failovers;
        redirects = a.redirects + s.redirects;
        probes_dead = a.probes_dead + s.probes_dead;
        batches_sent = a.batches_sent + s.batches_sent;
        ops_batched = a.ops_batched + s.ops_batched;
        partial_flushes = a.partial_flushes + s.partial_flushes;
        batch_retries = a.batch_retries + s.batch_retries;
        stale_gets = a.stale_gets + s.stale_gets;
        txns = a.txns + s.txns;
      })
    {
      Router.ops = 0;
      retries = 0;
      failovers = 0;
      redirects = 0;
      probes_dead = 0;
      batches_sent = 0;
      ops_batched = 0;
      partial_flushes = 0;
      batch_retries = 0;
      stale_gets = 0;
      txns = 0;
    }
    routers

(* Membership changes and rounds per shard, read off the record tap's
   delivery streams (the replica kernels themselves are not reachable
   through the service's interface). *)
let stream_counts svc ~shards ~crashed =
  let views = ref 0 and rounds = ref 0 and applied = ref 0 in
  for shard = 0 to shards - 1 do
    let streams =
      Service.checker_streams svc ~shard ~crashed:(fun h -> List.mem h crashed)
    in
    let count p (s : Checker.stream) = List.length (List.filter p s.events) in
    let best p =
      List.fold_left (fun a s -> max a (count p s)) 0 streams
    in
    views :=
      !views
      + best (function
          | Amoeba_core.Types.Member_left _ | Group_reset _ | Expelled -> true
          | _ -> false);
    rounds := !rounds + best (function Amoeba_core.Types.Message _ -> true | _ -> false);
    applied :=
      !applied
      + List.fold_left (fun a (_, n) -> max a n) 0 (Service.applied svc shard)
  done;
  (!views, if !rounds = 0 then 0.0 else float_of_int !applied /. float_of_int !rounds)

let run ?(traced = false) cfg ~seed ~rate =
  if rate <= 0.0 then invalid_arg "Kv_bench.run: rate <= 0";
  let host0 = host_now () in
  let fabric, conditions = cfg.net in
  let map =
    Shard_map.create ~shards:cfg.shards ~replication:cfg.replication
      ~hosts:(List.init cfg.hosts Fun.id) ()
  in
  let cost =
    let c = Cost_model.(with_mbps cfg.wire_mbps default) in
    if cfg.durable then { c with Cost_model.disk = Cost_model.ssd } else c
  in
  let cl =
    Cluster.create ~cost ~seed:cluster_seed ~fabric
      ~n:(cfg.hosts + cfg.routers) ()
  in
  if traced then Trace.enable cl.Cluster.trace;
  let eng = cl.Cluster.engine in
  let store = Stable_store.create () in
  let durable =
    if cfg.durable then
      Some
        {
          Service.d_store = store;
          d_sync = Rsm.Group_fsync 8;
          d_checkpoint_every = 64;
        }
    else None
  in
  let acc =
    {
      hist = Histogram.create ();
      lat = [];
      by_kind =
        List.map
          (fun k -> (k, Histogram.create ()))
          [ Mix.Read; Mix.Update; Mix.Insert; Mix.Txn ];
      attempted = 0;
      completed = 0;
      failed = 0;
      in_flight = 0;
      measured_in_flight = 0;
      issued = 0;
      writes = [];
      late_max = 0;
    }
  in
  (* The observed shard: the one holding the Zipf-hottest key, whose
     sequencer the failover workload crashes. *)
  let hot = Shard_map.shard_of_key map (Keygen.key 0) in
  let setup_s = ref nan and wall_s = ref nan in
  let result = ref None in
  Cluster.spawn cl (fun () ->
      let svc =
        Service.deploy cl ~map ~resilience:1 ~pipeline:cfg.pipeline_depth
          ?durable ~record:traced ()
      in
      let routers =
        Array.init cfg.routers (fun i ->
            Router.create
              (Cluster.flip cl (cfg.hosts + i))
              ~max_batch:cfg.max_batch
              ~pipeline:(if cfg.max_batch > 1 then 1 else 4)
              ~batch_delay:(Time.us cfg.batch_delay_us)
              ~map
              ~endpoints:(Service.endpoints svc) ())
      in
      Medium.set_conditions cl.Cluster.net conditions;
      (* Set-up ends here: the service stands and the first op is
         about to be issued. *)
      setup_s := host_now () -. host0;
      let setup_sim = Engine.now eng and setup_events = Engine.step_count eng in
      if traced then begin
        Trace.clear cl.Cluster.trace;
        Medium.reset_utilisation_window cl.Cluster.net
      end;
      let s0 = snap cl in
      let r0 = sum_router_stats routers in
      (* [counters] is the store's live record: copy what we need. *)
      let wal0, fsync0, ckpt0 =
        let c = Stable_store.counters store in
        (c.wal_appends, c.fsyncs, c.kv_writes)
      in
      let busy0 = Service.writes_busy svc in
      let shard_ops0 = Service.shard_ops svc in
      let kg = Keygen.create ~keys:cfg.keys cfg.mix.Mix.dist in
      let start = Engine.now eng in
      let measure_from = start + cfg.warmup in
      let stop = measure_from + cfg.window in
      let crash_at = measure_from + (cfg.window / 2) in
      let crashed =
        if cfg.crash then begin
          let victim = Service.sequencer_of svc hot in
          Cluster.spawn cl (fun () ->
              Engine.sleep eng (crash_at - Engine.now eng);
              Machine.crash (Cluster.machine cl victim));
          [ victim ]
        end
        else []
      in
      let new_seq_at = ref None in
      let sampler =
        if traced then
          start_sampler cl ~until:stop ~extra:(fun () ->
              match crashed with
              | [ victim ]
                when !new_seq_at = None && Engine.now eng >= crash_at ->
                  let s = Service.sequencer_of svc hot in
                  if s <> victim then new_seq_at := Some (Engine.now eng)
              | _ -> ())
        else no_sampler cl
      in
      let one_op ~rng ~arrive router =
        let kind = Mix.draw cfg.mix rng in
        let measured = arrive >= measure_from in
        acc.issued <- acc.issued + 1;
        let issued = acc.issued in
        if measured then begin
          acc.attempted <- acc.attempted + 1;
          acc.measured_in_flight <- acc.measured_in_flight + 1
        end;
        acc.in_flight <- acc.in_flight + 1;
        let called = Engine.now eng in
        let ok, shard =
          match kind with
          | Mix.Read -> (
              let k = Keygen.key (Keygen.sample kg rng) in
              match Router.get router k with
              | Router.Failed _ -> (false, -1)
              | Router.Value _ | Router.Not_found | Router.Written -> (true, -1))
          | Mix.Update | Mix.Insert -> (
              let ki =
                if kind = Mix.Update then Keygen.sample kg rng
                else Keygen.insert kg
              in
              let k = Keygen.key ki in
              let v = make_value cfg rng ~issued in
              match Router.put router k v with
              | Router.Failed _ -> (false, -1)
              | _ -> (true, Shard_map.shard_of_key map k))
          | Mix.Txn -> (
              let base = Keygen.sample kg rng in
              let kis =
                colocated_keys map ~keys:cfg.keys ~base
                  ~want:(max 1 cfg.txn_size)
              in
              (* Read-modify-write: one batch RPC whose writes commit
                 as one sequencer round. *)
              let gets = List.map (fun ki -> Router.Get (Keygen.key ki)) kis in
              let puts =
                List.map
                  (fun ki ->
                    Router.Put (Keygen.key ki, make_value cfg rng ~issued))
                  kis
              in
              match Router.txn router (gets @ puts) with
              | Error _ -> (false, -1)
              | Ok replies ->
                  ( not
                      (List.exists
                         (function Router.Failed _ -> true | _ -> false)
                         replies),
                    Shard_map.shard_of_key map (Keygen.key base) ))
        in
        let now = Engine.now eng in
        acc.in_flight <- acc.in_flight - 1;
        if measured then begin
          acc.measured_in_flight <- acc.measured_in_flight - 1;
          if not ok then acc.failed <- acc.failed + 1
          else begin
            acc.completed <- acc.completed + 1;
            (* Coordinated-omission-safe: from the intended arrival. *)
            Histogram.add acc.hist (Time.to_ms (now - arrive));
            acc.lat <- Time.to_ms (now - arrive) :: acc.lat;
            Histogram.add (List.assoc kind acc.by_kind) (Time.to_ms (now - called));
            if shard = hot || ((not cfg.crash) && shard >= 0) then
              acc.writes <- (arrive, now) :: acc.writes
          end
        end
      in
      let arrivals = Random.State.make [| seed; 0x10ad |] in
      let t_next = ref 0.0 and k = ref 0 and continue = ref true in
      while !continue do
        let u = Random.State.float arrivals 1.0 in
        t_next := !t_next +. (-.log (1.0 -. u) /. rate *. 1e9);
        let arrive = start + int_of_float !t_next in
        if arrive >= stop then continue := false
        else begin
          Engine.sleep eng (max 0 (arrive - Engine.now eng));
          acc.late_max <- max acc.late_max (Engine.now eng - arrive);
          let kk = !k in
          incr k;
          let rng = Random.State.make [| seed; 0x10ae; kk |] in
          Cluster.spawn cl (fun () ->
              one_op ~rng ~arrive routers.(kk mod cfg.routers))
        end
      done;
      (* Drain stragglers for a bounded grace period; whatever is still
         stuck counts as unfinished. *)
      let deadline = Engine.now eng + drain_grace in
      while acc.in_flight > 0 && Engine.now eng < deadline do
        Engine.sleep eng (Time.ms 10)
      done;
      wall_s := host_now () -. (host0 +. !setup_s);
      let s1 = snap cl in
      let r1 = sum_router_stats routers in
      let store1 = Stable_store.counters store in
      let shard_ops1 = Service.shard_ops svc in
      (* Let followers apply the tail before comparing replicas. *)
      Engine.sleep eng settle;
      let diverged =
        List.filter
          (fun shard ->
            let live =
              List.filter
                (fun (h, _) -> Machine.is_alive (Cluster.machine cl h))
                (Service.applied svc shard)
            in
            match live with
            | [] -> true
            | (_, n) :: rest -> List.exists (fun (_, n') -> n' <> n) rest)
          (List.init cfg.shards Fun.id)
      in
      let checks =
        ("replicas of every shard applied the same updates", diverged = [])
        ::
        (if traced then
           [
             ( "Service.check invariants hold on every shard",
               List.for_all
                 (fun (_, vs) -> Checker.all_ok vs)
                 (Service.check svc ~crashed) );
           ]
         else [])
      in
      let writes =
        Array.of_list (List.sort compare acc.writes)
      in
      let outage_ms =
        if cfg.crash then
          Option.value (first_write_after writes crash_at) ~default:infinity
        else responsiveness_ms writes ~from_:measure_from ~until:stop ~points:1000
      in
      let attempted = acc.attempted in
      let lat = sorted_of_list acc.lat in
      let sim =
        {
          attempted;
          completed = acc.completed;
          failed = acc.failed;
          unfinished = acc.measured_in_flight;
          p50_ms = exact_percentile_incl lat ~attempted 50.0;
          p99_ms = exact_percentile_incl lat ~attempted 99.0;
          max_ms = Histogram.max_value acc.hist;
          throughput = float_of_int acc.completed /. Time.to_sec cfg.window;
          outage_ms;
        }
      in
      let layers =
        if not traced then []
        else begin
          let ops = acc.issued in
          let per_op x = float_of_int x /. float_of_int (max 1 ops) in
          let views, ops_per_round =
            stream_counts svc ~shards:cfg.shards ~crashed
          in
          let kind_pct kind p =
            let h = List.assoc kind acc.by_kind in
            if Histogram.count h = 0 then -1.0 else Histogram.percentile h p
          in
          let shard_delta =
            Array.mapi (fun i n -> n - shard_ops0.(i)) shard_ops1
          in
          let total = Array.fold_left ( + ) 0 shard_delta in
          (* A flush ships either a multi-op batch or a lone op. *)
          let ops_routed = r1.ops - r0.ops in
          let flushes =
            float_of_int
              (max 1
                 (r1.batches_sent - r0.batches_sent + ops_routed
                 - (r1.ops_batched - r0.ops_batched)))
          in
          let after_new_seq =
            match !new_seq_at with
            | None -> -1.0
            | Some t ->
                Array.fold_left
                  (fun best (_, done_) ->
                    if done_ >= t then Float.min best (Time.to_ms (done_ - t))
                    else best)
                  infinity writes
          in
          window_layers cl ~a:s0 ~b:s1 ~ops
            ~routers:(List.init cfg.routers (fun i -> cfg.hosts + i))
            ~sampler
          @ [
              ("harness.setup_sim_ms", Time.to_ms setup_sim);
              ("harness.setup_events", float_of_int setup_events);
              ("core.ops_per_round", ops_per_round);
              ("core.view_changes", float_of_int views);
              ( "core.reelect_ms",
                match !new_seq_at with
                | Some t -> Time.to_ms (t - crash_at)
                | None -> -1.0 );
              ( "grouplib.wal_appends_per_op",
                per_op (store1.Stable_store.wal_appends - wal0) );
              ( "grouplib.fsyncs_per_kop",
                1000.0 *. per_op (store1.Stable_store.fsyncs - fsync0) );
              ( "grouplib.checkpoints",
                float_of_int (store1.Stable_store.kv_writes - ckpt0) );
              ("service.read_ms_p50", kind_pct Mix.Read 50.0);
              ("service.read_ms_p99", kind_pct Mix.Read 99.0);
              ("service.update_ms_p50", kind_pct Mix.Update 50.0);
              ("service.update_ms_p99", kind_pct Mix.Update 99.0);
              ("service.txn_ms_p50", kind_pct Mix.Txn 50.0);
              ("service.txn_ms_p99", kind_pct Mix.Txn 99.0);
              ("service.ops_per_batch", float_of_int ops_routed /. flushes);
              ( "service.partial_flush_frac",
                float_of_int (r1.partial_flushes - r0.partial_flushes) /. flushes
              );
              ("service.retries_per_kop", 1000.0 *. per_op (r1.retries - r0.retries));
              ("service.failovers", float_of_int (r1.failovers - r0.failovers));
              ( "service.probes_dead",
                float_of_int (r1.probes_dead - r0.probes_dead) );
              ("service.redirects", float_of_int (r1.redirects - r0.redirects));
              ( "service.batch_retries",
                float_of_int (r1.batch_retries - r0.batch_retries) );
              ( "service.busy_rejections",
                float_of_int (Service.writes_busy svc - busy0) );
              ( "service.hot_shard_share",
                float_of_int (Array.fold_left max 0 shard_delta)
                /. float_of_int (max 1 total) );
              ( "service.reroute_ms",
                if Float.is_finite after_new_seq then after_new_seq else -1.0 );
              ("loadgen.attempted", float_of_int acc.attempted);
              ("loadgen.completed", float_of_int acc.completed);
              ("loadgen.gen_late_ms_max", Time.to_ms acc.late_max);
            ]
        end
      in
      let host_layers =
        [
          ( "sim.host_ns_per_event",
            1e9 *. (s1.s_host -. s0.s_host)
            /. float_of_int (max 1 (s1.s_events - s0.s_events)) );
          ( "sim.minor_mwords_per_kop",
            (s1.s_minor_words -. s0.s_minor_words)
            /. 1e6
            /. (float_of_int (max 1 acc.issued) /. 1000.0) );
          ("sim.major_gcs", float_of_int (s1.s_major_gcs - s0.s_major_gcs));
        ]
      in
      result := Some (sim, acc.hist, lat, layers @ host_layers, checks));
  (* Step the clock until the load fiber is done: the failure
     detectors keep the event queue non-empty forever. *)
  let horizon = ref (Time.sec 5) in
  while !result = None do
    Cluster.run ~until:!horizon cl;
    horizon := !horizon + Time.sec 5
  done;
  let sim, hist, lat, layers, checks = Option.get !result in
  { sim; hist; lat; setup_s = !setup_s; wall_s = !wall_s; layers; checks }

(* Simulated figures the Saturation search reads from a probe's
   trials, pooled: p99 off the merged Histogram (as
   [Amoeba_loadgen.Driver] reports it), with failed and unfinished ops
   counting against it as well as against the completion. *)
let measurement (ts : trial list) =
  let sum f = List.fold_left (fun a (t : trial) -> a + f t.sim) 0 ts in
  let attempted = sum (fun s -> s.attempted) in
  let hist =
    List.fold_left
      (fun h (t : trial) -> Histogram.merge h t.hist)
      (Histogram.create ()) ts
  in
  {
    Saturation.m_p99_ms = percentile_incl hist ~attempted 99.0;
    m_completion =
      (if attempted = 0 then 1.0
       else float_of_int (sum (fun s -> s.completed)) /. float_of_int attempted);
    m_throughput =
      List.fold_left (fun a (t : trial) -> a +. t.sim.throughput) 0.0 ts
      /. float_of_int (List.length ts);
  }

let pp_sim ppf (s : sim) =
  Fmt.pf ppf
    "%d attempted, %d completed, %d failed, %d unfinished; p50 %.3f ms, p99 \
     %.3f ms, max %.3f ms; %.1f ops/s; outage %.3f ms"
    s.attempted s.completed s.failed s.unfinished s.p50_ms s.p99_ms s.max_ms
    s.throughput s.outage_ms
