open Amoeba_sim
open Amoeba_net
open Amoeba_harness
open Amoeba_service

type config = {
  shards : int;
  hosts : int;
  routers : int;
  replication : int;
  wire_mbps : int;
  net : Medium.spec * Medium.conditions;
  max_batch : int;
  batch_delay_us : int;
  pipeline_depth : int;
  mix : Mix.t;
  keys : int;
  value_dist : Dist.t;
  txn_size : int;
  duration : Time.t;
  warmup : Time.t;
  seed : int;
}

let default =
  {
    shards = 1;
    hosts = 4;
    routers = 2;
    replication = 2;
    wire_mbps = 100;
    net = (Medium.Shared, Impair.clean);
    max_batch = 32;
    batch_delay_us = 500;
    pipeline_depth = 4;
    mix = Mix.ycsb_a;
    keys = 1_000;
    value_dist = Dist.Fixed 32;
    txn_size = 3;
    duration = Time.sec 2;
    warmup = Time.ms 500;
    seed = 11;
  }

type deployment = {
  cfg : config;
  cluster : Cluster.t;
  map : Shard_map.t;
  service : Service.t;
  routers : Router.t array;
}

let placement cfg =
  Shard_map.create ~shards:cfg.shards ~replication:cfg.replication
    ~hosts:(List.init cfg.hosts Fun.id) ()

let bring_up ?disk ?durable ?(resilience = 1) ?(record = false)
    ?(stale_reads = false) ?(impair_bring_up = false) cfg body =
  let fabric, conditions = cfg.net in
  let map = placement cfg in
  let cost =
    let c = Cost_model.(with_mbps cfg.wire_mbps default) in
    match disk with Some disk -> { c with Cost_model.disk } | None -> c
  in
  let cl =
    Cluster.create ~cost ~seed:cfg.seed ~fabric ~n:(cfg.hosts + cfg.routers) ()
  in
  let result = ref None in
  Cluster.spawn cl (fun () ->
      if impair_bring_up then
        Impair.set_conditions (Medium.impair cl.Cluster.net) conditions;
      let service =
        Service.deploy cl ~map ~resilience ~pipeline:cfg.pipeline_depth
          ?durable ~record ()
      in
      let routers =
        Array.init cfg.routers (fun i ->
            Router.create
              (Cluster.flip cl (cfg.hosts + i))
              ~max_batch:cfg.max_batch
              ~batch_delay:(Time.us cfg.batch_delay_us)
              ~stale_reads ~map
              ~endpoints:(Service.endpoints service) ())
      in
      (* Impair the wire only once the service stands: a trial
         measures steady state under these conditions, not whether
         bring-up survives them (the chaos runs ask for that). *)
      if not impair_bring_up then
        Impair.set_conditions (Medium.impair cl.Cluster.net) conditions;
      result := Some (body { cfg; cluster = cl; map; service; routers }));
  (* Step the clock until the body returns: the failure detectors keep
     the event queue non-empty forever, and a fixed horizon would cut
     a slow drain short. *)
  let rec step horizon =
    Cluster.run ~until:horizon cl;
    match !result with
    | Some r -> r
    | None when Cluster.now cl < horizon ->
        failwith "Driver.bring_up: the simulation ran dry before the body returned"
    | None -> step (horizon + Time.sec 5)
  in
  step (Time.sec 5)

type mode = Open of float | Closed of int

type trial = {
  offered : float;
  attempted : int;
  completed : int;
  failed : int;
  throughput : float;
  completion : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  reads : int;
  updates : int;
  inserts : int;
  txns : int;
  per_shard : int array;
}

type acc = {
  hist : Histogram.t;
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable reads : int;
  mutable updates : int;
  mutable inserts : int;
  mutable txns : int;
  per_shard : int array;
  mutable in_flight : int;
  mutable issued : int;
}

(* Multi-key transactions are single-shard by contract, so pick the
   base key's shard and walk the key space forward collecting keys
   that hash onto it.  Shards are balanced, so the expected scan is
   ~[want * shards] keys; the cap only guards a pathological map. *)
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

let make_value cfg rng ~issued =
  let size = Dist.draw cfg.value_dist rng in
  (* Unique stamp then pad: distinct bodies keep the checker's
     no-duplicates invariant meaningful. *)
  let stamp = Printf.sprintf "v%d." issued in
  let pad = max 0 (size - String.length stamp) in
  stamp ^ String.make pad 'x'

let succeeded = function Router.Failed _ -> false | _ -> true

let one_op eng cfg ~map ~acc ~kg ~rng ~arrive ~measure_from router =
  let kind = Mix.draw cfg.mix rng in
  let measured = arrive >= measure_from in
  acc.issued <- acc.issued + 1;
  let issued = acc.issued in
  if measured then acc.attempted <- acc.attempted + 1;
  acc.in_flight <- acc.in_flight + 1;
  let ok, key =
    match kind with
    | Mix.Read ->
        let key = Keygen.key (Keygen.sample kg rng) in
        (succeeded (Router.get router key), key)
    | Mix.Update | Mix.Insert ->
        let ki =
          if kind = Mix.Update then Keygen.sample kg rng else Keygen.insert kg
        in
        let key = Keygen.key ki in
        (succeeded (Router.put router key (make_value cfg rng ~issued)), key)
    | Mix.Txn ->
        let base = Keygen.sample kg rng in
        let kis =
          colocated_keys map ~keys:cfg.keys ~base ~want:(max 1 cfg.txn_size)
        in
        (* Read-modify-write: read every key, then rewrite every key —
           one batch RPC, whose writes commit as one sequencer round.
           The transaction's reads return its own writes, so one that
           reads anything else failed, whatever the router said. *)
        let writes =
          List.map (fun ki -> (Keygen.key ki, make_value cfg rng ~issued)) kis
        in
        let gets = List.map (fun (k, _) -> Router.Get k) writes in
        let puts = List.map (fun (k, v) -> Router.Put (k, v)) writes in
        let expected =
          List.map (fun (_, v) -> Router.Value v) writes
          @ List.map (fun _ -> Router.Written) writes
        in
        ( Router.txn router (gets @ puts) = Ok expected,
          Keygen.key base )
  in
  (* CO-safe accounting: latency runs from the intended arrival, so
     time spent queued behind a backlog is charged, never skipped. *)
  let dt_ms = Time.to_ms (Engine.now eng - arrive) in
  acc.in_flight <- acc.in_flight - 1;
  if measured then
    if not ok then acc.failed <- acc.failed + 1
    else begin
      acc.completed <- acc.completed + 1;
      Histogram.add acc.hist dt_ms;
      let s = Shard_map.shard_of_key map key in
      acc.per_shard.(s) <- acc.per_shard.(s) + 1;
      match kind with
      | Mix.Read -> acc.reads <- acc.reads + 1
      | Mix.Update -> acc.updates <- acc.updates + 1
      | Mix.Insert -> acc.inserts <- acc.inserts + 1
      | Mix.Txn -> acc.txns <- acc.txns + 1
    end

let drive d mode =
  let cfg = d.cfg and cl = d.cluster in
  let eng = cl.Cluster.engine in
  let acc =
    {
      hist = Histogram.create ();
      attempted = 0;
      completed = 0;
      failed = 0;
      reads = 0;
      updates = 0;
      inserts = 0;
      txns = 0;
      per_shard = Array.make cfg.shards 0;
      in_flight = 0;
      issued = 0;
    }
  in
  let kg = Keygen.create ~keys:cfg.keys cfg.mix.Mix.dist in
  let start = Engine.now eng in
  let measure_from = start + cfg.warmup in
  let stop = measure_from + cfg.duration in
  let op ~rng ~arrive i =
    one_op eng cfg ~map:d.map ~acc ~kg ~rng ~arrive ~measure_from
      d.routers.(i mod Array.length d.routers)
  in
  let offered =
    match mode with
    | Open rate ->
        if rate <= 0.0 then invalid_arg "Driver.drive: rate <= 0";
        let arrivals = Random.State.make [| cfg.seed; 0x10ad |] in
        (* Arrival times accumulate in float ns from the trial start so
           rounding never drifts the offered rate. *)
        let t_next = ref 0.0 in
        let k = ref 0 in
        let continue = ref true in
        while !continue do
          let u = Random.State.float arrivals 1.0 in
          t_next := !t_next +. (-.log (1.0 -. u) /. rate *. 1e9);
          let arrive = start + int_of_float !t_next in
          if arrive >= stop then continue := false
          else begin
            Engine.sleep eng (max 0 (arrive - Engine.now eng));
            let kk = !k in
            incr k;
            let rng = Random.State.make [| cfg.seed; 0x10ae; kk |] in
            Cluster.spawn cl (fun () -> op ~rng ~arrive kk)
          end
        done;
        (* Drain stragglers, bounded by a grace period: whatever is
           still stuck counts against the completion ratio. *)
        let deadline = Engine.now eng + Time.sec 3 in
        while acc.in_flight > 0 && Engine.now eng < deadline do
          Engine.sleep eng (Time.ms 10)
        done;
        rate
    | Closed n ->
        if n <= 0 then invalid_arg "Driver.drive: no clients";
        let running = ref n in
        let all_done = Ivar.create () in
        for i = 0 to n - 1 do
          let rng = Random.State.make [| cfg.seed; 0x6b1d; i |] in
          Cluster.spawn cl (fun () ->
              (* Slow start: stagger the herd over the warmup.  A few
                 thousand clients all firing at t=0 starve every host's
                 CPU at once (locate broadcasts, first-contact RPCs),
                 which the group kernels read as member failures. *)
              if cfg.warmup > 0 && n > 1 then
                Engine.sleep eng (i * cfg.warmup / (n - 1));
              while Engine.now eng < stop do
                op ~rng ~arrive:(Engine.now eng) i
              done;
              decr running;
              if !running = 0 then Ivar.fill all_done ())
        done;
        Ivar.read eng all_done;
        0.0
  in
  let dur_s = Time.to_sec cfg.duration in
  {
    offered;
    attempted = acc.attempted;
    completed = acc.completed;
    failed = acc.failed;
    throughput =
      (if dur_s > 0.0 then float_of_int acc.completed /. dur_s else 0.0);
    completion =
      (if acc.attempted = 0 then 1.0
       else float_of_int acc.completed /. float_of_int acc.attempted);
    mean_ms = Histogram.mean acc.hist;
    p50_ms = Histogram.percentile acc.hist 50.0;
    p95_ms = Histogram.percentile acc.hist 95.0;
    p99_ms = Histogram.percentile acc.hist 99.0;
    max_ms = Histogram.max_value acc.hist;
    reads = acc.reads;
    updates = acc.updates;
    inserts = acc.inserts;
    txns = acc.txns;
    per_shard = Array.copy acc.per_shard;
  }

let run cfg ~rate = bring_up cfg (fun d -> drive d (Open rate))

let pp_trial ppf (t : trial) =
  Fmt.pf ppf
    "@[<v>%s%d attempted, %d completed, %d failed (%.0f ops/s, completion \
     %.3f)@,\
     latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f@,\
     %d reads, %d updates, %d inserts, %d txns; per shard: %a@]"
    (if t.offered > 0.0 then Printf.sprintf "offered %.0f ops/s: " t.offered
     else "")
    t.attempted t.completed t.failed t.throughput t.completion t.mean_ms
    t.p50_ms t.p95_ms t.p99_ms t.max_ms t.reads t.updates t.inserts t.txns
    Fmt.(brackets (list ~sep:comma int))
    (Array.to_list t.per_shard)

let trial_to_json (t : trial) =
  let open Bench_json in
  Obj
    [
      ("offered", Float t.offered);
      ("attempted", Int t.attempted);
      ("completed", Int t.completed);
      ("failed", Int t.failed);
      ("throughput", Float t.throughput);
      ("completion", Float t.completion);
      ("mean_ms", number t.mean_ms);
      ("p50_ms", number t.p50_ms);
      ("p95_ms", number t.p95_ms);
      ("p99_ms", number t.p99_ms);
      ("max_ms", number t.max_ms);
      ("reads", Int t.reads);
      ("updates", Int t.updates);
      ("inserts", Int t.inserts);
      ("txns", Int t.txns);
      ("per_shard", List (List.map (fun c -> Int c) (Array.to_list t.per_shard)));
    ]
