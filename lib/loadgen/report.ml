open Amoeba_net

type params = {
  base : Driver.config;
  slo : Saturation.slo;
  lo : float;
  tol : float;
  max_probes : int;
}

let default_params ~smoke =
  {
    base =
      {
        Driver.default with
        mix = Mix.with_txn Mix.ycsb_a ~size_hint:3 0.05;
        keys = (if smoke then 200 else 1_000);
        duration = Amoeba_sim.Time.ms (if smoke then 400 else 2_000);
        warmup = Amoeba_sim.Time.ms (if smoke then 100 else 500);
      };
    slo = { Saturation.p99_ms = 50.0; min_completion = 0.95 };
    lo = (if smoke then 100.0 else 50.0);
    tol = (if smoke then 0.25 else 0.08);
    max_probes = (if smoke then 8 else 14);
  }

type row = {
  shards : int;
  hosts : int;
  routers : int;
  net : string;
  outcome : Saturation.outcome;
}

(* 8 replica hosts + 4 routers matches the shard-scaling bench; every
   group member keeps its own machine up to 4 shards at replication 2.
   The impaired rows use the named --net profiles: dup and reorder
   impair the wire but leave a 50 ms SLO reachable (the knee shows
   what they cost); bursty loss puts 250 ms RPC-timeout stalls in the
   tail, so its row documents an SLO-infeasible configuration (knee 0,
   unconverged) rather than a knee.  Smoke keeps one clean and one
   adversarial config so the impaired and the all-fail paths stay
   exercised in CI. *)
let sweep_configs ~smoke =
  if smoke then [ (1, 4, 2, "ether"); (1, 4, 2, "ether+adversarial") ]
  else
    [
      (1, 8, 4, "ether");
      (2, 8, 4, "ether");
      (4, 8, 4, "ether");
      (8, 8, 4, "ether");
      (1, 8, 4, "switch");
      (2, 8, 4, "switch");
      (4, 8, 4, "switch");
      (8, 8, 4, "switch");
      (4, 8, 4, "ether+dup");
      (4, 8, 4, "ether+reorder");
      (8, 8, 4, "switch+bursty");
    ]

let knee p =
  let measure rate =
    let t = Driver.run p.base ~rate in
    {
      Saturation.m_p99_ms = t.Driver.p99_ms;
      m_completion = t.Driver.completion;
      m_throughput = t.Driver.throughput;
    }
  in
  Saturation.search ~lo:p.lo ~tol:p.tol ~max_probes:p.max_probes ~slo:p.slo
    measure

let sweep ?progress ~smoke params =
  List.map
    (fun (shards, hosts, routers, net) ->
      let netspec =
        match Medium.net_of_string net with
        | Ok n -> n
        | Error e -> failwith ("loadgen sweep: " ^ e)
      in
      let base = { params.base with shards; hosts; routers; net = netspec } in
      let row =
        { shards; hosts; routers; net; outcome = knee { params with base } }
      in
      Option.iter (fun f -> f row) progress;
      row)
    (sweep_configs ~smoke)

let print_header () =
  Printf.printf "%7s %6s | %-18s %10s %10s %9s %6s %7s %5s\n" "shards" "hosts"
    "net" "knee op/s" "through" "p99 ms" "compl" "probes" "conv"

let print_row r =
  let o = r.outcome in
  Printf.printf "%7d %6d | %-18s %10.0f %10.0f %9.2f %6.3f %7d %5s\n%!"
    r.shards r.hosts r.net o.Saturation.knee o.Saturation.throughput_at_knee
    o.Saturation.p99_at_knee o.Saturation.completion_at_knee
    (List.length o.Saturation.probes)
    (if o.Saturation.converged then "yes" else "NO")

let ms t = int_of_float (Amoeba_sim.Time.to_ms t)

let row_to_json (b : Driver.config) r =
  let o = r.outcome in
  Bench_json.Obj
    [
      ("shards", Bench_json.Int r.shards);
      ("hosts", Bench_json.Int r.hosts);
      ("routers", Bench_json.Int r.routers);
      ("net", Bench_json.Str r.net);
      ("mix", Bench_json.Str b.mix.Mix.name);
      ("knee_ops_per_sec", Bench_json.Float o.Saturation.knee);
      ("throughput_at_knee", Bench_json.Float o.Saturation.throughput_at_knee);
      ("p99_ms_at_knee", Bench_json.number o.Saturation.p99_at_knee);
      ("completion_at_knee", Bench_json.number o.Saturation.completion_at_knee);
      ("probes", Bench_json.Int (List.length o.Saturation.probes));
      ("converged", Bench_json.Bool o.Saturation.converged);
      ("seed", Bench_json.Int b.seed);
      ( "probe_rates",
        Bench_json.List
          (List.map
             (fun (p : Saturation.probe) ->
               Bench_json.Obj
                 [
                   ("rate", Bench_json.Float p.Saturation.rate);
                   ("p99_ms", Bench_json.number p.Saturation.p99_ms);
                   ("completion", Bench_json.number p.Saturation.completion);
                   ("pass", Bench_json.Bool p.Saturation.pass);
                 ])
             o.Saturation.probes) );
    ]

let to_json params rows =
  let b = params.base in
  Bench_json.Obj
    [
      ("schema", Bench_json.Str "amoeba-bench/1");
      ("suite", Bench_json.Str "loadgen");
      ("slo_p99_ms", Bench_json.Float params.slo.Saturation.p99_ms);
      ("min_completion", Bench_json.Float params.slo.Saturation.min_completion);
      ("mix", Bench_json.Str b.mix.Mix.name);
      ("keys", Bench_json.Int b.keys);
      ("value_dist", Bench_json.Str (Dist.to_string b.value_dist));
      ("txn_size", Bench_json.Int b.txn_size);
      ("duration_ms", Bench_json.Int (ms b.duration));
      ("warmup_ms", Bench_json.Int (ms b.warmup));
      ("replication", Bench_json.Int b.replication);
      ("wire_mbps", Bench_json.Int b.wire_mbps);
      ("max_batch", Bench_json.Int b.max_batch);
      ("pipeline_depth", Bench_json.Int b.pipeline_depth);
      ("search_tol", Bench_json.Float params.tol);
      ("seed", Bench_json.Int b.seed);
      ("rows", Bench_json.List (List.map (row_to_json b) rows));
    ]

(* --- schema check --- *)

type jty = T_int | T_float | T_bool | T_str

let required_row_fields =
  [
    ("shards", T_int);
    ("hosts", T_int);
    ("net", T_str);
    ("mix", T_str);
    ("knee_ops_per_sec", T_float);
    ("p99_ms_at_knee", T_float);
    ("completion_at_knee", T_float);
    ("probes", T_int);
    ("converged", T_bool);
    ("seed", T_int);
  ]

let type_ok ty (v : Bench_json.t) =
  match (ty, v) with
  | T_int, Bench_json.Int _ -> true
  | T_float, (Bench_json.Float _ | Bench_json.Int _ | Bench_json.Null) ->
      (* Null = "no measurement" (all probes failed); consumers must
         handle it, so the schema admits it for float fields. *)
      true
  | T_bool, Bench_json.Bool _ -> true
  | T_str, Bench_json.Str _ -> true
  | _ -> false

let validate (doc : Bench_json.t) =
  let ( let* ) = Result.bind in
  let field name obj =
    match List.assoc_opt name obj with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  match doc with
  | Bench_json.Obj top ->
      let* schema = field "schema" top in
      let* () =
        if schema = Bench_json.Str "amoeba-bench/1" then Ok ()
        else Error "bad schema tag"
      in
      let* suite = field "suite" top in
      let* () =
        if suite = Bench_json.Str "loadgen" then Ok ()
        else Error "suite is not \"loadgen\""
      in
      let* slo = field "slo_p99_ms" top in
      let* () =
        if type_ok T_float slo && slo <> Bench_json.Null then Ok ()
        else Error "slo_p99_ms must be a number"
      in
      let* rows = field "rows" top in
      let* rows =
        match rows with
        | Bench_json.List l -> Ok l
        | _ -> Error "rows must be a list"
      in
      let check_row i = function
        | Bench_json.Obj fields ->
            List.fold_left
              (fun acc (name, ty) ->
                let* () = acc in
                let* v = Result.map_error (Printf.sprintf "row %d: %s" i)
                    (field name fields)
                in
                if type_ok ty v then Ok ()
                else
                  Error
                    (Printf.sprintf "row %d: field %S has the wrong type" i
                       name))
              (Ok ()) required_row_fields
        | _ -> Error (Printf.sprintf "row %d is not an object" i)
      in
      List.fold_left
        (fun acc (i, r) ->
          let* () = acc in
          check_row i r)
        (Ok ())
        (List.mapi (fun i r -> (i, r)) rows)
  | _ -> Error "document is not an object"

let write_json ~path params rows =
  let doc = to_json params rows in
  (match validate doc with
  | Ok () -> ()
  | Error e -> failwith ("BENCH_loadgen.json schema check failed: " ^ e));
  Bench_json.write_file path doc
