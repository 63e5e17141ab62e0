(** The loadgen sweep: saturation search across shard count × fabric,
    the knee-of-curve table, and the validated [BENCH_loadgen.json]
    emission of [bench/main.exe loadgen]; [amoeba loadgen] runs one
    {!knee}. *)

type params = {
  base : Driver.config;
      (** the scenario every trial runs; a sweep row overrides its
          [shards], [hosts], [routers] and [net] *)
  slo : Saturation.slo;
  lo : float;  (** floor rate the search starts from *)
  tol : float;
  max_probes : int;
}

val default_params : smoke:bool -> params
(** Full: YCSB-A + 5 % 3-key transactions over {!Driver.default}'s
    cluster, p99 ≤ 50 ms at ≥ 95 % completion, 2 s windows.  Smoke:
    tiny windows, key space and probe budget. *)

type row = {
  shards : int;
  hosts : int;
  routers : int;
  net : string;  (** as {!Amoeba_net.Medium.net_of_string} accepts *)
  outcome : Saturation.outcome;
}

val sweep_configs : smoke:bool -> (int * int * int * string) list
(** [(shards, hosts, routers, net)] per configuration.  Full: shard
    counts 1/2/4/8 on both the shared Ether and the switch, plus
    bursty-loss rows on each fabric — 10 configurations.  Smoke: two
    tiny ones, one with the adversarial profile. *)

val knee : params -> Saturation.outcome
(** The SLO saturation search on [base]: deterministic in [params]. *)

val sweep : ?progress:(row -> unit) -> smoke:bool -> params -> row list

val print_header : unit -> unit

val print_row : row -> unit

val to_json : params -> row list -> Bench_json.t
(** The full [BENCH_loadgen.json] document.  Always passes
    {!validate} by construction. *)

val validate : Bench_json.t -> (unit, string) result
(** The schema check: the document must carry
    [schema]/[suite]/[slo_p99_ms]/[rows], and every row the required
    fields ([shards], [hosts], [net], [mix], [knee_ops_per_sec],
    [p99_ms_at_knee], [completion_at_knee], [probes], [converged],
    [seed]) with the right JSON types. *)

val write_json : path:string -> params -> row list -> unit
(** Validates, then writes; raises [Failure] if validation fails (a
    schema bug, not an I/O condition). *)
