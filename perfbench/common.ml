(* Shared measurement plumbing: host clock, failure-inclusive
   percentiles, the write-responsiveness figure behind [outage_ms],
   counter snapshots of a cluster, the 1 ms queue sampler, and the
   JSON result line. *)

open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Amoeba_harness
module Histogram = Amoeba_loadgen.Histogram

(* The simulated cluster seed.  The workload seed never reaches it:
   the engine's own randomness (CPU jitter, Ether backoff, impairment
   draws) models the environment, not the input.  11 is also the
   default workload seed, so at the default seed a trial sees exactly
   the cluster [Amoeba_loadgen.Driver.run] builds. *)
let cluster_seed = 11

let default_seed = 11

let host_now () = Unix.gettimeofday ()

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The [p]th percentile over [attempted] ops of which only the
   [Histogram.count hist] completed ones were recorded: every missing
   op counts as +inf.  With nothing missing this is exactly
   [Histogram.percentile hist p]. *)
let percentile_incl hist ~attempted p =
  let n = Histogram.count hist in
  if n >= attempted then Histogram.percentile hist p
  else
    let rank = Float.ceil (p /. 100.0 *. float_of_int attempted) in
    if rank > float_of_int n then infinity
    else Histogram.percentile hist (100.0 *. (rank -. 0.5) /. float_of_int n)

(* The same over the exact latencies: [sorted] holds the completed
   ops' latencies in ascending order. *)
let exact_percentile_incl (sorted : float array) ~attempted p =
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int attempted)) in
  if rank > Array.length sorted then infinity
  else sorted.(max 0 (rank - 1))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Write responsiveness at instant [t]: simulated ms from [t] to the
   completion of the earliest-issued successful write issued at or
   after [t].  [writes] holds (issue, completion) pairs sorted by
   issue time.  [None] when no write was issued after [t]. *)
let first_write_after (writes : (Time.t * Time.t) array) t =
  let n = Array.length writes in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst writes.(mid) < t then lo := mid + 1 else hi := mid
  done;
  if !lo >= n then None else Some (Time.to_ms (snd writes.(!lo) - t))

(* [outage_ms] on a fault-free workload: the median of
   [first_write_after] over [points] instants evenly spaced across
   [[from_, until)]. *)
let responsiveness_ms writes ~from_ ~until ~points =
  let span = until - from_ in
  median
    (List.filter_map
       (fun i -> first_write_after writes (from_ + (span * i / points)))
       (List.init points Fun.id))

(* ---- host-speed reference ------------------------------------------ *)

(* On a shared host the speed drifts by tens of per cent over minutes,
   so host times are reported in reference seconds: scaled by
   [reference_s] over the median time, measured around the same
   repetition, of a fixed pure-OCaml loop (hash table, allocation,
   sort) that runs no simulator code, so no change to the simulator
   moves it.  [reference_s] is the loop's typical time on the 2-vCPU
   x86-64 VM the benchmark was defined on. *)
let reference_s = 0.03

let reference_times = ref []

(* Times the reference loop once; called between measured repetitions
   and trials so the samples span the whole run. *)
let sample_reference () =
  let t0 = host_now () in
  let h = Hashtbl.create 16_384 in
  for round = 1 to 6 do
    Hashtbl.reset h;
    let acc = ref [] in
    for i = 0 to 16_383 do
      let k = (i * 7919) + round land 0xfffff in
      Hashtbl.replace h k i;
      if i land 3 = 0 then acc := (float_of_int (k land 0xffff), i) :: !acc
    done;
    let a = Array.of_list !acc in
    Array.sort compare a;
    ignore (Sys.opaque_identity a)
  done;
  reference_times := (host_now () -. t0) :: !reference_times

(* The factor that turns host seconds into reference seconds, from
   the samples taken after the first [since]. *)
let host_scale ~since =
  let fresh = List.length !reference_times - since in
  reference_s /. median (List.filteri (fun i _ -> i < fresh) !reference_times)

(* ---- counter snapshots --------------------------------------------- *)

type snap = {
  s_time : Time.t;
  s_events : int;
  s_irq : int array;
  s_rx_drops : int array;
  s_cpu_busy : Time.t array;
  s_disk_busy : Time.t array;
  s_dup_frags : int;
  s_invalid_frags : int;
  s_frames : int;
  s_bytes : int;
  s_collisions : int;
  s_queue_drops : int;
  s_minor_words : float;
  s_major_gcs : int;
  s_host : float;
}

let snap (cl : Cluster.t) =
  let ms = cl.Cluster.machines in
  let per f = Array.map f ms in
  let gc = Gc.quick_stat () in
  {
    s_time = Cluster.now cl;
    s_events = Engine.step_count cl.Cluster.engine;
    s_irq = per (fun m -> Nic.interrupts (Machine.nic m));
    s_rx_drops = per (fun m -> Nic.rx_dropped (Machine.nic m));
    s_cpu_busy = per (fun m -> Resource.busy_time (Machine.cpu m));
    s_disk_busy = per (fun m -> Resource.busy_time (Machine.disk m));
    s_dup_frags =
      Array.fold_left (fun a f -> a + Flip.dup_fragments f) 0 cl.Cluster.flips;
    s_invalid_frags =
      Array.fold_left
        (fun a f -> a + Flip.invalid_fragments f)
        0 cl.Cluster.flips;
    s_frames = Medium.frames_delivered cl.Cluster.net;
    s_bytes = Medium.bytes_delivered cl.Cluster.net;
    s_collisions = Medium.collisions cl.Cluster.net;
    s_queue_drops = Medium.queue_drops cl.Cluster.net;
    s_minor_words = gc.Gc.minor_words;
    s_major_gcs = gc.Gc.major_collections;
    s_host = host_now ();
  }

(* ---- the 1 ms sampler (traced runs only) --------------------------- *)

type sampler = {
  mutable samples : int;
  cpu_q : int array;  (* summed queue lengths per machine *)
  disk_q : int array;
  mutable partial_max : int;
}

(* An untraced run samples nothing: it must schedule no extra events. *)
let no_sampler (cl : Cluster.t) =
  let n = Cluster.size cl in
  { samples = 0; cpu_q = Array.make n 0; disk_q = Array.make n 0; partial_max = 0 }

let start_sampler (cl : Cluster.t) ~until ~extra =
  let s = no_sampler cl in
  let eng = cl.Cluster.engine in
  Cluster.spawn cl (fun () ->
      while Engine.now eng < until do
        s.samples <- s.samples + 1;
        Array.iteri
          (fun i m ->
            if Machine.is_alive m then begin
              s.cpu_q.(i) <- s.cpu_q.(i) + Resource.queue_length (Machine.cpu m);
              s.disk_q.(i) <-
                s.disk_q.(i) + Resource.queue_length (Machine.disk m)
            end)
          cl.Cluster.machines;
        Array.iter
          (fun f -> s.partial_max <- max s.partial_max (Flip.partial_count f))
          cl.Cluster.flips;
        extra ();
        Engine.sleep eng (Time.ms 1)
      done);
  s

let queue_mean_max s arr =
  if s.samples = 0 then 0.0
  else
    Array.fold_left
      (fun a q -> Float.max a (float_of_int q /. float_of_int s.samples))
      0.0 arr

(* ---- per-layer figures from two snapshots -------------------------- *)

(* Figures every workload reports the same way.  [ops] is the number
   of client operations the window carried; [routers] the machine
   indices that belong to no group. *)
let window_layers (cl : Cluster.t) ~(a : snap) ~(b : snap) ~ops ~routers
    ~sampler =
  let ops = float_of_int (max 1 ops) in
  let dt = float_of_int (max 1 (b.s_time - a.s_time)) in
  let sum arr_a arr_b idx =
    List.fold_left (fun acc i -> acc + (arr_b.(i) - arr_a.(i))) 0 idx
  in
  let all = List.init (Cluster.size cl) Fun.id in
  let util busy_a busy_b i = float_of_int (busy_b.(i) - busy_a.(i)) /. dt in
  let layer name =
    match List.assoc_opt name (Trace.by_layer cl.Cluster.trace) with
    | Some d -> Time.to_us d /. ops
    | None -> 0.0
  in
  let router_util =
    match routers with
    | [] -> 0.0
    | rs ->
        List.fold_left (fun acc i -> acc +. util a.s_cpu_busy b.s_cpu_busy i) 0.0 rs
        /. float_of_int (List.length rs)
  in
  [
    ("sim.events_per_op", float_of_int (b.s_events - a.s_events) /. ops);
    ("net.cpu_us_per_op", layer "ether");
    ("net.interrupts_per_op", float_of_int (sum a.s_irq b.s_irq all) /. ops);
    ( "net.router_interrupts_per_op",
      float_of_int (sum a.s_irq b.s_irq routers) /. ops );
    ("net.frames_per_op", float_of_int (b.s_frames - a.s_frames) /. ops);
    ("net.bytes_per_op", float_of_int (b.s_bytes - a.s_bytes) /. ops);
    ("net.utilisation", Medium.utilisation cl.Cluster.net);
    ( "net.collisions_per_op",
      float_of_int (b.s_collisions - a.s_collisions) /. ops );
    ("net.queue_drops", float_of_int (b.s_queue_drops - a.s_queue_drops));
    ("net.rx_ring_drops", float_of_int (sum a.s_rx_drops b.s_rx_drops all));
    ( "net.cpu_util_max",
      List.fold_left
        (fun acc i -> Float.max acc (util a.s_cpu_busy b.s_cpu_busy i))
        0.0 all );
    ("net.cpu_util_router_mean", router_util);
    ("net.cpu_queue_mean_max", queue_mean_max sampler sampler.cpu_q);
    ("flip.cpu_us_per_op", layer "flip");
    ("flip.dup_fragments", float_of_int (b.s_dup_frags - a.s_dup_frags));
    ( "flip.invalid_fragments",
      float_of_int (b.s_invalid_frags - a.s_invalid_frags) );
    ("flip.partial_max", float_of_int sampler.partial_max);
    ("core.cpu_us_per_op", layer "group");
    ("core.user_cpu_us_per_op", layer "user");
    ("rpc.cpu_us_per_op", layer "rpc");
    ( "grouplib.disk_util_max",
      List.fold_left
        (fun acc i -> Float.max acc (util a.s_disk_busy b.s_disk_busy i))
        0.0 all );
    ("grouplib.disk_queue_mean_max", queue_mean_max sampler sampler.disk_q);
  ]

(* ---- output -------------------------------------------------------- *)

(* Full precision: the figures are compared across runs digit for
   digit. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_float v)
          unit)
      metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed (String.concat ", " m)
