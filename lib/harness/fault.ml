open Amoeba_sim
open Amoeba_net

type action =
  | Crash of int
  | Restart of int
  | Pause of int
  | Resume of int
  | Partition of int list * int list
  | Heal
  | Loss_burst of float * Time.t
  | Oneway of int * int
  | Burst of float * float * float * Time.t
  | Duplicate of float * Time.t
  | Jitter of int * Time.t
  | Corrupt of float * Time.t
  | Power_cycle_all of Time.t

type step = { at : Time.t; action : action }
type schedule = step list

let crash_count sched =
  List.fold_left
    (fun acc s -> match s.action with Crash _ -> acc + 1 | _ -> acc)
    0 sched

let sort sched = List.stable_sort (fun a b -> compare a.at b.at) sched

(* ----- execution ----- *)

(* Timed conditions of one kind stack: while several are in force the
   newest sets the value, and once none is, the value from before the
   first returns.  Restoring "the value I replaced" instead would let
   the later of two overlapping bursts put the earlier one's value back
   for the rest of the run. *)
type 'a layer = {
  get : unit -> 'a;
  set : 'a -> unit;
  mutable in_force : 'a ref list;  (** newest first *)
  mutable before : 'a;
}

let layer ~get ~set = { get; set; in_force = []; before = get () }

let push (c : Cluster.t) l v dur =
  if l.in_force = [] then l.before <- l.get ();
  let mine = ref v in
  l.in_force <- mine :: l.in_force;
  l.set v;
  ignore
    (Engine.schedule c.Cluster.engine ~after:dur (fun () ->
         l.in_force <- List.filter (fun r -> r != mine) l.in_force;
         l.set (match l.in_force with r :: _ -> !r | [] -> l.before)))

type layers = {
  loss : float layer;
  gilbert : Impair.gilbert option layer;
  dup : float layer;
  jitter : int layer;
  corrupt : float layer;
}

let layers (c : Cluster.t) =
  let e = Medium.impair c.Cluster.net in
  (* Each condition sets only its own field of the then-current
     conditions: bursts of different kinds compose. *)
  let cond get set =
    layer
      ~get:(fun () -> get (Impair.conditions e))
      ~set:(fun v -> Impair.set_conditions e (set (Impair.conditions e) v))
  in
  {
    loss = layer ~get:(fun () -> Impair.loss_rate e) ~set:(Impair.set_loss_rate e);
    gilbert = cond (fun k -> k.Impair.gilbert) (fun k v -> { k with Impair.gilbert = v });
    dup = cond (fun k -> k.Impair.dup_prob) (fun k v -> { k with Impair.dup_prob = v });
    jitter = cond (fun k -> k.Impair.jitter_ns) (fun k v -> { k with Impair.jitter_ns = v });
    corrupt =
      cond (fun k -> k.Impair.corrupt_prob) (fun k v -> { k with Impair.corrupt_prob = v });
  }

let fire ?(on_restart = fun _ -> ()) ?(on_power_down = fun () -> ())
    ?(on_power_up = fun () -> ()) ~layers (c : Cluster.t) action =
  match action with
  | Crash i -> Machine.crash (Cluster.machine c i)
  | Restart i ->
      if not (Machine.is_alive (Cluster.machine c i)) then begin
        Cluster.restart c i;
        on_restart i
      end
  | Pause i -> Machine.pause (Cluster.machine c i)
  | Resume i -> Machine.resume (Cluster.machine c i)
  | Partition (a, b) -> Impair.partition (Medium.impair c.Cluster.net) a b
  | Heal -> Impair.heal (Medium.impair c.Cluster.net)
  | Loss_burst (rate, dur) -> push c layers.loss rate dur
  | Oneway (src, dst) ->
      Impair.cut_oneway (Medium.impair c.Cluster.net) ~src ~dst
  | Burst (p_gb, p_bg, loss_bad, dur) ->
      push c layers.gilbert
        (Some { Impair.p_gb; p_bg; loss_good = 0.; loss_bad })
        dur
  | Duplicate (prob, dur) -> push c layers.dup prob dur
  | Jitter (ns, dur) -> push c layers.jitter ns dur
  | Corrupt (prob, dur) -> push c layers.corrupt prob dur
  | Power_cycle_all outage ->
      (* Total power loss: every machine — already-crashed ones
         included — is down for [outage], then power returns and all
         of them reboot together.  Restarted machines do NOT get the
         per-machine [on_restart] rejoin hook: memory is gone
         cluster-wide, so there is no surviving group to rejoin —
         [on_power_up] owns recovery (from the stable store). *)
      on_power_down ();
      for i = 0 to Cluster.size c - 1 do
        Machine.crash (Cluster.machine c i)
      done;
      ignore
        (Engine.schedule c.Cluster.engine ~after:outage (fun () ->
             for i = 0 to Cluster.size c - 1 do
               Cluster.restart c i
             done;
             on_power_up ()))

let apply ?on_restart ?on_power_down ?on_power_up c sched =
  let now = Cluster.now c in
  let layers = layers c in
  List.iter
    (fun { at; action } ->
      ignore
        (Engine.schedule c.Cluster.engine
           ~after:(max 0 (at - now))
           (fun () -> fire ?on_restart ?on_power_down ?on_power_up ~layers c action)))
    sched

(* ----- random schedules ----- *)

let random ~seed ~n ?(horizon = Time.ms 2000) ?(power_cycles = false) () =
  (* Own random state, not the engine's: the schedule must be a pure
     function of [seed] so a failing seed replays identically from the
     CLI, regardless of what the workload drew from the engine RNG. *)
  let st = Random.State.make [| 0x5EED; seed |] in
  let int lo hi = lo + Random.State.full_int st (hi - lo + 1) in
  let rand_t () = int (Time.ms 50) horizon in
  let steps = ref [] in
  let push at action = steps := { at; action } :: !steps in
  (* Never crash a majority: auto-heal recovery demands a quorum of
     the pre-failure membership, so a schedule that crashes more can
     only end in [Not_enough_members] — legal, but boring. *)
  let crash_budget = ref ((n - 1) / 2) in
  let loss_burst () =
    let rate = float_of_int (int 20 300) /. 1000. in
    let dur = int (Time.ms 50) (Time.ms 500) in
    push (rand_t ()) (Loss_burst (rate, dur))
  in
  (* Probabilities are generated in 1/1000 steps so the %g text form
     round-trips exactly (see the text-form comment below). *)
  let milli lo hi = float_of_int (int lo hi) /. 1000. in
  let n_events = int 2 5 in
  for _ = 1 to n_events do
    match int 0 8 with
    | 0 when !crash_budget > 0 ->
        decr crash_budget;
        let i = Random.State.int st n in
        let at = rand_t () in
        push at (Crash i);
        if Random.State.bool st then
          push (at + int (Time.ms 300) (Time.ms 1500)) (Restart i)
    | 0 -> loss_burst ()
    | 1 ->
        let i = Random.State.int st n in
        let at = rand_t () in
        push at (Pause i);
        push (at + int (Time.ms 200) (Time.sec 2)) (Resume i)
    | 2 when n >= 2 ->
        let side = Array.init n (fun _ -> Random.State.bool st) in
        (* Force both sides non-empty, at two distinct indices. *)
        let i_t = Random.State.int st n in
        let i_f = (i_t + 1 + Random.State.int st (n - 1)) mod n in
        side.(i_t) <- true;
        side.(i_f) <- false;
        let pick v =
          Array.to_list side
          |> List.mapi (fun i s -> if s = v then Some i else None)
          |> List.filter_map Fun.id
        in
        let at = rand_t () in
        push at (Partition (pick true, pick false));
        push (at + int (Time.ms 100) (Time.ms 800)) Heal
    | 3 -> loss_burst ()
    | 4 when n >= 2 ->
        (* One-way cut: [dst] goes deaf to [src] but keeps talking.
           Healed with a full heal, like partitions. *)
        let src = Random.State.int st n in
        let dst = (src + 1 + Random.State.int st (n - 1)) mod n in
        let at = rand_t () in
        push at (Oneway (src, dst));
        push (at + int (Time.ms 100) (Time.ms 800)) Heal
    | 5 ->
        push (rand_t ())
          (Burst (milli 5 50, milli 100 500, milli 300 900,
                  int (Time.ms 100) (Time.ms 800)))
    | 6 ->
        push (rand_t ()) (Duplicate (milli 20 200, int (Time.ms 100) (Time.ms 800)))
    | 7 ->
        push (rand_t ())
          (Jitter (int (Time.us 200) (Time.ms 3), int (Time.ms 100) (Time.ms 800)))
    | _ ->
        push (rand_t ()) (Corrupt (milli 5 50, int (Time.ms 100) (Time.ms 800)))
  done;
  (* The power cycle is drawn AFTER the main loop, so schedules with
     [power_cycles:false] (the default, and every pre-existing caller)
     are byte-identical to what this seed always produced.  One per
     schedule: it takes everything down regardless of the crash budget
     — the (n-1)/2 bound protects quorum recovery among SURVIVORS, and
     a total power loss has none; durable recovery, not auto-heal, is
     what brings the group back. *)
  if power_cycles then
    push
      (int (horizon / 4) horizon)
      (Power_cycle_all (int (Time.ms 100) (Time.ms 400)));
  sort (List.rev !steps)

(* ----- text form -----

   Times in integer nanoseconds so [of_string (to_string s)] replays
   the exact schedule; loss rates are generated in 1/1000 steps, which
   %g prints and [float_of_string] reads back to the same float. *)

let ids l = String.concat "," (List.map string_of_int l)

let action_to_string = function
  | Crash i -> Printf.sprintf "crash %d" i
  | Restart i -> Printf.sprintf "restart %d" i
  | Pause i -> Printf.sprintf "pause %d" i
  | Resume i -> Printf.sprintf "resume %d" i
  | Partition (a, b) -> Printf.sprintf "part %s/%s" (ids a) (ids b)
  | Heal -> "heal"
  | Loss_burst (rate, dur) -> Printf.sprintf "loss %g %d" rate dur
  | Oneway (src, dst) -> Printf.sprintf "oneway %d %d" src dst
  | Burst (p_gb, p_bg, loss_bad, dur) ->
      Printf.sprintf "burst %g %g %g %d" p_gb p_bg loss_bad dur
  | Duplicate (prob, dur) -> Printf.sprintf "dup %g %d" prob dur
  | Jitter (ns, dur) -> Printf.sprintf "jitter %d %d" ns dur
  | Corrupt (prob, dur) -> Printf.sprintf "corrupt %g %d" prob dur
  | Power_cycle_all outage -> Printf.sprintf "powercycle %d" outage

let to_string sched =
  String.concat "; "
    (List.map (fun s -> Printf.sprintf "%d:%s" s.at (action_to_string s.action)) sched)

let parse_ids s = List.map int_of_string (String.split_on_char ',' s)

let action_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "crash"; i ] -> Crash (int_of_string i)
  | [ "restart"; i ] -> Restart (int_of_string i)
  | [ "pause"; i ] -> Pause (int_of_string i)
  | [ "resume"; i ] -> Resume (int_of_string i)
  | [ "part"; sides ] -> (
      match String.split_on_char '/' sides with
      | [ a; b ] -> Partition (parse_ids a, parse_ids b)
      | _ -> invalid_arg ("Fault.of_string: bad partition " ^ s))
  | [ "heal" ] -> Heal
  | [ "loss"; rate; dur ] -> Loss_burst (float_of_string rate, int_of_string dur)
  | [ "oneway"; src; dst ] -> Oneway (int_of_string src, int_of_string dst)
  | [ "burst"; p_gb; p_bg; loss_bad; dur ] ->
      Burst
        ( float_of_string p_gb,
          float_of_string p_bg,
          float_of_string loss_bad,
          int_of_string dur )
  | [ "dup"; prob; dur ] -> Duplicate (float_of_string prob, int_of_string dur)
  | [ "jitter"; ns; dur ] -> Jitter (int_of_string ns, int_of_string dur)
  | [ "corrupt"; prob; dur ] -> Corrupt (float_of_string prob, int_of_string dur)
  | [ "powercycle"; outage ] -> Power_cycle_all (int_of_string outage)
  | _ -> invalid_arg ("Fault.of_string: bad action " ^ s)

let of_string str =
  let step s =
    match String.index_opt s ':' with
    | None -> invalid_arg ("Fault.of_string: missing time in " ^ s)
    | Some i ->
        {
          at = int_of_string (String.trim (String.sub s 0 i));
          action =
            action_of_string (String.sub s (i + 1) (String.length s - i - 1));
        }
  in
  String.split_on_char ';' str
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map step |> sort

let pp ppf sched =
  List.iter
    (fun s ->
      Format.fprintf ppf "  %8.1f ms  %s@." (Time.to_ms s.at)
        (action_to_string s.action))
    sched
