open Amoeba_sim
open Amoeba_net
open Amoeba_core
open Types
module Store = Amoeba_grouplib.Stable_store

type outcome = {
  seed : int;
  schedule : Fault.schedule;
  verdicts : Checker.verdict list;
  durability_checked : bool;
  sends_started : int;
  sends_completed : int;
  sends_aborted : int;
  nacks : int;
  retransmissions : int;
  solicitations : int;
  resets : int;
  frames_lost : int;
  partition_drops : int;
  queue_drops : int;  (** switch fabric tail drops (0 on the shared wire) *)
  rx_overflows : int;
  machine_restarts : int;
  duplicates_dropped : int;  (** kernel-refused duplicate/stale frames *)
  corrupt_dropped : int;  (** group-checksum rejections, summed over kernels *)
  reorders_absorbed : int;
  flip_checksum_drops : int;  (** header-corrupt frames dropped at FLIP *)
  oneway_drops : int;
  cond_losses : int;  (** Gilbert–Elliott losses *)
  dups_injected : int;
  corruptions_injected : int;
  batches_sent : int;  (** multi-op sends, summed over members *)
  ops_per_batch_avg : float;
  pipeline_depth_hwm : int;  (** max over members *)
  durable : bool;  (** members logged deliveries to a stable store *)
  power_cycles : int;  (** whole-cluster power losses that fired *)
  wal_appends : int;
  disk_writes_dropped : int;  (** I/O lost to dead machines *)
  wal_records_replayed : int;
  torn_tails_truncated : int;
  checksum_rejects : int;
}

let ok o = Checker.all_ok o.verdicts

(* Durability is only promised while failures stay within the
   resilience degree.  Partitions, one-way cuts and pauses can cut a
   minority (or a stalled sequencer) off with
   completed-but-undistributed messages — the "more than r failures"
   regime where the paper makes no guarantee — so any such schedule
   turns the durability check off.  Loss (uniform or bursty),
   duplication, jitter and corruption are exactly what the NACK
   machinery repairs, so they leave the check on. *)
let durability_applies ~resilience sched =
  Fault.crash_count sched <= resilience
  && not
       (List.exists
          (fun s ->
            match s.Fault.action with
            | Fault.Partition _ | Fault.Pause _ | Fault.Oneway _
            | Fault.Power_cycle_all _ ->
                true
            | _ -> false)
          sched)

(* WAL payloads are "<sender> <body>": decode one replay into the
   checker's view of a recovered log. *)
let wal_entries replay =
  List.filter_map
    (fun (seq, payload) ->
      let s = Bytes.to_string payload in
      match String.index_opt s ' ' with
      | None -> None
      | Some sp ->
          Option.map
            (fun sender ->
              {
                Checker.w_seq = seq;
                w_sender = sender;
                w_body = String.sub s (sp + 1) (String.length s - sp - 1);
              })
            (int_of_string_opt (String.sub s 0 sp)))
    replay.Store.records

let run ?(n = 4) ?(groups = 1) ?(resilience = 0) ?(send_method = Pb)
    ?(msgs = 4) ?(horizon = Time.ms 2000) ?schedule ?(net = Medium.clean)
    ?(fabric = Medium.Shared) ?(pipeline = 1) ?(ops_per_send = 1) ?disk ~seed
    () =
  if groups < 1 then invalid_arg "Chaos.run: groups < 1";
  let ops_per_send = max 1 ops_per_send in
  let sched =
    match schedule with
    | Some s -> s
    | None -> Fault.random ~seed ~n ~horizon ()
  in
  let cycles =
    List.length
      (List.filter
         (fun s ->
           match s.Fault.action with
           | Fault.Power_cycle_all _ -> true
           | _ -> false)
         sched)
  in
  if cycles > 1 then
    invalid_arg "Chaos.run: at most one Power_cycle_all per schedule";
  if cycles > 0 && disk = None then
    invalid_arg "Chaos.run: Power_cycle_all needs a disk (pass ~disk)";
  let has_cycle = cycles > 0 in
  let c =
    match disk with
    | None -> Cluster.create ~seed ~fabric ~n ()
    | Some d ->
        Cluster.create ~seed ~fabric
          ~cost:{ Cost_model.default with Cost_model.disk = d }
          ~n ()
  in
  let store =
    match disk with Some _ -> Some (Store.create ()) | None -> None
  in
  let eng = c.Cluster.engine in
  (* Persistent adversarial conditions for the whole active phase,
     cleared shortly after the horizon — before the flush sends — so
     tail-gap repair runs on a quiet net, the same contract the
     schedule's bounded bursts obey (every burst ends by
     horizon + 800ms). *)
  if net <> Medium.clean then begin
    Medium.set_conditions c.Cluster.net net;
    ignore
      (Engine.schedule eng ~after:(horizon + Time.sec 1) (fun () ->
           Medium.set_conditions c.Cluster.net Medium.clean))
  end;
  let crashed = Array.make n false in
  List.iter
    (fun s ->
      match s.Fault.action with
      | Fault.Crash i -> crashed.(i) <- true
      | _ -> ())
    sched;
  let handles = ref [] in
  (* Streams and completed sends are tagged with the group index, so
     the invariants can be checked independently per group: each group
     is its own total order — the partitioned-service contract. *)
  let streams = ref [] in
  let completed = Array.init groups (fun _ -> ref []) in
  (* Sends acknowledged after a power cycle land here instead:
     [completed] freezes at the cut into exactly "what the application
     was told before the power went", which is what the durability
     invariant is about. *)
  let post_completed = Array.init groups (fun _ -> ref []) in
  let cut_done = ref false in
  let fired_cycles = ref 0 in
  let recovered = ref [] in
  let started = ref 0 and n_ok = ref 0 and n_err = ref 0 in
  (* Application processes run *on* their machine ([Cluster.spawn_on]):
     a crash is fail-stop for the whole host, so collectors and senders
     are crash-stopped with it by the engine's process groups — no
     application-layer liveness checks needed.  The old application
     does not come back on restart; a reboot starts a fresh member. *)
  let label j i =
    if groups = 1 then Printf.sprintf "m%d" i else Printf.sprintf "g%d:m%d" j i
  in
  let add_stream j lbl full i g =
    handles := g :: !handles;
    let evs = ref [] in
    streams := (j, lbl, evs, full, i, !cut_done) :: !streams;
    Cluster.spawn_on c i (fun () ->
        let rec collect () =
          let e = Api.receive_from_group g in
          evs := e :: !evs;
          (* In durable mode every delivered message is logged —
             synchronously, so the record is on the platter before the
             next receive.  A crash mid-append loses the record but the
             log stays a prefix of the stream, which is all the
             recovery invariant asks. *)
          (match (e, store) with
          | Message { seq; sender; body }, Some st ->
              let sc = Api.storage_counters g in
              if
                Store.wal_append st (Cluster.machine c i)
                  ~log:("chaos:" ^ lbl) ~sync:true ~index:seq
                  (Bytes.of_string
                     (Printf.sprintf "%d %s" sender (Bytes.to_string body)))
              then begin
                sc.Api.wal_appends <- sc.Api.wal_appends + 1;
                sc.Api.wal_fsyncs <- sc.Api.wal_fsyncs + 1
              end
              else
                sc.Api.disk_writes_dropped <- sc.Api.disk_writes_dropped + 1
          | _ -> ());
          match e with Expelled -> () | _ -> collect ()
        in
        collect ())
  in
  (* [ops_per_send] only declares a batch to the kernel's cost and
     wire accounting — the body itself stays one opaque tagged string,
     so the checker's body matching is untouched. *)
  let record_send j mid body g =
    incr started;
    match Api.send_to_group ~ops:ops_per_send g (Bytes.of_string body) with
    | Ok _ ->
        incr n_ok;
        let dst = if !cut_done then post_completed.(j) else completed.(j) in
        dst := (mid, body) :: !dst
    | Error _ -> incr n_err
  in
  (* Returns an ivar filled once the last tagged send has returned. *)
  let spawn_sender j i g =
    let mid = (Api.get_info_group g).Api.my_mid in
    let gap = max (Time.ms 1) (horizon * 2 / 3 / max 1 msgs) in
    let sent = Ivar.create () in
    Cluster.spawn_on c i (fun () ->
        Engine.sleep eng (Time.ms 30 + (mid * Time.ms 7) + (j * Time.ms 3));
        for k = 1 to msgs do
          record_send j mid (Printf.sprintf "o%d.%d" mid k) g;
          if k = msgs then Ivar.fill sent ();
          Engine.sleep eng gap
        done;
        ignore (Ivar.try_fill sent ()));
    sent
  in
  (* A flush after the horizon (quiet net: loss bursts over,
     partitions healed) gives every member that silently lost the
     tail of the stream a later sequence number to notice the gap
     against, so NACK repair can run before the invariants are read.
     It is the member's last numbered message, so it waits for a
     sender still stuck in an earlier send: the checker holds each
     origin to sending in numbered order. *)
  let spawn_flush j i g ~sent =
    let mid = (Api.get_info_group g).Api.my_mid in
    Cluster.spawn_on c i (fun () ->
        Engine.sleep eng (max 0 (horizon + Time.sec 3 - Engine.now eng));
        Ivar.read eng sent;
        record_send j mid (Printf.sprintf "o%d.%d" mid (msgs + 1)) g)
  in
  let addrs = Array.make groups None in
  Cluster.spawn c (fun () ->
      (* Group [j]'s creator — and thus its sequencer — is machine
         [j mod n]: concurrent groups spread their sequencers like a
         shard map does, and all share the one wire. *)
      for j = 0 to groups - 1 do
        let creator = j mod n in
        let gj =
          Api.create_group (Cluster.flip c creator) ~resilience ~send_method
            ~auto_heal:true ~pipeline ()
        in
        let addr = Api.group_address gj in
        addrs.(j) <- Some addr;
        add_stream j (label j creator)
          ((not crashed.(creator)) && not has_cycle)
          creator gj;
        spawn_flush j creator gj ~sent:(spawn_sender j creator gj);
        for k = 1 to n - 1 do
          let i = (creator + k) mod n in
          match
            Api.join_group (Cluster.flip c i) ~resilience ~send_method
              ~auto_heal:true ~pipeline addr
          with
          | Ok g ->
              add_stream j (label j i) ((not crashed.(i)) && not has_cycle) i g;
              spawn_flush j i g ~sent:(spawn_sender j i g)
          | Error _ ->
              (* A hostile enough net can defeat the join handshake's
                 bounded retries; the member simply never joins.  On a
                 quiet net setup joins always succeed. *)
              ()
        done
      done;
      (* Rebooted machines come back with fresh state and rejoin as
         new members; their streams are partial, never "full". *)
      (* The rejoin runs on the rebooted machine's fresh group: if the
         host crashes again mid-join, the joiner dies with it. *)
      let on_restart i =
        for j = 0 to groups - 1 do
          match addrs.(j) with
          | None -> ()
          | Some addr ->
              Cluster.spawn_on c i (fun () ->
                  match
                    Api.join_group (Cluster.flip c i) ~resilience ~send_method
                      ~auto_heal:true ~pipeline addr
                  with
                  | Ok g ->
                      add_stream j
                        (Printf.sprintf "%s+%d" (label j i)
                           (Machine.restarts (Cluster.machine c i)))
                        false i g
                  | Error _ -> ())
        done
      in
      (* Power-loss bracket.  At the cut, [completed] freezes (later
         acks go to [post_completed]) and every stream created so far
         is pre-cut.  When power returns, a root process replays every
         pre-cut log on its own machine (a real, costed sequential
         read), then re-forms each group from scratch — the machine
         whose disk yielded the longest log becomes the creator, the
         natural "most durable state wins" recovery rule — and each
         member sends one post-recovery message so redelivery of
         recovered bodies would be caught. *)
      let on_power_down () = cut_done := true in
      let on_power_up () =
        incr fired_cycles;
        Cluster.spawn c (fun () ->
            let st = match store with Some st -> st | None -> assert false in
            let pre =
              List.filter (fun (_, _, _, _, _, post) -> not post) !streams
            in
            let replays =
              List.map
                (fun (j, lbl, _, _, i, _) ->
                  let iv = Ivar.create () in
                  Cluster.spawn_on c i (fun () ->
                      Ivar.fill iv
                        (Store.wal_replay st (Cluster.machine c i)
                           ~log:("chaos:" ^ lbl)));
                  (j, lbl, i, iv))
                pre
            in
            let recs =
              List.map
                (fun (j, lbl, i, iv) ->
                  (j, lbl, i, wal_entries (Ivar.read eng iv)))
                replays
            in
            recovered := List.map (fun (j, lbl, _, es) -> (j, lbl, es)) recs;
            for j = 0 to groups - 1 do
              let mine = List.filter (fun (j', _, _, _) -> j' = j) recs in
              let creator, _ =
                List.fold_left
                  (fun (bi, bn) (_, _, i, es) ->
                    let ln = List.length es in
                    if ln > bn then (i, ln) else (bi, bn))
                  (j mod n, -1) mine
              in
              let gj =
                Api.create_group (Cluster.flip c creator) ~resilience
                  ~send_method ~auto_heal:true ~pipeline ()
              in
              let addr = Api.group_address gj in
              addrs.(j) <- Some addr;
              let plabel i = label j i ^ "+P" in
              let post_send i g =
                let mid = (Api.get_info_group g).Api.my_mid in
                Cluster.spawn_on c i (fun () ->
                    Engine.sleep eng (Time.ms 50 + (mid * Time.ms 7));
                    record_send j mid
                      (Printf.sprintf "o%d.%d" mid (msgs + 2))
                      g)
              in
              add_stream j (plabel creator) false creator gj;
              post_send creator gj;
              for k = 1 to n - 1 do
                let i = (creator + k) mod n in
                match
                  Api.join_group (Cluster.flip c i) ~resilience ~send_method
                    ~auto_heal:true ~pipeline addr
                with
                | Ok g ->
                    add_stream j (plabel i) false i g;
                    post_send i g
                | Error _ -> ()
              done
            done)
      in
      Fault.apply ~on_restart ~on_power_down ~on_power_up c sched);
  Cluster.run ~until:(horizon + Time.sec 8) c;
  let streams_of ?(post = false) j =
    List.filter (fun (j', _, _, _, _, p) -> j' = j && p = post) !streams
    |> List.rev_map (fun (_, label, evs, full, _, _) ->
           { Checker.label; events = List.rev !evs; full })
  in
  if Sys.getenv_opt "CHAOS_DEBUG" <> None then
    for j = 0 to groups - 1 do
      List.iter
        (fun s ->
          Printf.eprintf "%s:" s.Checker.label;
          List.iter
            (fun e ->
              match e with
              | Message { seq; sender; body } ->
                  Printf.eprintf " %d(m%d:%s)" seq sender (Bytes.to_string body)
              | Member_joined { seq; mid } ->
                  Printf.eprintf " %d(join%d)" seq mid
              | Member_left { seq; mid } -> Printf.eprintf " %d(left%d)" seq mid
              | Group_reset { seq; incarnation; _ } ->
                  Printf.eprintf " %d(reset@%d)" seq incarnation
              | Expelled -> Printf.eprintf " EXPELLED")
            s.Checker.events;
          Printf.eprintf "\n")
        (streams_of j @ streams_of ~post:true j)
    done;
  let dur_applies = durability_applies ~resilience sched in
  (* One independent checker run per group: each group promises its
     own total order, never anything across groups. *)
  let verdicts =
    List.concat
      (List.init groups (fun j ->
           let pre = streams_of j in
           let base =
             Checker.run ~durability_applies:dur_applies ~streams:pre
               ~completed:!(completed.(j)) ()
           in
           let extra =
             match store with
             | None -> []
             | Some st ->
                 if has_cycle then (
                   (* The four classic invariants hold within each
                      epoch — the post-recovery group is a new total
                      order, so it gets its own run — and I5 bridges
                      the cut.  Post streams are never "full" (every
                      machine rebooted) so the in-epoch durability
                      check is vacuous there; I5's clause (b) is the
                      real durability claim for this run. *)
                   let post = streams_of ~post:true j in
                   let postv =
                     Checker.run ~durability_applies:false ~streams:post
                       ~completed:!(post_completed.(j)) ()
                     |> List.map (fun v ->
                            {
                              v with
                              Checker.invariant = "post:" ^ v.Checker.invariant;
                            })
                   in
                   let rec_j =
                     List.filter_map
                       (fun (j', l, es) -> if j' = j then Some (l, es) else None)
                       !recovered
                   in
                   postv
                   @ [
                       Checker.durable_recovery ~pre ~recovered:rec_j
                         ~completed:!(completed.(j)) ~post;
                     ])
                 else
                   (* No power loss, but the disks must still agree
                      with the streams: every log an exact prefix of
                      its member's deliveries, nothing acknowledged
                      missing inside the logged ranges. *)
                   let rec_j =
                     List.filter
                       (fun (j', _, _, _, _, p) -> j' = j && not p)
                       !streams
                     |> List.rev_map (fun (_, lbl, _, _, i, _) ->
                            ( lbl,
                              wal_entries
                                (Store.wal_read st
                                   ~machine_name:
                                     (Machine.name (Cluster.machine c i))
                                   ~log:("chaos:" ^ lbl)) ))
                   in
                   [
                     Checker.durable_recovery ~pre ~recovered:rec_j
                       ~completed:!(completed.(j)) ~post:[];
                   ]
           in
           let vs = base @ extra in
           if groups = 1 then vs
           else
             List.map
               (fun v ->
                 {
                   v with
                   Checker.invariant = Printf.sprintf "g%d:%s" j v.Checker.invariant;
                 })
               vs))
  in
  let sum f =
    List.fold_left (fun acc g -> acc + f (Api.get_info_group g)) 0 !handles
  in
  {
    seed;
    schedule = sched;
    verdicts;
    durability_checked = dur_applies;
    sends_started = !started;
    sends_completed = !n_ok;
    sends_aborted = !n_err;
    nacks = sum (fun i -> i.Api.nacks_sent);
    retransmissions = sum (fun i -> i.Api.retransmissions);
    solicitations = sum (fun i -> i.Api.status_solicitations);
    resets = sum (fun i -> i.Api.resets_survived);
    frames_lost = Medium.frames_lost c.Cluster.net;
    partition_drops = Medium.partition_drops c.Cluster.net;
    queue_drops = Medium.queue_drops c.Cluster.net;
    rx_overflows =
      Array.fold_left
        (fun acc m -> acc + Nic.rx_dropped (Machine.nic m))
        0 c.Cluster.machines;
    machine_restarts =
      Array.fold_left
        (fun acc m -> acc + Machine.restarts m)
        0 c.Cluster.machines;
    duplicates_dropped = sum (fun i -> i.Api.duplicates_dropped);
    corrupt_dropped = sum (fun i -> i.Api.corrupt_dropped);
    reorders_absorbed = sum (fun i -> i.Api.reorders_absorbed);
    flip_checksum_drops =
      (let acc = ref 0 in
       for i = 0 to n - 1 do
         acc := !acc + Amoeba_flip.Flip.corrupt_dropped (Cluster.flip c i)
       done;
       !acc);
    oneway_drops = Medium.oneway_drops c.Cluster.net;
    cond_losses = Medium.cond_losses c.Cluster.net;
    dups_injected = Medium.duplicates_injected c.Cluster.net;
    corruptions_injected = Medium.corruptions_injected c.Cluster.net;
    batches_sent = sum (fun i -> i.Api.batches_sent);
    ops_per_batch_avg =
      (* batched-op totals reconstructed from each member's average *)
      (let b = ref 0 and ops = ref 0. in
       List.iter
         (fun g ->
           let i = Api.get_info_group g in
           b := !b + i.Api.batches_sent;
           ops :=
             !ops +. (float_of_int i.Api.batches_sent *. i.Api.ops_per_batch_avg))
         !handles;
       if !b = 0 then 1. else !ops /. float_of_int !b);
    pipeline_depth_hwm =
      List.fold_left
        (fun acc g -> max acc (Api.get_info_group g).Api.pipeline_depth_hwm)
        0 !handles;
    durable = store <> None;
    power_cycles = !fired_cycles;
    wal_appends =
      (match store with
      | Some st -> (Store.counters st).Store.wal_appends
      | None -> 0);
    disk_writes_dropped =
      (match store with
      | Some st -> (Store.counters st).Store.writes_dropped
      | None -> 0);
    wal_records_replayed =
      (match store with
      | Some st -> (Store.counters st).Store.records_replayed
      | None -> 0);
    torn_tails_truncated =
      (match store with
      | Some st -> (Store.counters st).Store.torn_tails
      | None -> 0);
    checksum_rejects =
      (match store with
      | Some st -> (Store.counters st).Store.checksum_rejects
      | None -> 0);
  }

let print_report o =
  Printf.printf "chaos run: seed %d\n" o.seed;
  Printf.printf "schedule:  %s\n"
    (if o.schedule = [] then "(none)" else Fault.to_string o.schedule);
  Format.printf "%a" Fault.pp o.schedule;
  Printf.printf "invariants:\n";
  List.iter
    (fun v -> Format.printf "  %a@." Checker.pp_verdict v)
    o.verdicts;
  Printf.printf "sends:     %d started, %d completed, %d aborted, %d stuck\n"
    o.sends_started o.sends_completed o.sends_aborted
    (o.sends_started - o.sends_completed - o.sends_aborted);
  Printf.printf
    "recovery:  %d nacks, %d retransmissions, %d solicitations, %d resets \
     survived, %d reboots\n"
    o.nacks o.retransmissions o.solicitations o.resets o.machine_restarts;
  Printf.printf "network:   %d frames lost, %d partition drops, %d rx overflows\n"
    o.frames_lost o.partition_drops o.rx_overflows;
  if o.queue_drops > 0 then
    Printf.printf "fabric:    %d switch queue tail drops\n" o.queue_drops;
  Printf.printf
    "adversary: %d burst losses, %d oneway drops, %d dups injected, %d \
     corruptions injected\n"
    o.cond_losses o.oneway_drops o.dups_injected o.corruptions_injected;
  Printf.printf
    "absorbed:  %d duplicates dropped, %d corrupt dropped (%d at flip), %d \
     reorders absorbed\n"
    o.duplicates_dropped o.corrupt_dropped o.flip_checksum_drops
    o.reorders_absorbed;
  if o.batches_sent > 0 || o.pipeline_depth_hwm > 1 then
    Printf.printf
      "batching:  %d batched sends, %.1f ops/batch avg, pipeline hwm %d\n"
      o.batches_sent o.ops_per_batch_avg o.pipeline_depth_hwm;
  if o.durable then begin
    Printf.printf
      "storage:   %d wal appends, %d writes lost to dead machines, %d power \
       cycle%s\n"
      o.wal_appends o.disk_writes_dropped o.power_cycles
      (if o.power_cycles = 1 then "" else "s");
    if o.power_cycles > 0 then
      Printf.printf
        "replayed:  %d records recovered, %d torn tails truncated, %d \
         checksum rejects\n"
        o.wal_records_replayed o.torn_tails_truncated o.checksum_rejects
  end;
  if not o.durability_checked then
    Printf.printf "note:      durability not applicable to this schedule\n";
  Printf.printf "verdict:   %s\n" (if ok o then "PASS" else "FAIL")
