open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Amoeba_core
module T = Types

module type APP = sig
  type state
  type update

  val initial : state
  val apply : state -> update -> state
  val encode_update : update -> bytes
  val decode_update : bytes -> update option
  val encode_state : state -> bytes
  val decode_state : bytes -> state option
end

(* On-stream message format: one tag byte, then the payload.
   'U' <update>                       ordinary update
   'B' <n> ' ' (<len> ' ' <update>)*  batch of n updates, applied in order
   'Q' <reply-addr> ' ' <nonce>       a joiner requests state transfer *)
let tag_update = 'U'
let tag_batch = 'B'
let tag_query = 'Q'

type sync_policy = Every_commit | Group_fsync of int | Checkpoint_only

type durability = {
  store : Stable_store.t;
  log : string;
  sync : sync_policy;
  checkpoint_every : int;
}

type recovery_stats = {
  ckpt_count : int;
  checkpoint_damaged : bool;
  records_replayed : int;
  torn_tails : int;
  checksum_rejects : int;
}

(* The caller-supplied [log] is the replica's stable identity ("the
   file name"): group addresses change every time a group is
   re-created, so they cannot key durable state that must be found
   again after a whole-cluster restart. *)
let wal_name d = "wal:" ^ d.log
let ckpt_name d = "ckpt:" ^ d.log

module Make (App : APP) = struct
  type mode =
    | Normal
    | Syncing of {
        nonce : int;
        mutable buffer : (T.seqno * App.update) list;  (** newest first *)
        mutable query_seq : T.seqno option;
      }

  (* What the applier and the submitter of one of this replica's own
     rounds know of it, whichever of the two gets there first. *)
  type slot =
    | Pre of App.state  (** captured; the submitter has not asked yet *)
    | Wanted of App.state option Ivar.t  (** the submitter waits for it *)
    | Declined  (** the submitter needs nothing: keep nothing *)

  type t = {
    flip : Flip.t;
    g : Api.group;
    machine : Machine.t;
    engine : Engine.t;
    mutable st : App.state;
    mutable n_applied : int;
    mutable mode : mode;
    checkpoint : (Stable_store.t * int) option;
    durable : durability option;
    mutable ckpt_inflight : bool;
        (** one background durable checkpoint at a time *)
    mutable durable_snap : (App.state * int) option;
        (** last durably checkpointed (state, count): what a
            bounded-staleness read may be served from *)
    snapshots : (int * bytes) Channel.t;  (** applied count, state *)
    snap_addr : Addr.t;
    tap : (T.event -> unit) option;
        (** observer of the raw delivery stream (chaos checkers) *)
    own : (T.seqno, slot) Hashtbl.t;
        (** this replica's rounds one side has reached and the other
            not yet *)
    mutable reached : T.seqno;
        (** the last message the applier handled; [max_int] once it
            stopped, this replica being expelled *)
  }

  let ckpt_key g = Printf.sprintf "rsm:%d" (Addr.to_int (Api.group_address g))

  let write_checkpoint t =
    match t.checkpoint with
    | Some (store, every) when t.n_applied mod every = 0 && t.n_applied > 0 ->
        let payload =
          Bytes.cat
            (Bytes.of_string (Printf.sprintf "%d " t.n_applied))
            (App.encode_state t.st)
        in
        let key = ckpt_key t.g in
        (* The write happens "in the background" (a disk DMA), so the
           replica keeps applying while it runs.  It belongs to the
           machine's lifecycle group: a write races a crash, it must
           not land after the machine is dead. *)
        Engine.spawn ~group:(Machine.group t.machine) t.engine (fun () ->
            ignore (Stable_store.write store t.machine ~key payload))
    | Some _ | None -> ()

  (* WAL one applied update, synchronously in the applier: a
     fsync-per-commit replica really does stall on its disk — that is
     the overhead the [recovery] bench measures. *)
  let log_update t u =
    match t.durable with
    | None -> ()
    | Some d ->
        let sync =
          match d.sync with
          | Every_commit -> true
          | Group_fsync k -> k <= 1 || t.n_applied mod k = 0
          | Checkpoint_only -> false
        in
        ignore
          (Stable_store.wal_append d.store t.machine ~log:(wal_name d) ~sync
             ~index:t.n_applied (App.encode_update u))

  let ckpt_payload st count =
    let enc = App.encode_state st in
    Bytes.cat
      (Bytes.of_string
         (Printf.sprintf "%d %d " count (Stable_store.checksum enc)))
      enc

  (* Durable checkpoint: write the whole state aside (atomic rename in
     the store), then trim the WAL records it covers.  Runs in the
     background under the machine's lifecycle group; a crash between
     the checkpoint commit and the trim leaves already-covered records
     in the WAL, which recovery skips by index. *)
  let maybe_checkpoint t =
    match t.durable with
    | Some d
      when d.checkpoint_every > 0
           && t.n_applied mod d.checkpoint_every = 0
           && t.n_applied > 0
           && not t.ckpt_inflight ->
        t.ckpt_inflight <- true;
        let st = t.st and count = t.n_applied in
        let payload = ckpt_payload st count in
        Engine.spawn ~group:(Machine.group t.machine) t.engine (fun () ->
            if Stable_store.write d.store t.machine ~key:(ckpt_name d) payload
            then begin
              t.durable_snap <- Some (st, count);
              ignore
                (Stable_store.wal_trim d.store t.machine ~log:(wal_name d)
                   ~upto:count)
            end;
            t.ckpt_inflight <- false)
    | Some _ | None -> ()

  let apply_update t seq u =
    match t.mode with
    | Normal ->
        t.st <- App.apply t.st u;
        t.n_applied <- t.n_applied + 1;
        log_update t u;
        write_checkpoint t;
        maybe_checkpoint t
    | Syncing s -> s.buffer <- (seq, u) :: s.buffer

  (* Atomic state transfer, responder side: the lowest-numbered member
     other than the joiner pushes its state as of the query's position
     in the stream. *)
  let serve_query t ~seq ~sender ~reply_to =
    ignore seq;
    match t.mode with
    | Syncing _ -> ()
    | Normal ->
        let info = Api.get_info_group t.g in
        let responder =
          List.filter (fun m -> m <> sender) info.Api.members
          |> function [] -> -1 | m :: _ -> m
        in
        if info.Api.my_mid = responder then begin
          let payload =
            Bytes.cat
              (Bytes.of_string (Printf.sprintf "%d " t.n_applied))
              (App.encode_state t.st)
          in
          Engine.spawn t.engine (fun () ->
              let client = Amoeba_rpc.Rpc.client t.flip in
              ignore (Amoeba_rpc.Rpc.call client ~dst:reply_to payload))
        end

  let parse_counted payload =
    match Bytes.index_opt payload ' ' with
    | None -> None
    | Some i ->
        let count = int_of_string (Bytes.sub_string payload 0 i) in
        let rest = Bytes.sub payload (i + 1) (Bytes.length payload - i - 1) in
        Some (count, rest)

  (* Reads "<int> " starting at [pos]; returns the value and the
     position just past the space, or None on malformed input. *)
  let parse_int_sp body pos =
    match Bytes.index_from_opt body pos ' ' with
    | None -> None
    | Some sp -> (
        match int_of_string_opt (Bytes.sub_string body pos (sp - pos)) with
        | Some v -> Some (v, sp + 1)
        | None -> None)

  (* Decodes a 'B' frame into its updates, in submission order.
     Returns None if any op fails to parse — a batch applies
     atomically or not at all, so replicas never diverge on a
     half-understood frame. *)
  let decode_batch body =
    match parse_int_sp body 1 with
    | None -> None
    | Some (n, pos) ->
        let rec ops acc pos = function
          | 0 -> if pos = Bytes.length body then Some (List.rev acc) else None
          | k -> (
              match parse_int_sp body pos with
              | None -> None
              | Some (len, pos) ->
                  if pos + len > Bytes.length body then None
                  else
                    match App.decode_update (Bytes.sub body pos len) with
                    | None -> None
                    | Some u -> ops (u :: acc) (pos + len) (k - 1))
        in
        if n < 1 then None else ops [] pos n

  let handle_message t ~seq ~sender body =
    if Bytes.length body > 0 then begin
      match Bytes.get body 0 with
      | c when c = tag_update -> (
          match App.decode_update (Bytes.sub body 1 (Bytes.length body - 1)) with
          | Some u -> apply_update t seq u
          | None -> ())
      | c when c = tag_batch -> (
          match decode_batch body with
          | Some us -> List.iter (fun u -> apply_update t seq u) us
          | None -> ())
      | c when c = tag_query -> (
          match
            String.split_on_char ' '
              (Bytes.sub_string body 1 (Bytes.length body - 1))
          with
          | [ addr; nonce ] -> (
              let reply_to = Addr.of_int (int_of_string addr) in
              let nonce = int_of_string nonce in
              serve_query t ~seq ~sender ~reply_to;
              (* Our own query marks the cut-off point: the snapshot
                 covers everything before it. *)
              match t.mode with
              | Syncing s when s.nonce = nonce -> s.query_seq <- Some seq
              | Syncing _ | Normal -> ())
          | _ -> ())
      | _ -> ()
    end

  (* The applier reached one of this replica's own rounds: the state it
     holds now is the state just before that round.  Hand it to the
     round's submitter, or keep it until the submitter asks, unless the
     submitter already declined it. *)
  let capture t seq =
    match Hashtbl.find_opt t.own seq with
    | Some (Wanted iv) ->
        Hashtbl.remove t.own seq;
        Ivar.fill iv (Some t.st)
    | Some Declined -> Hashtbl.remove t.own seq
    | Some (Pre _) | None -> Hashtbl.replace t.own seq (Pre t.st)

  (* A submitter waiting for a round the applier has passed, or will
     never reach, gets [None] rather than waiting forever. *)
  let release_passed t =
    Hashtbl.filter_map_inplace
      (fun seq slot ->
        match slot with
        | Wanted iv when seq <= t.reached ->
            Ivar.fill iv None;
            None
        | Declined when seq <= t.reached -> None
        | Pre _ | Wanted _ | Declined -> Some slot)
      t.own

  let own_round t ~sender body =
    t.mode = Normal
    && sender = Kernel.my_mid (Api.kernel t.g)
    && Bytes.length body > 0
    && (Bytes.get body 0 = tag_update || Bytes.get body 0 = tag_batch)

  let applier t () =
    let rec loop () =
      let ev = Api.receive_from_group t.g in
      (match t.tap with Some f -> f ev | None -> ());
      (match ev with
      | T.Message { seq; sender; body } ->
          if own_round t ~sender body then capture t seq;
          handle_message t ~seq ~sender body;
          t.reached <- seq;
          if Hashtbl.length t.own > 0 then release_passed t
      | T.Member_joined _ | T.Member_left _ | T.Group_reset _ -> ()
      | T.Expelled ->
          t.reached <- max_int;
          release_passed t);
      match ev with T.Expelled -> () | _ -> loop ()
    in
    loop ()

  let make flip g ~checkpoint ~durable ~seed ~tap =
    let machine = Flip.machine flip in
    let st, n_applied = Option.value seed ~default:(App.initial, 0) in
    let t =
      {
        flip;
        g;
        machine;
        engine = Machine.engine machine;
        st;
        n_applied;
        mode = Normal;
        checkpoint;
        durable;
        ckpt_inflight = false;
        (* A recovered seed came off the disk, so it is durable by
           construction and may serve bounded-staleness reads. *)
        durable_snap =
          (match (durable, seed) with
          | Some _, Some (st, count) -> Some (st, count)
          | _ -> None);
        snapshots = Channel.create ();
        snap_addr = Flip.fresh_addr flip;
        tap;
        own = Hashtbl.create 8;
        reached = -1;
      }
    in
    (* Snapshots for state transfer arrive over RPC. *)
    let _server =
      Amoeba_rpc.Rpc.serve flip ~addr:t.snap_addr (fun payload ->
          (match parse_counted payload with
          | Some (count, state_bytes) ->
              Channel.send t.snapshots (count, state_bytes)
          | None -> ());
          Amoeba_rpc.Types_rpc.Reply Bytes.empty)
    in
    Engine.spawn t.engine (applier t);
    t

  let create flip ?(resilience = 0) ?(send_method = T.Pb) ?(auto_heal = false)
      ?(pipeline = 1) ?checkpoint ?durable ?seed ?tap () =
    let g =
      Api.create_group flip ~resilience ~send_method ~auto_heal ~pipeline ()
    in
    let t = make flip g ~checkpoint ~durable ~seed ~tap in
    (match (durable, seed) with
    | Some d, None ->
        (* A fresh durable group must not inherit records a previous
           life of this log left behind: re-initialise the media
           (instant metadata ops). *)
        let machine_name = Machine.name t.machine in
        Stable_store.wal_reset d.store ~machine_name ~log:(wal_name d);
        Stable_store.remove d.store ~machine_name ~key:(ckpt_name d)
    | Some _, Some _ | None, _ -> ());
    t

  let address t = Api.group_address t.g
  let group t = t.g

  (* The exact on-stream bytes of an update, framed in one allocation
     (the submit hot path: no [Bytes.cat] of a one-byte tag). *)
  let wire_of_update u =
    let enc = App.encode_update u in
    let n = Bytes.length enc in
    let framed = Bytes.create (n + 1) in
    Bytes.set framed 0 tag_update;
    Bytes.blit enc 0 framed 1 n;
    framed

  (* The exact on-stream bytes of a batch: one 'B' frame carrying every
     update length-prefixed, in order. *)
  let wire_of_batch us =
    let buf = Buffer.create 64 in
    Buffer.add_char buf tag_batch;
    Buffer.add_string buf (string_of_int (List.length us));
    Buffer.add_char buf ' ';
    List.iter
      (fun u ->
        let enc = App.encode_update u in
        Buffer.add_string buf (string_of_int (Bytes.length enc));
        Buffer.add_char buf ' ';
        Buffer.add_bytes buf enc)
      us;
    Buffer.to_bytes buf

  (* One round: a lone update in the plain 'U' frame, several in one
     'B' frame.  The framed buffer is fresh and never reused: hand it to
     the kernel without the user→kernel defensive copy. *)
  let send_round t us =
    match us with
    | [] -> invalid_arg "Rsm.submit_batch: empty batch"
    | [ u ] -> Api.send_to_group ~copy:false t.g (wire_of_update u)
    | _ ->
        (* One sequencer round carries the whole vector; the kernel is
           told the op count so the simulation charges the message its
           real marginal per-op wire bytes and CPU. *)
        Api.send_to_group ~copy:false ~ops:(List.length us) t.g
          (wire_of_batch us)

  (* The submitter of a round that reads nothing: whatever the applier
     captured for it, or will, is dropped. *)
  let decline t seq =
    if Hashtbl.mem t.own seq then Hashtbl.remove t.own seq
    else if seq > t.reached then Hashtbl.replace t.own seq Declined

  (* The state just before round [seq], once the applier reached it. *)
  let pre_state t seq =
    match Hashtbl.find_opt t.own seq with
    | Some (Pre st) ->
        Hashtbl.remove t.own seq;
        Some st
    | Some (Wanted _ | Declined) -> None
    | None when seq <= t.reached -> None
    | None ->
        let iv = Ivar.create () in
        Hashtbl.replace t.own seq (Wanted iv);
        Ivar.read t.engine iv

  let submit_batch t us =
    let r = send_round t us in
    Result.iter (decline t) r;
    r

  let submit t u = submit_batch t [ u ]
  let submit_batch_pinned t us = Result.map (pre_state t) (send_round t us)

  let state t = t.st
  let applied t = t.n_applied
  let leave t = Api.leave_group t.g
  let reset t ~min_members = Api.reset_group t.g ~min_members

  (* Atomic state transfer, joiner side. *)
  let sync t =
    let rec attempt tries =
      if tries > 4 then Error T.Sequencer_unreachable
      else begin
        let nonce = Random.State.int (Engine.rng t.engine) 1_000_000 in
        let sync_state = Syncing { nonce; buffer = []; query_seq = None } in
        t.mode <- sync_state;
        let q =
          Bytes.of_string
            (Printf.sprintf "%c%d %d" tag_query (Addr.to_int t.snap_addr) nonce)
        in
        match Api.send_to_group t.g q with
        | Error e -> Error e
        | Ok _ -> (
            (* The responder serves the query from its applier, in
               stream position — behind whatever apply backlog its
               disk has accumulated — and a big snapshot takes real
               wire time, so each retry waits twice as long as the
               last (500 ms, 1 s, 2 s, 4 s).  A caller in a hurry
               bounds the whole join with its own watchdog anyway. *)
            match
              Channel.recv_timeout t.engine t.snapshots
                ~timeout:(Time.ms (500 * (1 lsl (tries - 1))))
            with
            | None -> attempt (tries + 1)
            | Some (count, state_bytes) -> (
                match App.decode_state state_bytes with
                | None -> attempt (tries + 1)
                | Some st -> (
                    match t.mode with
                    | Normal -> Ok ()  (* concurrent success *)
                    | Syncing s ->
                        let cut = Option.value s.query_seq ~default:max_int in
                        t.st <- st;
                        t.n_applied <- count;
                        (* Apply what was sequenced after our query. *)
                        List.iter
                          (fun (seq, u) ->
                            if seq > cut then begin
                              t.st <- App.apply t.st u;
                              t.n_applied <- t.n_applied + 1
                            end)
                          (List.rev s.buffer);
                        t.mode <- Normal;
                        Ok ())))
      end
    in
    attempt 1

  (* A joiner's disk may hold durable state from a previous life of
     this log — possibly from a different history.  Wipe it (instant
     metadata ops) and write a fresh checkpoint of the transferred
     state.  A crash before the checkpoint commits leaves an empty
     log: that replica recovers as applied-0 and re-syncs by state
     transfer — never a divergent replay. *)
  let reconcile_disk t =
    match t.durable with
    | None -> ()
    | Some d ->
        let machine_name = Machine.name t.machine in
        Stable_store.wal_reset d.store ~machine_name ~log:(wal_name d);
        Stable_store.remove d.store ~machine_name ~key:(ckpt_name d);
        let st = t.st and count = t.n_applied in
        if
          Stable_store.write d.store t.machine ~key:(ckpt_name d)
            (ckpt_payload st count)
        then t.durable_snap <- Some (st, count)

  let join flip ?(resilience = 0) ?(send_method = T.Pb) ?(auto_heal = false)
      ?(pipeline = 1) ?checkpoint ?durable ?tap addr =
    match
      Api.join_group flip ~resilience ~send_method ~auto_heal ~pipeline addr
    with
    | Error e -> Error e
    | Ok g -> (
        let t = make flip g ~checkpoint ~durable ~seed:None ~tap in
        (* Alone in the group?  Then there is nothing to transfer. *)
        let info = Api.get_info_group g in
        if List.length info.Api.members <= 1 then begin
          reconcile_disk t;
          Ok t
        end
        else
          match sync t with
          | Ok () ->
              reconcile_disk t;
              Ok t
          | Error e -> Error e)

  let durable_snapshot t = t.durable_snap

  type recovered = {
    r_state : App.state;
    r_applied : int;
    r_stats : recovery_stats;
  }

  (* Parses "<count> <crc> <state>"; None if truncated, garbled, or
     the state bytes fail their checksum. *)
  let parse_ckpt payload =
    match parse_int_sp payload 0 with
    | None -> None
    | Some (count, pos) -> (
        match parse_int_sp payload pos with
        | None -> None
        | Some (crc, pos) -> (
            let enc = Bytes.sub payload pos (Bytes.length payload - pos) in
            if Stable_store.checksum enc <> crc then None
            else
              match App.decode_state enc with
              | None -> None
              | Some st -> Some (st, count)))

  (* Crash-restart recovery for one replica, from its own disk:
     checkpoint load + WAL replay.  Blocking and costed (a sequential
     scan of the media), so call it from a process on the recovering
     machine.  Restores a consistent prefix — records the scan
     truncated (torn tail) or refused (damage) just shorten it — but
     REFUSES loudly, with [Error], if the surviving records cannot
     reconstruct any consistent prefix: an index gap means updates
     were trimmed whose covering checkpoint is unreadable, and a
     CRC-valid record that fails to decode is not media damage but
     corruption the checksum cannot vouch against.  The caller should
     then re-sync this replica by state transfer instead. *)
  let recover (d : durability) machine =
    let machine_name = Machine.name machine in
    let dsk = (Machine.cost machine).Cost_model.disk in
    let base_st, base_count, ckpt_damaged =
      match Stable_store.read d.store ~machine_name ~key:(ckpt_name d) with
      | None -> (App.initial, 0, false)
      | Some payload -> (
          Engine.sleep (Machine.engine machine)
            (dsk.Cost_model.disk_seek_ns
            + (Bytes.length payload * dsk.Cost_model.disk_ns_per_byte));
          match parse_ckpt payload with
          | Some (st, count) -> (st, count, false)
          | None -> (App.initial, 0, true))
    in
    let rp = Stable_store.wal_replay d.store machine ~log:(wal_name d) in
    let st = ref base_st in
    let applied = ref base_count in
    let next = ref (base_count + 1) in
    let err = ref None in
    List.iter
      (fun (idx, payload) ->
        if !err = None then
          if idx < !next then () (* covered by the checkpoint: skip *)
          else if idx > !next then
            err :=
              Some
                (Printf.sprintf
                   "WAL gap on %s/%s: expected record %d, found %d"
                   machine_name d.log !next idx)
          else
            match App.decode_update payload with
            | None ->
                err :=
                  Some
                    (Printf.sprintf
                       "undecodable WAL record %d on %s/%s (checksum valid)"
                       idx machine_name d.log)
            | Some u ->
                st := App.apply !st u;
                applied := idx;
                next := idx + 1)
      rp.Stable_store.records;
    match !err with
    | Some e -> Error e
    | None ->
        Ok
          {
            r_state = !st;
            r_applied = !applied;
            r_stats =
              {
                ckpt_count = base_count;
                checkpoint_damaged = ckpt_damaged;
                records_replayed = !applied - base_count;
                torn_tails = rp.Stable_store.torn_tails;
                checksum_rejects =
                  (rp.Stable_store.checksum_rejects
                  + if ckpt_damaged then 1 else 0);
              };
          }

  (* Scans this machine's rsm:* checkpoints and returns the most
     advanced one. *)
  let checkpointed store ~machine_name =
    let best = ref None in
    List.iter
      (fun key ->
        if String.length key > 4 && String.sub key 0 4 = "rsm:" then
          match Stable_store.read store ~machine_name ~key with
          | None -> ()
          | Some payload -> (
              match parse_counted payload with
              | Some (count, state_bytes) -> (
                  match App.decode_state state_bytes with
                  | Some st -> (
                      match !best with
                      | Some (_, c) when c >= count -> ()
                      | _ -> best := Some (st, count))
                  | None -> ())
              | None -> ()))
      (Stable_store.keys store ~machine_name);
    !best
end
