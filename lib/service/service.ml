open Amoeba_sim
open Amoeba_flip
open Amoeba_core
open Amoeba_harness
module T = Types
module R = Kv.Rsm_store
module Rpc = Amoeba_rpc.Rpc
module Machine = Amoeba_net.Machine
module Stable_store = Amoeba_grouplib.Stable_store

module Rsm = Amoeba_grouplib.Rsm

type endpoint = {
  ep_shard : int;
  ep_host : int;
  ep_addr : Addr.t;
  ep_probe : Addr.t;
}

type durable_config = {
  d_store : Stable_store.t;
  d_sync : Rsm.sync_policy;
  d_checkpoint_every : int;
}

(* A shard's durable identity on each of its hosts' disks.  Group
   addresses change across re-creation, so the log is named by the
   shard index — what {!recover} looks for after a power loss. *)
let shard_log shard = Printf.sprintf "shard%d" shard

let durability_of dc shard =
  {
    Rsm.store = dc.d_store;
    log = shard_log shard;
    sync = dc.d_sync;
    checkpoint_every = dc.d_checkpoint_every;
  }

type host_recovery = {
  hr_host : int;
  hr_applied : int;
  hr_error : string option;
  hr_stats : Rsm.recovery_stats option;
}

type shard_recovery = {
  sr_shard : int;
  sr_creator : int;
  sr_applied : int;
  sr_hosts : host_recovery list;
}

(* Deployment-time knobs, kept on the service so a later
   {!migrate_shard} brings destination replicas up exactly as the
   original deployment did. *)
type params = {
  p_resilience : int;
  p_send_method : T.send_method;
  p_pipeline : int;
  p_checkpoint : (Stable_store.t * int) option;
  p_durable : durable_config option;
  p_record : bool;
  p_eps : int;
}

type replica = {
  r_shard : int;
  r_host : int;
  r_gen : int;  (* Machine.restarts when the replica came up *)
  r_mid : T.mid;  (* its member id in the shard's group *)
  r_rsm : R.t;
  mutable r_eps : endpoint list;
  r_events : T.event list ref;  (* newest first; only if recording *)
  mutable r_retired : bool;
      (* cut over by a migration: answers [Busy] so the router walks
         away, and no longer counts as an owner of the shard *)
}

type migration = {
  m_shard : int;
  m_from : int list;
  m_to : int list;
  m_started : Time.t;
  m_finished : Time.t;
  m_result : (unit, string) result;
}

type t = {
  cluster : Cluster.t;
  params : params;
  detectors : (int, Addr.t) Hashtbl.t;
  mutable map : Shard_map.t;
  mutable replicas : replica list array;  (* per shard, sequencer first *)
  retired : replica list array;  (* per shard, newest first *)
  mutable eps : endpoint array array;
  completed_w : (T.mid * string) list ref array;  (* newest first *)
  uid : int ref;
  shard_ops : int array;  (* requests handled, per shard — load signal *)
  migrated : bool array;
  mutable migrations : migration list;  (* newest first *)
  mutable n_reads : int;
  mutable n_writes_ok : int;
  mutable n_writes_busy : int;
  mutable recovery : shard_recovery list;
}

let map t = t.map
let endpoints t = t.eps
let reads t = t.n_reads
let writes_ok t = t.n_writes_ok
let writes_busy t = t.n_writes_busy
let recovery_report t = t.recovery
let shard_ops t = Array.copy t.shard_ops
let migrations t = List.rev t.migrations

(* Submits a vector of updates as one sequencer round (one 'B' frame on
   the group stream; a single update falls back to the plain 'U' path)
   with [submit], one of the {!Rsm} submit calls.  The checker's
   durability log gets the exact on-stream bytes, which depend on that
   fallback. *)
let submit_writes t r us submit =
  let n = List.length us in
  match submit r.r_rsm us with
  | Ok _ as ok ->
      t.n_writes_ok <- t.n_writes_ok + n;
      if t.params.p_record then begin
        let mid = (Api.get_info_group (R.group r.r_rsm)).Api.my_mid in
        let body =
          match us with
          | [ u ] -> R.wire_of_update u
          | _ -> R.wire_of_batch us
        in
        t.completed_w.(r.r_shard) :=
          (mid, Bytes.to_string body) :: !(t.completed_w.(r.r_shard))
      end;
      ok
  | Error _ as e ->
      t.n_writes_busy <- t.n_writes_busy + n;
      e

let lookup state k =
  match Kv.Smap.find_opt k state with
  | Some v -> Kv.Value v
  | None -> Kv.Not_found

(* A read of [k] from the local copy.  A bounded-staleness read is
   answered from the last durable checkpoint when there is one — the
   state a power loss could never take away — without touching the
   ordered stream; a replica that has not checkpointed yet falls back
   to its live copy. *)
let read t r ~stale k =
  t.n_reads <- t.n_reads + 1;
  match R.durable_snapshot r.r_rsm with
  | Some (st, _) when stale -> lookup st k
  | _ -> lookup (R.state r.r_rsm) k

(* What one request of a batch is to this replica. *)
type op =
  | Foreign of int  (* another shard owns its key *)
  | Read of string
  | Stale_read of string
  | Write of Kv.Store.update

(* Every request is served as a batch; a lone op is a batch of one.
   Each op is shard-checked individually, and all the writes ride one
   totally-ordered group round (fresh uids keep a retried batch
   distinct on the stream).  A batch that writes answers each read at
   its own place in that round: from the state just before the round
   plus the round's writes ahead of it, so a batch reads exactly the
   writes it laid out before the read, whatever the applier has
   applied since and however far behind its disk keeps it.  A replica
   that cannot reach its round answers those reads [Busy] as an
   expelled one would.  A batch that only reads, or whose round
   failed, reads the live local copy.  Replies are fanned back
   positionally, one per request. *)
let handle_batch t r reqs =
  let ops =
    List.map
      (fun req ->
        let s = Shard_map.shard_of_key t.map (Kv.request_key req) in
        if s <> r.r_shard then Foreign s
        else
          match req with
          | Kv.Get k -> Read k
          | Kv.Stale_get k -> Stale_read k
          | Kv.Put (k, v) ->
              incr t.uid;
              Write (Kv.Store.Put { uid = !(t.uid); key = k; value = v })
          | Kv.Del k ->
              incr t.uid;
              Write (Kv.Store.Del { uid = !(t.uid); key = k }))
      reqs
  in
  let writes = List.filter_map (function Write u -> Some u | _ -> None) ops in
  let reads = List.exists (function Read _ -> true | _ -> false) ops in
  let live written = function
    | Foreign s -> Kv.Wrong_shard s
    | Read k -> read t r ~stale:false k
    | Stale_read k -> read t r ~stale:true k
    | Write _ -> written
  in
  let refused e = Kv.Busy (Kv.Submit_failed e) in
  if writes = [] then List.map (live Kv.Written) ops
  else if not reads then
    let verdict =
      match submit_writes t r writes R.submit_batch with
      | Ok _ -> Kv.Written
      | Error e -> refused e
    in
    List.map (live verdict) ops
  else
    match submit_writes t r writes R.submit_batch_pinned with
    | Error e -> List.map (live (refused e)) ops
    | Ok None ->
        List.map
          (function
            | Read _ -> refused T.Not_a_member | op -> live Kv.Written op)
          ops
    | Ok (Some pre) ->
        let _, replies =
          List.fold_left_map
            (fun st op ->
              match op with
              | Write u -> (Kv.Store.apply st u, Kv.Written)
              | Read k ->
                  t.n_reads <- t.n_reads + 1;
                  (st, lookup st k)
              | Foreign _ | Stale_read _ -> (st, live Kv.Written op))
            pre ops
        in
        replies

(* A single-op frame is served as a batch of one and answered in the
   single-op frame.  A retired replica (its shard was migrated away)
   answers [Busy Retired] to everything: the router backs off, and once
   the endpoint swap lands its retry goes to the shard's new owners.
   The uid-tagged retry discipline makes the dual-routing window safe —
   a write the old owner did sequence before retiring is acknowledged
   through the old stream, one it refused is re-submitted fresh to the
   new. *)
let handle t r payload =
  let batched = Bytes.length payload > 0 && Bytes.get payload 0 = 'B' in
  let reqs =
    if batched then Kv.decode_batch_request payload
    else Option.map (fun req -> [ req ]) (Kv.decode_request payload)
  in
  let reply =
    match reqs with
    | None -> Kv.encode_reply (Kv.Busy Kv.Bad_request)
    | Some reqs ->
        let replies =
          if r.r_retired then List.map (fun _ -> Kv.Busy Kv.Retired) reqs
          else begin
            t.shard_ops.(r.r_shard) <-
              t.shard_ops.(r.r_shard) + List.length reqs;
            handle_batch t r reqs
          end
        in
        if batched then Kv.encode_batch_reply replies
        else Kv.encode_reply (List.hd replies)
  in
  Amoeba_rpc.Types_rpc.Reply reply

(* One failure-detector responder per machine, shared by all the
   replicas it hosts; created lazily, inside the machine's lifecycle
   group so it dies with the host. *)
let probe_addr t host =
  match Hashtbl.find_opt t.detectors host with
  | Some a -> a
  | None ->
      let iv = Ivar.create () in
      Cluster.spawn_on t.cluster host (fun () ->
          Ivar.fill iv
            (Failure_detector.address
               (Failure_detector.create (Cluster.flip t.cluster host))));
      let a = Ivar.read t.cluster.Cluster.engine iv in
      Hashtbl.add t.detectors host a;
      a

(* Brings one replica up on [host]: create or join the shard's group,
   then serve the request protocol at [p_eps] fresh endpoints.  RPC
   endpoints service one request at a time, and a write holds its
   endpoint for the whole submit round-trip — so a single endpoint
   would cap the replica near 1/latency ops/s.  A small pool of
   endpoints over the same replica is the classic server worker pool,
   and the kernel inbox serialises the concurrent submits.  All of it
   runs on the host machine, so a crash takes the replica and its
   endpoints down together.  The ivar yields [Error] instead of a
   cluster-wide failure so a migration can roll back a refused join;
   it is filled with [try_fill] so a caller-side watchdog can turn a
   crashed bring-up into a timely verdict. *)
let start_replica t ~shard ~host ~creator ~seed =
  let p = t.params in
  let iv = Ivar.create () in
  Cluster.spawn_on t.cluster host (fun () ->
      let flip = Cluster.flip t.cluster host in
      let events = ref [] in
      let tap =
        if p.p_record then Some (fun ev -> events := ev :: !events) else None
      in
      let durable_arg =
        Option.map (fun dc -> durability_of dc shard) p.p_durable
      in
      let rsm =
        match creator with
        | None ->
            Ok
              (R.create flip ~resilience:p.p_resilience
                 ~send_method:p.p_send_method ~auto_heal:true
                 ~pipeline:p.p_pipeline ?checkpoint:p.p_checkpoint
                 ?durable:durable_arg ?seed ?tap ())
        | Some addr ->
            R.join flip ~resilience:p.p_resilience ~send_method:p.p_send_method
              ~auto_heal:true ~pipeline:p.p_pipeline ?checkpoint:p.p_checkpoint
              ?durable:durable_arg ?tap addr
      in
      match rsm with
      | Error e -> ignore (Ivar.try_fill iv (Error (T.error_to_string e)))
      | Ok rsm ->
          let machine = Cluster.machine t.cluster host in
          let r =
            {
              r_shard = shard;
              r_host = host;
              r_gen = Machine.restarts machine;
              r_mid = (Api.get_info_group (R.group rsm)).Api.my_mid;
              r_rsm = rsm;
              r_eps = [];
              r_events = events;
              r_retired = false;
            }
          in
          let probe = probe_addr t host in
          let eps =
            List.init p.p_eps (fun _ ->
                let addr = Flip.fresh_addr flip in
                let (_ : Rpc.server) = Rpc.serve flip ~addr (handle t r) in
                {
                  ep_shard = shard;
                  ep_host = host;
                  ep_addr = addr;
                  ep_probe = probe;
                })
          in
          r.r_eps <- eps;
          ignore (Ivar.try_fill iv (Ok (r, eps))));
  iv

(* The shared bring-up: [hosts_for shard] lists the shard's hosts with
   the intended creator FIRST, and [seed_for shard] optionally seeds
   the creator's replica (the recovery path).  [deploy] and [recover]
   are thin wrappers. *)
let build cl ~map ?(resilience = 1) ?(send_method = T.Pb) ?(pipeline = 1)
    ?checkpoint ?durable ?(record = false) ?(eps_per_replica = 4) ~hosts_for
    ~seed_for () =
  let eng = cl.Cluster.engine in
  let shards = Shard_map.shards map in
  let t =
    {
      cluster = cl;
      params =
        {
          p_resilience = resilience;
          p_send_method = send_method;
          p_pipeline = pipeline;
          p_checkpoint = checkpoint;
          p_durable = durable;
          p_record = record;
          p_eps = eps_per_replica;
        };
      detectors = Hashtbl.create 8;
      map;
      replicas = Array.make shards [];
      retired = Array.make shards [];
      eps = [||];
      completed_w = Array.init shards (fun _ -> ref []);
      uid = ref 0;
      shard_ops = Array.make shards 0;
      migrated = Array.make shards false;
      migrations = [];
      n_reads = 0;
      n_writes_ok = 0;
      n_writes_busy = 0;
      recovery = [];
    }
  in
  t.eps <-
    Array.init shards (fun shard ->
        let hosts = hosts_for shard in
        let iv0 =
          start_replica t ~shard ~host:(List.hd hosts) ~creator:None
            ~seed:(seed_for shard)
        in
        match Ivar.read eng iv0 with
        | Error e ->
            failwith
              (Printf.sprintf "shard %d: create on m%d failed: %s" shard
                 (List.hd hosts) e)
        | Ok (r0, eps0) ->
            t.replicas.(shard) <- [ r0 ];
            let addr = R.address r0.r_rsm in
            let rest =
              List.concat_map
                (fun host ->
                  let iv =
                    start_replica t ~shard ~host ~creator:(Some addr)
                      ~seed:None
                  in
                  match Ivar.read eng iv with
                  | Error e ->
                      failwith
                        (Printf.sprintf "shard %d: join of m%d failed: %s"
                           shard host e)
                  | Ok (r, eps) ->
                      t.replicas.(shard) <- t.replicas.(shard) @ [ r ];
                      eps)
                (List.tl hosts)
            in
            Array.of_list (eps0 @ rest));
  t

let deploy cl ~map ?resilience ?send_method ?pipeline ?checkpoint ?durable
    ?record ?eps_per_replica () =
  build cl ~map ?resilience ?send_method ?pipeline ?checkpoint ?durable
    ?record ?eps_per_replica
    ~hosts_for:(fun shard -> Shard_map.replica_hosts map shard)
    ~seed_for:(fun _ -> None)
    ()

(* Whole-cluster power-loss recovery: every shard's every host reads
   its own disk back (checkpoint + WAL replay, real I/O), the host
   with the most recovered updates re-creates the shard's group seeded
   with that state, and the rest join by atomic state transfer (their
   disks are wiped to the transferred state by the joiner reconcile in
   [Rsm.join]).  A host whose disk refuses recovery (damage) simply
   joins — it re-syncs from the creator; if EVERY host refuses, the
   shard restarts empty, which is the honest reading of "all the disks
   are damaged".  [hosts_for] overrides the per-shard host list — the
   mid-migration recovery path, where a shard's durable state may sit
   on the union of its old and new replica sets; whichever disk
   recovered the most updates wins, everyone else reconciles to it, so
   the shard restarts with exactly one owner whatever instant the
   power died at. *)
let recover cl ~map ~durable ?resilience ?send_method ?pipeline ?record
    ?eps_per_replica ?hosts_for () =
  let eng = cl.Cluster.engine in
  let shards = Shard_map.shards map in
  let hosts_for =
    match hosts_for with
    | Some f -> f
    | None -> fun shard -> Shard_map.replica_hosts map shard
  in
  let seed_of = Hashtbl.create shards in
  let reports =
    List.init shards (fun shard ->
        let d = durability_of durable shard in
        (* all hosts read their disks concurrently; each on its own
           machine, each paying its own sequential-scan cost *)
        let results =
          hosts_for shard
          |> List.map (fun host ->
                 let iv = Ivar.create () in
                 Cluster.spawn_on cl host (fun () ->
                     Ivar.fill iv (R.recover d (Cluster.machine cl host)));
                 (host, iv))
          |> List.map (fun (host, iv) -> (host, Ivar.read eng iv))
        in
        let creator =
          List.fold_left
            (fun best (host, res) ->
              match (res, best) with
              | Error _, _ -> best
              | Ok rec_, Some (_, b) when b.R.r_applied >= rec_.R.r_applied ->
                  best
              | Ok rec_, _ -> Some (host, rec_))
            None results
        in
        let creator_host, applied =
          match creator with
          | Some (host, rec_) ->
              Hashtbl.replace seed_of shard (rec_.R.r_state, rec_.R.r_applied);
              (host, rec_.R.r_applied)
          | None -> (List.hd (hosts_for shard), 0)
        in
        {
          sr_shard = shard;
          sr_creator = creator_host;
          sr_applied = applied;
          sr_hosts =
            List.map
              (fun (host, res) ->
                match res with
                | Ok rec_ ->
                    {
                      hr_host = host;
                      hr_applied = rec_.R.r_applied;
                      hr_error = None;
                      hr_stats = Some rec_.R.r_stats;
                    }
                | Error msg ->
                    {
                      hr_host = host;
                      hr_applied = 0;
                      hr_error = Some msg;
                      hr_stats = None;
                    })
              results;
        })
  in
  let t =
    build cl ~map ?resilience ?send_method ?pipeline ~durable ?record
      ?eps_per_replica
      ~hosts_for:(fun shard ->
        let sr = List.nth reports shard in
        sr.sr_creator
        :: List.filter (fun h -> h <> sr.sr_creator) (hosts_for shard))
      ~seed_for:(fun shard -> Hashtbl.find_opt seed_of shard)
      ()
  in
  t.recovery <- reports;
  t

(* ------------------------------------------------------------------ *)
(* Live shard migration                                               *)

let alive t host = Machine.is_alive (Cluster.machine t.cluster host)

(* Root-side watchdog: every blocking step of a migration runs on some
   machine that chaos may crash mid-step, leaving the ivar forever
   empty — the watchdog turns that into a timely [Error] verdict the
   protocol can roll back from. *)
let watchdog t ~timeout iv msg =
  let eng = t.cluster.Cluster.engine in
  Engine.spawn eng (fun () ->
      Engine.sleep eng timeout;
      ignore (Ivar.try_fill iv (Error msg)))

(* Graceful exit of one retired replica, on its own machine.  The
   kernel's Leave handler sequences the departure on the group stream:
   when the leaver is the sequencer, duty passes deterministically to
   the lowest-numbered survivor at that point of the stream — the
   view-synchronous cutover this migration builds on. *)
let leave_replica t ~timeout r =
  if not (alive t r.r_host) then Error "host dead"
  else begin
    let iv = Ivar.create () in
    Cluster.spawn_on t.cluster r.r_host (fun () ->
        let res =
          match R.leave r.r_rsm with
          | Ok () -> Ok ()
          | Error e -> Error (T.error_to_string e)
        in
        ignore (Ivar.try_fill iv res));
    watchdog t ~timeout iv (Printf.sprintf "leave of m%d timed out" r.r_host);
    Ivar.read t.cluster.Cluster.engine iv
  end

(* The durable half of the handoff: once a replica has left its group,
   its disk no longer speaks for the shard — wipe the WAL and
   checkpoint so a later power-loss recovery finds the shard's state
   only on its current owners.  Guarded by the machine generation: if
   the host power-cycled since the replica came up, whatever is on
   that disk now belongs to a recovery this migration must not touch. *)
let retire_disk t r =
  match t.params.p_durable with
  | None -> ()
  | Some dc ->
      let m = Cluster.machine t.cluster r.r_host in
      if Machine.restarts m = r.r_gen then begin
        let d = durability_of dc r.r_shard in
        Stable_store.remove dc.d_store ~machine_name:(Machine.name m)
          ~key:(Rsm.ckpt_name d);
        Stable_store.wal_reset dc.d_store ~machine_name:(Machine.name m)
          ~log:(Rsm.wal_name d)
      end

let record_migration t ~shard ~from_ ~to_ ~started result =
  t.migrations <-
    {
      m_shard = shard;
      m_from = from_;
      m_to = to_;
      m_started = started;
      m_finished = Engine.now t.cluster.Cluster.engine;
      m_result = result;
    }
    :: t.migrations;
  result

(* State-transfers one shard's group onto [hosts] while it keeps
   serving.  Phase 1 (no service interruption): each destination joins
   the running group — [Rsm.join] is an atomic state transfer, the
   creator's checkpoint at a stream cut plus the buffered delta beyond
   it, and the joiner reconciles its disk to the transferred state.
   Phase 2 (the cutover): outgoing replicas retire (they answer [Busy]
   from here on), follower leavers go first and the outgoing sequencer
   leaves LAST, handing duty view-synchronously to the lowest-numbered
   survivor; each fully-left source disk is wiped.  The shard's map
   entry is then reassigned with the actual new sequencer's host first
   — hand {!endpoints} to [Router.update_endpoints] to end the
   dual-routing window.  Any join failure rolls back: the half-joined
   destinations retire and leave, the source keeps the shard, and the
   error says why — at every instant the shard has exactly one owning
   group. *)
let migrate_shard t ~shard ?(timeout = Time.ms 2000) ~hosts () =
  let eng = t.cluster.Cluster.engine in
  let started = Engine.now eng in
  let finish = record_migration t ~shard ~started in
  if shard < 0 || shard >= Array.length t.replicas then
    Error (Printf.sprintf "no such shard %d" shard)
  else begin
    let old = t.replicas.(shard) in
    let old_hosts = List.map (fun r -> r.r_host) old in
    let finish = finish ~from_:old_hosts ~to_:hosts in
    if hosts = [] then finish (Error "no target hosts")
    else if List.length (List.sort_uniq compare hosts) <> List.length hosts
    then finish (Error "duplicate target hosts")
    else if
      List.exists (fun h -> not (List.mem h (Shard_map.hosts t.map))) hosts
    then finish (Error "target host outside the map's pool")
    else begin
      let keeps = List.filter (fun r -> List.mem r.r_host hosts) old in
      let drops = List.filter (fun r -> not (List.mem r.r_host hosts)) old in
      let joins = List.filter (fun h -> not (List.mem h old_hosts)) hosts in
      if drops = [] && joins = [] then finish (Ok ())
      else begin
        match List.find_opt (fun r -> alive t r.r_host) old with
        | None -> finish (Error "no live replica to transfer from")
        | Some src ->
            let addr = R.address src.r_rsm in
            (* phase 1: destinations join (checkpoint + delta catch-up) *)
            let joined = ref [] and join_err = ref None in
            List.iter
              (fun h ->
                if !join_err = None then
                  if not (alive t h) then
                    join_err := Some (Printf.sprintf "target m%d is dead" h)
                  else begin
                    let iv =
                      start_replica t ~shard ~host:h ~creator:(Some addr)
                        ~seed:None
                    in
                    watchdog t ~timeout iv
                      (Printf.sprintf "join of m%d timed out" h);
                    match Ivar.read eng iv with
                    | Ok (r, _) -> joined := r :: !joined
                    | Error e ->
                        join_err :=
                          Some (Printf.sprintf "join of m%d failed: %s" h e)
                  end)
              joins;
            let fresh = List.rev !joined in
            match !join_err with
            | Some e ->
                (* roll back: the half-joined destinations retire and
                   leave; the source never stopped owning the shard *)
                List.iter
                  (fun r ->
                    r.r_retired <- true;
                    (match leave_replica t ~timeout r with
                    | Ok () -> retire_disk t r
                    | Error _ -> ());
                    t.retired.(shard) <- r :: t.retired.(shard))
                  fresh;
                finish (Error e)
            | None ->
                (* phase 2: cutover.  Retired sources answer Busy from
                   here — the blackout window until the router learns
                   the new endpoints. *)
                List.iter (fun r -> r.r_retired <- true) drops;
                let members = keeps @ fresh in
                let is_seq r =
                  alive t r.r_host
                  &&
                  let info = Api.get_info_group (R.group r.r_rsm) in
                  info.Api.my_mid = info.Api.sequencer
                in
                let drop_seq, drop_rest = List.partition is_seq drops in
                List.iter
                  (fun r ->
                    match leave_replica t ~timeout r with
                    | Ok () -> retire_disk t r
                    | Error _ ->
                        (* a dead leaver is expelled by auto_heal; its
                           stale disk is left alone — recovery driven
                           by the new map never reads it *)
                        ())
                  (drop_rest @ drop_seq);
                t.retired.(shard) <- drops @ t.retired.(shard);
                (* order the survivors with the group's actual
                   sequencer first — the contract [Router]'s reserve
                   set and the map's spreading metrics rely on *)
                let seq_host =
                  match List.find_opt (fun r -> alive t r.r_host) members with
                  | None -> List.hd hosts
                  | Some probe -> (
                      let info = Api.get_info_group (R.group probe.r_rsm) in
                      match
                        List.find_opt
                          (fun r -> r.r_mid = info.Api.sequencer)
                          members
                      with
                      | Some r -> r.r_host
                      | None -> probe.r_host)
                in
                let final_hosts =
                  seq_host :: List.filter (fun h -> h <> seq_host) hosts
                in
                let ordered =
                  List.map
                    (fun h -> List.find (fun r -> r.r_host = h) members)
                    final_hosts
                in
                t.replicas.(shard) <- ordered;
                t.eps.(shard) <-
                  Array.of_list (List.concat_map (fun r -> r.r_eps) ordered);
                t.map <- Shard_map.reassign t.map ~shard ~hosts:final_hosts;
                t.migrated.(shard) <- true;
                finish (Ok ())
      end
    end
  end

let sequencer_of t shard =
  match
    List.find_opt
      (fun r -> (not r.r_retired) && alive t r.r_host)
      t.replicas.(shard)
  with
  | None -> Shard_map.sequencer_host t.map shard
  | Some r -> (
      let info = Api.get_info_group (R.group r.r_rsm) in
      match
        List.find_opt (fun r' -> r'.r_mid = info.Api.sequencer) t.replicas.(shard)
      with
      | Some r' -> r'.r_host
      | None -> r.r_host)

(* ------------------------------------------------------------------ *)

let applied t shard =
  List.map (fun r -> (r.r_host, R.applied r.r_rsm)) t.replicas.(shard)

let group_info t shard =
  List.map
    (fun r -> (r.r_host, Api.get_info_group (R.group r.r_rsm)))
    t.replicas.(shard)

(* Retired replicas' streams ride along (never held to durability, and
   labelled with a trailing '-'): the total-order and migration-safety
   invariants must see both sides of a cutover, since the source's
   stream vouches for writes acknowledged before the handoff.

   A member never delivers its own [Member_left] — its lifetime ends
   just before the seq its leave was stamped with.  Anything its stale
   kernel hears past that point (a recovery reset racing the cutover,
   the expulsion notice) is post-membership noise, and keeping it
   would show the checker a gap exactly where the leave seq sits.  So
   each retired stream is truncated at its own leave point, found by
   mid in whichever stream delivered the [Member_left]. *)
let checker_streams t ~shard ~crashed =
  let live =
    List.map
      (fun r ->
        {
          Checker.label = Printf.sprintf "s%d/m%d" r.r_shard r.r_host;
          events = List.rev !(r.r_events);
          full = not (crashed r.r_host);
        })
      t.replicas.(shard)
  in
  let all_events =
    List.concat_map (fun r -> !(r.r_events)) t.replicas.(shard)
    @ List.concat_map (fun r -> !(r.r_events)) t.retired.(shard)
  in
  let leave_seq_of mid =
    List.fold_left
      (fun acc e ->
        match e with
        | T.Member_left { seq; mid = m } when m = mid -> Some seq
        | _ -> acc)
      None all_events
  in
  let retired_events r =
    let evs = List.rev !(r.r_events) in
    match leave_seq_of r.r_mid with
    | None -> evs
    | Some cut ->
        List.filter
          (fun e ->
            match e with
            | T.Expelled -> false
            | T.Message { seq; _ }
            | T.Member_joined { seq; _ }
            | T.Member_left { seq; _ }
            | T.Group_reset { seq; _ } ->
                seq < cut)
          evs
  in
  live
  @ List.map
      (fun r ->
        {
          Checker.label = Printf.sprintf "s%d/m%d-" r.r_shard r.r_host;
          events = retired_events r;
          full = false;
        })
      t.retired.(shard)

let completed t ~shard = List.rev !(t.completed_w.(shard))

let owners t ~shard ~crashed =
  let of_replica ~retired r =
    {
      Checker.ow_host = r.r_host;
      ow_group = Format.asprintf "%a" Addr.pp (R.address r.r_rsm);
      ow_live = (not (crashed r.r_host)) && alive t r.r_host;
      ow_retired = retired || r.r_retired;
    }
  in
  List.map (of_replica ~retired:false) t.replicas.(shard)
  @ List.map (of_replica ~retired:true) t.retired.(shard)

let check_migration t ~shard ~crashed =
  let is_crashed h = List.mem h crashed in
  Checker.migration_safety
    ~owners:(owners t ~shard ~crashed:is_crashed)
    ~streams:(checker_streams t ~shard ~crashed:is_crashed)
    ~completed:(completed t ~shard)

let check t ~crashed =
  let is_crashed h = List.mem h crashed in
  List.init (Shard_map.shards t.map) (fun shard ->
      let streams = checker_streams t ~shard ~crashed:is_crashed in
      let dead_replicas =
        List.length
          (List.filter is_crashed (Shard_map.replica_hosts t.map shard))
      in
      let verdicts =
        Checker.run
          ~durability_applies:(dead_replicas <= t.params.p_resilience)
          ~streams
          ~completed:(completed t ~shard)
          ()
      in
      let verdicts =
        if t.migrated.(shard) || t.retired.(shard) <> [] then
          verdicts @ [ check_migration t ~shard ~crashed ]
        else verdicts
      in
      (shard, verdicts))
