open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Types

type config = {
  resilience : int;
  method_ : send_method;
  history_capacity : int;
  auto_heal : bool;
  pipeline_depth : int;
}

let default_config =
  {
    resilience = 0;
    method_ = Pb;
    history_capacity = 128;
    auto_heal = false;
    pipeline_depth = 1;
  }

type stats = {
  mutable delivered : int;
  mutable sends_completed : int;
  mutable nacks_sent : int;
  mutable retransmissions : int;
  mutable duplicates_dropped : int;
  mutable acks_collected : int;
  mutable status_solicitations : int;
  mutable resets_survived : int;
  mutable corrupt_dropped : int;
      (** packets whose group-header checksum rejected damaged payload *)
  mutable reorders_absorbed : int;
      (** data frames that arrived behind a higher sequence number and
          were slotted into the window instead of being refused *)
  mutable batches_sent : int;
      (** sends that carried more than one client op *)
  mutable batched_ops : int;  (** total ops across those batched sends *)
  mutable pipeline_depth_hwm : int;
      (** most unacknowledged rounds this member ever had in flight *)
}

type pending_send = {
  mutable p_msgid : int;  (** assigned by the kernel process *)
  p_body : bytes;
  p_ops : int;  (** client ops carried (1 unless the caller batched) *)
  p_result : (seqno, error) result Ivar.t;
  mutable p_tries : int;
  mutable p_timer : Engine.handle option;  (** armed retransmission timer *)
}

(* A member-side slot: a sequence number we know about but have not
   delivered yet.  Complete (payload present and accepted) slots are
   delivered in contiguous seq order. *)
type slot = {
  mutable s_data : (mid * int * int * payload) option;
      (** sender, msgid, ops, payload *)
  mutable s_accepted : bool;
}

(* A sequenced message at the sequencer that is not yet stable: either
   awaiting resilience acknowledgements, or stable by itself but
   blocked behind an earlier tentative (history is appended in seq
   order). *)
type tent = {
  t_entry : History.entry;
  t_needs_accept : bool;
  mutable t_wait : mid list;  (** ackers still awaited *)
  mutable t_accepted : bool;
}

type seq_state = {
  mutable next_seq : seqno;
  mutable stable_frontier : seqno;  (** next seq to append to history *)
  mutable acks : seqno array;
      (** piggybacked, mid-indexed: member -> last seq held; -1 = none.
          Entries for departed members go stale but are never read:
          pruning folds over the current membership only. *)
  mutable dedup_msgid : int array;  (** mid-indexed: sender -> last msgid; -1 = none *)
  mutable dedup_seq : seqno array;  (** seq assigned to that msgid *)
  tents : (seqno, tent) Hashtbl.t;
  parked : Wire.msg Queue.t;  (** requests waiting for history space *)
  mutable soliciting : bool;
  mutable next_mid : mid;
  mutable pending_joins : (Addr.t * mid) list;  (** sequenced, undelivered *)
}

type reset_phase =
  | Collect
  | Fetching of { holder : Addr.t; upto : seqno }
  | Adopting  (** superseded by a higher-precedence coordinator *)

type reset_run = {
  r_inc : int;
  r_min : int;
  r_result : (int, error) result Ivar.t;
  mutable r_await : (mid * Addr.t) list;
  mutable r_acked : (mid * Addr.t * seqno * int * seqno) list;
      (** (mid, addr, last_stable, installed incarnation, seq where
          that incarnation began); excludes self *)
  mutable r_tries : int;
  mutable r_rounds : int;
  mutable r_phase : reset_phase;
  mutable r_seq : int;  (** tick epoch: stale ticks are ignored *)
}

type life = Joining | Normal | Frozen | Left | Expelled

type input =
  | Net of Wire.msg * Addr.t  (** message and source kernel address *)
  | Do_send of pending_send
  | Do_leave of (unit, error) result Ivar.t
  | Do_reset of { min_members : int; result : (int, error) result Ivar.t }
  | Resend_tick of int  (** msgid the timer was armed for *)
  | Repair_tick
  | Solicit_tick
  | Reset_tick of int  (** epoch *)
  | Frozen_tick of int  (** incarnation we froze for *)
  | Heal_tick  (** auto-heal heartbeat *)
  | Leave_tick of int  (** retries used *)

type t = {
  flip : Flip.t;
  machine : Machine.t;
  engine : Engine.t;
  k_group : Engine.group;
      (** the machine's lifecycle group at kernel creation; the kernel
          loop and every armed timer go through it, so a crash cancels
          them all.  Operations like [create_group]/[join_group] run in
          the caller's fiber (often the orchestrator's group), which is
          why arming passes the group explicitly instead of relying on
          inheritance. *)
  cost : Cost_model.t;
  cfg : config;
  gaddr : Addr.t;
  kaddr : Addr.t;
  inbox : input Channel.t;
  event_out : event Channel.t;
  st : stats;
  mutable life : life;
  mutable inc : int;
  mutable members : (mid * Addr.t) list;  (** sorted by mid *)
  mutable member_addrs : Addr.t option array;
      (** mid-indexed view of [members]; rebuilt by [set_members] *)
  mutable member_count : int;
  mutable member_mids : mid list;  (** [List.map fst members], cached *)
  mutable mid : mid;
  mutable seq_mid : mid;
  mutable nxt : seqno;  (** next sequence number to deliver *)
  mutable max_seen : seqno;  (** highest seq heard of *)
  history : History.t;
  slots : slot Window.t;
  bb_wait : (int, int * payload) Hashtbl.t;
      (** (ops, payload) keyed by [bb_key ~sender ~msgid] *)
  mutable last_msgid : int array;
      (** mid-indexed delivery dedup across recoveries; [min_int] = none *)
  mutable last_msgid_seq : seqno array;
      (** mid-indexed: the seq [last_msgid] was delivered at *)
  mutable status_req : int * Wire.msg;  (** interned per incarnation *)
  mutable msgid_counter : int;
  mutable inflight : pending_send list;
      (** unacknowledged rounds, oldest first; at most
          [cfg.pipeline_depth] long.  A list, not a queue: an older
          round can error out while a newer one completes, so removal
          happens anywhere *)
  send_queue : pending_send Queue.t;
  mutable seqs : seq_state option;
  mutable repair_armed : bool;
  mutable repair_mark : seqno;
      (** delivery frontier when the repair timer was armed: a nack is
          sent only if no progress happened in a full period, so a
          merely-loaded group does not nack itself into a
          retransmission storm *)
  mutable join_replies : Wire.msg Channel.t;  (** used only while joining *)
  mutable run : reset_run option;
  mutable frozen_inc : int;  (** highest incarnation we acked an invite for *)
  mutable inc_seq : seqno;
      (** stream position where the current incarnation began: sequence
          numbers from older incarnations are comparable only below it *)
  mutable frozen_failover : bool;
      (** a frozen-grace timeout already escalated to a recovery run of
          our own; the next timeout makes the expulsion final *)
  mutable pending_leave : (unit, error) result Ivar.t option;
  mutable heal_waiting : int option;  (** nonce of an unanswered ping *)
  mutable heal_misses : int;
  mutable heal_nonce : int;
  mutable heal_frontier : seqno;
      (** sequencer-side heal: stable frontier seen at the last tick.
          Tentatives stuck awaiting accepts while this stands still
          mean an acker died — a plain member's silence is invisible
          to the ping path, which only watches the sequencer. *)
  mutable reset_epoch : int;
      (** tick-stamp generator for this kernel's reset runs.  Per
          kernel, not process-global: epochs must never leak between
          engines (multi-cluster runs, test ordering), or a stale tick
          from one simulation could match a run in another. *)
}

let new_stats () =
  {
    delivered = 0;
    sends_completed = 0;
    nacks_sent = 0;
    retransmissions = 0;
    duplicates_dropped = 0;
    acks_collected = 0;
    status_solicitations = 0;
    resets_survived = 0;
    corrupt_dropped = 0;
    reorders_absorbed = 0;
    batches_sent = 0;
    batched_ops = 0;
    pipeline_depth_hwm = 0;
  }

(* ----- small helpers ----- *)

let addr_of t m =
  if m >= 0 && m < Array.length t.member_addrs then t.member_addrs.(m)
  else None

let member_mids t = t.member_mids

(* Every membership change goes through here so the mid-indexed
   lookup caches stay in sync with the assoc list. *)
let set_members t ms =
  t.members <- ms;
  let maxm = List.fold_left (fun acc (m, _) -> if m > acc then m else acc) (-1) ms in
  let arr = Array.make (maxm + 1) None in
  List.iter (fun (m, a) -> arr.(m) <- Some a) ms;
  t.member_addrs <- arr;
  t.member_count <- List.length ms;
  t.member_mids <- List.map fst ms

(* mids stay below 2^20 (see [era_bits]); msgids count messages.  The
   packed key fits easily and avoids a tuple allocation per lookup. *)
let bb_key ~sender ~msgid = (sender lsl 40) lxor msgid

let last_msgid_of t m =
  if m >= 0 && m < Array.length t.last_msgid then t.last_msgid.(m)
  else min_int

let note_msgid t m v ~seq =
  let n = Array.length t.last_msgid in
  if m >= n then begin
    let size = max (m + 1) (2 * max n 8) in
    let arr = Array.make size min_int in
    let seqs = Array.make size (-1) in
    Array.blit t.last_msgid 0 arr 0 n;
    Array.blit t.last_msgid_seq 0 seqs 0 n;
    t.last_msgid <- arr;
    t.last_msgid_seq <- seqs
  end;
  if v > t.last_msgid.(m) then begin
    t.last_msgid.(m) <- v;
    t.last_msgid_seq.(m) <- seq
  end

let ack_get s m = if m >= 0 && m < Array.length s.acks then s.acks.(m) else -1

(* Acknowledgements are monotone, so a max-set is equivalent to the
   per-site replace/max dance the Hashtbl version did. *)
let ack_set s m v =
  let n = Array.length s.acks in
  if m >= n then begin
    let arr = Array.make (max (m + 1) (2 * max n 8)) (-1) in
    Array.blit s.acks 0 arr 0 n;
    s.acks <- arr
  end;
  if v > s.acks.(m) then s.acks.(m) <- v

let dedup_set s m ~msgid ~seq =
  let n = Array.length s.dedup_msgid in
  if m >= n then begin
    let size = max (m + 1) (2 * max n 8) in
    let dm = Array.make size (-1) in
    let ds = Array.make size (-1) in
    Array.blit s.dedup_msgid 0 dm 0 n;
    Array.blit s.dedup_seq 0 ds 0 n;
    s.dedup_msgid <- dm;
    s.dedup_seq <- ds
  end;
  s.dedup_msgid.(m) <- msgid;
  s.dedup_seq.(m) <- seq

let charge t d = Machine.work t.machine ~layer:"group" d

(* The fixed protocol cost is per message; a batched message pays only
   the marginal per-op cost for each op past the first.  At [ops = 1]
   both reduce to exactly the unbatched charge. *)
let charge_seq ?(ops = 1) t =
  charge t
    (t.cost.group_seq_ns
    + (t.member_count * t.cost.group_seq_member_ns)
    + ((ops - 1) * t.cost.group_seq_op_ns))

let charge_deliver ?(ops = 1) t =
  charge t (t.cost.group_deliver_ns + ((ops - 1) * t.cost.group_deliver_op_ns))

(* The solicit message carries only the incarnation: intern it. *)
let status_req t =
  let inc, msg = t.status_req in
  if inc = t.inc then msg
  else begin
    let msg = Wire.Status_req { inc = t.inc } in
    t.status_req <- (t.inc, msg);
    msg
  end

let post_event t ev =
  Channel.send t.event_out ev;
  t.st.delivered <- t.st.delivered + 1

(* All wire output goes through these; FLIP and NIC charge their own
   costs.  Results are ignored: reliability comes from the protocol's
   own timers, exactly as in the paper. *)
let unicast t ~dst msg =
  let size = Wire.size t.cost msg in
  ignore (Flip.send t.flip (Packet.make ~src:t.kaddr ~dst ~size (Wire.Group msg)))

let unicast_mid t ~mid msg =
  match addr_of t mid with Some a -> unicast t ~dst:a msg | None -> ()

let multicast t msg =
  let size = Wire.size t.cost msg in
  ignore
    (Flip.multicast t.flip
       (Packet.make ~src:t.kaddr ~dst:t.gaddr ~size (Wire.Group msg)))

(* The r lowest-numbered members besides the sender acknowledge a
   tentative broadcast (paper section 3.1). *)
let ackers t ~sender =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | m :: rest -> if m = sender then take n rest else m :: take (n - 1) rest
  in
  take t.cfg.resilience (member_mids t)

(* ----- in-flight sends ----- *)

let inflight_find t msgid =
  List.find_opt (fun p -> p.p_msgid = msgid) t.inflight

let inflight_remove t p =
  t.inflight <- List.filter (fun q -> not (q == p)) t.inflight

(* Abort every in-flight round at once — expulsion and similar
   terminal transitions, where no round can ever complete. *)
let abort_inflight t =
  let ps = t.inflight in
  t.inflight <- [];
  List.iter
    (fun p ->
      (match p.p_timer with Some h -> Engine.cancel h | None -> ());
      p.p_timer <- None;
      ignore (Ivar.try_fill p.p_result (Error Send_aborted)))
    ps

(* ----- timers ----- *)

(* +/-20% on retransmission timers: synchronized timeouts across many
   senders cause retry storms that feed on themselves. *)
let timer_jitter t d =
  let spread = d / 5 in
  d - (spread / 2) + Random.State.int (Engine.rng t.engine) (max 1 spread)

(* All tick arming goes through the kernel's lifecycle group: these
   helpers are also reached from fibers of other groups (create_group /
   join_group run in the caller's fiber), and a timer that outlives its
   machine's crash would be a zombie. *)

let arm_resend t ~msgid =
  Engine.schedule ~group:t.k_group t.engine
    ~after:(timer_jitter t t.cost.retrans_timeout_ns)
    (fun () -> Channel.send t.inbox (Resend_tick msgid))

let arm_repair t =
  if not t.repair_armed then begin
    t.repair_armed <- true;
    t.repair_mark <- t.nxt;
    ignore
      (Engine.schedule ~group:t.k_group t.engine
         ~after:(timer_jitter t t.cost.nack_timeout_ns)
         (fun () -> Channel.send t.inbox Repair_tick))
  end

let arm_solicit t =
  ignore
    (Engine.schedule ~group:t.k_group t.engine ~after:t.cost.nack_timeout_ns
       (fun () -> Channel.send t.inbox Solicit_tick))

let arm_leave_retry t ~tries =
  ignore
    (Engine.schedule ~group:t.k_group t.engine
       ~after:(timer_jitter t t.cost.retrans_timeout_ns)
       (fun () -> Channel.send t.inbox (Leave_tick tries)))

let arm_heal t =
  if t.cfg.auto_heal then
    ignore
      (Engine.schedule ~group:t.k_group t.engine
         ~after:(timer_jitter t (2 * t.cost.probe_timeout_ns))
         (fun () -> Channel.send t.inbox Heal_tick))

let arm_reset_tick t epoch ~after =
  ignore
    (Engine.schedule ~group:t.k_group t.engine ~after:(timer_jitter t after)
       (fun () -> Channel.send t.inbox (Reset_tick epoch)))

(* ----- negative acknowledgements (member side) ----- *)

let send_nack t =
  match addr_of t t.seq_mid with
  | None -> ()
  | Some seq_addr ->
      t.st.nacks_sent <- t.st.nacks_sent + 1;
      unicast t ~dst:seq_addr
        (Wire.Nack { from = t.mid; expected = t.nxt; piggy = t.nxt - 1; inc = t.inc })

(* A hard gap — the data for the next sequence number is missing — is
   nacked immediately (paper: "as soon as it discovers that it has
   missed a message").  A tentative that merely awaits its accept is
   NOT a gap: the accept is on its way in the failure-free case, and
   the repair timer covers the case where it was lost. *)
let hard_gap t =
  t.max_seen >= t.nxt
  &&
  match Window.find t.slots t.nxt with
  | Some s -> s.s_data = None
  | None -> true

let awaiting_accept t =
  match Window.find t.slots t.nxt with
  | Some s -> s.s_data <> None && not s.s_accepted
  | None -> false

let gap_present t = hard_gap t || awaiting_accept t

(* ----- delivery (member side) ----- *)

let duplicate_user_message t ~sender ~msgid payload =
  match payload with
  | Ctrl _ -> false
  | User _ -> msgid <= last_msgid_of t sender

let rec become_sequencer t ~first_seq =
  let next_mid =
    1 + List.fold_left (fun acc (m, _) -> max acc m) (-1) t.members
  in
  let s =
    {
      next_seq = first_seq;
      stable_frontier = first_seq;
      acks = Array.make (max next_mid 8) (-1);
      dedup_msgid = Array.make (max next_mid 8) (-1);
      dedup_seq = Array.make (max next_mid 8) (-1);
      tents = Hashtbl.create 8;
      parked = Queue.create ();
      soliciting = false;
      next_mid;
      pending_joins = [];
    }
  in
  (* Request dedup starts from what we delivered as a member: a sender
     whose send the old configuration already delivered resubmits it
     after the handover, and a second sequence number for it would be
     dropped as a duplicate by every member — a hole in every stream.
     The dedup answer re-sends the delivered copy instead. *)
  Array.iteri
    (fun m msgid ->
      if msgid <> min_int then
        dedup_set s m ~msgid ~seq:t.last_msgid_seq.(m))
    t.last_msgid;
  t.seqs <- Some s;
  t.seq_mid <- t.mid;
  (* Fresh acknowledgement state: ask everyone where they stand so the
     history can be pruned again. *)
  if t.member_count > 1 then begin
    t.st.status_solicitations <- t.st.status_solicitations + 1;
    multicast t (status_req t)
  end

and deliver_entry t (e : History.entry) =
  let dup = duplicate_user_message t ~sender:e.sender ~msgid:e.msgid e.payload in
  if dup then t.st.duplicates_dropped <- t.st.duplicates_dropped + 1;
  (match e.payload with
  | User _ -> note_msgid t e.sender e.msgid ~seq:e.seq
  | Ctrl _ -> ());
  (* The sequencer's history is managed strictly (appended at
     stabilisation, pruned by acknowledgements); only a plain member
     records deliveries in its evicting window here.  So does a frozen
     ex-sequencer catching up by fetch replay: its sequencer state
     dies with the old configuration, and if it installs the next one
     as sequencer it must be able to serve NACKs for what it
     replayed. *)
  (match t.seqs with
  | Some s when t.life <> Frozen ->
      t.nxt <- e.seq + 1;
      ack_set s t.mid e.seq
  | Some _ | None ->
      History.add_evicting t.history e;
      t.nxt <- e.seq + 1);
  (* Application-visible effect *)
  (match e.payload with
  | User body when not dup ->
      (* Hand the application its own copy: the original stays in the
         history buffer for retransmissions. *)
      post_event t
        (Message { seq = e.seq; sender = e.sender; body = Bytes.copy body })
  | User _ -> ()
  | Ctrl c -> deliver_control t e.seq c);
  (* Completing our own send *)
  match (if e.sender = t.mid then inflight_find t e.msgid else None) with
  | Some p ->
      inflight_remove t p;
      (* The retransmission timer can never usefully fire now; drop it
         so the event queue is not churning through stale ticks. *)
      (match p.p_timer with Some h -> Engine.cancel h | None -> ());
      p.p_timer <- None;
      t.st.sends_completed <- t.st.sends_completed + 1;
      ignore (Ivar.try_fill p.p_result (Ok e.seq));
      next_queued_send t
  | None -> ()

and deliver_control t seq c =
  match c with
  | Join { mid; kaddr } ->
      if not (List.mem_assoc mid t.members) then
        set_members t (List.sort compare ((mid, kaddr) :: t.members));
      (match t.seqs with
      | Some s ->
          ack_set s mid seq;
          s.pending_joins <-
            List.filter (fun (a, _) -> not (Addr.equal a kaddr)) s.pending_joins;
          (* The joiner learns its identity from this reply; its join
             becomes visible to everyone at the same point in the
             stream. *)
          unicast t ~dst:kaddr
            (Wire.Join_reply
               {
                 mid;
                 inc = t.inc;
                 next_seq = seq + 1;
                 members = t.members;
                 seq_mid = t.seq_mid;
               })
      | None -> ());
      if mid <> t.mid then post_event t (Member_joined { seq; mid })
  | Leave { mid } ->
      set_members t (List.remove_assoc mid t.members);
      (match t.seqs with
      | Some s ->
          (* A departed member can no longer acknowledge: release any
             tentative that was waiting on it, or resilient sends in
             flight during the leave would stall forever. *)
          let release =
            Hashtbl.fold
              (fun seq tent acc ->
                if List.mem mid tent.t_wait then begin
                  tent.t_wait <- List.filter (fun m -> m <> mid) tent.t_wait;
                  if tent.t_wait = [] && not tent.t_accepted then seq :: acc
                  else acc
                end
                else acc)
              s.tents []
          in
          List.iter (fun seq -> seq_make_stable t s seq) release
      | None -> ());
      if mid = t.mid then begin
        t.life <- Left;
        match t.pending_leave with
        | Some iv ->
            t.pending_leave <- None;
            ignore (Ivar.try_fill iv (Ok ()))
        | None -> ()
      end
      else begin
        post_event t (Member_left { seq; mid });
        if mid = t.seq_mid then begin
          (* Sequencer handover: duty passes deterministically to the
             lowest-numbered survivor at this point of the stream. *)
          match member_mids t with
          | [] -> ()
          | lowest :: _ ->
              t.seq_mid <- lowest;
              if lowest = t.mid && t.seqs = None then
                become_sequencer t ~first_seq:(seq + 1)
        end
      end
  | Reset { incarnation; members } ->
      if incarnation > t.inc && not (List.mem t.mid members) then begin
        (* Replaying a reset we were not part of, whose configuration
           dropped us: our identity died at this point of the stream
           (and the mid may already belong to a later joiner), so any
           recovery we are running with it is void.  Stop here rather
           than deliver the successor's stream as a ghost. *)
        t.life <- Expelled;
        t.frozen_inc <- max t.frozen_inc incarnation;
        post_event t Expelled;
        (match t.run with
        | Some run ->
            ignore (Ivar.try_fill run.r_result (Error Not_enough_members));
            t.run <- None
        | None -> ());
        abort_inflight t
      end
      else post_event t (Group_reset { seq; incarnation; members })

and drain t =
  if t.life = Normal || t.life = Frozen then begin
    match Window.find t.slots t.nxt with
    | Some s when s.s_accepted -> (
        match s.s_data with
        | Some (sender, msgid, ops, payload) ->
            Window.remove t.slots t.nxt;
            deliver_entry t { seq = t.nxt; sender; msgid; ops; payload };
            drain t
        | None -> ())
    | Some _ | None -> ()
  end

and next_queued_send t =
  while
    List.length t.inflight < t.cfg.pipeline_depth
    && not (Queue.is_empty t.send_queue)
  do
    start_send t (Queue.pop t.send_queue)
  done

(* ----- send path ----- *)

and start_send t p =
  t.msgid_counter <- t.msgid_counter + 1;
  p.p_msgid <- t.msgid_counter;
  t.inflight <- t.inflight @ [ p ];
  let depth = List.length t.inflight in
  if depth > t.st.pipeline_depth_hwm then t.st.pipeline_depth_hwm <- depth;
  if p.p_ops > 1 then begin
    t.st.batches_sent <- t.st.batches_sent + 1;
    t.st.batched_ops <- t.st.batched_ops + p.p_ops
  end;
  charge t t.cost.group_send_ns;
  submit_send t p;
  (* Armed even if the submit completed synchronously (co-located
     sequencer): the tick finds no matching in-flight round and is a
     no-op, and arming unconditionally keeps the timer-jitter RNG
     stream identical to the lock-step path. *)
  p.p_timer <- Some (arm_resend t ~msgid:p.p_msgid)

and submit_send t p =
  (* Frozen means mid-recovery: our last_stable is (being) reported to
     a coordinator, so nothing new may enter the old incarnation — a
     frozen co-located sequencer would otherwise self-assign sequence
     numbers the reset is about to hand out again.  The send stays
     pending; the resend timer holds it and the new configuration
     resubmits it (or expulsion aborts it). *)
  if t.life = Frozen then ()
  else
  let payload = User p.p_body in
  match t.seqs with
  | Some _ ->
      (* A sender co-located with the sequencer sequences directly:
         this is why the paper recommends placing the busiest sender
         on the sequencer's machine. *)
      sequencer_accept t ~sender:t.mid ~msgid:p.p_msgid ~piggy:(t.nxt - 1)
        ~ops:p.p_ops payload
  | None -> (
      let use_bb =
        match t.cfg.method_ with
        | Pb -> false
        | Bb -> t.cfg.resilience = 0
        | Auto ->
            t.cfg.resilience = 0 && Bytes.length p.p_body >= t.cost.bb_threshold_bytes
      in
      if use_bb then
        multicast t
          (Wire.Bb_data
             {
               sender = t.mid;
               msgid = p.p_msgid;
               piggy = t.nxt - 1;
               inc = t.inc;
               ops = p.p_ops;
               payload;
             })
      else
        match addr_of t t.seq_mid with
        | Some seq_addr ->
            unicast t ~dst:seq_addr
              (Wire.Req
                 {
                   sender = t.mid;
                   msgid = p.p_msgid;
                   piggy = t.nxt - 1;
                   inc = t.inc;
                   ops = p.p_ops;
                   payload;
                 })
        | None -> ())

(* ----- sequencer side ----- *)

and seq_find_entry s seq =
  match Hashtbl.find_opt s.tents seq with
  | Some tent -> Some (tent.t_entry, tent.t_needs_accept && not tent.t_accepted)
  | None -> None

and seq_space_available t s =
  (not (History.is_full t.history)) && Hashtbl.length s.tents < t.cfg.history_capacity

and seq_prune t s =
  let min_ack =
    List.fold_left (fun acc (m, _) -> min acc (ack_get s m)) max_int t.members
  in
  if min_ack >= 0 && min_ack < max_int then History.prune_below t.history (min_ack + 1);
  (* Freed space lets parked requests through. *)
  while (not (Queue.is_empty s.parked)) && seq_space_available t s do
    let msg = Queue.pop s.parked in
    handle_at_sequencer t s msg
  done

and seq_make_stable t s seq =
  match Hashtbl.find_opt s.tents seq with
  | None -> ()
  | Some tent ->
      tent.t_accepted <- true;
      if tent.t_needs_accept then
        multicast t
          (Wire.Accept
             {
               seq;
               sender = tent.t_entry.sender;
               msgid = tent.t_entry.msgid;
               inc = t.inc;
             });
      (* Append to history in seq order only. *)
      let rec advance () =
        match Hashtbl.find_opt s.tents s.stable_frontier with
        | Some tn when tn.t_accepted ->
            Hashtbl.remove s.tents s.stable_frontier;
            (match History.add t.history tn.t_entry with
            | Ok () -> ()
            | Error _ ->
                (* Space was checked at sequencing time; the entry may
                   also already be present via local delivery. *)
                ());
            s.stable_frontier <- s.stable_frontier + 1;
            advance ()
        | Some _ | None -> ()
      in
      advance ();
      (* Local member view: the accept applies to us too. *)
      (match Window.find t.slots seq with
      | Some slot -> slot.s_accepted <- true
      | None -> ());
      drain t

(* Accept a new message for sequencing: assign the next sequence
   number and multicast it (PB: full data; BB: the short accept). *)
and sequencer_accept ?(via_bb = false) ?(ops = 1) t ~sender ~msgid ~piggy
    payload =
  match t.seqs with
  | None -> ()
  | Some s -> (
      ack_set s sender piggy;
      seq_prune t s;
      let last_msgid =
        if sender >= 0 && sender < Array.length s.dedup_msgid then
          s.dedup_msgid.(sender)
        else -1
      in
      match () with
      | () when last_msgid = msgid ->
          (* Duplicate request: the sender missed our multicast. *)
          let sq = s.dedup_seq.(sender) in
          t.st.duplicates_dropped <- t.st.duplicates_dropped + 1;
          (match seq_find_entry s sq with
          | Some (e, needs_accept) ->
              unicast_mid t ~mid:sender
                (Wire.Data
                   {
                     seq = e.seq;
                     sender = e.sender;
                     msgid = e.msgid;
                     inc = t.inc;
                     ops = e.ops;
                     payload = e.payload;
                     needs_accept;
                   })
          | None -> (
              match History.find t.history sq with
              | Some e ->
                  unicast_mid t ~mid:sender
                    (Wire.Data
                       {
                         seq = e.seq;
                         sender = e.sender;
                         msgid = e.msgid;
                         inc = t.inc;
                         ops = e.ops;
                         payload = e.payload;
                         needs_accept = false;
                       })
              | None -> ()))
      | () when msgid < last_msgid ->
          t.st.duplicates_dropped <- t.st.duplicates_dropped + 1
      | () ->
          if not (seq_space_available t s) then begin
            (* History full: park the request and solicit member
               status so pruning can make room. *)
            Queue.push
              (Wire.Req { sender; msgid; piggy; inc = t.inc; ops; payload })
              s.parked;
            if not s.soliciting then begin
              s.soliciting <- true;
              t.st.status_solicitations <- t.st.status_solicitations + 1;
              multicast t (status_req t);
              arm_solicit t
            end
          end
          else begin
            let seq = s.next_seq in
            s.next_seq <- seq + 1;
            dedup_set s sender ~msgid ~seq;
            let needs_accept =
              (match payload with User _ -> true | Ctrl _ -> false)
              && t.cfg.resilience > 0
            in
            let wait =
              if needs_accept then
                List.filter (fun m -> m <> t.mid) (ackers t ~sender)
              else []
            in
            let entry = { History.seq; sender; msgid; ops; payload } in
            Hashtbl.replace s.tents seq
              { t_entry = entry; t_needs_accept = needs_accept; t_wait = wait;
                t_accepted = false };
            (* Announce to the group. *)
            if via_bb then
              multicast t (Wire.Accept { seq; sender; msgid; inc = t.inc })
            else
              multicast t
                (Wire.Data
                   { seq; sender; msgid; inc = t.inc; ops; payload; needs_accept });
            (* Local member processing of our own announcement. *)
            charge_deliver ~ops t;
            member_data t ~seq ~sender ~msgid ~ops ~payload ~needs_accept;
            if wait = [] then seq_make_stable t s seq
          end)

and handle_at_sequencer t s msg =
  match msg with
  | Wire.Req { sender; msgid; piggy; ops; payload; _ } ->
      sequencer_accept t ~sender ~msgid ~piggy ~ops payload
  | Wire.Bb_data { sender; msgid; piggy; ops; payload; _ } ->
      (* Keep the payload for our own delivery and for repairs. *)
      sequencer_accept ~via_bb:true t ~sender ~msgid ~piggy ~ops payload
  | Wire.Ack_tent { seq; from; _ } -> (
      match Hashtbl.find_opt s.tents seq with
      | None -> ()
      | Some tent ->
          if List.mem from tent.t_wait then begin
            t.st.acks_collected <- t.st.acks_collected + 1;
            tent.t_wait <- List.filter (fun m -> m <> from) tent.t_wait;
            if tent.t_wait = [] && not tent.t_accepted then seq_make_stable t s seq
          end)
  | Wire.Nack { from; expected; piggy; _ } ->
      ack_set s from piggy;
      seq_prune t s;
      (* The repair batch is bounded in messages AND bytes: answering a
         nack with dozens of multi-kilobyte retransmissions at once
         would bury the requester (it re-nacks for the rest). *)
      let upto = min (s.next_seq - 1) (expected + 31) in
      let budget = ref (4 * t.cost.max_frame_bytes) in
      let rec resend seq =
        if seq <= upto && !budget > 0 then begin
          let entry =
            match seq_find_entry s seq with
            | Some (e, needs_accept) -> Some (e, needs_accept)
            | None -> (
                match History.find t.history seq with
                | Some e -> Some (e, false)
                | None -> None)
          in
          (match entry with
          | Some (e, needs_accept) ->
              t.st.retransmissions <- t.st.retransmissions + 1;
              budget := !budget - payload_bytes e.payload;
              unicast_mid t ~mid:from
                (Wire.Data
                   {
                     seq = e.seq;
                     sender = e.sender;
                     msgid = e.msgid;
                     inc = t.inc;
                     ops = e.ops;
                     payload = e.payload;
                     needs_accept;
                   })
          | None -> ());
          resend (seq + 1)
        end
      in
      resend expected
  | Wire.Status { from; piggy; _ } ->
      ack_set s from piggy;
      seq_prune t s;
      if Queue.is_empty s.parked then s.soliciting <- false
  | Wire.Join_req { kaddr } -> (
      match List.find_opt (fun (_, a) -> Addr.equal a kaddr) t.members with
      | Some (mid, _) ->
          (* Duplicate join from an existing member: re-reply. *)
          unicast t ~dst:kaddr
            (Wire.Join_reply
               {
                 mid;
                 inc = t.inc;
                 next_seq = t.nxt;
                 members = t.members;
                 seq_mid = t.seq_mid;
               })
      | None -> (
          match List.find_opt (fun (a, _) -> Addr.equal a kaddr) s.pending_joins with
          | Some _ -> ()  (* already sequenced; reply follows delivery *)
          | None ->
              let mid = s.next_mid in
              s.next_mid <- mid + 1;
              s.pending_joins <- (kaddr, mid) :: s.pending_joins;
              t.msgid_counter <- t.msgid_counter + 1;
              sequencer_accept t ~sender:t.mid ~msgid:t.msgid_counter
                ~piggy:(t.nxt - 1)
                (Ctrl (Join { mid; kaddr }))))
  | Wire.Leave_req { mid } ->
      if List.mem_assoc mid t.members then begin
        t.msgid_counter <- t.msgid_counter + 1;
        sequencer_accept t ~sender:t.mid ~msgid:t.msgid_counter
          ~piggy:(t.nxt - 1)
          (Ctrl (Leave { mid }))
      end
  | Wire.Data _ | Wire.Accept _ | Wire.Status_req _ | Wire.Ping _ | Wire.Pong _
  | Wire.Join_reply _ | Wire.Invite _ | Wire.Invite_ack _ | Wire.Fetch _
  | Wire.Fetch_reply _ | Wire.New_config _ ->
      ()

(* ----- member side ----- *)

and member_data ?(count = true) ?(ops = 1) t ~seq ~sender ~msgid ~payload
    ~needs_accept =
  if seq < t.nxt then begin
    (* Stale retransmission or duplicate of something already
       delivered: at-most-once is enforced here.  [count] is off for
       fetch-reply replay, which legitimately revisits old entries. *)
    if count then t.st.duplicates_dropped <- t.st.duplicates_dropped + 1
  end
  else begin
    if count && seq < t.max_seen then
      (* Arrived behind a higher sequence number — a reordering the
         window absorbs rather than refuses. *)
      t.st.reorders_absorbed <- t.st.reorders_absorbed + 1;
    t.max_seen <- max t.max_seen seq;
    let slot =
      match Window.find t.slots seq with
      | Some s -> s
      | None ->
          let s = { s_data = None; s_accepted = false } in
          Window.set t.slots seq s;
          s
    in
    (match slot.s_data with
    | Some _ ->
        (* Duplicate of an undelivered slot.  Keep the first copy, but
           fall through: the re-ack below must still happen, or a lost
           Ack_tent could stall a resilient send forever. *)
        if count then t.st.duplicates_dropped <- t.st.duplicates_dropped + 1
    | None -> slot.s_data <- Some (sender, msgid, ops, payload));
    if not needs_accept then slot.s_accepted <- true;
    (* Resilience: the r lowest-numbered members acknowledge.  The
       sequencer's own copy was counted at sequencing time. *)
    if needs_accept && t.seqs = None && List.mem t.mid (ackers t ~sender) then
      unicast_mid t ~mid:t.seq_mid (Wire.Ack_tent { seq; from = t.mid; inc = t.inc });
    drain t;
    if hard_gap t then begin
      if not t.repair_armed then send_nack t;
      arm_repair t
    end
    else if awaiting_accept t then arm_repair t
  end

and member_accept t ~seq ~sender ~msgid =
  if seq < t.nxt then
    (* Accept for a sequence number already delivered: a duplicated or
       stale frame, dropped without touching the window. *)
    t.st.duplicates_dropped <- t.st.duplicates_dropped + 1
  else begin
    if seq < t.max_seen then
      t.st.reorders_absorbed <- t.st.reorders_absorbed + 1;
    t.max_seen <- max t.max_seen seq;
    (* BB: marry the accept with buffered broadcast data.  Our own
       broadcast never loops back, but we hold the payload in the
       in-flight send. *)
    let own_payload =
      if sender = t.mid then
        match inflight_find t msgid with
        | Some p -> Some (p.p_ops, User p.p_body)
        | None -> None
      else None
    in
    (match own_payload with
    | Some (ops, payload) ->
        let slot =
          match Window.find t.slots seq with
          | Some s -> s
          | None ->
              let s = { s_data = None; s_accepted = false } in
              Window.set t.slots seq s;
              s
        in
        slot.s_data <- Some (sender, msgid, ops, payload);
        slot.s_accepted <- true
    | None -> ());
    (let key = bb_key ~sender ~msgid in
     match Hashtbl.find_opt t.bb_wait key with
     | Some (ops, payload) ->
         Hashtbl.remove t.bb_wait key;
         let slot =
           match Window.find t.slots seq with
           | Some s -> s
           | None ->
               let s = { s_data = None; s_accepted = false } in
               Window.set t.slots seq s;
               s
         in
         slot.s_data <- Some (sender, msgid, ops, payload);
         slot.s_accepted <- true
     | None -> (
         match Window.find t.slots seq with
         | Some slot ->
             if slot.s_accepted then
               (* Duplicated accept for a slot already official. *)
               t.st.duplicates_dropped <- t.st.duplicates_dropped + 1
             else slot.s_accepted <- true
         | None ->
             (* Accept for data we never saw: remember the hole. *)
             Window.set t.slots seq { s_data = None; s_accepted = true }));
    drain t;
    if hard_gap t then begin
      if not t.repair_armed then send_nack t;
      arm_repair t
    end
    else if awaiting_accept t then arm_repair t
  end

and member_bb_data t ~sender ~msgid ~ops ~payload =
  if sender <> t.mid then begin
    if msgid <= last_msgid_of t sender then
      (* Stale broadcast data for a message already delivered (a late
         retransmission, or a duplicated frame arriving after its
         accept).  Re-buffering it would plant a [bb_wait] entry no
         accept will ever consume, and the repair timer would nack
         forever on its account. *)
      t.st.duplicates_dropped <- t.st.duplicates_dropped + 1
    else if Hashtbl.mem t.bb_wait (bb_key ~sender ~msgid) then
      t.st.duplicates_dropped <- t.st.duplicates_dropped + 1
    else begin
      Hashtbl.replace t.bb_wait (bb_key ~sender ~msgid) (ops, payload);
      arm_repair t
    end
  end

(* ----- recovery ----- *)

let last_stable t = t.nxt - 1

(* Incarnation numbers double as recovery proposal numbers, so they
   must be unique per (era, coordinator): two members that start a
   recovery concurrently must not produce the same number, or members
   could acknowledge both and split the group.  The era lives in the
   high bits, the coordinator's member id in the low 20. *)
let era_bits = 20

let next_incarnation t =
  (((t.frozen_inc lsr era_bits) + 1) lsl era_bits) lor (t.mid land 0xFFFFF)

let bump_incarnation inc ~mid =
  (((inc lsr era_bits) + 1) lsl era_bits) lor (mid land 0xFFFFF)

let serve_fetch t ~dst ~from_seq ~upto =
  let entries = History.range t.history ~lo:from_seq ~hi:upto in
  unicast t ~dst (Wire.Fetch_reply { entries })

let finish_run t run result =
  ignore (Ivar.try_fill run.r_result result);
  (* Physical equality on the run record itself: [Some run] would
     allocate a fresh option and never compare equal. *)
  match t.run with Some r when r == run -> t.run <- None | Some _ | None -> ()

let rec start_reset t ~min_members ~result ~inc =
  let run =
    {
      r_inc = inc;
      r_min = min_members;
      r_result = result;
      r_await = List.filter (fun (m, _) -> m <> t.mid) t.members;
      r_acked = [];
      r_tries = 0;
      r_rounds = (match t.run with Some r -> r.r_rounds + 1 | None -> 0);
      r_phase = Collect;
      r_seq =
        (t.reset_epoch <- t.reset_epoch + 1;
         t.reset_epoch);
    }
  in
  t.run <- Some run;
  t.life <- Frozen;
  (* Freezing voids every buffered-but-undelivered slot: we report
     [last_stable] as our agreed position, and the recovery may assign
     different messages to every sequence number beyond it.  A stale
     tentative left in the window would otherwise shadow the replayed
     authoritative entry for its slot (member_data keeps the first
     payload it saw for a seq). *)
  Window.drop_above t.slots (last_stable t);
  t.frozen_inc <- max t.frozen_inc inc;
  if run.r_rounds > 4 then finish_run t run (Error Not_enough_members)
  else begin
    send_invites t run;
    arm_reset_tick t run.r_seq ~after:t.cost.probe_timeout_ns;
    if run.r_await = [] then collect_done t run
  end

and send_invites t run =
  List.iter
    (fun (_, a) ->
      unicast t ~dst:a
        (Wire.Invite { inc = run.r_inc; coord = t.mid; coord_addr = t.kaddr }))
    run.r_await

and collect_done t run =
  let survivors =
    (t.mid, t.kaddr, last_stable t, t.inc, t.inc_seq) :: run.r_acked
  in
  (* The authoritative position is the newest incarnation any survivor
     has installed.  Bare sequence numbers from older incarnations are
     comparable only below the point where that incarnation re-assigned
     them: anyone who kept delivering at or past it (a paused sequencer
     resumed onto a request backlog, say) holds a forked history that
     no fetch can undo. *)
  let best_inc, best_start =
    List.fold_left
      (fun (bi, bs) (_, _, _, ci, cs) -> if ci > bi then (ci, cs) else (bi, bs))
      (t.inc, t.inc_seq) survivors
  in
  let clean (_, _, ls, ci, _) = ci = best_inc || ls < best_start in
  if best_inc > t.inc && last_stable t >= best_start then begin
    (* Our own stream is the fork: the paper's answer is expulsion,
       not merging divergent histories. *)
    t.life <- Expelled;
    t.frozen_inc <- max t.frozen_inc run.r_inc;
    post_event t Expelled;
    finish_run t run (Error Not_enough_members);
    abort_inflight t
  end
  else begin
    (* Divergent ackers must not come along: left out of the new
       configuration, their own recovery attempt will diagnose the
       fork and expel them. *)
    run.r_acked <- List.filter clean run.r_acked;
    let survivors = List.filter clean survivors in
    if List.length survivors < run.r_min then
      (* Not enough survivors: try again from the top (the paper's
         algorithm "starts again until it succeeds or fails"). *)
      start_reset t ~min_members:run.r_min ~result:run.r_result
        ~inc:(bump_incarnation run.r_inc ~mid:t.mid)
    else begin
      let global_max =
        List.fold_left (fun acc (_, _, s, _, _) -> max acc s) (-1) survivors
      in
      if last_stable t >= global_max then install_new_config t run ~global_max
      else begin
        let holder =
          List.find_map
            (fun (m, a, s, _, _) ->
              if s = global_max && m <> t.mid then Some a else None)
            survivors
        in
        match holder with
        | None -> install_new_config t run ~global_max:(last_stable t)
        | Some holder ->
            run.r_phase <- Fetching { holder; upto = global_max };
            run.r_tries <- 0;
            (* Invalidate any still-pending collect ticks. *)
            t.reset_epoch <- t.reset_epoch + 1;
            run.r_seq <- t.reset_epoch;
            unicast t ~dst:holder
              (Wire.Fetch { from_seq = t.nxt; upto = global_max });
            arm_reset_tick t run.r_seq ~after:t.cost.probe_timeout_ns
      end
    end
  end

and install_new_config t run ~global_max =
  t.inc <- run.r_inc;
  t.frozen_inc <- run.r_inc;
  t.st.resets_survived <- t.st.resets_survived + 1;
  let members =
    List.sort compare
      ((t.mid, t.kaddr)
      :: List.map (fun (m, a, _, _, _) -> (m, a)) run.r_acked)
  in
  set_members t members;
  (* Tentative messages that never became stable are discarded; their
     senders' SendToGroup never returned, so nothing visible is lost. *)
  Window.drop_above t.slots global_max;
  Hashtbl.reset t.bb_wait;
  t.max_seen <- max t.max_seen global_max;
  t.inc_seq <- global_max + 1;
  become_sequencer t ~first_seq:(global_max + 1);
  t.life <- Normal;
  t.frozen_failover <- false;
  List.iter
    (fun (m, a) ->
      if m <> t.mid then
        unicast t ~dst:a
          (Wire.New_config
             { inc = run.r_inc; members; seq_mid = t.mid; last_seq = global_max }))
    members;
  (* The reset itself is a totally-ordered event of the new epoch. *)
  t.msgid_counter <- t.msgid_counter + 1;
  sequencer_accept t ~sender:t.mid ~msgid:t.msgid_counter
    ~piggy:(last_stable t)
    (Ctrl (Reset { incarnation = run.r_inc; members = List.map fst members }));
  (* Re-submit interrupted sends under the new sequencer; delivery
     deduplication makes this safe.  The reset control just consumed a
     fresh msgid of ours, so the in-flight rounds' older msgids would
     look like stale duplicates to our own dedup state: renumber them
     for the new epoch, oldest first so msgids stay increasing (any
     round that had been delivered was completed by the catch-up
     replay above and is no longer in flight).  Iterating a snapshot:
     a resubmit that completes synchronously mutates [t.inflight] but
     not this list. *)
  List.iter
    (fun p ->
      t.msgid_counter <- t.msgid_counter + 1;
      p.p_msgid <- t.msgid_counter;
      submit_send t p)
    t.inflight;
  finish_run t run (Ok (List.length members))

let handle_invite t ~inc ~coord ~coord_addr =
  ignore coord;
  if inc > t.inc && inc >= t.frozen_inc then begin
    (match t.run with
    | Some run when run.r_inc < inc ->
        (* A higher-precedence coordinator supersedes our run; adopt
           its outcome if it arrives, retry otherwise.  The adoption
           timeout must outlast a full collect phase (probe_retries
           ticks) plus the fetch/install work, or two coordinators
           chase each other through the eras — and the run's pending
           collect ticks must be invalidated (fresh epoch), or one of
           them would fire within a probe period and retry instantly. *)
        run.r_phase <- Adopting;
        t.reset_epoch <- t.reset_epoch + 1;
        run.r_seq <- t.reset_epoch;
        arm_reset_tick t run.r_seq
          ~after:((t.cost.probe_retries + 4) * t.cost.probe_timeout_ns)
    | Some _ | None -> ());
    t.frozen_inc <- inc;
    if t.life = Normal then begin
      t.life <- Frozen;
      (* Tentative slots are void from here on: the recovery we just
         acked may reassign every seq past the position we report. *)
      Window.drop_above t.slots (last_stable t);
      (* If the recovery never reaches us with a new configuration, we
         were declared dead: give up and report expulsion. *)
      ignore
        (Engine.schedule ~group:t.k_group t.engine
           ~after:(10 * t.cost.probe_timeout_ns)
           (fun () -> Channel.send t.inbox (Frozen_tick inc)))
    end;
    unicast t ~dst:coord_addr
      (Wire.Invite_ack
         { mid = t.mid; last_stable = last_stable t; inc; cur_inc = t.inc;
           inc_seq = t.inc_seq })
  end
  else if inc = t.frozen_inc then
    unicast t ~dst:coord_addr
      (Wire.Invite_ack
         { mid = t.mid; last_stable = last_stable t; inc; cur_inc = t.inc;
           inc_seq = t.inc_seq })

let handle_new_config t ~inc ~members ~seq_mid ~last_seq =
  if
    inc >= t.frozen_inc && inc > t.inc
    && (t.life = Normal || t.life = Frozen)
    && not (List.mem_assoc t.mid members)
  then begin
    (* An authoritative configuration that does not include us: the
       recovery declared us dead (we were unreachable while it ran).
       Adopting it anyway would leave a ghost member delivering the
       new stream — and our old mid can be reassigned to a later
       joiner, whose join event we would then swallow as our own. *)
    t.life <- Expelled;
    t.frozen_inc <- max t.frozen_inc inc;
    post_event t Expelled;
    (match t.run with
    | Some run -> finish_run t run (Error Not_enough_members)
    | None -> ());
    abort_inflight t
  end
  else if inc >= t.frozen_inc && inc > t.inc then begin
    t.inc <- inc;
    t.frozen_inc <- inc;
    t.st.resets_survived <- t.st.resets_survived + 1;
    set_members t (List.sort compare members);
    t.seq_mid <- seq_mid;
    t.seqs <- None;
    Window.drop_above t.slots last_seq;
    Hashtbl.reset t.bb_wait;
    t.max_seen <- max t.max_seen last_seq;
    t.inc_seq <- last_seq + 1;
    t.life <- Normal;
    t.frozen_failover <- false;
    (match t.run with
    | Some run -> finish_run t run (Ok (List.length members))
    | None -> ());
    if t.nxt <= last_seq then begin
      send_nack t;
      arm_repair t
    end;
    List.iter (fun p -> submit_send t p) t.inflight
  end

let handle_fetch_reply t entries =
  (* Catch-up: replay the fetched stream through the normal delivery
     machinery so control messages take effect too. *)
  List.iter
    (fun (e : History.entry) ->
      member_data ~count:false ~ops:e.ops t ~seq:e.seq ~sender:e.sender
        ~msgid:e.msgid ~payload:e.payload ~needs_accept:false)
    entries;
  match t.run with
  | Some ({ r_phase = Fetching { upto; _ }; _ } as run) ->
      if last_stable t >= upto then install_new_config t run ~global_max:upto
      else if
        match entries with
        | [] -> true
        | e :: _ -> e.History.seq > t.nxt
      then begin
        (* The holder's history starts past our position.  Histories
           are pruned only once every member of the configuration has
           acknowledged, so the stream can run out from under us only
           if we were not in that configuration: we were dropped, and
           our identity can never catch up.  Give up and report the
           expulsion rather than re-fetch forever. *)
        t.life <- Expelled;
        t.frozen_inc <- max t.frozen_inc run.r_inc;
        post_event t Expelled;
        finish_run t run (Error Not_enough_members);
        abort_inflight t
      end
  | Some _ | None -> ()

(* ----- incarnation filtering ----- *)

let detect_expulsion t msg_inc =
  if msg_inc > t.inc && t.life = Normal && t.run = None then begin
    (* A recovery we were not part of has moved on without us.  Under
       reordering, the unicast [New_config] that includes us can still
       be in flight behind the first new-incarnation multicast — so
       freeze and give it a grace period instead of declaring
       expulsion outright.  If the configuration never arrives, the
       [Frozen_tick] below makes the expulsion final; if it does,
       [handle_new_config] unfreezes us into the new incarnation. *)
    t.life <- Frozen;
    (* Whatever incarnation overtook us may have reassigned every seq
       past our frontier: void the undelivered tentatives. *)
    Window.drop_above t.slots (last_stable t);
    t.frozen_inc <- max t.frozen_inc msg_inc;
    ignore
      (Engine.schedule ~group:t.k_group t.engine
         ~after:(2 * t.cost.probe_timeout_ns)
         (fun () -> Channel.send t.inbox (Frozen_tick msg_inc)))
  end

(* ----- the kernel process ----- *)

(* A frozen member has reported its [last_stable] to a recovery
   coordinator (or is one): that value is its agreed position in the
   old incarnation, so it must not move past it by processing further
   old-incarnation traffic — the new configuration may reassign every
   sequence number beyond the collected maximum.  Catch-up during
   recovery flows only through [handle_fetch_reply]. *)
let handle_net t msg src =
  match msg with
  | Wire.Data { seq; sender; msgid; inc; ops; payload; needs_accept } ->
      if t.life = Joining then begin
        charge_deliver ~ops t;
        member_data t ~seq ~sender ~msgid ~ops ~payload ~needs_accept
      end
      else if inc = t.inc && t.life <> Frozen then begin
        charge_deliver ~ops t;
        member_data t ~seq ~sender ~msgid ~ops ~payload ~needs_accept
      end
      else if inc <> t.inc then detect_expulsion t inc
  | Wire.Accept { seq; sender; msgid; inc } ->
      if inc = t.inc && t.life <> Frozen then begin
        charge t t.cost.group_deliver_ns;
        (match t.seqs with
        | Some s -> handle_at_sequencer t s msg
        | None -> ());
        member_accept t ~seq ~sender ~msgid
      end
      else if inc <> t.inc then detect_expulsion t inc
  | Wire.Bb_data { sender; msgid; inc; ops; payload; _ } ->
      if inc = t.inc && t.life <> Frozen then begin
        match t.seqs with
        | Some s ->
            charge_seq ~ops t;
            handle_at_sequencer t s msg
        | None ->
            charge_deliver ~ops t;
            member_bb_data t ~sender ~msgid ~ops ~payload
      end
      else if inc <> t.inc then detect_expulsion t inc
  | Wire.Req { ops; _ } -> (
      match t.seqs with
      | Some s when t.life <> Frozen ->
          charge_seq ~ops t;
          handle_at_sequencer t s msg
      | Some _ | None -> ())
  | Wire.Ack_tent _ | Wire.Nack _ | Wire.Status _ | Wire.Join_req _
  | Wire.Leave_req _ -> (
      match t.seqs with
      | Some s when t.life <> Frozen ->
          charge_seq t;
          handle_at_sequencer t s msg
      | Some _ | None -> ())
  | Wire.Status_req { inc } ->
      if inc = t.inc && t.seqs = None then begin
        charge t t.cost.group_deliver_ns;
        unicast_mid t ~mid:t.seq_mid
          (Wire.Status { from = t.mid; piggy = last_stable t; inc = t.inc })
      end
  | Wire.Ping { nonce } ->
      charge t t.cost.group_deliver_ns;
      unicast t ~dst:src (Wire.Pong { nonce })
  | Wire.Pong { nonce } -> (
      match t.heal_waiting with
      | Some n when n = nonce ->
          t.heal_waiting <- None;
          t.heal_misses <- 0
      | Some _ | None -> ())
  | Wire.Join_reply _ ->
      if t.life = Joining then Channel.send t.join_replies msg
  | Wire.Invite { inc; coord; coord_addr } ->
      charge t t.cost.group_deliver_ns;
      handle_invite t ~inc ~coord ~coord_addr
  | Wire.Invite_ack { mid; last_stable = ls; inc; cur_inc; inc_seq } -> (
      match t.run with
      | Some ({ r_phase = Collect; _ } as run) when inc = run.r_inc ->
          if List.mem_assoc mid run.r_await then begin
            let addr = List.assoc mid run.r_await in
            run.r_await <- List.remove_assoc mid run.r_await;
            run.r_acked <- (mid, addr, ls, cur_inc, inc_seq) :: run.r_acked;
            if run.r_await = [] then collect_done t run
          end
      | Some _ | None -> ())
  | Wire.Fetch { from_seq; upto } ->
      charge t t.cost.group_deliver_ns;
      serve_fetch t ~dst:src ~from_seq ~upto
  | Wire.Fetch_reply { entries } ->
      charge t t.cost.group_deliver_ns;
      handle_fetch_reply t entries
  | Wire.New_config { inc; members; seq_mid; last_seq } ->
      charge t t.cost.group_deliver_ns;
      handle_new_config t ~inc ~members ~seq_mid ~last_seq

let handle_resend_tick t msgid =
  match inflight_find t msgid with
  | Some p ->
      if t.life = Normal then begin
        p.p_tries <- p.p_tries + 1;
        if p.p_tries > t.cost.probe_retries then begin
          inflight_remove t p;
          ignore (Ivar.try_fill p.p_result (Error Sequencer_unreachable));
          next_queued_send t
        end
        else begin
          submit_send t p;
          p.p_timer <- Some (arm_resend t ~msgid)
        end
      end
      else if t.life = Frozen then p.p_timer <- Some (arm_resend t ~msgid)
  | None -> ()

let handle_repair_tick t =
  t.repair_armed <- false;
  let mark = t.repair_mark in
  if t.life = Normal && (gap_present t || Hashtbl.length t.bb_wait > 0) then begin
    if t.nxt = mark then send_nack t;
    arm_repair t
  end

let handle_solicit_tick t =
  match t.seqs with
  | Some s when s.soliciting ->
      if not (Queue.is_empty s.parked) then begin
        t.st.status_solicitations <- t.st.status_solicitations + 1;
        multicast t (status_req t);
        arm_solicit t
      end
      else s.soliciting <- false
  | Some _ | None -> ()

(* Auto-heal: a plain member pings the sequencer on a heartbeat; after
   enough unanswered pings it initiates recovery itself, requiring a
   majority of the current membership to survive.

   The sequencer needs the mirror-image watch.  A ping tells a member
   the sequencer lives, but nothing tells the sequencer a member died
   — and with resilience > 0 a dead acker wedges every send forever:
   the tentative waits for an accept ack that will never come.  So on
   the same heartbeat the sequencer checks for tentatives stuck
   awaiting acks while the stable frontier stands still; enough
   stalled ticks in a row and it starts a recovery, whose collect
   phase declares the silent members dead and expels them. *)
let handle_heal_tick t =
  (if t.life = Normal && t.member_count > 1 then
     match t.seqs with
     | None -> (
         (match t.heal_waiting with
         | Some _ ->
             t.heal_misses <- t.heal_misses + 1;
             if t.heal_misses > t.cost.probe_retries then begin
               t.heal_waiting <- None;
               t.heal_misses <- 0;
               let majority = (t.member_count / 2) + 1 in
               start_reset t ~min_members:majority ~result:(Ivar.create ())
                 ~inc:(next_incarnation t)
             end
         | None -> ());
         if t.life = Normal then begin
           t.heal_nonce <- t.heal_nonce + 1;
           t.heal_waiting <- Some t.heal_nonce;
           unicast_mid t ~mid:t.seq_mid (Wire.Ping { nonce = t.heal_nonce })
         end)
     | Some s ->
         t.heal_waiting <- None;
         let stuck =
           Hashtbl.fold (fun _ tent acc -> acc || tent.t_wait <> []) s.tents false
         in
         if stuck && s.stable_frontier = t.heal_frontier then begin
           t.heal_misses <- t.heal_misses + 1;
           if t.heal_misses > t.cost.probe_retries then begin
             t.heal_misses <- 0;
             start_reset t
               ~min_members:((t.member_count / 2) + 1)
               ~result:(Ivar.create ()) ~inc:(next_incarnation t)
           end
         end
         else t.heal_misses <- 0;
         t.heal_frontier <- s.stable_frontier
   else begin
     t.heal_waiting <- None;
     t.heal_misses <- 0
   end);
  if t.life <> Left && t.life <> Expelled then arm_heal t

let handle_reset_tick t epoch =
  match t.run with
  | Some run when run.r_seq = epoch -> (
      match run.r_phase with
      | Collect ->
          run.r_tries <- run.r_tries + 1;
          if run.r_tries > t.cost.probe_retries then
            (* The silent members are declared dead (the paper's
               unreliable failure detection). *)
            collect_done t run
          else begin
            send_invites t run;
            arm_reset_tick t run.r_seq ~after:t.cost.probe_timeout_ns
          end
      | Fetching { holder; upto } ->
          if last_stable t >= upto then install_new_config t run ~global_max:upto
          else begin
            run.r_tries <- run.r_tries + 1;
            if run.r_tries > t.cost.probe_retries then
              (* The holder went silent mid-fetch: start over and let a
                 fresh collect pick a live holder (bounded by the round
                 cap, like a failed collect). *)
              start_reset t ~min_members:run.r_min ~result:run.r_result
                ~inc:(next_incarnation t)
            else begin
              unicast t ~dst:holder (Wire.Fetch { from_seq = t.nxt; upto });
              arm_reset_tick t run.r_seq ~after:t.cost.probe_timeout_ns
            end
          end
      | Adopting ->
          (* The superseding coordinator never delivered: take over. *)
          start_reset t ~min_members:run.r_min ~result:run.r_result
            ~inc:(next_incarnation t))
  | Some _ | None -> ()

let kernel_loop t () =
  let rec loop () =
    let input = Channel.recv t.engine t.inbox in
    (if t.life = Left || t.life = Expelled then
       (* Drain and refuse: the kernel is shut down. *)
       match input with
       | Do_send p -> ignore (Ivar.try_fill p.p_result (Error Not_a_member))
       | Do_leave iv -> ignore (Ivar.try_fill iv (Error Not_a_member))
       | Do_reset { result; _ } ->
           ignore (Ivar.try_fill result (Error Not_a_member))
       | Net _ | Resend_tick _ | Repair_tick | Solicit_tick | Reset_tick _
       | Frozen_tick _ | Heal_tick | Leave_tick _ ->
           ()
     else
       match input with
       | Net (msg, src) -> handle_net t msg src
       | Do_send p ->
           if List.length t.inflight < t.cfg.pipeline_depth then start_send t p
           else Queue.push p t.send_queue
       | Do_leave iv -> (
           t.pending_leave <- Some iv;
           arm_leave_retry t ~tries:0;
           match t.seqs with
           | Some s ->
               charge_seq t;
               handle_at_sequencer t s (Wire.Leave_req { mid = t.mid })
           | None -> (
               match addr_of t t.seq_mid with
               | Some a ->
                   charge t t.cost.group_send_ns;
                   unicast t ~dst:a (Wire.Leave_req { mid = t.mid })
               | None -> ignore (Ivar.try_fill iv (Error Sequencer_unreachable))))
       | Leave_tick tries -> (
           (* The leave confirmation (our own Leave in the stream) may
              have been lost; nack for repair and nudge the sequencer
              again (it deduplicates departed members). *)
           match t.pending_leave with
           | None -> ()
           | Some iv ->
               if tries > t.cost.probe_retries then begin
                 t.pending_leave <- None;
                 ignore (Ivar.try_fill iv (Error Sequencer_unreachable))
               end
               else begin
                 send_nack t;
                 (match t.seqs with
                 | Some s ->
                     handle_at_sequencer t s (Wire.Leave_req { mid = t.mid })
                 | None -> unicast_mid t ~mid:t.seq_mid (Wire.Leave_req { mid = t.mid }));
                 arm_leave_retry t ~tries:(tries + 1)
               end)
       | Do_reset { min_members; result } ->
           start_reset t ~min_members ~result ~inc:(next_incarnation t)
       | Resend_tick msgid -> handle_resend_tick t msgid
       | Repair_tick -> handle_repair_tick t
       | Solicit_tick -> handle_solicit_tick t
       | Reset_tick epoch -> handle_reset_tick t epoch
       | Heal_tick -> handle_heal_tick t
       | Frozen_tick inc ->
           if t.life = Frozen && t.inc < inc then begin
             let retick after =
               ignore
                 (Engine.schedule ~group:t.k_group t.engine ~after (fun () ->
                      Channel.send t.inbox (Frozen_tick inc)))
             in
             if t.run <> None then
               (* A recovery is still in flight; judge it when it is
                  done, not mid-run. *)
               retick (2 * t.cost.probe_timeout_ns)
             else if not t.frozen_failover then begin
               (* The configuration we froze for never arrived.  That
                  is ambiguous: we may have been dropped, but the
                  coordinator (or just its unicast to us) may equally
                  have died.  Probe the difference with a recovery of
                  our own — fetch-replaying the authoritative stream
                  either re-installs us or proves the expulsion (a
                  replayed reset that excludes us expels in
                  [deliver_control]).  If even that resolves nothing,
                  the next tick makes the expulsion final. *)
               t.frozen_failover <- true;
               start_reset t
                 ~min_members:((t.member_count / 2) + 1)
                 ~result:(Ivar.create ()) ~inc:(next_incarnation t);
               retick (2 * t.cost.probe_timeout_ns)
             end
             else begin
               t.life <- Expelled;
               post_event t Expelled;
               abort_inflight t
             end
           end);
    loop ()
  in
  loop ()

(* ----- construction and the public operations ----- *)

let make flip ~cfg ~gaddr =
  let cfg = { cfg with pipeline_depth = max 1 cfg.pipeline_depth } in
  let machine = Flip.machine flip in
  let t =
    {
      flip;
      machine;
      engine = Machine.engine machine;
      k_group = Machine.group machine;
      cost = Machine.cost machine;
      cfg;
      gaddr;
      kaddr = Flip.fresh_addr flip;
      inbox = Channel.create ();
      event_out = Channel.create ();
      st = new_stats ();
      life = Joining;
      inc = 0;
      members = [];
      member_addrs = [||];
      member_count = 0;
      member_mids = [];
      mid = -1;
      seq_mid = -1;
      nxt = 0;
      max_seen = -1;
      history = History.create ~capacity:cfg.history_capacity;
      slots =
        Window.create ~initial:64 ~dummy:{ s_data = None; s_accepted = false } ();
      bb_wait = Hashtbl.create 16;
      last_msgid = [||];
      last_msgid_seq = [||];
      status_req = (-1, Wire.Status_req { inc = -1 });
      msgid_counter = 0;
      inflight = [];
      send_queue = Queue.create ();
      seqs = None;
      repair_armed = false;
      join_replies = Channel.create ();
      repair_mark = -1;
      heal_waiting = None;
      heal_misses = 0;
      heal_nonce = 0;
      heal_frontier = -1;
      reset_epoch = 0;
      run = None;
      frozen_inc = 0;
      inc_seq = 0;
      frozen_failover = false;
      pending_leave = None;
    }
  in
  (* Pipelined senders keep several slots live around the stream head;
     pre-size the window so those bursts never rehash mid-round. *)
  if cfg.pipeline_depth > 1 then
    Window.ensure_capacity t.slots (2 * cfg.history_capacity);
  (* Total rx: [Wire.decode] never raises out of the NIC path.  A
     payload damaged in flight fails the group checksum here and is
     counted, never interpreted. *)
  let rx (p : Packet.t) =
    match Wire.decode p.Packet.body with
    | Ok msg -> Channel.send t.inbox (Net (msg, p.Packet.src))
    | Error `Corrupt -> t.st.corrupt_dropped <- t.st.corrupt_dropped + 1
    | Error `Foreign -> ()
  in
  Flip.register flip t.kaddr rx;
  Flip.register_group flip gaddr rx;
  Engine.spawn ~group:t.k_group t.engine (kernel_loop t);
  t

let create_group flip ?(config = default_config) () =
  let gaddr = Flip.fresh_addr flip in
  let t = make flip ~cfg:config ~gaddr in
  t.mid <- 0;
  set_members t [ (0, t.kaddr) ];
  t.life <- Normal;
  arm_heal t;
  become_sequencer t ~first_seq:0;
  (match t.seqs with Some s -> s.next_mid <- 1 | None -> ());
  t

let join_group flip ?(config = default_config) ~group_addr () =
  let t = make flip ~cfg:config ~gaddr:group_addr in
  let engine = t.engine in
  let rec attempt n =
    if n > t.cost.probe_retries then Error Sequencer_unreachable
    else begin
      Machine.work t.machine ~layer:"group" t.cost.group_send_ns;
      multicast t (Wire.Join_req { kaddr = t.kaddr });
      match
        Channel.recv_timeout engine t.join_replies ~timeout:t.cost.probe_timeout_ns
      with
      | Some (Wire.Join_reply { mid; inc; next_seq; members; seq_mid }) ->
          t.mid <- mid;
          t.inc <- inc;
          t.frozen_inc <- inc;
          set_members t (List.sort compare members);
          t.seq_mid <- seq_mid;
          t.nxt <- next_seq;
          (* Anything that raced ahead of the reply stays; older
             traffic is not ours to deliver. *)
          Window.drop_below t.slots next_seq;
          t.life <- Normal;
          arm_heal t;
          drain t;
          if gap_present t then begin
            send_nack t;
            arm_repair t
          end;
          Ok t
      | Some _ | None -> attempt (n + 1)
    end
  in
  attempt 1

let group_addr t = t.gaddr
let kernel_addr t = t.kaddr
let my_mid t = t.mid
let incarnation t = t.inc
let sequencer_mid t = t.seq_mid
let is_sequencer t = t.seqs <> None
let member_list t = t.members
let alive t = match t.life with Left | Expelled -> false | _ -> true
let config t = t.cfg
let events t = t.event_out
let stats t = t.st
let next_expected t = t.nxt

let send ?(ops = 1) t body =
  if not (alive t) then Error Not_a_member
  else begin
    let p =
      {
        p_msgid = 0;
        p_body = body;
        p_ops = max 1 ops;
        p_result = Ivar.create ();
        p_tries = 0;
        p_timer = None;
      }
    in
    Channel.send t.inbox (Do_send p);
    Ivar.read t.engine p.p_result
  end

let leave t =
  if not (alive t) then Error Not_a_member
  else begin
    let iv = Ivar.create () in
    Channel.send t.inbox (Do_leave iv);
    Ivar.read t.engine iv
  end

let reset t ~min_members =
  if not (alive t) then Error Not_a_member
  else begin
    let result = Ivar.create () in
    Channel.send t.inbox (Do_reset { min_members; result });
    Ivar.read t.engine result
  end
