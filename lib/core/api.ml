open Amoeba_sim
open Amoeba_net
open Amoeba_flip
open Types

type group = {
  k : Kernel.t;
  machine : Machine.t;
  engine : Engine.t;
  cost : Cost_model.t;
}

type info = {
  my_mid : mid;
  sequencer : mid;
  incarnation : int;
  members : mid list;
  resilience : int;
  send_method : send_method;
  next_seq : seqno;
  nacks_sent : int;
  retransmissions : int;
  status_solicitations : int;
  resets_survived : int;
  duplicates_dropped : int;
  stale_refused : int;
  corrupt_dropped : int;
  reorders_absorbed : int;
  batches_sent : int;
  ops_per_batch_avg : float;
  pipeline_depth_hwm : int;
}

let wrap flip k =
  let machine = Flip.machine flip in
  {
    k;
    machine;
    engine = Machine.engine machine;
    cost = Machine.cost machine;
  }

let config ~resilience ~send_method ~history ~auto_heal ~pipeline =
  {
    Kernel.resilience;
    method_ = send_method;
    history_capacity =
      (match history with Some h -> h | None -> Cost_model.default.history_buffer);
    auto_heal;
    pipeline_depth = pipeline;
  }

let create_group flip ?(resilience = 0) ?(send_method = Pb) ?history
    ?(auto_heal = false) ?(pipeline = 1) () =
  let cfg = config ~resilience ~send_method ~history ~auto_heal ~pipeline in
  wrap flip (Kernel.create_group flip ~config:cfg ())

let group_address g = Kernel.group_addr g.k

let join_group flip ?(resilience = 0) ?(send_method = Pb) ?history
    ?(auto_heal = false) ?(pipeline = 1) addr =
  let cfg = config ~resilience ~send_method ~history ~auto_heal ~pipeline in
  match Kernel.join_group flip ~config:cfg ~group_addr:addr () with
  | Ok k -> Ok (wrap flip k)
  | Error e -> Error e

let leave_group g = Kernel.leave g.k

(* The user-layer cost on either side of a primitive is dominated by
   the thread context switch (paper Figure 2 / Table 3). *)
let user_cost g = Machine.work g.machine ~layer:"user" g.cost.context_switch_ns

let send_to_group ?(copy = true) ?(ops = 1) g body =
  user_cost g;
  (* The message is taken at call time: the caller may reuse its
     buffer immediately (Amoeba copies into the kernel too).  A caller
     that hands over a buffer it will never touch again passes
     [~copy:false] and saves the allocation; zero-length bodies have
     nothing to alias and are never copied. *)
  let owned = if copy && Bytes.length body > 0 then Bytes.copy body else body in
  let result = Kernel.send ~ops g.k owned in
  (* Waking the blocked sending thread costs a second switch. *)
  user_cost g;
  result

let receive_from_group g =
  let ev = Channel.recv g.engine (Kernel.events g.k) in
  user_cost g;
  ev

let receive_opt g =
  match Channel.try_recv (Kernel.events g.k) with
  | Some ev ->
      user_cost g;
      Some ev
  | None -> None

let reset_group g ~min_members = Kernel.reset g.k ~min_members

let get_info_group g =
  {
    my_mid = Kernel.my_mid g.k;
    sequencer = Kernel.sequencer_mid g.k;
    incarnation = Kernel.incarnation g.k;
    members = List.map fst (Kernel.member_list g.k);
    resilience = (Kernel.config g.k).Kernel.resilience;
    send_method = (Kernel.config g.k).Kernel.method_;
    next_seq = Kernel.next_expected g.k;
    nacks_sent = (Kernel.stats g.k).Kernel.nacks_sent;
    retransmissions = (Kernel.stats g.k).Kernel.retransmissions;
    status_solicitations = (Kernel.stats g.k).Kernel.status_solicitations;
    resets_survived = (Kernel.stats g.k).Kernel.resets_survived;
    duplicates_dropped = (Kernel.stats g.k).Kernel.duplicates_dropped;
    stale_refused = (Kernel.stats g.k).Kernel.stale_refused;
    corrupt_dropped = (Kernel.stats g.k).Kernel.corrupt_dropped;
    reorders_absorbed = (Kernel.stats g.k).Kernel.reorders_absorbed;
    batches_sent = (Kernel.stats g.k).Kernel.batches_sent;
    ops_per_batch_avg =
      (let st = Kernel.stats g.k in
       if st.Kernel.batches_sent = 0 then 1.
       else float_of_int st.Kernel.batched_ops /. float_of_int st.Kernel.batches_sent);
    pipeline_depth_hwm = (Kernel.stats g.k).Kernel.pipeline_depth_hwm;
  }

let kernel g = g.k
