open Amoeba_sim

(* A switched full-duplex fabric: each station has a private two-way
   link into a store-and-forward switch.  There is no carrier sense
   and no collision domain — contention appears as *queueing*: every
   port has a bounded ingress and egress FIFO, every segment uplink a
   bounded FIFO per direction, and a full queue tail-drops the frame
   (counted honestly; the sender still observed `Sent`, exactly the
   loss model the NACK machinery exists for). *)

type profile = {
  segments : int;
  segment_size : int;
  uplink_mult : int;
}

let flat = { segments = 1; segment_size = max_int; uplink_mult = 1 }

let profile_to_string p =
  if p.segments <= 1 then "switch"
  else Printf.sprintf "switch:%dx%d@%d" p.segments p.segment_size p.uplink_mult

let profile_of_string s =
  if s = "switch" then Ok flat
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "switch" -> (
        let spec = String.sub s (i + 1) (String.length s - i - 1) in
        let geom, mult =
          match String.index_opt spec '@' with
          | Some j ->
              ( String.sub spec 0 j,
                int_of_string_opt
                  (String.sub spec (j + 1) (String.length spec - j - 1)) )
          | None -> (spec, Some 10)
        in
        match (String.split_on_char 'x' geom, mult) with
        | [ segs; size ], Some mult -> (
            match (int_of_string_opt segs, int_of_string_opt size) with
            | Some segments, Some segment_size
              when segments >= 1 && segment_size >= 1 && mult >= 1 ->
                Ok { segments; segment_size; uplink_mult = mult }
            | _ -> Error ("bad switch profile: " ^ s))
        | _ -> Error ("bad switch profile: " ^ s))
    | _ -> Error ("bad switch profile: " ^ s)

type port = {
  id : int;
  rx : Frame.t -> unit;
  mutable joined : int list;  (** multicast groups this port's NIC joined *)
}

type fifo = {
  frames : Frame.t Queue.t;
  cap : int;
  mutable busy : bool;  (** a drain process is running *)
  mutable drops : int;  (** tail drops on this queue *)
}

let fifo cap = { frames = Queue.create (); cap; busy = false; drops = 0 }

type station = {
  sid : int;
  seg : int;
  mutable port : port;
      (** the port last attached under this station id: a restarted
          machine re-attaches under its old id and replaces it *)
  ingress : fifo;  (** host -> switch *)
  egress : fifo;  (** switch -> host *)
}

type link_state = {
  mutable cond : Ether.conditions;
  mutable ge_bad : bool;
}

type uplink = {
  up : fifo;  (** leaf segment -> core *)
  down : fifo;  (** core -> leaf segment *)
}

type t = {
  engine : Engine.t;
  cost : Cost_model.t;
  profile : profile;
  stations : (int, station) Hashtbl.t;
  mutable stations_ordered : station array;  (** attach order *)
  groups : (int, station array) Hashtbl.t;
      (** snooping table: multicast group -> subscribed stations, in
          attach order; groups nobody joined are absent *)
  mutable next_port : int;
  uplinks : uplink array;  (** one per segment; [||] when flat *)
  mutable drop_fun : (Frame.t -> bool) option;
  mutable loss_rate : float;
  mutable n_lost : int;
  cuts : (int, unit) Hashtbl.t;
  mutable n_partition_drops : int;
  dcuts : (int, unit) Hashtbl.t;
  mutable n_oneway_drops : int;
  default_link : link_state;
  links : (int, link_state) Hashtbl.t;
  mutable n_cond_lost : int;
  mutable n_duplicated : int;
  mutable n_corrupted : int;
  mutable n_jittered : int;
  mutable n_frames : int;
  mutable n_bytes : int;
  mutable n_uplink_frames : int;
  mutable busy_ns : Time.t;  (** summed egress (downlink) serialization *)
  mutable win_start : Time.t;
  mutable win_busy : Time.t;
}

let create engine cost profile =
  {
    engine;
    cost;
    profile;
    stations = Hashtbl.create 64;
    stations_ordered = [||];
    groups = Hashtbl.create 64;
    next_port = 0;
    uplinks =
      (if profile.segments <= 1 then [||]
       else
         Array.init profile.segments (fun _ ->
             {
               up = fifo cost.Cost_model.switch_uplink_frames;
               down = fifo cost.Cost_model.switch_uplink_frames;
             }));
    drop_fun = None;
    loss_rate = 0.;
    n_lost = 0;
    cuts = Hashtbl.create 8;
    n_partition_drops = 0;
    dcuts = Hashtbl.create 8;
    n_oneway_drops = 0;
    default_link = { cond = Ether.clean; ge_bad = false };
    links = Hashtbl.create 8;
    n_cond_lost = 0;
    n_duplicated = 0;
    n_corrupted = 0;
    n_jittered = 0;
    n_frames = 0;
    n_bytes = 0;
    n_uplink_frames = 0;
    busy_ns = Time.zero;
    win_start = Time.zero;
    win_busy = Time.zero;
  }

let profile t = t.profile

let seg_of t id =
  if t.profile.segments <= 1 then 0
  else min (id / t.profile.segment_size) (t.profile.segments - 1)

(* ----- IGMP-style snooping -----

   A station subscribes to a group when the NIC behind its port
   reports a join; the table is rebuilt per group on every report
   (joins and leaves are rare, frames are not). *)

let resubscribe t g =
  let subs =
    List.filter
      (fun st -> List.mem g st.port.joined)
      (Array.to_list t.stations_ordered)
  in
  if subs = [] then Hashtbl.remove t.groups g
  else Hashtbl.replace t.groups g (Array.of_list subs)

let join_multicast t port g =
  if not (List.mem g port.joined) then begin
    port.joined <- g :: port.joined;
    resubscribe t g
  end

let leave_multicast t port g =
  if List.mem g port.joined then begin
    port.joined <- List.filter (fun g' -> g' <> g) port.joined;
    resubscribe t g
  end

let subscribers t g =
  match Hashtbl.find_opt t.groups g with Some subs -> subs | None -> [||]

(* A re-attach under a known station id is a rebooted machine's link
   coming back up: the new port replaces the dead NIC's, and like a
   real snooping switch on link-down the fabric forgets what the old
   port had joined (the dead NIC's [alive] gate dropped those frames
   anyway). *)
let attach ?id t ~rx =
  let id = match id with Some i -> i | None -> t.next_port in
  t.next_port <- max (id + 1) (t.next_port + 1);
  let port = { id; rx; joined = [] } in
  (match Hashtbl.find_opt t.stations id with
  | Some st ->
      let stale = st.port.joined in
      st.port <- port;
      List.iter (resubscribe t) stale
  | None ->
      let st =
        {
          sid = id;
          seg = seg_of t id;
          port;
          ingress = fifo t.cost.Cost_model.switch_ingress_frames;
          egress = fifo t.cost.Cost_model.switch_egress_frames;
        }
      in
      Hashtbl.replace t.stations id st;
      t.stations_ordered <- Array.append t.stations_ordered [| st |]);
  port

let port_id p = p.id

(* ----- fault injection state (same model as Ether) ----- *)

let injected_drop t frame =
  (match t.drop_fun with Some f -> f frame | None -> false)
  || (t.loss_rate > 0.
     && Random.State.float (Engine.rng t.engine) 1.0 < t.loss_rate)

let pair_key a b = if a < b then (a lsl 16) lor b else (b lsl 16) lor a
let dkey src dst = (src lsl 16) lor dst

let partitioned t a b = a <> b && Hashtbl.mem t.cuts (pair_key a b)

let partition_pair t a b = if a <> b then Hashtbl.replace t.cuts (pair_key a b) ()

let heal_pair t a b = Hashtbl.remove t.cuts (pair_key a b)

let partition t side_a side_b =
  List.iter (fun a -> List.iter (fun b -> partition_pair t a b) side_b) side_a

let cut_oneway t ~src ~dst =
  if src <> dst then Hashtbl.replace t.dcuts (dkey src dst) ()

let heal_oneway t ~src ~dst = Hashtbl.remove t.dcuts (dkey src dst)

let oneway_cut t ~src ~dst = Hashtbl.mem t.dcuts (dkey src dst)

let heal t =
  Hashtbl.reset t.cuts;
  Hashtbl.reset t.dcuts

let set_conditions t c =
  t.default_link.cond <- c;
  t.default_link.ge_bad <- false

let conditions t = t.default_link.cond

let set_link_conditions t ~src ~dst c =
  match c with
  | None -> Hashtbl.remove t.links (dkey src dst)
  | Some c -> Hashtbl.replace t.links (dkey src dst) { cond = c; ge_bad = false }

let link_conditions t ~src ~dst =
  match Hashtbl.find_opt t.links (dkey src dst) with
  | Some ls -> Some ls.cond
  | None -> None

let link_for t ~src ~dst =
  match Hashtbl.find_opt t.links (dkey src dst) with
  | Some ls -> ls
  | None -> t.default_link

let gilbert_loss t ls (g : Ether.gilbert) =
  let rng = Engine.rng t.engine in
  if ls.ge_bad then begin
    if Random.State.float rng 1.0 < g.Ether.p_bg then ls.ge_bad <- false
  end
  else if g.Ether.p_gb > 0. && Random.State.float rng 1.0 < g.Ether.p_gb then
    ls.ge_bad <- true;
  let p = if ls.ge_bad then g.Ether.loss_bad else g.Ether.loss_good in
  p > 0. && Random.State.float rng 1.0 < p

(* ----- delivery (the switch side of the host downlink) ----- *)

(* One copy to the station's port, applying corruption and delivery
   jitter.  Jittered copies run in the root group, like everything
   else the fabric schedules: frames inside the switch outlive their
   sender. *)
let deliver_copy t st (c : Ether.conditions) frame =
  let rng = Engine.rng t.engine in
  let frame =
    if
      c.Ether.corrupt_prob > 0.
      && Random.State.float rng 1.0 < c.Ether.corrupt_prob
    then begin
      t.n_corrupted <- t.n_corrupted + 1;
      let byte = Random.State.int rng (max 1 frame.Frame.size_on_wire) in
      { frame with Frame.body = Frame.Corrupted { orig = frame.Frame.body; byte } }
    end
    else frame
  in
  if c.Ether.jitter_ns > 0 then begin
    let delay = Random.State.int rng (c.Ether.jitter_ns + 1) in
    if delay > 0 then begin
      t.n_jittered <- t.n_jittered + 1;
      ignore
        (Engine.schedule ~group:(Engine.root_group t.engine) t.engine
           ~after:delay (fun () -> st.port.rx frame))
    end
    else st.port.rx frame
  end
  else st.port.rx frame

(* Apply partitions, one-way cuts and per-directed-link conditions at
   the moment the egress port hands the frame to the station — the
   same observation point as the Ether's receiver loop, so the fault
   DSL behaves identically on both fabrics. *)
let deliver_station t st frame =
  let src = frame.Frame.src in
  if Hashtbl.length t.cuts > 0 && partitioned t src st.sid then
    t.n_partition_drops <- t.n_partition_drops + 1
  else if Hashtbl.length t.dcuts > 0 && Hashtbl.mem t.dcuts (dkey src st.sid)
  then t.n_oneway_drops <- t.n_oneway_drops + 1
  else begin
    let ls = link_for t ~src ~dst:st.sid in
    let c = ls.cond in
    let lost =
      match c.Ether.gilbert with Some g -> gilbert_loss t ls g | None -> false
    in
    if lost then t.n_cond_lost <- t.n_cond_lost + 1
    else begin
      deliver_copy t st c frame;
      if
        c.Ether.dup_prob > 0.
        && Random.State.float (Engine.rng t.engine) 1.0 < c.Ether.dup_prob
      then begin
        t.n_duplicated <- t.n_duplicated + 1;
        deliver_copy t st c frame
      end
    end
  end

(* ----- the queued forwarding path -----

   Every drain process runs in the engine's root group: queues are
   switch hardware, so a crashed sender's frames already inside the
   fabric are still forwarded and delivered (the Ether root-group
   rule), and a receiver's crash cannot wedge its egress port. *)

let rec egress_service t st () =
  match Queue.take_opt st.egress.frames with
  | None -> st.egress.busy <- false
  | Some frame ->
      let d =
        Cost_model.frame_time t.cost ~bytes_on_wire:frame.Frame.size_on_wire
      in
      Engine.sleep t.engine d;
      t.busy_ns <- t.busy_ns + d;
      deliver_station t st frame;
      egress_service t st ()

let to_egress t st frame =
  if st.sid <> frame.Frame.src then begin
    if Queue.length st.egress.frames >= st.egress.cap then
      st.egress.drops <- st.egress.drops + 1
    else begin
      Queue.push frame st.egress.frames;
      if not st.egress.busy then begin
        st.egress.busy <- true;
        Engine.spawn
          ~group:(Engine.root_group t.engine)
          t.engine (egress_service t st)
      end
    end
  end

(* Egress on segment [seg] for every station that should see the
   frame: all of them for a broadcast (FLIP's WHOIS/IAM), only the
   subscribed ones for a multicast. *)
let local_forward t seg frame =
  let targets =
    match frame.Frame.dest with
    | Frame.Multicast g -> subscribers t g
    | Frame.Broadcast | Frame.Unicast _ -> t.stations_ordered
  in
  Array.iter (fun st -> if st.seg = seg then to_egress t st frame) targets

(* The uplink test a snooping switch applies before forwarding a
   broadcast or multicast: does it reach anyone on a segment
   satisfying [on]? *)
let wanted t frame ~on =
  match frame.Frame.dest with
  | Frame.Multicast g -> Array.exists (fun st -> on st.seg) (subscribers t g)
  | Frame.Broadcast | Frame.Unicast _ -> true

(* Uplinks serialize at [uplink_mult] times the host link rate; with
   [segment_size] hosts per segment the fabric is oversubscribed
   [segment_size / uplink_mult] to one. *)
let uplink_time t frame =
  let d = Cost_model.frame_time t.cost ~bytes_on_wire:frame.Frame.size_on_wire in
  max 1 (d / max 1 t.profile.uplink_mult)

let rec up_service t seg () =
  let u = t.uplinks.(seg) in
  match Queue.take_opt u.up.frames with
  | None -> u.up.busy <- false
  | Some frame ->
      Engine.sleep t.engine (uplink_time t frame);
      t.n_uplink_frames <- t.n_uplink_frames + 1;
      core_route t seg frame;
      up_service t seg ()

and down_service t seg () =
  let u = t.uplinks.(seg) in
  match Queue.take_opt u.down.frames with
  | None -> u.down.busy <- false
  | Some frame ->
      Engine.sleep t.engine (uplink_time t frame);
      t.n_uplink_frames <- t.n_uplink_frames + 1;
      (match frame.Frame.dest with
      | Frame.Unicast d -> (
          match Hashtbl.find_opt t.stations d with
          | Some dst when dst.seg = seg -> to_egress t dst frame
          | _ -> ())
      | Frame.Broadcast | Frame.Multicast _ -> local_forward t seg frame);
      down_service t seg ()

and to_uplink t seg dir frame =
  let u = t.uplinks.(seg) in
  let q = match dir with `Up -> u.up | `Down -> u.down in
  if Queue.length q.frames >= q.cap then q.drops <- q.drops + 1
  else begin
    Queue.push frame q.frames;
    if not q.busy then begin
      q.busy <- true;
      Engine.spawn
        ~group:(Engine.root_group t.engine)
        t.engine
        (match dir with `Up -> up_service t seg | `Down -> down_service t seg)
    end
  end

and core_route t sseg frame =
  (* The core crossbar itself is not a bottleneck; only the uplinks
     are.  One copy of a broadcast per remote segment, of a multicast
     per remote segment with a subscriber. *)
  match frame.Frame.dest with
  | Frame.Unicast d -> to_uplink t (seg_of t d) `Down frame
  | Frame.Broadcast | Frame.Multicast _ ->
      for s = 0 to Array.length t.uplinks - 1 do
        if s <> sseg && wanted t frame ~on:(fun s' -> s' = s) then
          to_uplink t s `Down frame
      done

(* Forwarding after store-and-forward reception: look the destination
   up, then egress locally, or hand cross-segment traffic to the
   uplink.  Broadcasts flood.  Multicasts are snooped: they egress
   only at subscribed ports and cross the uplink only if a subscriber
   lives on another segment (membership is checked again at every
   hop, as it may change while the frame queues). *)
let route t st frame =
  match frame.Frame.dest with
  | Frame.Unicast d ->
      if seg_of t d = st.seg then (
        match Hashtbl.find_opt t.stations d with
        | Some dst -> to_egress t dst frame
        | None -> () (* no such station: nothing behind that port *))
      else to_uplink t st.seg `Up frame
  | Frame.Broadcast | Frame.Multicast _ ->
      local_forward t st.seg frame;
      if Array.length t.uplinks > 0 && wanted t frame ~on:(fun s -> s <> st.seg)
      then to_uplink t st.seg `Up frame

let rec ingress_service t st () =
  match Queue.take_opt st.ingress.frames with
  | None -> st.ingress.busy <- false
  | Some frame ->
      Engine.sleep t.engine t.cost.Cost_model.switch_fwd_ns;
      route t st frame;
      ingress_service t st ()

(* The frame has fully arrived at the switch (store-and-forward).
   Injected loss applies here, once per frame, like the Ether's
   [deliver]; then the bounded ingress FIFO either accepts or
   tail-drops it. *)
let ingress_accept t sid frame =
  if injected_drop t frame then t.n_lost <- t.n_lost + 1
  else begin
    t.n_frames <- t.n_frames + 1;
    t.n_bytes <- t.n_bytes + frame.Frame.size_on_wire;
    let st = Hashtbl.find t.stations sid in
    if Queue.length st.ingress.frames >= st.ingress.cap then
      st.ingress.drops <- st.ingress.drops + 1
    else begin
      Queue.push frame st.ingress.frames;
      if not st.ingress.busy then begin
        st.ingress.busy <- true;
        Engine.spawn
          ~group:(Engine.root_group t.engine)
          t.engine (ingress_service t st)
      end
    end
  end

(* Full duplex: no carrier sense, no collisions, never `Dropped`.  The
   sender blocks for its own serialization time (the NIC's tx lock
   already serializes frames per host), but arrival at the switch is a
   root-group event — once the first bit is on the private link the
   frame is committed, and the sender's crash mid-serialization does
   not claw it back (the Ether root-group rule). *)
let transmit t port frame =
  let d = Cost_model.frame_time t.cost ~bytes_on_wire:frame.Frame.size_on_wire in
  ignore
    (Engine.schedule ~group:(Engine.root_group t.engine) t.engine ~after:d
       (fun () -> ingress_accept t port.id frame));
  Engine.sleep t.engine d;
  `Sent

(* ----- statistics ----- *)

let set_drop_fun t f = t.drop_fun <- f
let set_loss_rate t r = t.loss_rate <- r
let loss_rate t = t.loss_rate
let frames_lost t = t.n_lost
let partition_drops t = t.n_partition_drops
let oneway_drops t = t.n_oneway_drops
let cond_losses t = t.n_cond_lost
let duplicates_injected t = t.n_duplicated
let corruptions_injected t = t.n_corrupted
let frames_jittered t = t.n_jittered
let frames_delivered t = t.n_frames
let bytes_delivered t = t.n_bytes
let uplink_frames t = t.n_uplink_frames

let fold_stations t f acc =
  Array.fold_left (fun acc st -> f acc st) acc t.stations_ordered

let ingress_drops t = fold_stations t (fun acc st -> acc + st.ingress.drops) 0
let egress_drops t = fold_stations t (fun acc st -> acc + st.egress.drops) 0

let uplink_drops t =
  Array.fold_left (fun acc u -> acc + u.up.drops + u.down.drops) 0 t.uplinks

let queue_drops t = ingress_drops t + egress_drops t + uplink_drops t

let reset_utilisation_window t =
  t.win_start <- Engine.now t.engine;
  t.win_busy <- t.busy_ns

(* Mean downlink utilisation across all ports: total egress
   serialization time over (window x port count).  A saturated single
   hot port in an otherwise idle 100-port fabric reads as ~1%, which
   is the honest fabric-level number; per-port bottleneck hunting is
   the bench's job. *)
let utilisation t =
  let elapsed = Engine.now t.engine - t.win_start in
  if elapsed <= 0 then 0.
  else
    let ports = max 1 (Array.length t.stations_ordered) in
    float_of_int (t.busy_ns - t.win_busy)
    /. (float_of_int elapsed *. float_of_int ports)
