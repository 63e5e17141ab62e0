open Amoeba_sim
open Amoeba_net

type fragment = {
  packet : Packet.t;
  msg_id : int;
  frag : int;  (** 0-based fragment index *)
  frags : int;  (** total fragments of this packet *)
}

type Frame.body +=
  | Data of fragment
  | Whois of Addr.t
  | Iam of { addr : Addr.t; station : int }

module Addr_tbl = Hashtbl.Make (struct
  type t = Addr.t

  let equal = Addr.equal
  let hash = Addr.hash
end)

type reassembly = {
  seen : bool array;
      (** per-fragment arrival bitmap: a duplicated fragment must not
          count towards completion, or reassembly would finish with a
          fragment still missing *)
  mutable received : int;
  total : int;
  first_seen : Time.t;
  whole : Packet.t;
  mutable corrupt : bool;  (** some fragment arrived payload-damaged *)
}

type t = {
  machine : Machine.t;
  endpoints : (Packet.t -> unit) Addr_tbl.t;
  group_endpoints : (Packet.t -> unit) Addr_tbl.t;
  route_cache : int Addr_tbl.t;  (** address -> station *)
  pending_locates : int Channel.t list ref Addr_tbl.t;
  partial : (int * int, reassembly) Hashtbl.t;  (** (station, msg_id) *)
  mutable next_msg_id : int;
  mutable n_corrupt_dropped : int;
      (** frames whose header checksum failed on receipt *)
  mutable n_dup_fragments : int;
  mutable n_invalid_fragments : int;
      (** fragments whose metadata was out of range or disagreed with
          the reassembly entry *)
}

let locate_timeout = Time.ms 5
let locate_retries = 3

let flip_wire_header c =
  c.Cost_model.header_ether + c.Cost_model.header_flow_control
  + c.Cost_model.header_flip

let max_fragment t =
  let c = Machine.cost t.machine in
  c.Cost_model.max_frame_bytes - flip_wire_header c

let eng t = Machine.engine t.machine
let cost t = Machine.cost t.machine

let work t d = Machine.work t.machine ~layer:"flip" d

let deliver_local t (packet : Packet.t) =
  match Addr_tbl.find_opt t.endpoints packet.dst with
  | Some handler -> handler packet
  | None -> (
      match Addr_tbl.find_opt t.group_endpoints packet.dst with
      | Some handler -> handler packet
      | None -> ())

(* Reassembly: fragments of one packet share a (station, msg_id) key.
   Stale entries (peer crashed mid-message, fragment lost) are purged
   lazily. *)
let purge_stale t =
  if Hashtbl.length t.partial > 256 then begin
    let now = Engine.now (eng t) in
    let stale =
      Hashtbl.fold
        (fun key r acc -> if now - r.first_seen > Time.sec 1 then key :: acc else acc)
        t.partial []
    in
    List.iter (Hashtbl.remove t.partial) stale
  end

let deliver_maybe_corrupt t (p : Packet.t) ~corrupt =
  if corrupt then deliver_local t { p with Packet.body = Packet.Corrupt p.Packet.body }
  else deliver_local t p

let on_data ?(corrupt = false) t ~station (f : fragment) =
  work t (cost t).Cost_model.flip_rx_ns;
  if f.frags <= 0 || f.frag < 0 || f.frag >= f.frags then
    (* Out-of-range metadata: a damaged or forged fragment header must
       not index the bitmap or create an entry that can never fill. *)
    t.n_invalid_fragments <- t.n_invalid_fragments + 1
  else if f.frags = 1 then deliver_maybe_corrupt t f.packet ~corrupt
  else begin
    purge_stale t;
    let key = (station, f.msg_id) in
    match Hashtbl.find_opt t.partial key with
    | Some r when r.total <> f.frags ->
        (* Fragment count disagrees with the entry its siblings
           created: one of them lied. *)
        t.n_invalid_fragments <- t.n_invalid_fragments + 1
    | Some r when r.seen.(f.frag) -> t.n_dup_fragments <- t.n_dup_fragments + 1
    | existing ->
        let r =
          match existing with
          | Some r -> r
          | None ->
              let r =
                {
                  seen = Array.make f.frags false;
                  received = 0;
                  total = f.frags;
                  first_seen = Engine.now (eng t);
                  whole = f.packet;
                  corrupt = false;
                }
              in
              Hashtbl.add t.partial key r;
              r
        in
        r.seen.(f.frag) <- true;
        r.received <- r.received + 1;
        if corrupt then r.corrupt <- true;
        if r.received = r.total then begin
          Hashtbl.remove t.partial key;
          deliver_maybe_corrupt t r.whole ~corrupt:r.corrupt
        end
  end

let on_whois t addr =
  work t (cost t).Cost_model.flip_rx_ns;
  if Addr_tbl.mem t.endpoints addr then begin
    let c = cost t in
    let reply =
      {
        Frame.src = Machine.id t.machine;
        dest = Frame.Broadcast;
        size_on_wire = flip_wire_header c;
        body = Iam { addr; station = Machine.id t.machine };
      }
    in
    (* Reply from a fresh process: the receive path must not stall
       behind a wire transmission. *)
    Engine.spawn (eng t) (fun () ->
        work t c.Cost_model.flip_tx_ns;
        ignore (Nic.send (Machine.nic t.machine) reply))
  end

let on_iam t ~addr ~station =
  work t (cost t).Cost_model.flip_rx_ns;
  Addr_tbl.replace t.route_cache addr station;
  match Addr_tbl.find_opt t.pending_locates addr with
  | None -> ()
  | Some waiters ->
      List.iter (fun ch -> Channel.send ch station) !waiters;
      Addr_tbl.remove t.pending_locates addr

(* A frame arrived with flipped bits.  The byte offset of the damage
   decides which layer notices: inside the wire-header region the FLIP
   header checksum fails and the frame is dropped whole; beyond it the
   headers verify but the payload is garbage, so a Data fragment
   travels up wrapped in {!Packet.Corrupt} for the layer above to
   reject by its own checksum.  Either way nothing corrupt is ever
   interpreted as a valid message. *)
let on_corrupted t ~station ~(orig : Frame.body) ~byte =
  let c = cost t in
  match orig with
  | Data f when byte >= flip_wire_header c ->
      on_data ~corrupt:true t ~station f
  | _ ->
      (* Header damage — or a control frame, which is header-only. *)
      work t c.Cost_model.flip_rx_ns;
      t.n_corrupt_dropped <- t.n_corrupt_dropped + 1

let on_frame t (frame : Frame.t) =
  match frame.body with
  | Data f -> on_data t ~station:frame.src f
  | Whois addr -> on_whois t addr
  | Iam { addr; station } -> on_iam t ~addr ~station
  | Frame.Corrupted { orig; byte } -> on_corrupted t ~station:frame.src ~orig ~byte
  | _ -> ()

let create machine =
  let t =
    {
      machine;
      endpoints = Addr_tbl.create 8;
      group_endpoints = Addr_tbl.create 8;
      route_cache = Addr_tbl.create 32;
      pending_locates = Addr_tbl.create 8;
      partial = Hashtbl.create 32;
      next_msg_id = 0;
      n_corrupt_dropped = 0;
      n_dup_fragments = 0;
      n_invalid_fragments = 0;
    }
  in
  Nic.set_handler (Machine.nic machine) (on_frame t);
  t

let machine t = t.machine
let fresh_addr t = Addr.fresh (Engine.rng (eng t))
let register t addr handler = Addr_tbl.replace t.endpoints addr handler
let unregister t addr = Addr_tbl.remove t.endpoints addr

let register_group t addr handler =
  Addr_tbl.replace t.group_endpoints addr handler;
  Nic.join_multicast (Machine.nic t.machine) (Addr.multicast_id addr)

let unregister_group t addr =
  Addr_tbl.remove t.group_endpoints addr;
  Nic.leave_multicast (Machine.nic t.machine) (Addr.multicast_id addr)

(* Locating a unicast destination: broadcast WHOIS, wait for IAM,
   retry a bounded number of times.  Results are cached; the cache is
   invalidated by callers' higher-level timeouts simply by the entry
   being overwritten on the next successful locate. *)
let locate t addr =
  match Addr_tbl.find_opt t.route_cache addr with
  | Some station -> Some station
  | None ->
      let c = cost t in
      let ch = Channel.create () in
      let waiters =
        match Addr_tbl.find_opt t.pending_locates addr with
        | Some l -> l
        | None ->
            let l = ref [] in
            Addr_tbl.add t.pending_locates addr l;
            l
      in
      waiters := ch :: !waiters;
      let whois =
        {
          Frame.src = Machine.id t.machine;
          dest = Frame.Broadcast;
          size_on_wire = flip_wire_header c;
          body = Whois addr;
        }
      in
      let rec attempt n =
        if n > locate_retries then begin
          (match Addr_tbl.find_opt t.pending_locates addr with
          | Some l ->
              l := List.filter (fun c' -> c' != ch) !l;
              if !l = [] then Addr_tbl.remove t.pending_locates addr
          | None -> ());
          None
        end
        else begin
          work t c.Cost_model.flip_tx_ns;
          ignore (Nic.send (Machine.nic t.machine) whois);
          match Channel.recv_timeout (eng t) ch ~timeout:locate_timeout with
          | Some station -> Some station
          | None -> attempt (n + 1)
        end
      in
      attempt 1

let fragments_of t (packet : Packet.t) =
  let max_frag = max_fragment t in
  let frags = max 1 ((packet.size + max_frag - 1) / max_frag) in
  List.init frags (fun i ->
      let bytes =
        if i = frags - 1 then packet.size - ((frags - 1) * max_frag)
        else max_frag
      in
      ({ packet; msg_id = 0; frag = i; frags }, bytes))

let rec transmit_fragments ?(paced = false) t (packet : Packet.t) ~dest =
  let c = cost t in
  let msg_id = t.next_msg_id in
  t.next_msg_id <- t.next_msg_id + 1;
  if packet.size <= max_fragment t then begin
    (* Single-fragment fast path: no fragment list, no pacing. *)
    work t c.Cost_model.flip_tx_ns;
    let frame =
      {
        Frame.src = Machine.id t.machine;
        dest;
        size_on_wire = flip_wire_header c + packet.size;
        body = Data { packet; msg_id; frag = 0; frags = 1 };
      }
    in
    (Nic.send (Machine.nic t.machine) frame :> [ `Sent | `Dropped ])
  end
  else transmit_fragment_list ~paced t packet ~dest ~msg_id

and transmit_fragment_list ~paced t packet ~dest ~msg_id =
  let c = cost t in
  let outcome = ref `Sent in
  let gap = if paced then c.Cost_model.multicast_frag_gap_ns else 0 in
  List.iteri
    (fun i (frag, bytes) ->
      (* Rate pacing between multicast fragments lets the slowest
         receiver's ring drain (the paper's open flow-control problem,
         section 4). *)
      if i > 0 && gap > 0 then Engine.sleep (eng t) gap;
      work t c.Cost_model.flip_tx_ns;
      let frame =
        {
          Frame.src = Machine.id t.machine;
          dest;
          size_on_wire = flip_wire_header c + bytes;
          body = Data { frag with msg_id };
        }
      in
      match Nic.send (Machine.nic t.machine) frame with
      | `Sent -> ()
      | `Dropped -> outcome := `Dropped)
    (fragments_of t packet);
  !outcome

let send t (packet : Packet.t) =
  if Addr_tbl.mem t.endpoints packet.dst then begin
    (* Same-machine shortcut: no wire, but the layer still runs. *)
    let c = cost t in
    work t c.Cost_model.flip_tx_ns;
    work t c.Cost_model.flip_rx_ns;
    deliver_local t packet;
    `Sent
  end
  else begin
    match locate t packet.dst with
    | None -> `No_route
    | Some station ->
        (transmit_fragments t packet ~dest:(Frame.Unicast station)
          :> [ `Sent | `No_route | `Dropped ])
  end

let multicast t (packet : Packet.t) =
  transmit_fragments ~paced:true t packet
    ~dest:(Frame.Multicast (Addr.multicast_id packet.dst))

let add_route t addr ~station = Addr_tbl.replace t.route_cache addr station
let locate_cache_size t = Addr_tbl.length t.route_cache
let corrupt_dropped t = t.n_corrupt_dropped
let dup_fragments t = t.n_dup_fragments
let invalid_fragments t = t.n_invalid_fragments
let partial_count t = Hashtbl.length t.partial

let packet_of_frame (frame : Frame.t) =
  match frame.body with Data f -> Some f.packet | _ -> None
