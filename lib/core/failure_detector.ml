open Amoeba_sim
open Amoeba_net
open Amoeba_flip

type wire =
  | Probe of { nonce : int; reply_to : Addr.t }
  | Probe_reply of { nonce : int }

type Packet.body += Fd of wire

type t = {
  flip : Flip.t;
  machine : Machine.t;
  engine : Engine.t;
  cost : Cost_model.t;
  addr : Addr.t;
  replies : (int, unit Channel.t) Hashtbl.t;
  mutable nonce : int;
  mutable answering : bool;
  mutable answered : int;
}

let probe_size (c : Cost_model.t) = c.header_group

let create flip =
  let machine = Flip.machine flip in
  let t =
    {
      flip;
      machine;
      engine = Machine.engine machine;
      cost = Machine.cost machine;
      addr = Flip.fresh_addr flip;
      replies = Hashtbl.create 8;
      nonce = 0;
      answering = true;
      answered = 0;
    }
  in
  Flip.register flip t.addr (fun p ->
      match p.Packet.body with
      | Fd (Probe { nonce; reply_to }) ->
          if t.answering then begin
            t.answered <- t.answered + 1;
            (* Replying blocks on the wire: needs its own process. *)
            Engine.spawn t.engine (fun () ->
                ignore
                  (Flip.send t.flip
                     (Packet.make ~src:t.addr ~dst:reply_to
                        ~size:(probe_size t.cost)
                        (Fd (Probe_reply { nonce })))))
          end
      | Fd (Probe_reply { nonce }) -> (
          match Hashtbl.find_opt t.replies nonce with
          | Some ch -> Channel.send ch ()
          | None -> ())
      | _ -> ());
  t

let address t = t.addr

let probe t ?retries ?timeout target =
  let retries = Option.value retries ~default:t.cost.probe_retries in
  let timeout = Option.value timeout ~default:t.cost.probe_timeout_ns in
  let rec attempt n =
    if n > retries then false
    else begin
      t.nonce <- t.nonce + 1;
      let nonce = t.nonce in
      let ch = Channel.create () in
      Hashtbl.replace t.replies nonce ch;
      ignore
        (Flip.send t.flip
           (Packet.make ~src:t.addr ~dst:target ~size:(probe_size t.cost)
              (Fd (Probe { nonce; reply_to = t.addr }))));
      let verdict = Channel.recv_timeout t.engine ch ~timeout in
      Hashtbl.remove t.replies nonce;
      match verdict with Some () -> true | None -> attempt (n + 1)
    end
  in
  attempt 1

let probe_many t ?retries ?timeout targets =
  let results = Array.make (List.length targets) None in
  List.iteri
    (fun i target ->
      Engine.spawn t.engine (fun () ->
          results.(i) <- Some (probe t ?retries ?timeout target)))
    targets;
  (* Wait for all verdicts. *)
  let rec wait () =
    if Array.exists (fun r -> r = None) results then begin
      Engine.sleep t.engine (Time.ms 1);
      wait ()
    end
  in
  wait ();
  List.mapi
    (fun i target -> (target, Option.value results.(i) ~default:false))
    targets

let probes_answered t = t.answered

let stop t = t.answering <- false

type estimator = {
  floor : Time.t;
  cap : Time.t;
  last : Time.t;  (** latest arrival; -1 = none yet *)
  avg : Time.t;  (** smoothed gap, starting from the cap *)
  dev : Time.t;  (** mean deviation of the gap *)
}

let estimator ~floor ~cap = { floor; cap; last = -1; avg = cap; dev = 0 }

let heard e now =
  if e.last < 0 then { e with last = now }
  else
    let err = now - e.last - e.avg in
    {
      e with
      last = now;
      avg = e.avg + (err / 8);
      dev = e.dev + ((abs err - e.dev) / 4);
    }

let forget e = estimator ~floor:e.floor ~cap:e.cap
let period e = max e.floor (min e.cap (e.avg + (4 * e.dev)))
let silent e now = e.last < 0 || now - e.last >= period e

let wait e now =
  let p = period e in
  if silent e now then p else e.last + p - now
