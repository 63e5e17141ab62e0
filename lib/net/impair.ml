open Amoeba_sim

type gilbert = {
  p_gb : float;
  p_bg : float;
  loss_good : float;
  loss_bad : float;
}

type conditions = {
  gilbert : gilbert option;
  dup_prob : float;
  jitter_ns : int;
  corrupt_prob : float;
}

let clean = { gilbert = None; dup_prob = 0.; jitter_ns = 0; corrupt_prob = 0. }

(* A [conditions] record describes what one directed src->dst path
   does to frames; [link] adds the Gilbert-Elliott channel state,
   which is mutable per link so loss stays correlated along one
   path. *)
type link = {
  mutable cond : conditions;
  mutable ge_bad : bool;  (** current Gilbert-Elliott channel state *)
}

type t = {
  engine : Engine.t;
  mutable drop_fun : (Frame.t -> bool) option;
  mutable loss_rate : float;
  mutable n_lost : int;
  cuts : (int, unit) Hashtbl.t;
      (** severed station pairs, keyed by {!pair_key}; empty on the
          quiet-net path so partition checks cost one length read *)
  mutable n_partition_drops : int;
  dcuts : (int, unit) Hashtbl.t;  (** one-way cuts, keyed by {!dkey} *)
  mutable n_oneway_drops : int;
  default_link : link;  (** conditions for links with no override *)
  links : (int, link) Hashtbl.t;  (** per-link overrides, by {!dkey} *)
  mutable cond_active : bool;
      (** true iff any directed cut or non-clean condition is
          installed; with [cuts] empty and this false the net is
          {!quiet} *)
  mutable n_cond_lost : int;
  mutable n_duplicated : int;
  mutable n_corrupted : int;
  mutable n_jittered : int;
}

let create engine =
  {
    engine;
    drop_fun = None;
    loss_rate = 0.;
    n_lost = 0;
    cuts = Hashtbl.create 8;
    n_partition_drops = 0;
    dcuts = Hashtbl.create 8;
    n_oneway_drops = 0;
    default_link = { cond = clean; ge_bad = false };
    links = Hashtbl.create 8;
    cond_active = false;
    n_cond_lost = 0;
    n_duplicated = 0;
    n_corrupted = 0;
    n_jittered = 0;
  }

(* ----- whole-frame loss ----- *)

let set_drop_fun t f = t.drop_fun <- f
let set_loss_rate t r = t.loss_rate <- r
let loss_rate t = t.loss_rate
let frames_lost t = t.n_lost

let lose t frame =
  let lost =
    (match t.drop_fun with Some f -> f frame | None -> false)
    || (t.loss_rate > 0.
       && Random.State.float (Engine.rng t.engine) 1.0 < t.loss_rate)
  in
  if lost then t.n_lost <- t.n_lost + 1;
  lost

(* ----- partitions and one-way cuts ----- *)

let pair_key a b = if a < b then (a lsl 16) lor b else (b lsl 16) lor a
let dkey src dst = (src lsl 16) lor dst

let refresh_cond_active t =
  t.cond_active <-
    Hashtbl.length t.dcuts > 0
    || t.default_link.cond <> clean
    || Hashtbl.length t.links > 0

let quiet t = Hashtbl.length t.cuts = 0 && not t.cond_active
let partitioned t a b = a <> b && Hashtbl.mem t.cuts (pair_key a b)
let partition_pair t a b = if a <> b then Hashtbl.replace t.cuts (pair_key a b) ()

let partition t side_a side_b =
  List.iter (fun a -> List.iter (fun b -> partition_pair t a b) side_b) side_a

let cut_oneway t ~src ~dst =
  if src <> dst then Hashtbl.replace t.dcuts (dkey src dst) ();
  refresh_cond_active t

let heal_oneway t ~src ~dst =
  Hashtbl.remove t.dcuts (dkey src dst);
  refresh_cond_active t

let oneway_cut t ~src ~dst = Hashtbl.mem t.dcuts (dkey src dst)

let heal t =
  Hashtbl.reset t.cuts;
  Hashtbl.reset t.dcuts;
  refresh_cond_active t

let partition_drops t = t.n_partition_drops
let oneway_drops t = t.n_oneway_drops

(* ----- link conditions ----- *)

let set_conditions t c =
  t.default_link.cond <- c;
  t.default_link.ge_bad <- false;
  refresh_cond_active t

let conditions t = t.default_link.cond

let set_link_conditions t ~src ~dst c =
  (match c with
  | None -> Hashtbl.remove t.links (dkey src dst)
  | Some c -> Hashtbl.replace t.links (dkey src dst) { cond = c; ge_bad = false });
  refresh_cond_active t

let link_conditions t ~src ~dst =
  match Hashtbl.find_opt t.links (dkey src dst) with
  | Some l -> Some l.cond
  | None -> None

let cond_losses t = t.n_cond_lost
let duplicates_injected t = t.n_duplicated
let corruptions_injected t = t.n_corrupted
let frames_jittered t = t.n_jittered

(* Advance the Gilbert-Elliott channel one frame, then draw loss in
   the state just entered.  Channel state lives on the link, so a
   burst that starts for one frame tends to swallow its successors. *)
let gilbert_loss t l g =
  let rng = Engine.rng t.engine in
  if l.ge_bad then begin
    if Random.State.float rng 1.0 < g.p_bg then l.ge_bad <- false
  end
  else if g.p_gb > 0. && Random.State.float rng 1.0 < g.p_gb then
    l.ge_bad <- true;
  let p = if l.ge_bad then g.loss_bad else g.loss_good in
  p > 0. && Random.State.float rng 1.0 < p

(* One copy of [frame] to [rx], applying corruption and delivery
   jitter.  Jittered copies run in the root group: frames on the wire
   or inside a switch outlive their sender, and a station's crash must
   not cancel deliveries to its peers. *)
let deliver_copy t rx c frame =
  let rng = Engine.rng t.engine in
  let frame =
    if c.corrupt_prob > 0. && Random.State.float rng 1.0 < c.corrupt_prob then begin
      t.n_corrupted <- t.n_corrupted + 1;
      let byte = Random.State.int rng (max 1 frame.Frame.size_on_wire) in
      { frame with Frame.body = Frame.Corrupted { orig = frame.Frame.body; byte } }
    end
    else frame
  in
  if c.jitter_ns > 0 then begin
    let delay = Random.State.int rng (c.jitter_ns + 1) in
    if delay > 0 then begin
      t.n_jittered <- t.n_jittered + 1;
      ignore
        (Engine.schedule ~group:(Engine.root_group t.engine) t.engine
           ~after:delay (fun () -> rx frame))
    end
    else rx frame
  end
  else rx frame

let deliver t ~dst rx frame =
  let src = frame.Frame.src in
  if Hashtbl.length t.cuts > 0 && partitioned t src dst then
    t.n_partition_drops <- t.n_partition_drops + 1
  else if Hashtbl.length t.dcuts > 0 && Hashtbl.mem t.dcuts (dkey src dst) then
    t.n_oneway_drops <- t.n_oneway_drops + 1
  else begin
    let l =
      match Hashtbl.find_opt t.links (dkey src dst) with
      | Some l -> l
      | None -> t.default_link
    in
    let c = l.cond in
    let lost = match c.gilbert with Some g -> gilbert_loss t l g | None -> false in
    if lost then t.n_cond_lost <- t.n_cond_lost + 1
    else begin
      deliver_copy t rx c frame;
      if
        c.dup_prob > 0.
        && Random.State.float (Engine.rng t.engine) 1.0 < c.dup_prob
      then begin
        t.n_duplicated <- t.n_duplicated + 1;
        deliver_copy t rx c frame
      end
    end
  end
