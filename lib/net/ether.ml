open Amoeba_sim

type outcome = Won | Collided

type intent = {
  result : outcome Ivar.t;
  frame : Frame.t;
}

type state =
  | Idle
  | Contending of { since : Time.t; mutable intents : intent list }
  | Busy

type port = {
  id : int;
  rx : Frame.t -> unit;
}

type t = {
  engine : Engine.t;
  cost : Cost_model.t;
  mutable state : state;
  mutable ports : port list;  (** newest first; delivery iterates all *)
  mutable ports_oldest : port array;
      (** oldest first; rebuilt on attach so delivery does not reverse
          the list for every frame *)
  mutable next_port : int;
  waiters : (unit -> unit) Queue.t;  (** carrier-sense blocked stations *)
  mutable n_collisions : int;
  mutable n_frames : int;
  mutable n_bytes : int;
  mutable n_excessive : int;
  mutable busy_ns : Time.t;
  imp : Impair.t;
  mutable win_start : Time.t;
      (** start of the current utilisation window; 0 until the first
          {!reset_utilisation_window}, so legacy whole-run readings
          are unchanged *)
  mutable win_busy : Time.t;  (** [busy_ns] as of [win_start] *)
}

let create engine cost =
  {
    engine;
    cost;
    state = Idle;
    ports = [];
    ports_oldest = [||];
    next_port = 0;
    waiters = Queue.create ();
    n_collisions = 0;
    n_frames = 0;
    n_bytes = 0;
    n_excessive = 0;
    busy_ns = Time.zero;
    imp = Impair.create engine;
    win_start = Time.zero;
    win_busy = Time.zero;
  }

let attach ?id t ~rx =
  let id = match id with Some i -> i | None -> t.next_port in
  let port = { id; rx } in
  t.next_port <- max (id + 1) (t.next_port + 1);
  t.ports <- port :: t.ports;
  t.ports_oldest <- Array.of_list (List.rev t.ports);
  port

let port_id p = p.id

let wake_all t =
  Queue.iter (fun resume -> resume ()) t.waiters;
  Queue.clear t.waiters

let impair t = t.imp

let deliver t frame =
  if not (Impair.lose t.imp frame) then begin
    t.n_frames <- t.n_frames + 1;
    t.n_bytes <- t.n_bytes + frame.Frame.size_on_wire;
    (* Oldest port first, for deterministic delivery order. *)
    let ports = t.ports_oldest in
    let src = frame.Frame.src in
    if Impair.quiet t.imp then
      (* Quiet net: no partitions, no directed cuts, no conditions.
         Two cheap reads guard the hot loop; the bench holds this path
         to < 5% of the pre-conditions cost. *)
      for i = 0 to Array.length ports - 1 do
        let port = Array.unsafe_get ports i in
        if port.id <> src then port.rx frame
      done
    else
      for i = 0 to Array.length ports - 1 do
        let port = Array.unsafe_get ports i in
        if port.id <> src then Impair.deliver t.imp ~dst:port.id port.rx frame
      done
  end

(* The contention window closes one slot time after the first station
   began transmitting.  A single contender wins the medium; several
   contenders collide and back off. *)
let commit t since =
  match t.state with
  | Idle | Busy -> assert false
  | Contending c ->
      assert (c.since = since);
      (match c.intents with
      | [] -> assert false
      | [ winner ] ->
          t.state <- Busy;
          let duration =
            Cost_model.frame_time t.cost
              ~bytes_on_wire:winner.frame.Frame.size_on_wire
          in
          t.busy_ns <- t.busy_ns + duration;
          (* Wire state-machine events run in the root group: the
             medium is shared infrastructure, so a transmitting
             machine's crash must not cancel the event that returns
             the wire to Idle (that would wedge every station), and
             bits already committed to the wire are delivered even if
             their sender dies mid-flight. *)
          ignore
            (Engine.schedule ~group:(Engine.root_group t.engine) t.engine
               ~after:(since + duration - Engine.now t.engine)
               (fun () ->
                 t.state <- Idle;
                 deliver t winner.frame;
                 Ivar.fill winner.result Won;
                 wake_all t))
      | losers ->
          t.n_collisions <- t.n_collisions + 1;
          t.state <- Busy;
          t.busy_ns <- t.busy_ns + t.cost.jam_ns;
          ignore
            (Engine.schedule ~group:(Engine.root_group t.engine) t.engine
               ~after:t.cost.jam_ns
               (fun () ->
                 t.state <- Idle;
                 List.iter (fun i -> Ivar.fill i.result Collided) losers;
                 wake_all t)))

let backoff_slots t ~attempt =
  let exp = min attempt t.cost.max_backoff_exp in
  Random.State.int (Engine.rng t.engine) (1 lsl exp)

let transmit t port frame =
  let rec attempt n =
    if n > t.cost.max_attempts then begin
      t.n_excessive <- t.n_excessive + 1;
      `Dropped
    end
    else begin
      match t.state with
      | Busy ->
          Engine.suspend t.engine ~register:(fun resume ->
              Queue.push resume t.waiters);
          attempt n
      | Contending c ->
          let intent = { result = Ivar.create (); frame } in
          c.intents <- intent :: c.intents;
          await intent n
      | Idle ->
          let intent = { result = Ivar.create (); frame } in
          let since = Engine.now t.engine in
          t.state <- Contending { since; intents = [ intent ] };
          ignore
            (Engine.schedule ~group:(Engine.root_group t.engine) t.engine
               ~after:t.cost.slot_time_ns
               (fun () -> commit t since));
          await intent n
    end
  and await intent n =
    match Ivar.read t.engine intent.result with
    | Won -> `Sent
    | Collided ->
        let slots = backoff_slots t ~attempt:n in
        Engine.sleep t.engine (slots * t.cost.slot_time_ns);
        attempt (n + 1)
  in
  ignore port;
  attempt 1

let collisions t = t.n_collisions
let frames_delivered t = t.n_frames
let bytes_delivered t = t.n_bytes
let excessive_collision_drops t = t.n_excessive

(* Utilisation is windowed: [reset_utilisation_window] marks the start
   of a measurement interval, so warmup and idle phases before it no
   longer dilute the reading.  Without a reset the window is the whole
   run, the pre-window behaviour. *)
let reset_utilisation_window t =
  t.win_start <- Engine.now t.engine;
  t.win_busy <- t.busy_ns

let utilisation t =
  let elapsed = Engine.now t.engine - t.win_start in
  if elapsed <= 0 then 0.
  else float_of_int (t.busy_ns - t.win_busy) /. float_of_int elapsed
