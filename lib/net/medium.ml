type t =
  | Ether of Ether.t
  | Switch of Switch.t

type port =
  | Ether_port of Ether.port
  | Switch_port of Switch.port

type spec =
  | Shared
  | Switched of Switch.profile

type gilbert = Impair.gilbert = {
  p_gb : float;
  p_bg : float;
  loss_good : float;
  loss_bad : float;
}

type conditions = Impair.conditions = {
  gilbert : gilbert option;
  dup_prob : float;
  jitter_ns : int;
  corrupt_prob : float;
}

let clean = Impair.clean

let create engine cost = function
  | Shared -> Ether (Ether.create engine cost)
  | Switched p -> Switch (Switch.create engine cost p)

let shared e = Ether e
let switched s = Switch s
let ether = function Ether e -> Some e | Switch _ -> None
let switch = function Switch s -> Some s | Ether _ -> None

let spec_of_string s =
  match s with
  | "ether" | "shared" | "bus" -> Ok Shared
  | s when String.length s >= 6 && String.sub s 0 6 = "switch" ->
      Result.map (fun p -> Switched p) (Switch.profile_of_string s)
  | s -> Error ("unknown fabric: " ^ s)

let spec_to_string = function
  | Shared -> "ether"
  | Switched p -> Switch.profile_to_string p

(* Named profiles of persistent link conditions.  One table serves the
   CLI (--net), the adversarial swarm test and the loadgen sweep, so a
   profile name means the same impairment everywhere.  The bursty-*
   variants vary Gilbert-Elliott burst severity for the
   loss-vs-delivery-delay table in EXPERIMENTS.md. *)
let condition_profiles =
  let burst p_gb p_bg loss_bad =
    { clean with gilbert = Some { p_gb; p_bg; loss_good = 0.005; loss_bad } }
  in
  [
    ("clean", clean);
    ("bursty-light", burst 0.01 0.4 0.3);
    ("bursty", burst 0.02 0.25 0.6);
    ("bursty-heavy", burst 0.05 0.15 0.9);
    ("dup", { clean with dup_prob = 0.05 });
    ("reorder", { clean with jitter_ns = Amoeba_sim.Time.ms 3 });
    ("corrupt", { clean with corrupt_prob = 0.02 });
    ( "adversarial",
      {
        gilbert =
          Some { p_gb = 0.01; p_bg = 0.3; loss_good = 0.002; loss_bad = 0.4 };
        dup_prob = 0.05;
        jitter_ns = Amoeba_sim.Time.ms 2;
        corrupt_prob = 0.01;
      } );
  ]

let net_of_string s =
  let parts = String.split_on_char '+' s in
  let rec go fabric cond = function
    | [] -> Ok (fabric, cond)
    | part :: rest -> (
        match List.assoc_opt part condition_profiles with
        | Some c -> go fabric c rest
        | None -> (
            match spec_of_string part with
            | Ok f -> go f cond rest
            | Error _ ->
                Error
                  (Printf.sprintf
                     "unknown net spec %S (fabric: ether|switch[:SxH@U]; \
                      profile: %s)"
                     part
                     (String.concat "|" (List.map fst condition_profiles)))))
  in
  go Shared clean parts

let net_to_string (fabric, c) =
  let prof =
    match List.find_opt (fun (_, c') -> c' = c) condition_profiles with
    | Some (name, _) -> name
    | None -> "<custom>"
  in
  spec_to_string fabric ^ if prof = "clean" then "" else "+" ^ prof

let attach ?id t ~rx =
  match t with
  | Ether e -> Ether_port (Ether.attach ?id e ~rx)
  | Switch s -> Switch_port (Switch.attach ?id s ~rx)

let port_id = function
  | Ether_port p -> Ether.port_id p
  | Switch_port p -> Switch.port_id p

let transmit t port frame =
  match (t, port) with
  | Ether e, Ether_port p -> Ether.transmit e p frame
  | Switch s, Switch_port p -> Switch.transmit s p frame
  | _ -> invalid_arg "Medium.transmit: port from another medium"

(* Multicast subscriptions matter only to a snooping switch: on the
   shared wire every NIC hears every frame and filters for itself. *)
let join_multicast t port g =
  match (t, port) with
  | Ether _, Ether_port _ -> ()
  | Switch s, Switch_port p -> Switch.join_multicast s p g
  | _ -> invalid_arg "Medium.join_multicast: port from another medium"

let leave_multicast t port g =
  match (t, port) with
  | Ether _, Ether_port _ -> ()
  | Switch s, Switch_port p -> Switch.leave_multicast s p g
  | _ -> invalid_arg "Medium.leave_multicast: port from another medium"

let impair = function Ether e -> Ether.impair e | Switch s -> Switch.impair s
let set_conditions t c = Impair.set_conditions (impair t) c

let collisions = function
  | Ether e -> Ether.collisions e
  | Switch _ -> 0 (* full duplex: collisions cannot happen *)

let frames_delivered = function
  | Ether e -> Ether.frames_delivered e
  | Switch s -> Switch.frames_delivered s

let bytes_delivered = function
  | Ether e -> Ether.bytes_delivered e
  | Switch s -> Switch.bytes_delivered s

let excessive_collision_drops = function
  | Ether e -> Ether.excessive_collision_drops e
  | Switch _ -> 0

let queue_drops = function
  | Ether _ -> 0 (* the shared wire has no queues to overflow *)
  | Switch s -> Switch.queue_drops s

let utilisation = function
  | Ether e -> Ether.utilisation e
  | Switch s -> Switch.utilisation s

let reset_utilisation_window = function
  | Ether e -> Ether.reset_utilisation_window e
  | Switch s -> Switch.reset_utilisation_window s
