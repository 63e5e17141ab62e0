type t = Fixed of int | Uniform of int * int | Lognormal of float * float

(* Each write builds its value as one string, so a bound on the size
   keeps one draw from exhausting memory; 1 MiB is 128 times the
   paper's largest message. *)
let max_bytes = 1 lsl 20

(* The farthest [draw]'s Box-Muller Z can fall: its uniform is a
   multiple of 2^-53, so -2 ln (1 - u) <= 106 ln 2. *)
let z_max = sqrt (106.0 *. log 2.0)

let largest = function
  | Fixed n -> float_of_int n
  | Uniform (_, b) -> float_of_int b
  | Lognormal (median, sigma) -> median *. exp (sigma *. z_max)

let parse s =
  let int_arg name v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (Printf.sprintf "%s: bad size %S" name v)
  in
  match String.split_on_char ':' s with
  | [ "fixed"; n ] -> Result.map (fun n -> Fixed n) (int_arg "fixed" n)
  | [ "uniform"; a; b ] -> (
      match (int_arg "uniform" a, int_arg "uniform" b) with
      | Ok a, Ok b when a <= b -> Ok (Uniform (a, b))
      | Ok _, Ok _ -> Error "uniform: min > max"
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  | [ "lognormal"; m; sg ] -> (
      match (float_of_string_opt m, float_of_string_opt sg) with
      | Some m, Some sg when m >= 1.0 && sg >= 0.0 -> Ok (Lognormal (m, sg))
      | _ -> Error (Printf.sprintf "lognormal: bad median/sigma %S:%S" m sg))
  | _ ->
      Error
        (Printf.sprintf
           "unknown value distribution %S (fixed:N | uniform:MIN:MAX | \
            lognormal:MEDIAN:SIGMA)"
           s)

let of_string s =
  match parse s with
  | Ok d when largest d > float_of_int max_bytes ->
      Error (s ^ " can draw values above 1 MiB")
  | r -> r

let to_string = function
  | Fixed n -> Printf.sprintf "fixed:%d" n
  | Uniform (a, b) -> Printf.sprintf "uniform:%d:%d" a b
  | Lognormal (m, sg) -> Printf.sprintf "lognormal:%g:%g" m sg

let draw t rng =
  match t with
  | Fixed n -> n
  | Uniform (a, b) -> a + Random.State.int rng (b - a + 1)
  | Lognormal (median, sigma) ->
      (* Box-Muller; both uniforms are always drawn so the rng stream
         stays aligned whatever the outcome. *)
      let u1 = Random.State.float rng 1.0 in
      let u2 = Random.State.float rng 1.0 in
      let z = sqrt (-2.0 *. log (1.0 -. u1)) *. cos (2.0 *. Float.pi *. u2) in
      max 1 (int_of_float (Float.round (median *. exp (sigma *. z))))

let mean = function
  | Fixed n -> float_of_int n
  | Uniform (a, b) -> float_of_int (a + b) /. 2.0
  | Lognormal (median, sigma) -> median *. exp (sigma *. sigma /. 2.0)
