module Smap = Map.Make (String)
module T = Amoeba_core.Types

(* Update wire format (inside the group's 'U' frame):
     "P<uid> <klen> <key><value>"   put
     "D<uid> <key>"                 delete
   State wire format: a run of "<klen> <vlen> <key><value>" records. *)
module Store = struct
  type state = string Smap.t

  type update =
    | Put of { uid : int; key : string; value : string }
    | Del of { uid : int; key : string }

  let initial = Smap.empty

  let apply s = function
    | Put { key; value; _ } -> Smap.add key value s
    | Del { key; _ } -> Smap.remove key s

  let encode_update = function
    | Put { uid; key; value } ->
        Bytes.of_string
          (Printf.sprintf "P%d %d %s%s" uid (String.length key) key value)
    | Del { uid; key } -> Bytes.of_string (Printf.sprintf "D%d %s" uid key)

  let decode_update b =
    let s = Bytes.to_string b in
    let len = String.length s in
    if len = 0 then None
    else
      match s.[0] with
      | 'P' -> (
          match String.index_opt s ' ' with
          | None -> None
          | Some i1 -> (
              match String.index_from_opt s (i1 + 1) ' ' with
              | None -> None
              | Some i2 -> (
                  match
                    ( int_of_string_opt (String.sub s 1 (i1 - 1)),
                      int_of_string_opt (String.sub s (i1 + 1) (i2 - i1 - 1)) )
                  with
                  | Some uid, Some klen
                    when klen >= 0 && i2 + 1 + klen <= len ->
                      let key = String.sub s (i2 + 1) klen in
                      let value =
                        String.sub s (i2 + 1 + klen) (len - i2 - 1 - klen)
                      in
                      Some (Put { uid; key; value })
                  | _ -> None)))
      | 'D' -> (
          match String.index_opt s ' ' with
          | None -> None
          | Some i -> (
              match int_of_string_opt (String.sub s 1 (i - 1)) with
              | Some uid -> Some (Del { uid; key = String.sub s (i + 1) (len - i - 1) })
              | None -> None))
      | _ -> None

  let encode_state s =
    let buf = Buffer.create 256 in
    Smap.iter
      (fun k v ->
        Buffer.add_string buf
          (Printf.sprintf "%d %d %s%s" (String.length k) (String.length v) k v))
      s;
    Bytes.of_string (Buffer.contents buf)

  let decode_state b =
    let s = Bytes.to_string b in
    let len = String.length s in
    let rec go pos acc =
      if pos >= len then Some acc
      else
        match String.index_from_opt s pos ' ' with
        | None -> None
        | Some i1 -> (
            match String.index_from_opt s (i1 + 1) ' ' with
            | None -> None
            | Some i2 -> (
                match
                  ( int_of_string_opt (String.sub s pos (i1 - pos)),
                    int_of_string_opt (String.sub s (i1 + 1) (i2 - i1 - 1)) )
                with
                | Some klen, Some vlen
                  when klen >= 0 && vlen >= 0 && i2 + 1 + klen + vlen <= len ->
                    let k = String.sub s (i2 + 1) klen in
                    let v = String.sub s (i2 + 1 + klen) vlen in
                    go (i2 + 1 + klen + vlen) (Smap.add k v acc)
                | _ -> None))
    in
    go 0 Smap.empty
end

module Rsm_store = Amoeba_grouplib.Rsm.Make (Store)

(* Request wire format (over RPC):
     "G<key>"              get
     "S<key>"              stale get (bounded-staleness read)
     "P<klen> <key><value>"  put
     "D<key>"              delete
     "B<n> (<len> <req>)*"   batch of n requests, in order
   Reply wire format:
     "V<value>" | "N" | "K" | "W<shard>" | "E<reason>"
     "R<n> (<len> <reply>)*" batch reply, one per request, same order *)

type request =
  | Get of string
  | Stale_get of string
  | Put of string * string
  | Del of string

type refusal = Retired | Bad_request | Submit_failed of T.error

type reply =
  | Value of string
  | Not_found
  | Written
  | Wrong_shard of int
  | Busy of refusal

let request_key = function
  | Get k | Stale_get k | Del k -> k
  | Put (k, _) -> k

let encode_request = function
  | Get k -> Bytes.of_string ("G" ^ k)
  | Stale_get k -> Bytes.of_string ("S" ^ k)
  | Put (k, v) ->
      Bytes.of_string (Printf.sprintf "P%d %s%s" (String.length k) k v)
  | Del k -> Bytes.of_string ("D" ^ k)

let decode_request b =
  let s = Bytes.to_string b in
  let len = String.length s in
  if len = 0 then None
  else
    match s.[0] with
    | 'G' -> Some (Get (String.sub s 1 (len - 1)))
    | 'S' -> Some (Stale_get (String.sub s 1 (len - 1)))
    | 'D' -> Some (Del (String.sub s 1 (len - 1)))
    | 'P' -> (
        match String.index_opt s ' ' with
        | None -> None
        | Some i -> (
            match int_of_string_opt (String.sub s 1 (i - 1)) with
            | Some klen when klen >= 0 && i + 1 + klen <= len ->
                Some
                  (Put
                     ( String.sub s (i + 1) klen,
                       String.sub s (i + 1 + klen) (len - i - 1 - klen) ))
            | _ -> None))
    | _ -> None

(* A refusal travels as its text: the submit errors as [Types] prints
   them. *)
let refusal_text = function
  | Retired -> "retired"
  | Bad_request -> "bad-request"
  | Submit_failed e -> T.error_to_string e

let refusals =
  Retired :: Bad_request
  :: List.map
       (fun e -> Submit_failed e)
       T.
         [
           Sequencer_unreachable;
           Not_enough_members;
           Not_a_member;
           Send_aborted;
         ]

let encode_reply = function
  | Value v -> Bytes.of_string ("V" ^ v)
  | Not_found -> Bytes.of_string "N"
  | Written -> Bytes.of_string "K"
  | Wrong_shard s -> Bytes.of_string (Printf.sprintf "W%d" s)
  | Busy r -> Bytes.of_string ("E" ^ refusal_text r)

let decode_reply b =
  let s = Bytes.to_string b in
  let len = String.length s in
  if len = 0 then None
  else
    match s.[0] with
    | 'V' -> Some (Value (String.sub s 1 (len - 1)))
    | 'N' when len = 1 -> Some Not_found
    | 'K' when len = 1 -> Some Written
    | 'W' -> (
        match int_of_string_opt (String.sub s 1 (len - 1)) with
        | Some shard -> Some (Wrong_shard shard)
        | None -> None)
    | 'E' ->
        List.find_opt (fun r -> "E" ^ refusal_text r = s) refusals
        |> Option.map (fun r -> Busy r)
    | _ -> None

(* Counted length-prefixed vectors, shared by batch requests ('B') and
   batch replies ('R'). *)
let encode_counted tag encode items =
  let buf = Buffer.create 64 in
  Buffer.add_char buf tag;
  Buffer.add_string buf (string_of_int (List.length items));
  Buffer.add_char buf ' ';
  List.iter
    (fun item ->
      let enc = encode item in
      Buffer.add_string buf (string_of_int (Bytes.length enc));
      Buffer.add_char buf ' ';
      Buffer.add_bytes buf enc)
    items;
  Buffer.to_bytes buf

let decode_counted tag decode b =
  let len = Bytes.length b in
  if len = 0 || Bytes.get b 0 <> tag then None
  else
    let int_sp pos =
      match Bytes.index_from_opt b pos ' ' with
      | None -> None
      | Some sp -> (
          match int_of_string_opt (Bytes.sub_string b pos (sp - pos)) with
          | Some v -> Some (v, sp + 1)
          | None -> None)
    in
    match int_sp 1 with
    | None -> None
    | Some (n, pos) ->
        let rec go acc pos = function
          | 0 -> if pos = len then Some (List.rev acc) else None
          | k -> (
              match int_sp pos with
              | None -> None
              | Some (l, pos) ->
                  if l < 0 || pos + l > len then None
                  else
                    match decode (Bytes.sub b pos l) with
                    | None -> None
                    | Some item -> go (item :: acc) (pos + l) (k - 1))
        in
        if n < 0 then None else go [] pos n

let encode_batch_request = encode_counted 'B' encode_request
let decode_batch_request = decode_counted 'B' decode_request
let encode_batch_reply = encode_counted 'R' encode_reply
let decode_batch_reply = decode_counted 'R' decode_reply
