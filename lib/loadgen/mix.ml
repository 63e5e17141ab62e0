module Keygen = Amoeba_service.Keygen

type t = {
  name : string;
  read : float;
  insert : float;
  txn : float;
  dist : Keygen.dist;
}

type op_kind = Read | Update | Insert | Txn

let zipf = Keygen.Zipf 0.99

let ycsb_a = { name = "ycsb-a"; read = 0.5; insert = 0.0; txn = 0.0; dist = zipf }
let ycsb_b = { name = "ycsb-b"; read = 0.95; insert = 0.0; txn = 0.0; dist = zipf }
let ycsb_c = { name = "ycsb-c"; read = 1.0; insert = 0.0; txn = 0.0; dist = zipf }

let ycsb_d =
  { name = "ycsb-d"; read = 0.95; insert = 0.05; txn = 0.0;
    dist = Keygen.Latest 0.99 }

let read_write ~read dist =
  { name = Printf.sprintf "read%g" read; read; insert = 0.0; txn = 0.0; dist }

let of_string s =
  let s = String.lowercase_ascii s in
  let s =
    if String.length s > 5 && String.sub s 0 5 = "ycsb-" then
      String.sub s 5 (String.length s - 5)
    else s
  in
  match s with
  | "a" -> Ok ycsb_a
  | "b" -> Ok ycsb_b
  | "c" -> Ok ycsb_c
  | "d" -> Ok ycsb_d
  | _ -> Error (Printf.sprintf "unknown mix %S (a|b|c|d)" s)

let with_txn m ~size_hint ratio =
  if ratio < 0.0 || ratio > 1.0 then invalid_arg "Mix.with_txn: bad ratio";
  let update = 1.0 -. m.read -. m.insert -. m.txn in
  let from_update = Float.min update ratio in
  let from_read = ratio -. from_update in
  if from_read > m.read +. 1e-9 then
    invalid_arg "Mix.with_txn: ratio exceeds update + read share";
  {
    m with
    read = m.read -. from_read;
    txn = m.txn +. ratio;
    name = Printf.sprintf "%s+txn%g@%d" m.name ratio size_hint;
  }

let draw m rng =
  let u = Random.State.float rng 1.0 in
  if u < m.read then Read
  else if u < m.read +. m.insert then Insert
  else if u < m.read +. m.insert +. m.txn then Txn
  else Update
