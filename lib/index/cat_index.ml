(* Categorical partitioning: the hash-table levels of the layered index
   (Section 5.3.1: "degenerate range components ... can be replaced by a
   hashtable with O(1) look-up").

   Points are split by an integer key vector (e.g. player, unit type); each
   partition carries its own continuous-attribute sub-index record.  This
   is how the paper arrives at "6 range trees - one for each player/unit
   type combination".  The records are made once, in [create]; lookups
   never write, so one index can be probed from several domains. *)

open Sgl_util

type 'a t = {
  keys : int list list; (* partition keys, in probe order *)
  numbers : (int list, int) Hashtbl.t; (* key -> partition number *)
  parts : (int array * 'a) array; (* by number: members, sub-index *)
}

(* Two passes over [ids]: number the partitions in order of first
   appearance and count their members, then fill exact-size member
   arrays, so building leaves no grown buckets behind as garbage. *)
let create ~(keys : int -> int list) ~(ids : int array) ~(builder : int array -> 'a) : 'a t =
  let numbers = Hashtbl.create 16 and sizes = Varray.create 0 in
  let part =
    Array.map
      (fun id ->
        let k = keys id in
        match Hashtbl.find_opt numbers k with
        | Some p ->
          Varray.set sizes p (Varray.get sizes p + 1);
          p
        | None ->
          let p = Varray.length sizes in
          Hashtbl.add numbers k p;
          Varray.push sizes 1;
          p)
      ids
  in
  let members = Array.init (Varray.length sizes) (fun p -> Array.make (Varray.get sizes p) 0) in
  let filled = Array.make (Varray.length sizes) 0 in
  Array.iteri
    (fun i id ->
      let p = part.(i) in
      members.(p).(filled.(p)) <- id;
      filled.(p) <- filled.(p) + 1)
    ids;
  {
    keys = Hashtbl.fold (fun k _ acc -> k :: acc) numbers [];
    numbers;
    parts = Array.map (fun m -> (m, builder m)) members;
  }

let partition_keys t = t.keys

let members t key =
  match Hashtbl.find_opt t.numbers key with
  | None -> [||]
  | Some p -> fst t.parts.(p)

let find t key : 'a option =
  match Hashtbl.find_opt t.numbers key with
  | None -> None
  | Some p -> Some (snd t.parts.(p))

(* Sub-indexes of every partition whose key satisfies [accept]; this is how
   a disequality like [e.player <> u.player] probes "all other players". *)
let find_matching t ~(accept : int list -> bool) : 'a list =
  List.filter_map (fun k -> if accept k then find t k else None) t.keys

let partition_count t = Array.length t.parts
