(* Multiset relations.

   The environment E is a multiset (Section 4: "it need not have keys"), and
   intermediate script relations carry let-extended rows, so rows may be
   longer than the schema arity; the schema always describes a prefix.

   Storage is columnar (struct-of-arrays, see {!Colstore}): one typed array
   per schema attribute plus a boxed overflow column for let-extension
   slots.  The row-oriented API below is a materializing view over it — a
   returned [Tuple.t] is a fresh boxed copy of the row, bit-identical to
   the row as added, and mutating it does not write back. *)

open Sgl_util

type t = { store : Colstore.t }

let create schema = { store = Colstore.create schema }

let of_tuples schema tuples =
  let t = create schema in
  List.iter (Colstore.append t.store) tuples;
  t

let of_rows schema rows =
  let t = create schema in
  Varray.iter (Colstore.append t.store) rows;
  t

let schema t = Colstore.schema t.store
let cardinality t = Colstore.length t.store
let add t row = Colstore.append t.store row
let row t i = Colstore.materialize t.store i
let iter f t = Colstore.iter f t.store
let iteri f t = Colstore.iteri f t.store
let fold f init t = Colstore.fold f init t.store
let to_list t = List.init (cardinality t) (row t)
let to_array t = Colstore.to_array t.store

let map_rows f t =
  let out = create (schema t) in
  iter (fun row -> add out (f row)) t;
  out

let filter_rows p t =
  let out = create (schema t) in
  iter (fun row -> if p row then add out row) t;
  out

(* Multiset equality up to row order: sort printable forms and compare.
   Only used by tests and assertions, so the cost is acceptable. *)
let equal_as_multiset a b =
  cardinality a = cardinality b
  &&
  let keyed r = List.sort compare (List.map Fmt.(str "%a" Tuple.pp) (to_list r)) in
  keyed a = keyed b

let pp ppf t =
  Fmt.pf ppf "@[<v>%a (%d rows)@,%a@]" Schema.pp (schema t) (cardinality t)
    Fmt.(list ~sep:cut Tuple.pp)
    (to_list t)
