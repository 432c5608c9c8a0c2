(* Per-layer self time and counts for the traced run.

   Every layer call the driver makes goes through [span]: it opens a
   Telemetry span (so a Chrome trace of the run shows the same layers) and
   charges the call's duration, minus the time covered by nested spans, to
   the layer's bucket.  A disabled ledger times nothing; counts are kept
   either way. *)

open Sgl

type frame = { mutable child : float }

type t = {
  on : bool;
  self_s : (string, float ref) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  mutable stack : frame list;
}

let create ~on = { on; self_s = Hashtbl.create 32; counts = Hashtbl.create 32; stack = [] }

let cell tbl name zero =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
    let r = ref zero in
    Hashtbl.add tbl name r;
    r

let charge t name seconds =
  let r = cell t.self_s name 0. in
  r := !r +. seconds

let count t name n =
  let r = cell t.counts name 0 in
  r := !r + n

let self_s t name = match Hashtbl.find_opt t.self_s name with Some r -> !r | None -> 0.
let counted t name = match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0

(* Sum of every bucket's self time. *)
let total_self_s t = Hashtbl.fold (fun _ r acc -> acc +. !r) t.self_s 0.

(* [span t name f] runs [f] as layer [name]; returns [f]'s result.  The
   duration also counts as child time of the enclosing span. *)
let span t name f =
  if not t.on then f ()
  else begin
    let frame = { child = 0. } in
    t.stack <- frame :: t.stack;
    let t0 = Timer.now () in
    let finish () =
      let d = Timer.now () -. t0 in
      t.stack <- List.tl t.stack;
      (match t.stack with parent :: _ -> parent.child <- parent.child +. d | [] -> ());
      charge t name (d -. frame.child)
    in
    Fun.protect ~finally:finish (fun () -> Telemetry.Span.with_ ~cat:"bench" name f)
  end

(* Move [seconds] of self time from bucket [from_] to bucket [to_]: for a
   call whose inner split (build vs probe) the layer reports itself. *)
let move t ~from_ ~to_ seconds =
  if t.on then begin
    charge t from_ (-.seconds);
    charge t to_ seconds
  end

(* Forget everything recorded so far (warm-up ticks). *)
let reset t =
  Hashtbl.reset t.self_s;
  Hashtbl.reset t.counts
