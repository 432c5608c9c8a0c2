(* Prometheus text exposition (format 0.0.4) over metric rows.

   A row is a dotted metric name, the registry it belongs to and its
   value; the ambient telemetry registry lists as rows, and so do the
   simulation's ledger totals.  Names have non-alphanumerics mapped to
   '_' and an "sgl_" prefix; the registry becomes a [registry="..."]
   label, so the ambient registry and the simulation's totals coexist in
   one scrape.  Histograms render as summaries: the merge-exact
   log-bucket quantiles plus _sum/_count. *)

open Sgl_util

let sanitize (name : string) : string =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let metric_name (name : string) : string = "sgl_" ^ sanitize name

(* Prometheus floats: plain decimal; NaN for undefined. *)
let render_float (v : float) : string =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

type value =
  | Counter of int
  | Summary of Telemetry.histogram_snapshot

type row = { name : string; registry : string; value : value }

let ambient_rows () : row list =
  let row value name = { name; registry = "ambient"; value } in
  List.map (fun (n, v) -> row (Counter v) n) (Telemetry.counters ())
  @ List.map (fun (n, s) -> row (Summary s) n) (Telemetry.histograms ())

(* One # TYPE header per row: every source names its metrics apart
   (the ambient registry never holds a sim.* name), so each name appears
   once, as the exposition format requires. *)
let render (rows : row list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun { name; registry = label; value } ->
      let name = metric_name name in
      match value with
      | Counter v ->
        Printf.bprintf b "# TYPE %s counter\n%s{registry=%S} %d\n" name name label v
      | Summary s ->
        Printf.bprintf b "# TYPE %s summary\n" name;
        List.iter
          (fun (q, v) ->
            Printf.bprintf b "%s{registry=%S,quantile=%S} %s\n" name label q (render_float v))
          [ ("0.5", s.Telemetry.p50); ("0.9", s.Telemetry.p90); ("0.99", s.Telemetry.p99) ];
        Printf.bprintf b "%s_sum{registry=%S} %s\n" name label (render_float s.Telemetry.total);
        Printf.bprintf b "%s_count{registry=%S} %d\n" name label s.Telemetry.count)
    rows;
  Buffer.contents b

let content_type = "text/plain; version=0.0.4"
