(* Prometheus text exposition (format 0.0.4) over metric rows.

   A row is a dotted metric name, the registry it belongs to and its
   value; a telemetry registry lists as rows, and so do the simulation's
   ledger totals.  Names have non-alphanumerics mapped to '_' and an
   "sgl_" prefix; the registry becomes a [registry="..."] label, so the
   ambient process-wide registry and the simulation's totals coexist in
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
  | Gauge of float
  | Summary of Telemetry.histogram_snapshot

type row = { name : string; registry : string; value : value }

let registry_rows (registry : string) (reg : Telemetry.Registry.t) : row list =
  let row value name = { name; registry; value } in
  List.map (fun (n, v) -> row (Counter v) n) (Telemetry.Registry.counters reg)
  @ List.map (fun (n, v) -> row (Gauge v) n) (Telemetry.Registry.gauges reg)
  @ List.map (fun (n, s) -> row (Summary s) n) (Telemetry.Registry.histograms reg)

(* Group by metric name across registries so each # TYPE header appears
   exactly once, as the exposition format requires. *)
let render (rows : row list) : string =
  let by_name : (string, (string * value) list ref) Hashtbl.t = Hashtbl.create 64 in
  let order : string list ref = ref [] in
  List.iter
    (fun { name; registry; value } ->
      let name = metric_name name in
      match Hashtbl.find_opt by_name name with
      | Some cell -> cell := (registry, value) :: !cell
      | None ->
        Hashtbl.add by_name name (ref [ (registry, value) ]);
        order := name :: !order)
    rows;
  let b = Buffer.create 4096 in
  List.iter
    (fun name ->
      let entries = List.rev !(Hashtbl.find by_name name) in
      let ty =
        match entries with
        | (_, Counter _) :: _ -> "counter"
        | (_, Gauge _) :: _ -> "gauge"
        | (_, Summary _) :: _ -> "summary"
        | [] -> "untyped"
      in
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name ty);
      List.iter
        (fun (label, value) ->
          match value with
          | Counter v -> Buffer.add_string b (Printf.sprintf "%s{registry=%S} %d\n" name label v)
          | Gauge v ->
            Buffer.add_string b (Printf.sprintf "%s{registry=%S} %s\n" name label (render_float v))
          | Summary s ->
            List.iter
              (fun (q, v) ->
                Buffer.add_string b
                  (Printf.sprintf "%s{registry=%S,quantile=%S} %s\n" name label q (render_float v)))
              [ ("0.5", s.Telemetry.p50); ("0.9", s.Telemetry.p90); ("0.99", s.Telemetry.p99) ];
            Buffer.add_string b
              (Printf.sprintf "%s_sum{registry=%S} %s\n" name label (render_float s.Telemetry.total));
            Buffer.add_string b
              (Printf.sprintf "%s_count{registry=%S} %d\n" name label s.Telemetry.count))
        entries)
    (List.rev !order);
  Buffer.contents b

let content_type = "text/plain; version=0.0.4"
