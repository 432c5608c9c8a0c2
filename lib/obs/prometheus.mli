(** Prometheus text exposition (format 0.0.4) over metric rows: the
    ambient telemetry registry, and any other source of counters (the
    simulation's ledger totals). *)

open Sgl_util

(** ["sgl_" ^ name] with every character outside [[a-zA-Z0-9_:]] mapped
    to ['_']. *)
val metric_name : string -> string

type value =
  | Counter of int
  | Summary of Telemetry.histogram_snapshot

(** One metric: its dotted name ([sim.deaths]), the registry it belongs
    to (rendered as a [registry="..."] label), and its value. *)
type row = { name : string; registry : string; value : value }

(** Every metric of the ambient registry, labelled [registry="ambient"]:
    counters, then histograms, each sorted by name. *)
val ambient_rows : unit -> row list

(** [render rows] exposes the rows in order, each under its own
    [# TYPE] header; row names must be distinct.  Counters map directly;
    summaries render quantiles 0.5/0.9/0.99 (from
    {!Sgl_util.Stats.percentile}) plus [_sum] and [_count]. *)
val render : row list -> string

(** The Content-Type a scrape endpoint should serve. *)
val content_type : string
