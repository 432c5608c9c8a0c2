(** The live observability layer over one running simulation: installs
    the per-commit observer (flight recorder, optional streaming dump
    sink, committed-tick query snapshot) and serves the six diagnostic
    endpoints — [/metrics] (Prometheus), [/stats] (JSON report +
    ambient registry), [/ticks] (flight tail), [/explain] (live-annotated
    plans), [/health] (readiness + anomaly flags), [/query] (read-only
    SGL aggregate over the last committed tick). *)

open Sgl_lang
open Sgl_engine

type t

(** [create ~sim ~prog ()] installs the observer on [sim].
    [flight_capacity] bounds the ring (default 1024 ticks); [dump_path],
    when given, additionally streams every record to that file, flushed
    per frame, so a SIGKILL still leaves a loadable dump. *)
val create :
  ?flight_capacity:int -> ?dump_path:string -> sim:Simulation.t -> prog:Core_ir.program ->
  unit -> t

val flight : t -> Flight.t

(** One-shot dump of the ring's current contents. *)
val dump : t -> path:string -> unit

(** The endpoint dispatcher, exposed for in-process tests. *)
val handler : t -> Server.handler

(** Start the HTTP server (idempotent); returns the bound port (pass
    [port:0] for an ephemeral one). *)
val serve : t -> port:int -> int

(** Uninstall the observer, close the sink, stop the server. *)
val stop : t -> unit
