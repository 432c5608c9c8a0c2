(** Unified telemetry: the process-wide metrics registry and a
    Chrome-trace span tracer.

    Metrics and spans are inert until enabled; the disabled fast path is a
    single atomic load per call site (the {!Fault_inject} pattern).
    Counters are atomics, so domain-pool lanes record without locks;
    histograms shard per domain and merge through {!Stats.merge} on read.
    Telemetry never feeds back into simulation state: unit states are
    bit-identical with telemetry on, off, or under EXPLAIN.

    The registry holds what no other layer counts: EXPLAIN's per-instance
    and per-group breakdowns, executor, pool, combiner and durability
    metrics.  Evaluator and engine totals live in the simulation's ledger.
    The metric name catalogue lives in docs/INTERNALS.md ("Telemetry and
    EXPLAIN"). *)

type counter
type histogram

type histogram_snapshot = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  total : float;
  p50 : float;  (** median, from {!Stats.percentile}'s merge-exact log buckets *)
  p90 : float;
  p99 : float;
}

(** Summarize one accumulator; every statistic is [0.] when it is
    empty. *)
val summarize : Stats.t -> histogram_snapshot

module Counter : sig
  val name : counter -> string

  (** One atomic load when the registry is disabled. *)
  val incr : counter -> unit

  val add : counter -> int -> unit
  val value : counter -> int
end

module Histogram : sig
  val name : histogram -> string

  (** Folds into the shard owned by the calling domain (per-shard mutex,
      so lanes rarely contend). *)
  val observe : histogram -> float -> unit

  (** Merge every shard ({!Stats.merge}) and summarize. *)
  val snapshot : histogram -> histogram_snapshot
end

(** {1 JSON fragments}

    Hand-rolled helpers (the toolchain ships no JSON library), shared
    with the observability layer's endpoint bodies. *)

val json_escape : string -> string

(** [json_escape] wrapped in quotes. *)
val json_string : string -> string

(** ["%.6g"]; non-finite floats render as [null]. *)
val json_float : float -> string

(** {1 The registry}

    One process-wide registry: the executor, pool, combiner, durability
    layer and EXPLAIN's breakdowns record here.  Disabled by default. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** Registration is idempotent by name: later calls return the handle the
    first created.  Register eagerly, hold the handle. *)
val counter : string -> counter

val histogram : string -> histogram

(** Zero every metric; registrations (and held handles) stay valid. *)
val reset : unit -> unit

(** Current values, sorted by metric name. *)
val counters : unit -> (string * int) list

val histograms : unit -> (string * histogram_snapshot) list

(** The --metrics document: {"counters": {...}, "histograms": {name:
    {count, mean, stddev, min, max, total, p50, p90, p99}}}. *)
val to_json : unit -> string

val write_json : path:string -> unit

(** The span tracer: one process-wide buffer of (name, category, domain,
    start, duration) tuples, dumped in Chrome trace-event format (load at
    chrome://tracing or ui.perfetto.dev).  Each event's [tid] is the
    recording domain's id, so the parallel decision phase renders one
    timeline row per lane. *)
module Span : sig
  (** Clear the buffer, stamp the time origin, enable recording. *)
  val start : unit -> unit

  val stop : unit -> unit
  val enabled : unit -> bool

  (** Events recorded since [start]. *)
  val count : unit -> int

  (** [with_ name f] runs [f] inside a complete span ([ph:"X"]).  When
      tracing is off this is [f ()] after one atomic load.  The span is
      recorded even when [f] raises (then re-raises). *)
  val with_ : ?cat:string -> string -> (unit -> 'a) -> 'a

  (** A zero-duration marker ([ph:"i"]): faults, rollbacks, demotions. *)
  val instant : ?cat:string -> string -> unit

  val to_json : unit -> string
  val write : path:string -> unit
end
